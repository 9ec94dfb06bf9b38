//! The supervisor: heartbeats out, verdicts in, takeovers executed.
//!
//! One supervisor runs on the driver (the coordinating machine, which
//! also hosts the naming directory — machine 0 is the supervision root
//! and is not itself supervised). Like the placement `Balancer` it is a
//! step-driven controller: [`Supervisor::step`] pumps heartbeats, reaps
//! their replies, and when a machine has let a heartbeat go a whole lease
//! unanswered *and* its serving lease has verifiably lapsed — `lease_ttl`
//! since its last acknowledged heartbeat — reactivates every registered
//! object of that machine from its replicated snapshot on a surviving
//! backup.
//!
//! ## Why the lease gate
//!
//! Silence can mislead — a partition looks exactly like a crash from
//! here. Safety therefore never rests on detection alone. Every
//! supervised object is enrolled for epoch fencing on its home machine,
//! and that machine's willingness to serve it is a *lease* renewed only
//! by our heartbeats. When we stop hearing a machine, it has also stopped
//! hearing us: by the time `lease_ttl` has passed since its last
//! acknowledged heartbeat, the machine — alive or not — is refusing calls
//! to supervised objects with [`Fenced`](oopp::RemoteError::Fenced).
//! Taking over after that point cannot split the brain: the old
//! incarnation is self-fenced, the new one carries a higher epoch won by
//! the directory's CAS ([`NameService::recover`]), and stale pointers
//! learn the new epoch from the fence replies.
//!
//! ## Resurrection
//!
//! A machine declared dead is probed (lease-neutral pings, never
//! heartbeats — its lease must stay expired). If it answers, the
//! suspicion was false: the supervisor first *re-fences* every object it
//! took away — the resurrected machine destroys its stale incarnations
//! and forwards to the new homes — and only once every fence has been
//! acknowledged does the machine rejoin as Up and receive lease-renewing
//! heartbeats again. The ordering is the whole point: resuming heartbeats
//! first would revive the old incarnations' lease while two copies exist.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use oopp::{
    CallPolicy, EventKind, NameService, NodeCtx, ObjRef, RemoteClient, RemoteResult, Takeover,
};
use placement::{probe_loads, rank_by_load};

/// Heartbeat (and dead-machine probe) period, and the pause between
/// takeover attempts.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

/// Attempts a takeover makes before it poisons the name (no live backup,
/// activation refused, snapshot missing), one [`HEARTBEAT_INTERVAL`]
/// apart; the supervisor keeps serving while it waits.
const TAKEOVER_ATTEMPTS: u32 = 3;

/// Lifetime counters of one supervisor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Suspicion episodes: a machine's first heartbeat that went a whole
    /// lease unanswered since its last acknowledged one.
    pub suspicions_raised: u64,
    /// Machines that answered probes after being declared dead. This is
    /// the supervisor's observable false-positive count, with one caveat: a
    /// machine that genuinely crashed and was later restarted also lands
    /// here — from the supervisor's seat the two are indistinguishable,
    /// and both require the same re-fencing before rejoin.
    pub false_suspicions: u64,
    /// Machines declared dead (takeover initiated).
    pub machines_declared_dead: u64,
    /// Objects successfully reactivated on a survivor.
    pub objects_reactivated: u64,
    /// Takeovers that exhausted their attempts.
    pub recoveries_failed: u64,
    /// Names poisoned after a failed recovery.
    pub names_poisoned: u64,
    /// Control-loop stalls absorbed: step gaps long enough that the
    /// supervisor, not the fabric, starved machines of heartbeat
    /// opportunities. Convictions ride out such gaps because they also
    /// require a fully expired heartbeat as evidence.
    pub stalls_absorbed: u64,
}

/// One completed takeover, as reported by [`Supervisor::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Symbolic name of the recovered object.
    pub name: String,
    /// Machine it was lost with.
    pub from: usize,
    /// Its new incarnation.
    pub to: ObjRef,
    /// The new incarnation's fencing epoch.
    pub epoch: u64,
    /// Detection latency: time from the machine's last acknowledged
    /// heartbeat to the conviction. An upper bound on true detection
    /// time — the crash happened somewhere inside this window.
    pub detect: Duration,
    /// Full MTTR: `detect` plus the reactivation work (claim, choose
    /// survivor, restore snapshot, rebind).
    pub total: Duration,
}

#[derive(Debug)]
struct Registration {
    name: String,
    class: &'static str,
    current: ObjRef,
    epoch: u64,
    backups: Vec<usize>,
    /// Every address this object has been lost at, oldest first. Each
    /// takeover re-points the forwarding stubs on all *live* prior homes
    /// at the newest incarnation, so a client holding an arbitrarily old
    /// pointer still reaches the object in one forward hop instead of
    /// walking a chain through machines that may since have died.
    history: Vec<ObjRef>,
}

#[derive(Debug)]
enum MState {
    Up,
    Dead {
        /// Indices of registrations taken away from this machine; kept so
        /// a resurrection can re-fence their stale incarnations here
        /// before the machine rejoins.
        taken: Vec<usize>,
        seen_alive: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BeatKind {
    /// Lease-renewing heartbeat (only sent to Up machines).
    Beat,
    /// Lease-neutral liveness probe (only sent to Dead machines).
    Probe,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    machine: usize,
    kind: BeatKind,
    /// Cluster-clock nanos at send time (virtual nanos under virtual time).
    sent: u64,
}

/// A takeover to run: registration `reg`, lost with machine `dead`,
/// detected `detect` after its last acknowledged heartbeat and first tried
/// at cluster-clock nanos `begun`.
#[derive(Debug, Clone, Copy)]
struct Loss {
    reg: usize,
    dead: usize,
    detect: Duration,
    begun: u64,
}

/// Step-driven self-healing controller. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct Supervisor {
    /// Serving-lease lifetime granted by each heartbeat.
    lease_ttl: Duration,
    machines: Vec<usize>,
    dir: NameService,
    /// Offset of each machine's last acknowledged heartbeat (or, after a
    /// resurrection, of its readmission). A machine with no entry counts
    /// its silence from the supervisor's origin.
    last_ack: HashMap<usize, Duration>,
    /// Clock origin in cluster-clock nanos, anchored at the first `step`
    /// (the constructor has no `NodeCtx`, hence no clock to read).
    start: Option<u64>,
    state: HashMap<usize, MState>,
    /// Cluster-clock nanos of the previous `step` entry, for spotting
    /// control-loop stalls (a takeover or dead-shard purge can hold one
    /// step for hundreds of milliseconds).
    last_step: Option<u64>,
    /// Machines with a fully expired heartbeat on record: a beat was
    /// sent (stamped at actual send time), a whole lease elapsed, and no
    /// reply had arrived when it was reaped. Cleared by any acknowledged
    /// heartbeat. This is the conviction evidence that survives
    /// control-loop stalls: replies are always collected before a beat
    /// is abandoned, so a live machine's ack lands even when the reap
    /// itself is late.
    beat_expired: HashSet<usize>,
    last_sent: HashMap<usize, u64>,
    in_flight: BTreeMap<u64, InFlight>,
    regs: Vec<Registration>,
    /// Takeovers that answered [`Takeover::Lost`] — another claim holds the
    /// name, lost or refused ours, while the record still names the dead
    /// machine — each with the cluster-clock nanos it is tried again at:
    /// that claimant may give up — a resolver with no live candidate — and
    /// leave the name claimed and bound to the corpse.
    lost_claims: Vec<(Loss, u64)>,
    stats: SupervisionStats,
}

impl Supervisor {
    /// A supervisor for `machines`, arbitrating takeovers through the
    /// naming directory `dir`. The driver's own machine (and the
    /// directory's) must not be in `machines`: the supervision root
    /// cannot fail over itself.
    ///
    /// Each heartbeat grants a serving lease of `lease_ttl`. It must
    /// comfortably exceed [`HEARTBEAT_INTERVAL`] (several missed beats
    /// should not expire a healthy machine's lease), and it bounds how
    /// early a takeover may start after the last acknowledged heartbeat.
    pub fn new(lease_ttl: Duration, machines: Vec<usize>, dir: NameService) -> Self {
        let state = machines.iter().map(|&m| (m, MState::Up)).collect();
        Supervisor {
            last_ack: HashMap::new(),
            lease_ttl,
            machines,
            dir,
            start: None,
            state,
            last_step: None,
            beat_expired: HashSet::new(),
            last_sent: HashMap::new(),
            in_flight: BTreeMap::new(),
            regs: Vec::new(),
            lost_claims: Vec::new(),
            stats: SupervisionStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SupervisionStats {
        self.stats
    }

    /// Offset from this supervisor's first step of `machine`'s last
    /// acknowledged heartbeat (or of its readmission after a resurrection);
    /// `None` until one is acknowledged.
    pub fn last_heartbeat(&self, machine: usize) -> Option<Duration> {
        self.last_ack.get(&machine).copied()
    }

    /// Is `machine` currently declared dead?
    pub fn is_dead(&self, machine: usize) -> bool {
        matches!(self.state.get(&machine), Some(MState::Dead { .. }))
    }

    /// Current address of a supervised name, per this supervisor's view.
    pub fn current_of(&self, name: &str) -> Option<ObjRef> {
        self.regs.iter().find(|r| r.name == name).map(|r| r.current)
    }

    /// Place `client` under supervision as `name`: replicate its snapshot
    /// to `backups`, record (or inherit) a fencing epoch in the
    /// directory, and enroll the live incarnation for epoch checks on its
    /// home machine. From this point a crash of the home machine is
    /// recoverable and a lease lapse self-fences the object.
    pub fn register<C: RemoteClient>(
        &mut self,
        ctx: &mut NodeCtx,
        name: &str,
        client: &C,
        backups: &[usize],
    ) -> RemoteResult<()> {
        let dir = self.dir;
        ctx.replicate_snapshot(client, name, backups)?;
        let epoch = match dir.lease_of(ctx, name.to_string())? {
            Some((_, e, _)) => e.max(1),
            None => 1,
        };
        dir.bind_fenced(ctx, name.to_string(), client.obj_ref(), epoch)?;
        ctx.set_epoch_of(client.obj_ref(), epoch)?;
        self.regs.push(Registration {
            name: name.to_string(),
            class: C::CLASS,
            current: client.obj_ref(),
            epoch,
            backups: backups.to_vec(),
            history: Vec::new(),
        });
        Ok(())
    }

    /// Refresh the replicated snapshots of every supervised object whose
    /// machine is Up. Recovery restores the *last replicated* state, so
    /// call this at workload checkpoints; an object busy mid-call is
    /// skipped (best effort). Returns how many objects were refreshed.
    pub fn checkpoint(&mut self, ctx: &mut NodeCtx) -> usize {
        let mut refreshed = 0;
        let live: Vec<usize> = (0..self.regs.len())
            .filter(|&i| self.is_up(self.regs[i].current.machine))
            .collect();
        for i in live {
            let (current, class) = (self.regs[i].current, self.regs[i].class);
            let name = self.regs[i].name.clone();
            let backups = self.regs[i].backups.clone();
            let Ok(state) = ctx.snapshot_of(current) else {
                continue;
            };
            let mut ok = true;
            for b in backups {
                let (key, class) = (name.clone(), class.to_string());
                if b != current.machine && ctx.put_snapshot(b, key, class, state.clone()).is_err() {
                    ok = false;
                }
            }
            if ok {
                refreshed += 1;
            }
        }
        refreshed
    }

    /// One control round: pump heartbeats and probes, reap their replies,
    /// execute takeovers for machines convicted with a lapsed lease, and
    /// advance resurrections. Returns the takeovers completed this round.
    ///
    /// Errors are remote-fatal only: an unreachable *directory* aborts
    /// the step (the arbiter is gone; nothing safe can happen). Failures
    /// against supervised machines are the expected input, not errors.
    pub fn step(&mut self, ctx: &mut NodeCtx) -> RemoteResult<Vec<Recovery>> {
        let now = ctx.now_nanos();
        self.start.get_or_insert(now);
        // A gap between steps longer than half a lease means the control
        // loop itself stalled (a takeover, a purge against a corpse) and
        // starved every machine of heartbeat opportunities. Counted for
        // observability; convictions stay safe through stalls because
        // they require a fully expired heartbeat as evidence, and reap
        // collects replies before it abandons anything.
        if let Some(prev) = self.last_step {
            if now.saturating_sub(prev) > self.lease_ttl.as_nanos() as u64 / 2 {
                self.stats.stalls_absorbed += 1;
            }
        }
        self.last_step = Some(now);
        ctx.poll();
        self.reap(ctx, now);
        let mut recoveries = Vec::new();
        for m in self.machines.clone() {
            match self.state.get(&m) {
                Some(MState::Up) => {
                    self.pump(ctx, m, now, BeatKind::Beat);
                    self.judge(ctx, m, now, &mut recoveries)?;
                }
                Some(MState::Dead { seen_alive, .. }) => {
                    if *seen_alive {
                        self.advance_resurrection(ctx, m);
                    } else {
                        self.pump(ctx, m, now, BeatKind::Probe);
                    }
                }
                None => {}
            }
        }
        self.retry_lost_claims(ctx, now, &mut recoveries)?;
        Ok(recoveries)
    }

    /// Offset of cluster-clock instant `t` from this supervisor's origin.
    fn offset(&self, t: u64) -> Duration {
        Duration::from_nanos(t.saturating_sub(self.start.unwrap_or(0)))
    }

    /// Collect heartbeat/probe replies in request order; expire requests
    /// nothing will answer. A reply that is an *error* (the fabric is up but
    /// the daemon refused) still proves the machine is alive — it counts.
    /// A machine's first heartbeat to expire since its last ack raises a
    /// suspicion.
    fn reap(&mut self, ctx: &mut NodeCtx, now: u64) {
        let ids: Vec<u64> = self.in_flight.keys().copied().collect();
        for id in ids {
            let Some(fl) = self.in_flight.get(&id).copied() else {
                continue;
            };
            if ctx.try_take_reply(id).is_some() {
                self.in_flight.remove(&id);
                match fl.kind {
                    BeatKind::Beat => {
                        self.last_ack.insert(fl.machine, self.offset(now));
                        self.beat_expired.remove(&fl.machine);
                    }
                    BeatKind::Probe => self.note_resurrection(ctx, fl.machine),
                }
            } else if now.saturating_sub(fl.sent) > self.lease_ttl.as_nanos() as u64 {
                ctx.abandon_call(id);
                self.in_flight.remove(&id);
                // A whole lease passed since the actual send and the
                // reply slot is still empty *at this poll*: that is a
                // complete, stall-immune round-trip opportunity the
                // machine failed. Conviction evidence.
                if fl.kind == BeatKind::Beat && self.beat_expired.insert(fl.machine) {
                    self.stats.suspicions_raised += 1;
                    let silent = self.silence(fl.machine, now).as_millis();
                    let millis = silent.min(u32::MAX as u128) as u32;
                    ctx.trace_marker(EventKind::SuspectRaised, fl.machine, millis);
                }
            }
        }
    }

    /// Send the next heartbeat or probe to `m` if its period elapsed.
    fn pump(&mut self, ctx: &mut NodeCtx, m: usize, now: u64, kind: BeatKind) {
        let due = match self.last_sent.get(&m) {
            Some(&t) => now.saturating_sub(t) >= HEARTBEAT_INTERVAL.as_nanos() as u64,
            None => true,
        };
        if !due {
            return;
        }
        let started = match kind {
            BeatKind::Beat => {
                let ttl = self.lease_ttl.as_millis() as u64;
                ctx.start_heartbeat(m, ttl)
            }
            // Probes must not renew the lease: a plain daemon ping.
            BeatKind::Probe => ctx.start_ping(m),
        };
        // Stamp with the *actual* send time, not the step's entry time: a
        // stall earlier in this step (a takeover on another machine) must
        // not age this beat before it is even on the wire, or `reap`
        // would abandon it with its reply already in flight.
        let sent = ctx.now_nanos();
        self.last_sent.insert(m, sent);
        if let Ok(beat) = started {
            self.in_flight.insert(
                beat.req_id(),
                InFlight {
                    machine: m,
                    kind,
                    sent,
                },
            );
        }
        // A synchronous send failure (machine thread gone) records no beat:
        // the silence since the last ack keeps growing on its own.
    }

    /// Time from `m`'s last acknowledged heartbeat (the origin, if none)
    /// to cluster-clock instant `now`.
    fn silence(&self, m: usize, now: u64) -> Duration {
        let last = self.last_ack.get(&m).copied().unwrap_or_default();
        self.offset(now).saturating_sub(last)
    }

    /// Convict an Up machine, and take its objects over, once its lease has
    /// verifiably lapsed: `lease_ttl` without an acknowledged heartbeat, at
    /// which point it is self-fenced whether dead or merely unreachable.
    /// Conviction also requires a fully expired heartbeat — one this
    /// supervisor sent, waited a whole lease on, and found unanswered at a
    /// poll. Silence alone is not enough: a control-loop stall (a takeover,
    /// a purge against a corpse) starves live machines of ack
    /// opportunities, and the silence the supervisor caused is not evidence
    /// against them.
    fn judge(
        &mut self,
        ctx: &mut NodeCtx,
        m: usize,
        now: u64,
        recoveries: &mut Vec<Recovery>,
    ) -> RemoteResult<()> {
        let detect = self.silence(m, now);
        if self.beat_expired.contains(&m) && detect >= self.lease_ttl {
            self.declare_dead(ctx, m, detect, recoveries)?;
        }
        Ok(())
    }

    fn declare_dead(
        &mut self,
        ctx: &mut NodeCtx,
        m: usize,
        detect: Duration,
        recoveries: &mut Vec<Recovery>,
    ) -> RemoteResult<()> {
        self.stats.machines_declared_dead += 1;
        ctx.trace_marker(EventKind::MachineDeclaredDead, m, 0);
        // Our own routing caches must not send anyone *to* the corpse:
        // drop forwarding-chase, resolution, and replica-route entries
        // targeting it.
        ctx.forget_machine(m);
        // The directory's replica-set records must not advertise replicas
        // on the corpse either: a resolver that refreshed its read route
        // from a stale record would aim reads at the dead machine. The
        // purge bumps each affected record's replica-set epoch, so live
        // replicas re-fence on their next sync. Probe policy: on a
        // sharded directory the purge fans out to every partition, and a
        // partition seated on the corpse must cost one short window, not
        // a full retry cycle that starves everyone else's heartbeats.
        let saved = ctx.call_policy();
        ctx.set_call_policy(CallPolicy::probe(self.lease_ttl));
        let purged = self.dir.purge_replicas_on(ctx, m);
        ctx.set_call_policy(saved);
        purged?;
        let mut taken = Vec::new();
        let lost: Vec<usize> = (0..self.regs.len())
            .filter(|&i| self.regs[i].current.machine == m)
            .collect();
        for reg in lost {
            let begun = ctx.now_nanos();
            let loss = Loss {
                reg,
                dead: m,
                detect,
                begun,
            };
            if self.recover(ctx, loss, recoveries)? {
                taken.push(reg);
            }
        }
        self.state.insert(
            m,
            MState::Dead {
                taken,
                seen_alive: false,
            },
        );
        Ok(())
    }

    /// Take registration `loss.reg` away from its dead machine through the
    /// directory's takeover transaction, [`NameService::recover`], placing
    /// the new incarnation on the least-loaded live backup, and account for
    /// the outcome. True when this supervisor moved it.
    fn recover(
        &mut self,
        ctx: &mut NodeCtx,
        loss: Loss,
        recoveries: &mut Vec<Recovery>,
    ) -> RemoteResult<bool> {
        let (dir, i, m) = (self.dir, loss.reg, loss.dead);
        let name = self.regs[i].name.clone();
        let read = dir.lease_of(ctx, name.clone())?;
        let place = |ctx: &mut NodeCtx, epoch| {
            let targets = self.rank_survivors(ctx, &self.regs[i].backups, m);
            for attempt in 0..TAKEOVER_ATTEMPTS {
                if attempt > 0 {
                    ctx.serve_for(HEARTBEAT_INTERVAL);
                }
                for &target in &targets {
                    if let Ok(fresh) = ctx.activate_fenced_raw(target, &name, epoch) {
                        return Some(fresh);
                    }
                }
            }
            None
        };
        let live = |_: &mut NodeCtx, at: ObjRef| self.is_up(at.machine);
        let (fresh, epoch) = match dir.recover(ctx, &name, m, read, place, live)? {
            Takeover::Bound { at, epoch } => (at, epoch),
            Takeover::Recovered { at, epoch } => {
                // A client's supervised resolution or a replica promotion
                // beat us to it; adopt.
                self.regs[i].current = at;
                self.regs[i].epoch = epoch;
                return Ok(false);
            }
            Takeover::Lost => {
                let retry = ctx.now_nanos() + self.lease_ttl.as_nanos() as u64;
                self.lost_claims.push((loss, retry));
                return Ok(false);
            }
            Takeover::Won { .. } => {
                // Every attempt failed: the name is unrecoverable. Poison it
                // so resolvers stop exhuming it, and say so in the stats.
                dir.poison(ctx, name)?;
                self.stats.recoveries_failed += 1;
                self.stats.names_poisoned += 1;
                return Ok(false);
            }
            Takeover::Gone => return Ok(false),
        };
        // Keep every *live* old home forwarding straight to the newest
        // incarnation — without this, a pointer from two takeovers ago would
        // chase a forward into the machine that died in between.
        for &h in &self.regs[i].history {
            if h.machine != m && self.is_up(h.machine) {
                let _ = ctx.fence_object(h, epoch, fresh);
            }
        }
        let reg = &mut self.regs[i];
        reg.history.push(reg.current);
        reg.current = fresh;
        reg.epoch = epoch;
        let total = loss.detect + Duration::from_nanos(ctx.now_nanos().saturating_sub(loss.begun));
        self.stats.objects_reactivated += 1;
        let micros = total.as_micros().min(u32::MAX as u128) as u32;
        ctx.trace_marker(EventKind::ObjectReactivated, m, micros);
        recoveries.push(Recovery {
            name,
            from: m,
            to: fresh,
            epoch,
            detect: loss.detect,
            total,
        });
        Ok(true)
    }

    /// Try again each takeover a rival's claim beat a lease ago, while its
    /// machine is still dead: the rival has had a lease to bind, and
    /// [`NameService::recover`] adopts what it bound, or claims the name at
    /// the epoch the rival left it at. A bind refused in between stands
    /// down (DESIGN §10.3), so the retry cannot leave two live incarnations.
    fn retry_lost_claims(
        &mut self,
        ctx: &mut NodeCtx,
        now: u64,
        recoveries: &mut Vec<Recovery>,
    ) -> RemoteResult<()> {
        let state = &self.state;
        let (due, later): (Vec<_>, _) = std::mem::take(&mut self.lost_claims)
            .into_iter()
            .filter(|(loss, _)| matches!(state.get(&loss.dead), Some(MState::Dead { .. })))
            .partition(|&(_, at)| at <= now);
        self.lost_claims = later;
        for (loss, _) in due {
            if self.recover(ctx, loss, recoveries)? {
                if let Some(MState::Dead { taken, .. }) = self.state.get_mut(&loss.dead) {
                    taken.push(loss.reg);
                }
            }
        }
        Ok(())
    }

    /// The live backups of a registration, least loaded first, excluding
    /// the dead machine and anything else not currently Up. Runs under a
    /// probe call policy: a backup that just died must cost one short
    /// window, not a full retry cycle.
    fn rank_survivors(&self, ctx: &mut NodeCtx, backups: &[usize], dead: usize) -> Vec<usize> {
        let saved = ctx.call_policy();
        ctx.set_call_policy(CallPolicy::probe(self.lease_ttl));
        let up = backups
            .iter()
            .copied()
            .filter(|&b| b != dead && self.is_up(b));
        let ranked = rank_by_load(&probe_loads(ctx, up));
        ctx.set_call_policy(saved);
        ranked
    }

    /// Is `machine` Up, or not supervised by this supervisor at all?
    fn is_up(&self, machine: usize) -> bool {
        matches!(self.state.get(&machine), None | Some(MState::Up))
    }

    /// A probe reply arrived from a machine we declared dead.
    fn note_resurrection(&mut self, ctx: &mut NodeCtx, m: usize) {
        if let Some(MState::Dead { seen_alive, .. }) = self.state.get_mut(&m) {
            if !*seen_alive {
                *seen_alive = true;
                self.stats.false_suspicions += 1;
                ctx.trace_marker(EventKind::FalseSuspicion, m, 0);
            }
        }
    }

    /// Drive a resurrected machine back to Up: re-fence its stale
    /// incarnations (each fence makes the machine destroy its copy and
    /// forward to the takeover home), and only when none remain, readmit
    /// it. Until then it gets no
    /// heartbeats, so its lease stays expired — the safety net under any
    /// fence we could not yet deliver.
    fn advance_resurrection(&mut self, ctx: &mut NodeCtx, m: usize) {
        let Some(MState::Dead { taken, .. }) = self.state.get(&m) else {
            return;
        };
        let pending = taken.clone();
        let mut remaining = Vec::new();
        for t in pending {
            let reg = &self.regs[t];
            // Every incarnation this object ever had on the resurrected
            // machine must forward to wherever it lives *now* — the
            // registration may have moved on again (double failure) since
            // this machine last saw it.
            let stale: Vec<ObjRef> = reg
                .history
                .iter()
                .copied()
                .filter(|h| h.machine == m)
                .collect();
            let fenced = reg.current.machine != m
                && stale
                    .iter()
                    .all(|&h| ctx.fence_object(h, reg.epoch, reg.current).is_ok());
            if !fenced {
                remaining.push(t);
            }
        }
        let done = remaining.is_empty();
        if let Some(MState::Dead { taken, .. }) = self.state.get_mut(&m) {
            *taken = remaining;
        }
        if done {
            // The probe replies that proved the resurrection are liveness
            // evidence: the readmitted machine's silence counts from now,
            // not from its last heartbeat before the death.
            self.last_ack.insert(m, self.offset(ctx.now_nanos()));
            self.last_sent.remove(&m);
            // Stale expiry evidence from the death must not convict the
            // readmitted machine before its first fresh heartbeat.
            self.beat_expired.remove(&m);
            self.state.insert(m, MState::Up);
        }
    }
}
