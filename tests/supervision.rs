//! Self-healing suite (DESIGN.md §10).
//!
//! Exercises the supervision stack end to end: heartbeat failure
//! detection on lease evidence, epoch-fenced takeover of a
//! crashed machine's objects from replicated snapshots, lease-based
//! self-fencing under a partition-induced *false* suspicion (zero
//! split-brain writes), the CAS-arbitrated recovery race (exactly one
//! activation no matter how many clients notice the crash), stale
//! moved-cache invalidation when a forward's target dies, and takeovers
//! that poison unrecoverable names after three attempts.

use std::time::{Duration, Instant};

use oopp_repro::oopp::{
    join, resolve_or_activate_supervised, symbolic_addr, wire, Backoff, CallPolicy, ClusterBuilder,
    Driver, EventKind, NameService, NodeCtx, ObjRef, RemoteClient, RemoteError, RemoteResult,
};
use oopp_repro::simnet::ClusterConfig;
use supervision::{Supervisor, HEARTBEAT_INTERVAL};

/// Persistent, deliberately non-idempotent counter: every recovered total
/// is evidence about exactly-once execution and snapshot fidelity.
#[derive(Debug, Default)]
pub struct PCounter {
    total: u64,
}

oopp_repro::oopp::remote_class! {
    class PCounter {
        persistent;
        ctor();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
        /// Current total.
        fn total(&mut self) -> u64;
    }
}

impl PCounter {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(PCounter::default())
    }

    fn add(&mut self, _ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        self.total += n;
        Ok(self.total)
    }

    fn total(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.total)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.total)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        Ok(PCounter {
            total: wire::from_bytes(state)?,
        })
    }
}

/// A worker-side recoverer: runs the supervised resolution *on its own
/// machine*, so two of these on different machines genuinely race for the
/// takeover claim in parallel threads.
#[derive(Debug)]
pub struct Reviver;

oopp_repro::oopp::remote_class! {
    class Reviver {
        ctor();
        /// Resolve `addr` under supervision (activating from a replica if
        /// the home is dead) and return the resolved address.
        fn revive(&mut self, dir: ObjRef, addr: String, candidates: Vec<usize>) -> ObjRef;
    }
}

impl Reviver {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Reviver)
    }

    fn revive(
        &mut self,
        ctx: &mut NodeCtx,
        dir: ObjRef,
        addr: String,
        candidates: Vec<usize>,
    ) -> RemoteResult<ObjRef> {
        let dir = NameService::classic(dir);
        let c: PCounterClient = resolve_or_activate_supervised(ctx, &dir, &addr, &candidates)?;
        Ok(c.obj_ref())
    }
}

/// A persistent counter whose restore claims its own name once more, once
/// armed: a second claimant landing between a takeover's claim and its
/// `bind_fenced`, at a point no schedule can move.
#[derive(Debug, Default)]
pub struct Contested {
    total: u64,
    /// The directory root and the name a restore of this state claims.
    rival: Option<(ObjRef, String)>,
}

oopp_repro::oopp::remote_class! {
    class Contested {
        persistent;
        ctor();
        /// Make each later restore of this state claim `name` in `dir`.
        fn arm(&mut self, dir: ObjRef, name: String) -> ();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
    }
}

impl Contested {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Contested::default())
    }

    fn arm(&mut self, _ctx: &mut NodeCtx, dir: ObjRef, name: String) -> RemoteResult<()> {
        self.rival = Some((dir, name));
        Ok(())
    }

    fn add(&mut self, _ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        self.total += n;
        Ok(self.total)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&(self.total, self.rival.clone()))
    }

    fn load_state(ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let (total, rival): (u64, Option<(ObjRef, String)>) = wire::from_bytes(state)?;
        if let Some((dir, name)) = rival {
            let dir = NameService::classic(dir);
            if let Some((_, epoch, _)) = dir.lease_of(ctx, name.clone())? {
                dir.claim(ctx, name, epoch)?;
            }
        }
        Ok(Contested { total, rival: None })
    }
}

/// A directory in front of the real one which, armed with a name, lets a
/// rival claimant win that name's claim between a takeover's read of the
/// lease and its own claim — or, armed for the bind, between the takeover's
/// claim and its `bind_fenced` — at a point no schedule can move. The rival
/// is a `resolve_or_activate_supervised` caller that found the home dead,
/// won the claim and had no live candidate to activate: it leaves the name
/// claimed and still bound to the dead machine.
#[derive(Debug)]
pub struct Strander {
    dir: NameService,
    armed: Option<String>,
    armed_bind: Option<String>,
}

oopp_repro::oopp::remote_class! {
    class Strander {
        ctor(dir: ObjRef);
        /// Strand `name` at the next claim of it.
        fn arm(&mut self, name: String) -> ();
        /// Strand `name` at the next fenced bind of it.
        fn arm_bind(&mut self, name: String) -> ();
        /// The directory's verbs a supervisor calls, passed on.
        fn lease_of(&mut self, name: String) -> Option<(ObjRef, u64, bool)>;
        fn claim(&mut self, name: String, expect: u64) -> Option<u64>;
        fn bind_fenced(&mut self, name: String, target: ObjRef, epoch: u64) -> bool;
        fn poison(&mut self, name: String) -> ();
        fn purge_replicas_on(&mut self, machine: usize) -> usize;
    }
}

impl Strander {
    pub fn new(_ctx: &mut NodeCtx, dir: ObjRef) -> RemoteResult<Self> {
        let dir = NameService::classic(dir);
        Ok(Strander {
            dir,
            armed: None,
            armed_bind: None,
        })
    }

    fn arm(&mut self, _ctx: &mut NodeCtx, name: String) -> RemoteResult<()> {
        self.armed = Some(name);
        Ok(())
    }

    fn arm_bind(&mut self, _ctx: &mut NodeCtx, name: String) -> RemoteResult<()> {
        self.armed_bind = Some(name);
        Ok(())
    }

    fn lease_of(
        &mut self,
        ctx: &mut NodeCtx,
        name: String,
    ) -> RemoteResult<Option<(ObjRef, u64, bool)>> {
        self.dir.lease_of(ctx, name)
    }

    fn claim(&mut self, ctx: &mut NodeCtx, name: String, expect: u64) -> RemoteResult<Option<u64>> {
        if self.armed.as_ref() == Some(&name) {
            self.armed = None;
            self.dir.claim(ctx, name.clone(), expect)?;
        }
        self.dir.claim(ctx, name, expect)
    }

    fn bind_fenced(
        &mut self,
        ctx: &mut NodeCtx,
        name: String,
        target: ObjRef,
        epoch: u64,
    ) -> RemoteResult<bool> {
        if self.armed_bind.as_ref() == Some(&name) {
            self.armed_bind = None;
            if let Some((_, now, _)) = self.dir.lease_of(ctx, name.clone())? {
                self.dir.claim(ctx, name.clone(), now)?;
            }
        }
        self.dir.bind_fenced(ctx, name, target, epoch)
    }

    fn poison(&mut self, ctx: &mut NodeCtx, name: String) -> RemoteResult<()> {
        self.dir.poison(ctx, name)
    }

    fn purge_replicas_on(&mut self, ctx: &mut NodeCtx, machine: usize) -> RemoteResult<usize> {
        self.dir.purge_replicas_on(ctx, machine)
    }
}

/// Fast-failure call policy for supervision tests: dead machines must
/// cost short windows, not 30-second defaults.
fn test_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(100))
        .with_max_retries(2)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)))
}

/// A lease long enough that a scheduler hiccup on the test thread cannot
/// expire it.
const LEASE_TTL: Duration = Duration::from_millis(150);

/// Step the supervisor until `done` says so (or panic after `limit`),
/// collecting every completed recovery along the way.
fn settle(
    sup: &mut Supervisor,
    driver: &mut Driver,
    limit: Duration,
    mut done: impl FnMut(&Supervisor, &[supervision::Recovery]) -> bool,
) -> Vec<supervision::Recovery> {
    let deadline = Instant::now() + limit;
    let mut recoveries = Vec::new();
    loop {
        recoveries.extend(sup.step(driver).expect("directory must stay reachable"));
        if done(sup, &recoveries) {
            return recoveries;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor did not settle in {limit:?}: stats {:?}, recoveries {recoveries:?}",
            sup.stats()
        );
        driver.serve_for(Duration::from_millis(2));
    }
}

/// A healthy cluster under supervision: heartbeats renew leases, nothing
/// is suspected to death, and supervised objects keep serving.
#[test]
fn healthy_cluster_is_never_declared_dead() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(
        &mut driver,
        &symbolic_addr(&["sup", "PCounter", "0"]),
        &c,
        &[2],
    )
    .unwrap();

    let until = Instant::now() + Duration::from_millis(600);
    let mut adds = 0;
    while Instant::now() < until {
        sup.step(&mut driver).unwrap();
        c.add(&mut driver, 1).unwrap();
        adds += 1;
        driver.serve_for(Duration::from_millis(5));
    }
    assert_eq!(c.total(&mut driver).unwrap(), adds);

    let stats = sup.stats();
    assert_eq!(stats.suspicions_raised, 0, "{stats:?}");
    assert_eq!(stats.machines_declared_dead, 0, "{stats:?}");
    assert_eq!(stats.false_suspicions, 0, "{stats:?}");
    assert_eq!(stats.objects_reactivated, 0, "{stats:?}");
    for m in [1, 2] {
        let ns = driver.stats_of(m).unwrap();
        assert!(ns.heartbeats_served > 0, "machine {m} never served a beat");
        assert_eq!(ns.calls_fenced, 0, "machine {m} fenced a healthy call");
    }

    cluster.shutdown(driver);
}

/// A machine's last heartbeat is the last one it acknowledged: there is
/// none before the first reply is reaped, and the first step only sends.
#[test]
fn no_heartbeat_is_reported_before_one_is_acknowledged() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x1A57))
        .call_policy(test_policy())
        .build();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], driver.directory());
    assert_eq!(sup.last_heartbeat(1), None);

    sup.step(&mut driver).unwrap();
    assert_eq!(sup.last_heartbeat(1), None, "the first step only sends");

    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });
    let last = sup.last_heartbeat(1).unwrap();
    assert!(last > Duration::ZERO, "acknowledged at {last:?}");

    cluster.shutdown(driver);
}

/// A crash raises one suspicion — the first heartbeat that went a whole
/// lease unanswered, carrying the milliseconds since the last ack — and
/// then one conviction, both about the crashed machine.
#[test]
fn a_crash_is_suspected_once_then_declared_dead() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x5D5A))
        .call_policy(test_policy())
        .tracing(true)
        .build();
    let recorder = cluster.recorder().expect("tracing enabled");
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], driver.directory());
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    let addr = symbolic_addr(&["sup", "PCounter", "suspect"]);
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some() && s.last_heartbeat(2).is_some()
    });

    cluster.sim().faults().crash(1);
    let recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |_, r| {
        !r.is_empty()
    });
    assert_eq!(recoveries.len(), 1);
    let detect_ms = recoveries[0].detect.as_millis();
    assert_eq!(sup.stats().suspicions_raised, 1, "{:?}", sup.stats());

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
    let events = recorder.merge().events;
    let of = |kind| -> Vec<_> { events.iter().filter(|e| e.kind == kind).collect() };
    let (suspect, dead) = (
        of(EventKind::SuspectRaised),
        of(EventKind::MachineDeclaredDead),
    );
    assert_eq!((suspect.len(), dead.len()), (1, 1), "{suspect:?} {dead:?}");
    let (suspect, dead) = (suspect[0], dead[0]);
    assert_eq!((suspect.peer, dead.peer), (1, 1));
    assert!(suspect.at_nanos <= dead.at_nanos, "{suspect:?} {dead:?}");
    let silent_ms = u128::from(suspect.bytes);
    assert!(
        0 < silent_ms && silent_ms <= detect_ms,
        "suspected after {silent_ms} ms, convicted after {detect_ms} ms"
    );
}

/// The tentpole path: a crashed machine is detected, its supervised
/// object is reactivated from the replicated snapshot on a survivor at a
/// bumped epoch, state carries over, and MTTR is bounded and accounted.
#[test]
fn crashed_machine_is_detected_and_its_object_reactivated() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let addr = symbolic_addr(&["sup", "PCounter", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();

    // Build up state, then checkpoint so the replica carries it.
    for _ in 0..5 {
        c.add(&mut driver, 1).unwrap();
    }
    assert_eq!(sup.checkpoint(&mut driver), 1);

    // Wait until heartbeats flow to both machines.
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some() && s.last_heartbeat(2).is_some()
    });

    cluster.sim().faults().crash(1);
    let recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |_, r| {
        !r.is_empty()
    });

    assert_eq!(recoveries.len(), 1);
    let r = &recoveries[0];
    assert_eq!(r.name, addr);
    assert_eq!(r.from, 1);
    assert_eq!(r.to.machine, 2, "the only backup must host the takeover");
    assert_eq!(r.epoch, 2, "registration epoch 1 + one takeover claim");
    assert!(sup.is_dead(1));

    // MTTR is real and bounded: detection alone must span the lease TTL
    // (takeover before that would race the old lease), and the whole
    // recovery stays within interactive bounds even on a loaded CI box.
    assert!(r.detect >= LEASE_TTL, "detect {:?}", r.detect);
    assert!(r.total >= r.detect);
    assert!(r.total < Duration::from_secs(10), "MTTR {:?}", r.total);

    // The incarnation carries the checkpointed state and keeps serving.
    let recovered = PCounterClient::from_ref(r.to);
    assert_eq!(recovered.total(&mut driver).unwrap(), 5);
    assert_eq!(recovered.add(&mut driver, 1).unwrap(), 6);

    // The directory agrees with the supervisor's view.
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((r.to, 2, false))
    );
    assert_eq!(sup.current_of(&addr), Some(r.to));

    // And the supervisor's ledger carries the recovery accounting.
    assert_eq!(sup.stats().objects_reactivated, 1);

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// The false-suspicion drill: a partition makes a *live* machine look
/// dead. The supervisor takes its object away — but the partitioned
/// incarnation's lease has lapsed, so when the partition heals the stale
/// copy refuses calls with `Fenced` instead of accepting a split-brain
/// write. Resurrection then re-fences it into a forwarder and the
/// machine rejoins.
#[test]
fn partition_false_suspicion_cannot_split_the_brain() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let addr = symbolic_addr(&["sup", "PCounter", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    for _ in 0..5 {
        c.add(&mut driver, 1).unwrap();
    }
    assert_eq!(sup.checkpoint(&mut driver), 1);
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    // Cut machine 1 off from the whole cluster — workers AND the driver
    // (machine id 3), so heartbeats stop while the machine itself lives.
    cluster.sim().faults().isolate(1, &[0, 2, 3]);
    let recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |_, r| {
        !r.is_empty()
    });
    let new_home = recoveries[0].to;
    assert_eq!(new_home.machine, 2);

    // Writes continue against the takeover incarnation.
    let recovered = PCounterClient::from_ref(new_home);
    for _ in 0..3 {
        recovered.add(&mut driver, 1).unwrap();
    }

    cluster.sim().faults().rejoin(1, &[0, 2, 3]);

    // The healed machine still holds its pre-partition incarnation, but
    // its lease expired mid-partition: before the supervisor has even
    // noticed the resurrection, a stale direct call bounces with Fenced
    // instead of reaching the old copy. This is the split-brain window,
    // and it is closed.
    match c.total(&mut driver) {
        Err(RemoteError::Fenced { current_epoch }) => assert_eq!(current_epoch, 1),
        other => panic!("stale call must be fenced by the lapsed lease, got {other:?}"),
    }
    assert!(driver.stats_of(1).unwrap().calls_fenced > 0);

    // Let the supervisor see the machine answer probes, re-fence the
    // stale incarnation, and readmit the machine.
    settle(&mut sup, &mut driver, Duration::from_secs(15), |s, _| {
        !s.is_dead(1)
    });
    assert_eq!(sup.stats().false_suspicions, 1);

    // The re-fence destroyed the stale copy (machine 1 hosts no objects
    // now) and left a forward: the old pointer transparently reaches the
    // takeover incarnation, whose total proves every write landed exactly
    // once — 5 before the partition, 3 during, none lost, none doubled.
    assert_eq!(driver.stats_of(1).unwrap().objects_live, 0);
    assert_eq!(c.total(&mut driver).unwrap(), 8);
    assert_eq!(recovered.total(&mut driver).unwrap(), 8);

    cluster.shutdown(driver);
}

/// Satellite regression: N clients watching the same crash race through
/// `resolve_or_activate_supervised` — the directory's CAS claim must let
/// exactly one of them activate, with the loser adopting the winner's
/// incarnation. Two worker machines race in genuinely parallel threads.
#[test]
fn racing_recoveries_activate_exactly_once() {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<PCounter>()
        .register::<Reviver>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();

    let addr = symbolic_addr(&["race", "PCounter", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    for _ in 0..4 {
        c.add(&mut driver, 1).unwrap();
    }
    dir.bind(&mut driver, addr.clone(), c.obj_ref()).unwrap();
    driver.replicate_snapshot(&c, &addr, &[2, 3]).unwrap();

    let r2 = ReviverClient::new_on(&mut driver, 2).unwrap();
    let r3 = ReviverClient::new_on(&mut driver, 3).unwrap();
    let before: usize = [2, 3]
        .iter()
        .map(|&m| driver.stats_of(m).unwrap().objects_live as usize)
        .sum();

    cluster.sim().faults().crash(1);

    // Both workers notice the dead home and race for the takeover.
    let dir_ref = dir.obj_ref();
    let pending = vec![
        r2.revive_async(&mut driver, dir_ref, addr.clone(), vec![1, 2, 3])
            .unwrap(),
        r3.revive_async(&mut driver, dir_ref, addr.clone(), vec![1, 2, 3])
            .unwrap(),
    ];
    // Each racer's resolution legitimately takes seconds (probing the
    // dead home costs a full policy window per round), so the driver
    // waits with a patient single-shot policy rather than its fast one.
    let fast = driver.call_policy();
    driver.set_call_policy(CallPolicy::no_retry(Duration::from_secs(30)));
    let resolved = join(&mut driver, pending).unwrap();
    driver.set_call_policy(fast);

    // Exactly one activation: both racers agree on the same incarnation,
    // the lease epoch advanced exactly once, and exactly one new object
    // exists across the candidate machines.
    assert_eq!(resolved[0], resolved[1], "racers resolved different copies");
    let (bound, epoch, poisoned) = dir.lease_of(&mut driver, addr.clone()).unwrap().unwrap();
    assert_eq!(bound, resolved[0]);
    assert_eq!(epoch, 1, "exactly one CAS claim must have succeeded");
    assert!(!poisoned);
    let after: usize = [2, 3]
        .iter()
        .map(|&m| driver.stats_of(m).unwrap().objects_live as usize)
        .sum();
    assert_eq!(after, before + 1, "double activation detected");

    // The survivor carries the replicated state.
    let survivor = PCounterClient::from_ref(resolved[0]);
    assert_eq!(survivor.total(&mut driver).unwrap(), 4);

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// Satellite regression: a moved-cache entry whose target machine dies
/// must be invalidated when the supervisor declares that machine dead.
/// Double-failure scenario: the object recovers 1 → 2, the client chases
/// the forward (caching old→2), then machine 2 dies and the object
/// recovers onto 3. Without the purge, the client's next call through
/// the original pointer would be rewritten straight into the corpse.
#[test]
fn stale_moved_cache_entries_die_with_their_target_machine() {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2, 3], dir);

    let addr = symbolic_addr(&["sup", "PCounter", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &addr, &c, &[2, 3]).unwrap();
    for _ in 0..3 {
        c.add(&mut driver, 1).unwrap();
    }
    assert_eq!(sup.checkpoint(&mut driver), 1);
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    // First failure: 1 dies, object recovers onto 2 (the least-loaded
    // backup, deterministic tie-break).
    cluster.sim().faults().crash(1);
    let rec1 = settle(&mut sup, &mut driver, Duration::from_secs(15), |_, r| {
        !r.is_empty()
    });
    assert_eq!(rec1[0].to.machine, 2);

    // Machine 1 restarts blank; the supervisor re-fences it into a
    // forwarder and readmits it.
    cluster.sim().faults().restart(1);
    settle(&mut sup, &mut driver, Duration::from_secs(15), |s, _| {
        !s.is_dead(1)
    });

    // Chasing the original pointer populates the driver's moved cache
    // with old→(machine 2).
    assert_eq!(c.total(&mut driver).unwrap(), 3);
    assert_eq!(sup.checkpoint(&mut driver), 1);

    // Second failure: machine 2 dies; recovery lands on 3. declare_dead
    // purges every moved-cache and resolve-cache entry pointing at 2.
    cluster.sim().faults().crash(2);
    let rec2 = settle(&mut sup, &mut driver, Duration::from_secs(15), |_, r| {
        !r.is_empty()
    });
    assert_eq!(rec2[0].to.machine, 3);
    assert_eq!(rec2[0].epoch, 3);

    // The regression: this call must NOT be rewritten into dead machine 2
    // by the stale cache entry. With the purge it goes to machine 1,
    // whose forward the takeover re-pointed at the newest incarnation.
    assert_eq!(c.add(&mut driver, 1).unwrap(), 4);
    assert_eq!(
        PCounterClient::from_ref(rec2[0].to)
            .total(&mut driver)
            .unwrap(),
        4
    );

    cluster.sim().faults().restart(2);
    cluster.shutdown(driver);
}

/// Takeover exhaustion: when every backup is gone too, the
/// supervisor gives up deliberately — the name is poisoned so resolvers
/// stop exhuming it, and the failure is visible in the stats.
#[test]
fn unrecoverable_names_are_poisoned_not_retried_forever() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let addr = symbolic_addr(&["sup", "PCounter", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    // Home AND its only backup die.
    cluster.sim().faults().crash(1);
    cluster.sim().faults().crash(2);
    settle(&mut sup, &mut driver, Duration::from_secs(30), |s, _| {
        s.stats().names_poisoned > 0
    });

    let stats = sup.stats();
    assert_eq!(stats.recoveries_failed, 1);
    assert_eq!(stats.names_poisoned, 1);
    assert_eq!(stats.objects_reactivated, 0);

    // Resolvers see the poison, not an infinite activation loop.
    assert_eq!(dir.lookup(&mut driver, addr.clone()).unwrap(), None);
    let err = resolve_or_activate_supervised::<PCounterClient>(&mut driver, &dir, &addr, &[1, 2])
        .unwrap_err();
    assert!(
        err.to_string().contains("poisoned"),
        "expected poisoned-name error, got {err}"
    );

    cluster.sim().faults().restart(1);
    cluster.sim().faults().restart(2);
    cluster.shutdown(driver);
}

/// The takeover schedule: with its only backup alive but holding no
/// snapshot, a takeover tries the activation three times, one heartbeat
/// interval apart on the virtual clock, and then poisons the name.
#[test]
fn a_failing_takeover_tries_three_times_a_heartbeat_apart_then_poisons() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x7A4E))
        .call_policy(test_policy())
        .tracing(true)
        .build();
    let recorder = cluster.recorder().expect("tracing enabled");
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let addr = symbolic_addr(&["sup", "PCounter", "schedule"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    // The backup stays up, but has nothing to restore.
    assert!(driver.drop_snapshot(2, addr.clone()).unwrap());
    cluster.sim().faults().crash(1);
    settle(&mut sup, &mut driver, Duration::from_secs(30), |s, _| {
        s.stats().names_poisoned > 0
    });

    let stats = sup.stats();
    assert_eq!(stats.recoveries_failed, 1, "{stats:?}");
    assert_eq!(stats.names_poisoned, 1, "{stats:?}");
    assert_eq!(stats.objects_reactivated, 0, "{stats:?}");
    assert!(!sup.is_dead(2), "the backup must stay up: {stats:?}");
    assert_eq!(dir.lookup(&mut driver, addr.clone()).unwrap(), None);
    let err = resolve_or_activate_supervised::<PCounterClient>(&mut driver, &dir, &addr, &[2])
        .unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
    let sends: Vec<u64> = recorder
        .merge()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::ClientSend && &*e.method == "activate_fenced")
        .map(|e| {
            assert_eq!(e.peer, 2, "an activation aimed off the backup: {e:?}");
            e.at_nanos
        })
        .collect();
    assert_eq!(sends.len(), 3, "activation sends at {sends:?}");
    // A pause of one heartbeat interval, plus the few virtual nanoseconds
    // the failed activation's round trip takes on the zero-cost fabric.
    let pause = HEARTBEAT_INTERVAL.as_nanos() as u64;
    for gap in sends.windows(2).map(|w| w[1] - w[0]) {
        assert!(
            (pause..pause + 1_000).contains(&gap),
            "activation sends at {sends:?}"
        );
    }
}

mod proptests {
    use super::*;
    use oopp_repro::simnet::sweep::cases;

    /// Partition chaos never loses or doubles an acknowledged write, at
    /// any partition timing: every successful `add` returns a strictly
    /// larger total (a split brain shows up as a repeated or regressed
    /// total from the second copy), and after healing, the surviving
    /// incarnation's total equals the last acknowledged one.
    #[test]
    fn partitions_never_lose_or_double_acknowledged_writes() {
        let name = "proptests::partitions_never_lose_or_double_acknowledged_writes";
        cases(name, 4, |c| {
            let (partition_after, rounds) = (c.range(1usize..6), c.range(8usize..14));
            let (cluster, mut driver) = ClusterBuilder::new(3)
                .register::<PCounter>()
                .sim_config(ClusterConfig::zero_cost(0))
                .call_policy(test_policy())
                .build();
            let dir = driver.directory();
            let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

            let addr = symbolic_addr(&["sup", "PCounter", "prop"]);
            let c = PCounterClient::new_on(&mut driver, 1).unwrap();
            sup.register(&mut driver, &addr, &c, &[2]).unwrap();
            settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
                s.last_heartbeat(1).is_some()
            });

            let mut last_total = 0u64;
            let mut partitioned = false;
            for round in 0..rounds {
                if round == partition_after {
                    assert_eq!(sup.checkpoint(&mut driver), 1);
                    cluster.sim().faults().isolate(1, &[0, 2, 3]);
                    partitioned = true;
                }
                // Write through whatever the supervisor currently deems
                // live; a failed write (mid-takeover) is retried against
                // the re-resolved address next round.
                let target = PCounterClient::from_ref(sup.current_of(&addr).unwrap());
                if let Ok(total) = target.add(&mut driver, 1) {
                    assert!(
                        total > last_total,
                        "total regressed or repeated: {total} after {last_total}"
                    );
                    last_total = total;
                }
                sup.step(&mut driver).unwrap();
                driver.serve_for(Duration::from_millis(5));
                if partitioned && sup.is_dead(1) && round + 2 < rounds {
                    cluster.sim().faults().rejoin(1, &[0, 2, 3]);
                    partitioned = false;
                }
            }
            if partitioned {
                cluster.sim().faults().rejoin(1, &[0, 2, 3]);
            }
            // Settle takeover/resurrection fully, then audit the ledger.
            settle(&mut sup, &mut driver, Duration::from_secs(20), |s, r| {
                (!s.is_dead(1) && !s.is_dead(2)) || !r.is_empty()
            });
            let live = PCounterClient::from_ref(sup.current_of(&addr).unwrap());
            let final_total = live.total(&mut driver).unwrap();
            assert!(
                final_total == last_total,
                "acknowledged writes lost or doubled: {final_total} != {last_total}"
            );

            cluster.shutdown(driver);
        });
    }
}

/// Regression: a takeover whose `bind_fenced` is refused — a second claim
/// moved the name past its epoch between its claim and its bind — used to
/// report the incarnation it had installed, live and serving at the
/// superseded epoch while the directory named another. The supervisor
/// must stand that incarnation down (fenced at the record's epoch) and
/// report no recovery.
#[test]
fn a_refused_takeover_bind_leaves_no_live_incarnation() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<Contested>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], dir);

    let addr = symbolic_addr(&["sup", "Contested", "0"]);
    let c = ContestedClient::new_on(&mut driver, 1).unwrap();
    c.add(&mut driver, 5).unwrap();
    c.arm(&mut driver, dir.obj_ref(), addr.clone()).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    let live_on_2 = driver.stats_of(2).unwrap().objects_live;
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    cluster.sim().faults().crash(1);
    // The takeover runs in the step that declares machine 1 dead: it wins
    // the claim at epoch 2, and the restore on machine 2 claims epoch 3.
    let recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |s, _| {
        s.is_dead(1)
    });

    assert!(
        recoveries.is_empty(),
        "refused bind reported: {recoveries:?}"
    );
    assert_eq!(sup.stats().objects_reactivated, 0);
    assert_eq!(
        driver.stats_of(2).unwrap().objects_live,
        live_on_2,
        "the refused incarnation is still live"
    );
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((c.obj_ref(), 3, false))
    );
    assert_eq!(sup.current_of(&addr), Some(c.obj_ref()));

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// Regression: the same refusal on `resolve_or_activate_supervised`'s own
/// claim used to hand the caller the refused incarnation. The resolver
/// must stand it down and, with the name's record still pointing at the
/// dead home, fail like a claimant that lost.
#[test]
fn a_refused_resolver_bind_leaves_no_live_incarnation() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<Contested>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();

    let addr = symbolic_addr(&["resolve", "Contested", "0"]);
    let c = ContestedClient::new_on(&mut driver, 1).unwrap();
    c.add(&mut driver, 5).unwrap();
    c.arm(&mut driver, dir.obj_ref(), addr.clone()).unwrap();
    dir.bind(&mut driver, addr.clone(), c.obj_ref()).unwrap();
    driver.replicate_snapshot(&c, &addr, &[2]).unwrap();
    let live_on_2 = driver.stats_of(2).unwrap().objects_live;

    cluster.sim().faults().crash(1);
    // The resolver claims epoch 1; the restore on machine 2 claims 2.
    let resolved =
        resolve_or_activate_supervised::<ContestedClient>(&mut driver, &dir, &addr, &[1, 2]);

    assert!(
        matches!(resolved, Err(RemoteError::Fenced { .. })),
        "refused bind handed out: {resolved:?}"
    );
    assert_eq!(
        driver.stats_of(2).unwrap().objects_live,
        live_on_2,
        "the refused incarnation is still live"
    );
    assert_eq!(
        dir.lease_of(&mut driver, addr).unwrap(),
        Some((c.obj_ref(), 2, false))
    );

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// Regression: a takeover that read `Lost` — a rival won the claim between
/// its read of the lease and its own claim — never tried again, so when the
/// rival was a resolver with no live candidate the name stayed claimed and
/// bound to the dead machine for good. The supervisor tries again a lease
/// later, claims the name at the epoch the rival left, and binds a live
/// incarnation.
#[test]
fn a_takeover_lost_to_a_stranded_claim_is_tried_again() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .register::<Strander>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let strander = StranderClient::new_on(&mut driver, 0, dir.obj_ref()).unwrap();
    let via = NameService::classic(strander.obj_ref());
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], via);

    let addr = symbolic_addr(&["sup", "stranded", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    c.add(&mut driver, 5).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    strander.arm(&mut driver, addr.clone()).unwrap();
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    cluster.sim().faults().crash(1);
    // The takeover reads epoch 1, the rival claims epoch 2 before it, and
    // the takeover reads `Lost`: the name is stranded on the corpse.
    let mut recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |s, _| {
        s.is_dead(1)
    });
    assert!(recoveries.is_empty(), "{recoveries:?}");
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((c.obj_ref(), 2, false))
    );

    // A lease later the supervisor claims epoch 3 and binds on the backup.
    recoveries.extend(settle(
        &mut sup,
        &mut driver,
        Duration::from_secs(15),
        |_, r| !r.is_empty(),
    ));
    assert_eq!(recoveries.len(), 1);
    let r = &recoveries[0];
    assert_eq!((r.from, r.to.machine, r.epoch), (1, 2, 3));
    assert_eq!(sup.current_of(&addr), Some(r.to));
    assert_eq!(sup.stats().objects_reactivated, 1);
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((r.to, 3, false))
    );
    assert_eq!(
        PCounterClient::from_ref(r.to).total(&mut driver).unwrap(),
        5
    );

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// Regression: a takeover whose `bind_fenced` was refused while the record
/// still named the dead machine stood its incarnation down and never tried
/// again: the name stayed claimed and bound to the corpse with no live
/// incarnation anywhere. The refusal answers `Lost`, like a lost claim, so
/// the supervisor tries again a lease later and binds a live incarnation.
#[test]
fn a_takeover_refused_by_a_stranded_claim_is_tried_again() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .register::<Strander>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let strander = StranderClient::new_on(&mut driver, 0, dir.obj_ref()).unwrap();
    let via = NameService::classic(strander.obj_ref());
    let mut sup = Supervisor::new(LEASE_TTL, vec![1, 2], via);

    let addr = symbolic_addr(&["sup", "stranded-bind", "0"]);
    let c = PCounterClient::new_on(&mut driver, 1).unwrap();
    c.add(&mut driver, 5).unwrap();
    sup.register(&mut driver, &addr, &c, &[2]).unwrap();
    strander.arm_bind(&mut driver, addr.clone()).unwrap();
    settle(&mut sup, &mut driver, Duration::from_secs(5), |s, _| {
        s.last_heartbeat(1).is_some()
    });

    cluster.sim().faults().crash(1);
    // The takeover claims epoch 2 and activates on machine 2; the rival
    // claims epoch 3 before the bind, which is refused. The record still
    // names the corpse.
    let mut recoveries = settle(&mut sup, &mut driver, Duration::from_secs(15), |s, _| {
        s.is_dead(1)
    });
    assert!(recoveries.is_empty(), "{recoveries:?}");
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((c.obj_ref(), 3, false))
    );

    // A lease later the supervisor claims epoch 4 and binds on the backup.
    recoveries.extend(settle(
        &mut sup,
        &mut driver,
        Duration::from_secs(3),
        |_, r| !r.is_empty(),
    ));
    assert_eq!(recoveries.len(), 1);
    let r = &recoveries[0];
    assert_eq!((r.from, r.to.machine, r.epoch), (1, 2, 4));
    assert_eq!(sup.current_of(&addr), Some(r.to));
    assert_eq!(sup.stats().objects_reactivated, 1);
    assert_eq!(
        dir.lease_of(&mut driver, addr.clone()).unwrap(),
        Some((r.to, 4, false))
    );
    assert_eq!(
        PCounterClient::from_ref(r.to).total(&mut driver).unwrap(),
        5
    );

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}
