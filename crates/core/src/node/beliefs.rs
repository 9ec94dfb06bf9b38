//! What a lane believes about the world outside it (DESIGN.md §9.3).
//!
//! The paper's compiler turns every use of a remote pointer into a
//! client–server exchange; what the caller *believes* about the thing the
//! pointer names is the state that compiler would keep in one place. Here
//! it is: one record per target object (where it moved, which incarnation
//! it is, who may answer its reads), one per destination machine (is it
//! worth calling, may a retransmission be spent on it), and the
//! name→address cache. Everything is lane-local — no shared state, so a
//! virtual-time run replays it bit-for-bit — and everything *learned* is a
//! hint: losing one costs its next user an extra chase, bounce or lookup,
//! never correctness.

use std::collections::HashMap;

use simnet::MachineId;

use crate::ids::{IdMap, ObjRef, DAEMON};
use crate::policy::BreakerConfig;

/// Bound on each keyed collection below. One overflow rule for both (see
/// [`Beliefs::make_room`]): learned facts go, installed routes stay.
const CAPACITY: usize = 1024;

/// A forward chain is followed at most this far: forwards are only ever
/// recorded from commit-time facts, but a bound keeps even a corrupted
/// chain finite.
const MAX_FORWARD_HOPS: usize = 8;

/// Everything believed about one object address.
#[derive(Default)]
struct Target {
    /// Learned: calls through this address start at `forward` instead.
    forward: Option<ObjRef>,
    /// Learned: the incarnation epoch stamped onto outgoing frames (0 =
    /// none: never supervised, no fencing).
    epoch: u64,
    /// Installed: who serves this (primary) address's read verbs.
    route: Option<ReplicaRoute>,
}

/// Client-side route for a replicated object: read verbs fan out over the
/// replica set, everything else goes to the primary the route is keyed by.
struct ReplicaRoute {
    replicas: Vec<ObjRef>,
    rs_epoch: u64,
    reads: &'static [&'static str],
    /// Round-robin cursor over `replicas`.
    next: usize,
}

/// Everything believed about one destination machine.
#[derive(Clone, Default)]
pub(super) struct Peer {
    pub(super) breaker: Breaker,
    /// Retry-budget bucket, in millitokens: each first attempt deposits,
    /// each retransmission spends 1000. A dry bucket suppresses
    /// retransmission so retries cannot amplify an overload.
    pub(super) retry_millitokens: u64,
}

/// Where a call through some pointer actually goes, and what its frame
/// must carry (see [`Beliefs::address`]).
pub(super) struct Addressed {
    pub(super) target: ObjRef,
    /// Fence stamp for `target` (0 = no check).
    pub(super) epoch: u64,
    /// `Some(primary)` when `target` is a replica picked to serve a read of
    /// `primary`, at replica-set epoch `rs_epoch`.
    pub(super) read_primary: Option<ObjRef>,
    pub(super) rs_epoch: u64,
}

pub(super) struct Beliefs {
    objects: IdMap<ObjRef, Target>,
    /// Indexed by `MachineId`; one entry per endpoint of the cluster.
    peers: Vec<Peer>,
    /// Symbolic-address resolutions (see [`crate::naming`]): hints, which
    /// their users verify on use.
    names: HashMap<String, ObjRef>,
}

impl Beliefs {
    pub(super) fn new(machines: usize) -> Self {
        Beliefs {
            objects: IdMap::default(),
            peers: vec![Peer::default(); machines],
            names: HashMap::new(),
        }
    }

    /// The overflow rule, applied when a collection holding `len` keys is
    /// about to gain one: at [`CAPACITY`], every *learned* fact goes —
    /// forwards, epochs, names; each is re-learned by the next call that
    /// needs it, so no LRU bookkeeping is worth its cost — and what was
    /// *installed* stays (replica routes: only their owner can re-create
    /// them).
    fn make_room(&mut self, len: usize) {
        if len >= CAPACITY {
            self.names.clear();
            self.objects.retain(|_, t| {
                (t.forward, t.epoch) = (None, 0);
                t.route.is_some()
            });
        }
    }

    /// The record for `at`, created blank (room made first) if absent.
    fn object_mut(&mut self, at: ObjRef) -> &mut Target {
        if !self.objects.contains_key(&at) {
            self.make_room(self.objects.len());
        }
        self.objects.entry(at).or_default()
    }

    // ------------------------------------------------------------------
    // Per object: forwards, epochs, replica routes
    // ------------------------------------------------------------------

    /// Resolve a call through `start` for `method`: follow the learned
    /// forward, then — with `route` set — hand a read verb of a routed
    /// primary to a replica (one on machine `here` when the set has one,
    /// round-robin otherwise), and look up the fence stamp of wherever
    /// that ended. Daemon addresses are never forwarded, fenced or routed.
    /// Inlined into its one caller, which with no beliefs held — the common
    /// case — pays the emptiness check and nothing else.
    #[inline]
    pub(super) fn address(
        &mut self,
        start: ObjRef,
        method: &str,
        route: bool,
        here: MachineId,
    ) -> Addressed {
        let mut at = Addressed {
            target: start,
            epoch: 0,
            read_primary: None,
            rs_epoch: 0,
        };
        if start.object == DAEMON || self.objects.is_empty() {
            return at;
        }
        at.target = self.forwarded(start);
        let Some(record) = self.objects.get_mut(&at.target) else {
            return at;
        };
        at.epoch = record.epoch;
        let routed = record
            .route
            .as_mut()
            .filter(|r| route && !r.replicas.is_empty() && r.reads.contains(&method));
        if let Some(r) = routed {
            let local = r
                .replicas
                .iter()
                .position(|replica| replica.machine == here);
            let pick = local.unwrap_or_else(|| {
                let i = r.next % r.replicas.len();
                r.next = r.next.wrapping_add(1);
                i
            });
            // The frame carries the route's replica-set epoch so a lagging
            // replica rejects itself; the primary stays on record for the
            // stale/dead fallback.
            at.read_primary = Some(at.target);
            at.rs_epoch = r.rs_epoch;
            at.target = r.replicas[pick];
            at.epoch = self.epoch_of(at.target);
        }
        at
    }

    /// `start`'s last known address: the end of its forward chain (with
    /// path compression, so a chain learned over several migrations costs
    /// one lookup next time).
    pub(super) fn forwarded(&mut self, start: ObjRef) -> ObjRef {
        let mut target = start;
        for _ in 0..MAX_FORWARD_HOPS {
            match self.objects.get(&target).and_then(|t| t.forward) {
                Some(next) if next != target => target = next,
                _ => break,
            }
        }
        if target != start {
            if let Some(t) = self.objects.get_mut(&start) {
                t.forward = Some(target);
            }
        }
        target
    }

    /// The object at `old` now lives at `new` (a `Moved` reply said so, or
    /// this node coordinated the migration): calls through `old` start at
    /// `new`, and names that resolved to `old` keep hitting the cache at
    /// the new home.
    pub(super) fn learn_move(&mut self, old: ObjRef, new: ObjRef) {
        if old == new || old.object == DAEMON || new.object == DAEMON {
            return;
        }
        self.object_mut(old).forward = Some(new);
        for r in self.names.values_mut().filter(|r| **r == old) {
            *r = new;
        }
    }

    pub(super) fn forget_move(&mut self, old: ObjRef) {
        if let Some(t) = self.objects.get_mut(&old) {
            t.forward = None;
        }
    }

    /// Epochs only move forward (0 and daemon addresses carry none).
    /// Losing one to the overflow rule is safe: an unstamped frame skips
    /// the staleness check, but an old incarnation is still fenced
    /// server-side by its lease and its own epoch table.
    pub(super) fn note_epoch(&mut self, at: ObjRef, epoch: u64) {
        if epoch != 0 && at.object != DAEMON {
            let e = &mut self.object_mut(at).epoch;
            *e = epoch.max(*e);
        }
    }

    pub(super) fn epoch_of(&self, at: ObjRef) -> u64 {
        self.objects.get(&at).map_or(0, |t| t.epoch)
    }

    pub(super) fn forget_epoch(&mut self, at: ObjRef) {
        if let Some(t) = self.objects.get_mut(&at) {
            t.epoch = 0;
        }
    }

    pub(super) fn install_route(
        &mut self,
        primary: ObjRef,
        replicas: Vec<ObjRef>,
        rs_epoch: u64,
        reads: &'static [&'static str],
    ) {
        if reads.is_empty() || primary.object == DAEMON {
            return;
        }
        self.object_mut(primary).route = Some(ReplicaRoute {
            replicas,
            rs_epoch,
            reads,
            next: 0,
        });
    }

    pub(super) fn route_of(&self, primary: ObjRef) -> Option<(Vec<ObjRef>, u64)> {
        let route = self.objects.get(&primary)?.route.as_ref()?;
        Some((route.replicas.clone(), route.rs_epoch))
    }

    pub(super) fn drop_route(&mut self, primary: ObjRef) {
        if let Some(t) = self.objects.get_mut(&primary) {
            t.route = None;
        }
    }

    /// `addr` proved it no longer speaks for its object (a surfaced fence,
    /// a stale or silent replica): no name resolves to it and no route
    /// sends reads to it any more. Its forward and epoch stay — they are
    /// how a call through the old pointer still finds the new incarnation.
    pub(super) fn distrust(&mut self, addr: ObjRef) {
        self.names.retain(|_, r| *r != addr);
        for route in self.objects.values_mut().filter_map(|t| t.route.as_mut()) {
            route.replicas.retain(|r| *r != addr);
        }
    }

    /// `machine` was declared dead: drop every fact that points **at** it
    /// — forwards and names ending there, routes of primaries that lived
    /// there (the failover promotes a replica at a new address and its
    /// manager re-registers), its replicas in surviving routes — so a
    /// chase never hops *through* a corpse. Facts keyed *by* an address on
    /// it stay: a forward from the dead home is exactly how the next call
    /// finds the reactivated incarnation.
    pub(super) fn forget_machine(&mut self, machine: MachineId) {
        self.names.retain(|_, r| r.machine != machine);
        for (at, t) in &mut self.objects {
            t.forward = t.forward.filter(|to| to.machine != machine);
            t.route = t.route.take().filter(|_| at.machine != machine);
            if let Some(route) = &mut t.route {
                route.replicas.retain(|r| r.machine != machine);
            }
        }
    }

    // ------------------------------------------------------------------
    // Per name
    // ------------------------------------------------------------------

    pub(super) fn name(&self, addr: &str) -> Option<ObjRef> {
        self.names.get(addr).copied()
    }

    pub(super) fn learn_name(&mut self, addr: &str, r: ObjRef) {
        if !self.names.contains_key(addr) {
            self.make_room(self.names.len());
        }
        self.names.insert(addr.to_string(), r);
    }

    pub(super) fn forget_name(&mut self, addr: &str) {
        self.names.remove(addr);
    }

    // ------------------------------------------------------------------
    // Per machine: breaker and retry budget
    // ------------------------------------------------------------------

    /// The record for `machine` — which the caller has range-checked, as
    /// it does every address before sending to it.
    pub(super) fn peer(&mut self, machine: MachineId) -> &mut Peer {
        &mut self.peers[machine]
    }
}

/// Client-side circuit breaker for one destination machine (DESIGN.md
/// §15.3): a plain state machine. The caller supplies the cluster clock's
/// reading and the policy, and records whatever transition comes back —
/// so a virtual-time run replays every transition bit-for-bit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(super) struct Breaker {
    /// Consecutive overload-class failures observed while closed.
    failures: u32,
    state: BreakerState,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum BreakerState {
    /// Calls flow; failures are counted.
    #[default]
    Closed,
    /// Fail fast until the cluster clock reads `until`.
    Open { until: u64 },
    /// Cooldown lapsed: the next call is the single trial. Success
    /// closes the breaker; an overload-class failure — or a trial that
    /// ends without any outcome — re-opens it.
    HalfOpen,
}

/// What the breaker decided for an outbound call.
#[derive(Debug, PartialEq)]
pub(super) enum Gate {
    /// Closed: send normally.
    Pass,
    /// Half-open trial: send, and the outcome decides the breaker.
    Trial,
    /// Open: fail fast, suggesting the caller wait this many nanos.
    Fail(u64),
}

#[derive(Debug, PartialEq)]
pub(super) enum Transition {
    /// Tripped (or re-opened by a failed trial) after this many failures.
    Opened(u32),
    Closed,
}

impl Breaker {
    /// Consult (and advance) the breaker before a send at `now`.
    pub(super) fn admit(&mut self, now: u64, cfg: &BreakerConfig) -> Gate {
        match self.state {
            BreakerState::Closed => Gate::Pass,
            BreakerState::Open { until } if now < until => Gate::Fail(until - now),
            BreakerState::Open { .. } => {
                // Cooldown lapsed: this call is the half-open trial.
                self.state = BreakerState::HalfOpen;
                Gate::Trial
            }
            // A trial is already in flight on this lane; hold further
            // calls back for one more cooldown.
            BreakerState::HalfOpen => Gate::Fail(cfg.cooldown.as_nanos() as u64),
        }
    }

    /// Feed in how a call to this machine ended, at `now`. Any reply —
    /// even an application error — is `Some(false)`, a success (the machine
    /// is alive and serving); only overload-class outcomes (timeout,
    /// overload, deadline, disconnect) are `Some(true)`. `None` is a call
    /// that ended without an outcome (abandoned, never waited for): no
    /// evidence about the machine, except that a half-open breaker must
    /// not go on waiting for a trial that will never report — it re-opens
    /// for another cooldown, as after a failed trial.
    pub(super) fn note(
        &mut self,
        failed: Option<bool>,
        now: u64,
        cfg: &BreakerConfig,
    ) -> Option<Transition> {
        let half_open = self.state == BreakerState::HalfOpen;
        if !failed.or(half_open.then_some(true))? {
            let was_closed = self.state == BreakerState::Closed;
            *self = Breaker::default();
            return (!was_closed).then_some(Transition::Closed);
        }
        self.failures = self.failures.saturating_add(1);
        let trips = match self.state {
            BreakerState::Closed => self.failures >= cfg.failure_threshold,
            BreakerState::HalfOpen => true,
            BreakerState::Open { .. } => false,
        };
        trips.then(|| {
            let until = now.saturating_add(cfg.cooldown.as_nanos() as u64);
            self.state = BreakerState::Open { until };
            Transition::Opened(self.failures)
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::BreakerState::{Closed, HalfOpen, Open};
    use super::*;

    const NOW: u64 = 1_000;
    const COOLDOWN: u64 = 100;
    const CFG: BreakerConfig = BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_nanos(COOLDOWN),
    };

    fn obj(machine: MachineId, object: u64) -> ObjRef {
        ObjRef { machine, object }
    }

    #[derive(Clone, Copy, Debug)]
    enum Event {
        Admit,
        Success,
        Failure,
        NoOutcome,
    }

    /// What an event gave back: `admit`'s gate or `note`'s transition.
    #[derive(Debug, PartialEq)]
    enum Out {
        Gate(Gate),
        Note(Option<Transition>),
    }

    fn step(mut b: Breaker, event: Event, now: u64) -> (Breaker, Out) {
        let out = match event {
            Event::Admit => Out::Gate(b.admit(now, &CFG)),
            Event::Success => Out::Note(b.note(Some(false), now, &CFG)),
            Event::Failure => Out::Note(b.note(Some(true), now, &CFG)),
            Event::NoOutcome => Out::Note(b.note(None, now, &CFG)),
        };
        (b, out)
    }

    /// Every state × every event: the next state, and the gate or
    /// transition handed back. One failure short of the threshold stands
    /// for "closed"; a breaker one tick before and one at `until` for
    /// "open".
    #[test]
    fn breaker_takes_one_step_per_state_and_event() {
        use Event::*;
        let b = |failures, state| Breaker { failures, state };
        let fail = |nanos| Out::Gate(Gate::Fail(nanos));
        let quiet = || Out::Note(None);
        let opened = |n| Out::Note(Some(Transition::Opened(n)));
        let closed = || Out::Note(Some(Transition::Closed));
        let (cooling, cooled) = (Open { until: NOW + 1 }, Open { until: NOW });
        let reopened = Open {
            until: NOW + COOLDOWN,
        };
        let rows = [
            (b(1, Closed), Admit, b(1, Closed), Out::Gate(Gate::Pass)),
            (b(1, Closed), Success, b(0, Closed), quiet()),
            (b(0, Closed), Failure, b(1, Closed), quiet()),
            (b(1, Closed), Failure, b(2, reopened), opened(2)),
            (b(1, Closed), NoOutcome, b(1, Closed), quiet()),
            // Open, cooling down: nothing is admitted; what a call from
            // before the trip reports still counts.
            (b(2, cooling), Admit, b(2, cooling), fail(1)),
            (b(2, cooling), Success, b(0, Closed), closed()),
            (b(2, cooling), Failure, b(3, cooling), quiet()),
            (b(2, cooling), NoOutcome, b(2, cooling), quiet()),
            // Open, cooldown lapsed: the next admit is the trial.
            (b(2, cooled), Admit, b(2, HalfOpen), Out::Gate(Gate::Trial)),
            (b(2, cooled), Success, b(0, Closed), closed()),
            (b(2, cooled), Failure, b(3, cooled), quiet()),
            (b(2, cooled), NoOutcome, b(2, cooled), quiet()),
            // Half-open: one trial at a time, and any end of it but an
            // answer — silence included — re-opens for a cooldown.
            (b(2, HalfOpen), Admit, b(2, HalfOpen), fail(COOLDOWN)),
            (b(2, HalfOpen), Success, b(0, Closed), closed()),
            (b(2, HalfOpen), Failure, b(3, reopened), opened(3)),
            (b(2, HalfOpen), NoOutcome, b(3, reopened), opened(3)),
        ];
        for (before, event, after, out) in rows {
            assert_eq!(
                step(before, event, NOW),
                (after, out),
                "{before:?} {event:?}"
            );
        }

        // Neither counter wraps.
        let forever = Open { until: u64::MAX };
        assert_eq!(
            step(b(u32::MAX, HalfOpen), Failure, u64::MAX - 1),
            (b(u32::MAX, forever), opened(u32::MAX))
        );
        assert_eq!(step(b(u32::MAX, forever), Admit, u64::MAX - 1).1, fail(1));
    }

    /// A world in which every kind of fact points at machine 2, is keyed on
    /// it, or has nothing to do with it.
    fn world() -> Beliefs {
        let mut b = Beliefs::new(4);
        b.learn_move(obj(0, 1), obj(2, 1)); // forward *to* 2
        b.learn_move(obj(2, 2), obj(1, 2)); // forward *from* 2
        b.learn_move(obj(0, 3), obj(1, 3));
        b.note_epoch(obj(2, 2), 7);
        b.learn_name("to-2", obj(2, 4));
        b.learn_name("to-1", obj(1, 4));
        b.install_route(obj(2, 5), vec![obj(0, 5), obj(1, 5)], 1, &["get"]);
        b.install_route(obj(0, 6), vec![obj(1, 6), obj(2, 6)], 1, &["get"]);
        b
    }

    #[test]
    fn forget_machine_leaves_nothing_pointing_at_it() {
        let mut b = world();
        b.forget_machine(2);
        for t in b.objects.values() {
            assert!(t.forward.is_none_or(|to| to.machine != 2));
            let replicas = t.route.iter().flat_map(|r| &r.replicas);
            assert!(replicas.into_iter().all(|r| r.machine != 2));
        }
        assert!(b.names.values().all(|r| r.machine != 2));
        assert_eq!(b.route_of(obj(2, 5)), None, "a route dies with its primary");
        assert_eq!(b.route_of(obj(0, 6)), Some((vec![obj(1, 6)], 1)));
        // What is keyed *by* an address on the dead machine is how a stale
        // pointer still finds the new incarnation: it stays.
        assert_eq!(b.forwarded(obj(2, 2)), obj(1, 2));
        assert_eq!(b.epoch_of(obj(2, 2)), 7);
        assert_eq!(b.forwarded(obj(0, 1)), obj(0, 1));
        assert_eq!(b.forwarded(obj(0, 3)), obj(1, 3));
        assert_eq!((b.name("to-2"), b.name("to-1")), (None, Some(obj(1, 4))));
    }

    #[test]
    fn distrust_scrubs_one_address_from_names_and_routes() {
        let mut b = world();
        b.learn_name("replica", obj(2, 6));
        b.distrust(obj(2, 6));
        assert_eq!(b.name("replica"), None);
        assert_eq!(b.route_of(obj(0, 6)), Some((vec![obj(1, 6)], 1)));
        assert_eq!(b.route_of(obj(2, 5)).unwrap().0.len(), 2);
        assert_eq!(b.name("to-2"), Some(obj(2, 4)));
    }

    /// The one overflow rule, tripped from either collection: learned
    /// facts go, installed routes stay, and the fact that tripped it is
    /// recorded.
    #[test]
    fn overflow_sheds_learned_facts_and_keeps_installed_routes() {
        let route = Some((vec![obj(1, 5), obj(2, 5)], 9));
        for by_names in [false, true] {
            let mut b = Beliefs::new(4);
            b.install_route(obj(0, 5), vec![obj(1, 5), obj(2, 5)], 9, &["get"]);
            b.note_epoch(obj(0, 5), 3);
            b.learn_move(obj(0, 1), obj(1, 1));
            b.learn_name("sentinel", obj(0, 1));
            for i in 0..CAPACITY as u64 {
                if by_names {
                    b.learn_name(&i.to_string(), obj(1, i));
                } else {
                    b.note_epoch(obj(3, i), 1);
                }
            }
            assert!(b.objects.len() <= CAPACITY && b.names.len() <= CAPACITY);
            assert_eq!(b.route_of(obj(0, 5)), route);
            assert_eq!(b.epoch_of(obj(0, 5)), 0);
            assert_eq!(b.forwarded(obj(0, 1)), obj(0, 1));
            assert_eq!(b.name("sentinel"), None);
            let last = CAPACITY as u64 - 1;
            if by_names {
                assert_eq!(b.name(&last.to_string()), Some(obj(1, last)));
            } else {
                assert_eq!(b.epoch_of(obj(3, last)), 1);
            }
        }
    }

    /// `address` reads forward → route → epoch, and the checks on what the
    /// outside can teach hold: a forward chain is walked at most
    /// `MAX_FORWARD_HOPS` far (and compressed), epochs never go back, and
    /// a daemon address is never forwarded, fenced or routed.
    #[test]
    fn address_follows_forward_then_route_then_epoch() {
        let mut b = Beliefs::new(4);
        let (old, home, r1, r2) = (obj(0, 1), obj(1, 1), obj(2, 1), obj(3, 1));
        b.learn_move(old, home);
        b.note_epoch(home, 4);
        b.note_epoch(home, 3);
        b.note_epoch(r2, 6);
        b.install_route(home, vec![r1, r2], 9, &["get"]);

        let write = b.address(old, "set", true, 0);
        assert_eq!((write.target, write.epoch), (home, 4));
        assert_eq!((write.read_primary, write.rs_epoch), (None, 0));
        let direct = b.address(old, "get", false, 0);
        assert_eq!((direct.target, direct.read_primary), (home, None));
        // Round-robin from afar, the local replica from its own machine.
        let picks: Vec<_> = (0..3)
            .map(|_| b.address(old, "get", true, 0).target)
            .collect();
        assert_eq!(picks, [r1, r2, r1]);
        let read = b.address(home, "get", true, 3);
        assert_eq!((read.target, read.epoch), (r2, 6));
        assert_eq!((read.read_primary, read.rs_epoch), (Some(home), 9));

        // A cycle (which only a corrupted peer could teach) ends the walk.
        b.learn_move(home, old);
        let _ = b.address(old, "set", true, 0);
        let chain: Vec<_> = (0..=12).map(|i| obj(0, 100 + i)).collect();
        for hop in chain.windows(2) {
            b.learn_move(hop[0], hop[1]);
        }
        assert_eq!(b.forwarded(chain[0]), chain[MAX_FORWARD_HOPS]);
        assert_eq!(b.objects[&chain[0]].forward, Some(chain[MAX_FORWARD_HOPS]));

        let daemon = obj(1, DAEMON);
        b.learn_move(daemon, home);
        b.learn_move(r1, daemon);
        b.note_epoch(daemon, 5);
        b.install_route(daemon, vec![r1], 1, &["get"]);
        let at = b.address(daemon, "get", true, 0);
        assert_eq!((at.target, at.epoch, at.read_primary), (daemon, 0, None));
        assert_eq!(b.forwarded(r1), r1);
        assert!(!b.objects.contains_key(&daemon));
    }
}
