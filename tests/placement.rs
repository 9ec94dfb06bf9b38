//! Live migration + adaptive placement suite (DESIGN.md §9).
//!
//! Exercises the migration state machine end to end: transparent moves
//! (quiesce → transfer → commit → forward), one-hop forward chasing for
//! stale pointers, rollback when the target is dark, exactly-once
//! execution across a move under loss and duplication, the per-node
//! resolution cache's lazy invalidation on a third machine, and the
//! balancer's closed loop with hysteresis.

use std::time::Duration;

use oopp_repro::oopp::{
    resolve_or_activate_supervised, symbolic_addr, wire, Backoff, CallPolicy, ClusterBuilder,
    DoubleBlockClient, NameService, NodeCtx, ObjRef, RemoteClient, RemoteResult,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan};
use placement::{Balancer, PlacementPolicy};

/// Persistent, deliberately non-idempotent counter: a duplicated or
/// re-executed `add` is observable in the running total, so bit-identical
/// totals across a migration prove exactly-once execution survived it.
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

/// A caller on a *worker* machine holding a raw remote pointer — unlike
/// the driver that coordinates migrations, this machine learns about
/// moves only through `Moved` redirects.
#[derive(Debug)]
pub struct Chaser {
    target: ObjRef,
}

oopp_repro::oopp::remote_class! {
    class Chaser {
        ctor(target: ObjRef);
        /// Call `add(n)` on the held pointer.
        fn poke(&mut self, n: u64) -> u64;
    }
}

impl Chaser {
    pub fn new(_ctx: &mut NodeCtx, target: ObjRef) -> RemoteResult<Self> {
        Ok(Chaser { target })
    }

    fn poke(&mut self, ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        PCounterClient::from_ref(self.target).add(ctx, n)
    }
}

/// A resolver on a worker machine: exercises the per-node resolution
/// cache of `resolve_or_activate_supervised` from somewhere that is
/// neither the directory's host nor the machine that repairs a binding.
#[derive(Debug)]
pub struct Resolver {
    dir: ObjRef,
}

oopp_repro::oopp::remote_class! {
    class Resolver {
        ctor(dir: ObjRef);
        /// Supervised resolution of `addr` over `candidates`; returns the
        /// resolved pointer.
        fn resolve(&mut self, addr: String, candidates: Vec<u64>) -> ObjRef;
    }
}

impl Resolver {
    pub fn new(_ctx: &mut NodeCtx, dir: ObjRef) -> RemoteResult<Self> {
        Ok(Resolver { dir })
    }

    fn resolve(
        &mut self,
        ctx: &mut NodeCtx,
        addr: String,
        candidates: Vec<u64>,
    ) -> RemoteResult<ObjRef> {
        let dir = NameService::classic(self.dir);
        let machines: Vec<usize> = candidates.iter().map(|&m| m as usize).collect();
        let client: DoubleBlockClient =
            resolve_or_activate_supervised(ctx, &dir, &addr, &machines)?;
        Ok(client.obj_ref())
    }
}

/// Short windows so probes against crashed machines cost milliseconds,
/// with enough retries to ride out injected loss.
fn fast_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(80))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)))
}

/// A wide window for driver calls that nest a full supervised resolution
/// (including a dead-machine probe under `fast_policy`) inside a single
/// request — the nested work alone outlasts the fast window.
fn patient_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(1500))
        .with_max_retries(4)
        .with_backoff(Backoff::fixed(Duration::from_millis(10)))
}

/// Migration is transparent to every kind of caller: the coordinator, a
/// worker-side caller holding a stale pointer (which must chase exactly
/// one forward per call, then go direct), and calls racing the move.
#[test]
fn migration_is_transparent_and_stale_pointers_chase_one_forward() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .register::<Chaser>()
        .build();

    let counter = PCounterClient::new_on(&mut driver, 0).unwrap();
    let chaser = ChaserClient::new_on(&mut driver, 2, counter.obj_ref()).unwrap();
    for i in 1..=5 {
        assert_eq!(counter.add(&mut driver, 1).unwrap(), i);
    }

    // Move machine 0 → machine 1.
    let new_ref = driver.migrate(counter.obj_ref(), 1).unwrap();
    assert_eq!(new_ref.machine, 1);

    // The coordinator's old client keeps working (its cache was updated
    // at commit time), and the state moved intact.
    assert_eq!(counter.total(&mut driver).unwrap(), 5);
    assert_eq!(counter.add(&mut driver, 1).unwrap(), 6);

    // Machine 2 holds the stale pointer: its first call bounces off the
    // forwarding stub at the old address and chases one hop.
    assert_eq!(chaser.poke(&mut driver, 1).unwrap(), 7);
    let forwarded_after_first = driver.stats_of(0).unwrap().calls_forwarded;
    assert!(
        forwarded_after_first >= 1,
        "stale call must hit the forwarding stub"
    );

    // Later calls go direct — the chaser's node cached the new address.
    assert_eq!(chaser.poke(&mut driver, 1).unwrap(), 8);
    assert_eq!(
        driver.stats_of(0).unwrap().calls_forwarded,
        forwarded_after_first,
        "second call through a learned pointer must not chase again"
    );

    // A second migration (1 → 2): still at most one chase per call,
    // because each node re-learns the newest address when it chases.
    let newer = driver.migrate(new_ref, 2).unwrap();
    assert_eq!(newer.machine, 2);
    assert_eq!(counter.add(&mut driver, 1).unwrap(), 9);
    assert_eq!(chaser.poke(&mut driver, 1).unwrap(), 10);

    // Migration accounting adds up.
    assert_eq!(driver.stats_of(0).unwrap().migrated_out, 1);
    let m1 = driver.stats_of(1).unwrap();
    assert_eq!((m1.migrated_in, m1.migrated_out), (1, 1));
    assert_eq!(driver.stats_of(2).unwrap().migrated_in, 1);

    cluster.shutdown(driver);
}

/// A migration whose target is dark must roll back: the object survives
/// at its original address, under its original id, with its state intact
/// — never lost, never duplicated.
#[test]
fn migration_to_dead_machine_rolls_back() {
    let plan = FaultPlan::seeded(0xD00D).with_drop(0.05);
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(fast_policy())
        .build();

    let counter = PCounterClient::new_on(&mut driver, 0).unwrap();
    for _ in 0..5 {
        counter.add(&mut driver, 1).unwrap();
    }

    // Crash the target mid-everything; the move must fail cleanly.
    cluster.sim().faults().crash(1);
    let err = driver.migrate(counter.obj_ref(), 1);
    assert!(
        err.is_err(),
        "migrating onto a crashed machine cannot succeed"
    );

    // Rollback: same address, same id, same state, still callable.
    assert_eq!(counter.total(&mut driver).unwrap(), 5);
    assert_eq!(counter.add(&mut driver, 1).unwrap(), 6);
    let stats = driver.stats_of(0).unwrap();
    assert_eq!(
        stats.migrated_out, 0,
        "an aborted move must not count as migrated"
    );
    assert_eq!(stats.objects_live, 2); // counter + directory

    // The machine comes back; a later migration succeeds normally.
    cluster.sim().faults().restart(1);
    let new_ref = driver.migrate(counter.obj_ref(), 1).unwrap();
    assert_eq!(new_ref.machine, 1);
    assert_eq!(counter.total(&mut driver).unwrap(), 6);

    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// Satellite regression: the resolution cache is per node and verified on
/// every use, so a *third* machine's stale cached pointer recovers after
/// a crash that some *other* machine repaired — no invalidation broadcast.
#[test]
fn third_machine_stale_resolution_recovers_after_rebind() {
    const N: usize = 16;
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<Resolver>()
        .call_policy(fast_policy())
        .build();
    let dir = driver.directory();
    let addr = symbolic_addr(&["placement", "block", "0"]);

    // The process lives on machine 1, replicated to machine 0.
    let block = DoubleBlockClient::new_on(&mut driver, 1, N).unwrap();
    block.fill(&mut driver, 4.25).unwrap();
    dir.bind(&mut driver, addr.clone(), block.obj_ref())
        .unwrap();
    driver.replicate_snapshot(&block, &addr, &[0]).unwrap();

    // Machine 2 resolves and caches the pointer to machine 1.
    let resolver = ResolverClient::new_on(&mut driver, 2, dir.obj_ref()).unwrap();
    let first = resolver
        .resolve(&mut driver, addr.clone(), vec![1, 0])
        .unwrap();
    assert_eq!(first, block.obj_ref());

    // Machine 1 dies; the *driver* notices and repairs the binding by
    // activating the replica on machine 0.
    cluster.sim().faults().crash(1);
    let recovered: DoubleBlockClient =
        resolve_or_activate_supervised(&mut driver, &dir, &addr, &[1, 0]).unwrap();
    assert_eq!(recovered.obj_ref().machine, 0);

    // Machine 2 still holds the dead pointer in its cache. Its next
    // resolution must detect the staleness itself (ping fails),
    // invalidate, and pick up the repaired binding from the directory.
    // That nested recovery outlasts the fast window, so the driver alone
    // widens its patience for this call.
    driver.set_call_policy(patient_policy());
    let second = resolver
        .resolve(&mut driver, addr.clone(), vec![1, 0])
        .unwrap();
    driver.set_call_policy(fast_policy());
    assert_eq!(
        second,
        recovered.obj_ref(),
        "stale cache entry must lazily recover"
    );
    assert_eq!(recovered.get(&mut driver, 3).unwrap(), 4.25);

    cluster.sim().faults().restart(1);
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// The balancer's closed loop on a live cluster: a Zipf-flavored hot spot
/// on machine 0 is spread out by `GreedyRebalance`, while the cooldown
/// keeps the round directly after a move quiet.
#[test]
fn balancer_spreads_hot_objects_and_cooldown_prevents_thrash() {
    let (cluster, mut driver) = ClusterBuilder::new(3).register::<PCounter>().build();

    // Six counters, all born on machine 0 (the paper's static placement).
    let counters: Vec<_> = (0..6)
        .map(|_| PCounterClient::new_on(&mut driver, 0).unwrap())
        .collect();
    let mut balancer = Balancer::new(
        PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.2,
            max_moves_per_round: 2,
        },
        vec![0, 1, 2],
    );
    balancer.pin(driver.directory().obj_ref());

    let drive_round = |driver: &mut oopp_repro::oopp::Driver, counters: &[PCounterClient]| {
        for (i, c) in counters.iter().enumerate() {
            for _ in 0..(12 - 2 * i.min(5)) {
                c.add(driver, 1).unwrap();
            }
        }
    };

    drive_round(&mut driver, &counters);
    let moved = balancer.step(&mut driver);
    assert!(
        !moved.is_empty(),
        "a 3-machine cluster with all load on one machine must rebalance"
    );
    assert!(moved.iter().all(|p| p.object.machine == 0 && p.target != 0));

    // Hysteresis: the very next round is a cooldown round — no moves even
    // though the load is still skewed.
    drive_round(&mut driver, &counters);
    let quiet = balancer.step(&mut driver);
    assert!(quiet.is_empty(), "cooldown round must not migrate");

    // The loop keeps converging afterwards, and clients kept working
    // through every move (totals are per-object monotone).
    drive_round(&mut driver, &counters);
    balancer.step(&mut driver);
    assert!(balancer.moves_executed() >= 1);
    let spread: usize = (0..3)
        .map(|m| (driver.stats_of(m).unwrap().migrated_in > 0) as usize)
        .sum();
    assert!(
        spread >= 1,
        "at least one machine must have received an object"
    );
    for c in &counters {
        c.add(&mut driver, 1).unwrap(); // still reachable wherever they live
    }

    cluster.shutdown(driver);
}

/// Regression: a managed machine that does not answer its probes must not
/// switch the balancer off. The balancer manages three machines with every
/// counter on machine 0; the cold machine 2 crashes, and the next step
/// still moves hot counters — to machine 1, the one cold machine it could
/// sample. (The step used to return the dead machine's `Timeout`, and so
/// planned nothing until the machine came back.)
#[test]
fn a_dead_managed_machine_does_not_stop_the_balancer() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xBA1A_2027))
        .call_policy(CallPolicy::no_retry(Duration::from_millis(20)))
        .build();
    let counters: Vec<_> = (0..4)
        .map(|_| PCounterClient::new_on(&mut driver, 0).unwrap())
        .collect();
    for (i, c) in counters.iter().enumerate() {
        for _ in 0..(8 - i) {
            c.add(&mut driver, 1).unwrap();
        }
    }
    let mut balancer = Balancer::new(
        PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.2,
            max_moves_per_round: 2,
        },
        vec![0, 1, 2],
    );
    balancer.pin(driver.directory().obj_ref());

    cluster.sim().faults().crash(2);
    let moved = balancer.step(&mut driver);
    assert!(!moved.is_empty(), "the live machines must still rebalance");
    assert!(
        moved.iter().all(|p| p.object.machine == 0 && p.target == 1),
        "hot counters go to the surviving cold machine: {moved:?}"
    );
    for c in &counters {
        c.add(&mut driver, 1).unwrap(); // still reachable wherever they live
    }
    cluster.shutdown(driver);
}

/// Deterministic workload over `K` counters with a seeded migration
/// schedule woven between rounds. Returns every total every `add`
/// returned, in issue order — the linearization witness.
fn migration_workload(
    workers: usize,
    rounds: usize,
    faults: FaultPlan,
    schedule: &[(usize, usize)], // (counter index, target machine) per round, cycled
    migrate_on: bool,
) -> Vec<u64> {
    const K: usize = 3;
    let (cluster, mut driver) = ClusterBuilder::new(workers)
        .register::<PCounter>()
        .sim_config(ClusterConfig::zero_cost(0).with_faults(faults))
        .call_policy(fast_policy())
        .build();

    let counters: Vec<_> = (0..K)
        .map(|_| PCounterClient::new_on(&mut driver, 0).unwrap())
        .collect();
    let mut witness = Vec::new();
    for round in 0..rounds {
        for (i, c) in counters.iter().enumerate() {
            for k in 0..3 {
                witness.push(c.add(&mut driver, (round + i + k) as u64 % 5 + 1).unwrap());
            }
        }
        if migrate_on && !schedule.is_empty() {
            let (idx, target) = schedule[round % schedule.len()];
            let c = &counters[idx % K];
            // The client's ObjRef is the *original* address; migrate()
            // resolves it through the forwarding cache first.
            driver.migrate(c.obj_ref(), target % workers).unwrap();
        }
    }
    for c in &counters {
        witness.push(c.total(&mut driver).unwrap());
    }
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    witness
}

/// Replicable counter: `peek` is a `reads(...)` verb, so the replica
/// manager will accept it — the smallest class that can sit at the
/// balancer/replication intersection.
#[derive(Debug, Default)]
pub struct RCell {
    total: u64,
}

oopp_repro::oopp::remote_class! {
    class RCell {
        persistent;
        reads(peek);
        ctor();
        /// Add `n`; returns the new total (the write verb).
        fn bump(&mut self, n: u64) -> u64;
        /// Current total (the replicated read verb).
        fn peek(&mut self) -> u64;
    }
}

impl RCell {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(RCell::default())
    }

    fn bump(&mut self, _ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        self.total += n;
        Ok(self.total)
    }

    fn peek(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.total)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.total)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        Ok(RCell {
            total: wire::from_bytes(state)?,
        })
    }
}

/// The replicated-objects-vs-migration coupling (DESIGN.md §11): a
/// replicated primary refuses migration, and the balancer must treat
/// that as routine coordination, not as a failure. Fed the replica
/// footprint it skips the plan without a wire call; without the feed it
/// learns from the `Replicated` refusal instead of blacklisting; after
/// `unreplicate` the object must be movable again.
#[test]
fn balancer_skips_replicated_primaries_and_recovers_after_unreplicate() {
    use replica::{ReplicaConfig, ReplicaManager};

    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<RCell>()
        .register::<PCounter>()
        .build();
    let dir = driver.directory();

    // All load lands on machine 0: one hot replicable cell plus a warm
    // companion so the greedy planner always has a candidate strictly
    // smaller than the machine gap.
    let hot = RCellClient::new_on(&mut driver, 0).unwrap();
    let warm = PCounterClient::new_on(&mut driver, 0).unwrap();
    let addr = symbolic_addr(&["placement", "rcell", "hot"]);
    dir.bind(&mut driver, addr.clone(), hot.obj_ref()).unwrap();

    for _ in 0..20 {
        hot.bump(&mut driver, 1).unwrap();
    }
    for _ in 0..8 {
        warm.add(&mut driver, 1).unwrap();
    }

    let mut mgr = ReplicaManager::new(ReplicaConfig::default(), dir);
    mgr.replicate(&mut driver, &addr, &hot, &[1]).unwrap();
    assert!(mgr.footprint(&addr).contains(&1));

    let policy = || PlacementPolicy::GreedyRebalance {
        imbalance_ratio: 1.2,
        max_moves_per_round: 2,
    };

    // Phase A — footprint fed: the plan for the hot cell is skipped
    // outright; no migration is even attempted on the wire.
    let mut fed = Balancer::new(policy(), vec![0, 1, 2]);
    fed.pin(dir.obj_ref());
    fed.pin(warm.obj_ref());
    fed.set_replicated([mgr.primary_of(&addr).unwrap()]);
    fed.step(&mut driver);
    assert_eq!(fed.moves_skipped_replicated(), 1);
    assert_eq!(fed.moves_executed(), 0);
    assert_eq!(driver.stats_of(0).unwrap().migrated_out, 0);

    // Phase B — no feed: the balancer burns one round trip on the
    // `Replicated` refusal, counts it as a skip (not a failure), and
    // learns the footprint rather than blacklisting the object.
    for _ in 0..20 {
        hot.bump(&mut driver, 1).unwrap();
    }
    for _ in 0..8 {
        warm.add(&mut driver, 1).unwrap();
    }
    let mut blind = Balancer::new(policy(), vec![0, 1, 2]);
    blind.pin(dir.obj_ref());
    blind.pin(warm.obj_ref());
    blind.step(&mut driver);
    assert_eq!(blind.moves_skipped_replicated(), 1);
    assert_eq!(blind.moves_executed(), 0);
    assert_eq!(
        driver.stats_of(0).unwrap().migrated_out,
        0,
        "a Replicated refusal must roll back before any transfer"
    );

    // Phase C — tear the replica set down: the object is a plain movable
    // process again, and the same balancer (footprint now empty) must
    // migrate it off the hot machine with state intact.
    mgr.unreplicate(&mut driver, &addr).unwrap();
    blind.set_replicated(std::iter::empty());
    for _ in 0..20 {
        hot.bump(&mut driver, 1).unwrap();
    }
    for _ in 0..8 {
        warm.add(&mut driver, 1).unwrap();
    }
    let moved = blind.step(&mut driver);
    assert_eq!(blind.moves_executed(), 1, "unreplicated object must move");
    assert!(moved.iter().any(|p| p.object == hot.obj_ref()));
    assert_eq!(hot.peek(&mut driver).unwrap(), 60);

    cluster.shutdown(driver);
}

mod proptests {
    use super::*;
    use oopp_repro::simnet::sweep::cases;

    /// Any seeded sequence of migrations is invisible to the computation:
    /// every intermediate total matches the no-migration run bit for bit
    /// (per-object call linearizability), including under loss +
    /// duplication, where retransmitted calls cross the move and must
    /// still execute exactly once (the dedup guarantee carried by the
    /// forwarding stub).
    #[test]
    fn seeded_migrations_preserve_linearizability() {
        cases(
            "proptests::seeded_migrations_preserve_linearizability",
            4,
            |c| {
                let (seed, drop_p) = (c.next_u64(), c.range(0.0..0.12));
                // The schedule is drawn up front: no randomness at execution
                // time.
                let schedule: Vec<(usize, usize)> = (0..6)
                    .map(|_| (c.next_u64() as usize, c.next_u64() as usize))
                    .collect();

                let baseline = migration_workload(3, 6, FaultPlan::none(), &[], false);
                let migrated = migration_workload(3, 6, FaultPlan::none(), &schedule, true);
                assert_eq!(&baseline, &migrated);

                let plan = FaultPlan::seeded(seed)
                    .with_drop(drop_p)
                    .with_dup(drop_p / 2.0);
                let chaotic = migration_workload(3, 6, plan, &schedule, true);
                assert_eq!(&baseline, &chaotic);
            },
        );
    }
}
