//! Read-replication suite (DESIGN.md §11).
//!
//! Exercises the replica subsystem end to end: read verbs fanned out
//! across a replica set while writes stay serialized at the primary,
//! write-through read-your-writes, bounded-staleness lag and re-sync,
//! the stale-replica and dead-replica fallback paths, CAS-fenced
//! promotion of a replica after the primary's machine dies, the
//! unmovable-while-replicated migration rule, replica-set broadcast,
//! and the supervisor's declare-dead purge of replica records.

use std::time::{Duration, Instant};

use oopp_repro::oopp::{
    migrate_bound, symbolic_addr, wire, Backoff, CallPolicy, ClusterBuilder, NodeCtx, ProcessGroup,
    RemoteClient, RemoteError, RemoteResult,
};
use oopp_repro::simnet::ClusterConfig;
use replica::{CoherenceMode, ReplicaConfig, ReplicaManager};

/// Persistent counter whose `total` is declared a read verb: the runtime
/// may serve it from any replica. `add` stays a write and always runs at
/// the primary.
#[derive(Debug, Default)]
pub struct RCounter {
    total: u64,
}

oopp_repro::oopp::remote_class! {
    class RCounter {
        persistent;
        reads(total);
        ctor();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
        /// Current total (replica-servable).
        fn total(&mut self) -> u64;
    }
}

impl RCounter {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(RCounter::default())
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
        Ok(RCounter {
            total: wire::from_bytes(state)?,
        })
    }
}

/// A class with no `reads(...)` verbs — nothing a replica could serve.
#[derive(Debug, Default)]
pub struct WriteOnly {
    hits: u64,
}

oopp_repro::oopp::remote_class! {
    class WriteOnly {
        persistent;
        ctor();
        /// Mutate; returns the hit count.
        fn bump(&mut self) -> u64;
    }
}

impl WriteOnly {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(WriteOnly::default())
    }

    fn bump(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        self.hits += 1;
        Ok(self.hits)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.hits)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        Ok(WriteOnly {
            hits: wire::from_bytes(state)?,
        })
    }
}

/// Fast-failure policy: dead replicas must cost short windows.
fn test_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(100))
        .with_max_retries(2)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)))
}

/// A lease long enough that test wall-clock cannot lapse it by accident;
/// staleness tests override it explicitly.
fn long_lease() -> ReplicaConfig {
    ReplicaConfig {
        mode: CoherenceMode::WriteThrough,
        lease: Duration::from_secs(30),
    }
}

/// A 4-worker cluster (driver is machine 4), a bound counter on machine
/// `home` seeded to `seed`, and a manager for it.
fn replicated_counter(
    seed: u64,
    home: usize,
    targets: &[usize],
    cfg: ReplicaConfig,
) -> (
    oopp_repro::oopp::Cluster,
    oopp_repro::oopp::Driver,
    RCounterClient,
    String,
    ReplicaManager,
    Vec<oopp_repro::oopp::ObjRef>,
) {
    replicated_counter_on(ClusterConfig::zero_cost(0), seed, home, targets, cfg)
}

/// [`replicated_counter`] on the substrate `sim` (e.g. under virtual time).
fn replicated_counter_on(
    sim: ClusterConfig,
    seed: u64,
    home: usize,
    targets: &[usize],
    cfg: ReplicaConfig,
) -> (
    oopp_repro::oopp::Cluster,
    oopp_repro::oopp::Driver,
    RCounterClient,
    String,
    ReplicaManager,
    Vec<oopp_repro::oopp::ObjRef>,
) {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<RCounter>()
        .register::<WriteOnly>()
        .sim_config(sim)
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let c = RCounterClient::new_on(&mut driver, home).unwrap();
    let name = symbolic_addr(&["replica", "RCounter", "0"]);
    dir.bind(&mut driver, name.clone(), c.obj_ref()).unwrap();
    if seed > 0 {
        c.add(&mut driver, seed).unwrap();
    }
    let mut mgr = ReplicaManager::new(cfg, dir);
    let replicas = mgr.replicate(&mut driver, &name, &c, targets).unwrap();
    (cluster, driver, c, name, mgr, replicas)
}

/// Read verbs round-robin across the replica set; the primary serves
/// none of them. A target on the primary's own machine is skipped.
#[test]
fn reads_are_served_by_replicas_not_the_primary() {
    let (cluster, mut driver, c, name, mgr, replicas) =
        replicated_counter(7, 0, &[0, 1, 2], long_lease());
    // Machine 0 hosts the primary: no replica materializes beside it.
    assert_eq!(replicas.len(), 2);
    assert!(replicas.iter().all(|r| r.machine == 1 || r.machine == 2));
    assert_eq!(mgr.footprint(&name), [0, 1, 2].into_iter().collect());

    for _ in 0..10 {
        assert_eq!(c.total(&mut driver).unwrap(), 7);
    }
    let (s0, s1, s2) = (
        driver.stats_of(0).unwrap(),
        driver.stats_of(1).unwrap(),
        driver.stats_of(2).unwrap(),
    );
    assert_eq!(s0.replica_reads_served, 0, "primary must not serve reads");
    assert_eq!(s1.replica_reads_served, 5, "round-robin splits evenly");
    assert_eq!(s2.replica_reads_served, 5, "round-robin splits evenly");
    // Writes still reach the primary through the same client.
    assert_eq!(c.add(&mut driver, 1).unwrap(), 8);
    assert_eq!(c.total(&mut driver).unwrap(), 8);
    cluster.shutdown(driver);
}

/// Write-through coherence: every write re-syncs the replicas before it
/// is acknowledged, so a read routed to *any* replica observes it.
#[test]
fn write_through_gives_read_your_writes_at_every_replica() {
    let (cluster, mut driver, c, _name, _mgr, _replicas) =
        replicated_counter(0, 0, &[1, 2], long_lease());
    for i in 1..=6u64 {
        assert_eq!(c.add(&mut driver, 1).unwrap(), i);
        // The very next read — wherever the round-robin lands — sees it.
        assert_eq!(c.total(&mut driver).unwrap(), i, "write {i} not visible");
    }
    let s0 = driver.stats_of(0).unwrap();
    assert!(
        s0.replica_syncs_sent >= 12,
        "6 writes x 2 replicas must propagate, saw {}",
        s0.replica_syncs_sent
    );
    let served = driver.stats_of(1).unwrap().replica_reads_served
        + driver.stats_of(2).unwrap().replica_reads_served;
    assert_eq!(served, 6, "every read-your-write probe came off a replica");
    cluster.shutdown(driver);
}

/// A write addressed at a replica's own pointer is not absorbed: the
/// replica bounces it `Moved` to the primary and the client's chase
/// executes it there, exactly once.
#[test]
fn write_at_a_replica_lands_at_the_primary() {
    let (cluster, mut driver, c, _name, _mgr, replicas) =
        replicated_counter(7, 0, &[1, 2], long_lease());
    let via_replica = RCounterClient::from_ref(replicas[0]);
    assert_eq!(via_replica.add(&mut driver, 5).unwrap(), 12);
    assert_eq!(c.total(&mut driver).unwrap(), 12);
    // The replicas were write-through-synced by that bounced write too.
    let direct: u64 = driver
        .call_method(replicas[1], "total", |_| {})
        .expect("direct replica read");
    assert_eq!(direct, 12);
    cluster.shutdown(driver);
}

/// Bounded staleness: writes ack without waiting for replicas, reads may
/// trail until the manager's next step re-syncs, and a replica whose
/// coherence lease lapses refuses reads (`StaleReplica`) so the client
/// falls back to the always-coherent primary.
#[test]
fn bounded_staleness_lags_then_recovers() {
    let cfg = ReplicaConfig {
        mode: CoherenceMode::BoundedStaleness,
        lease: Duration::from_millis(80),
    };
    let (cluster, mut driver, c, _name, mut mgr, _replicas) = replicated_counter(7, 0, &[1], cfg);

    // Within the lease, a replica read is allowed to trail the primary:
    // the write acked without any propagation.
    assert_eq!(c.add(&mut driver, 1).unwrap(), 8);
    assert_eq!(driver.stats_of(0).unwrap().replica_syncs_sent, 0);
    assert_eq!(
        c.total(&mut driver).unwrap(),
        7,
        "staleness is the contract"
    );

    // One maintenance step closes the gap.
    assert_eq!(mgr.step(&mut driver).unwrap(), 1);
    mgr.refresh_routes(&mut driver).unwrap();
    assert_eq!(c.total(&mut driver).unwrap(), 8);

    // Let the lease lapse: the replica can no longer bound its lag, so it
    // refuses and the read transparently lands at the primary instead.
    assert_eq!(c.add(&mut driver, 1).unwrap(), 9);
    std::thread::sleep(Duration::from_millis(160));
    assert_eq!(
        c.total(&mut driver).unwrap(),
        9,
        "fallback must be coherent"
    );
    assert!(driver.stats_of(1).unwrap().replica_reads_stale >= 1);

    // step() renews/re-syncs; the route is freshened and serving resumes.
    mgr.step(&mut driver).unwrap();
    mgr.refresh_routes(&mut driver).unwrap();
    let before = driver.stats_of(1).unwrap().replica_reads_served;
    assert_eq!(c.total(&mut driver).unwrap(), 9);
    assert_eq!(driver.stats_of(1).unwrap().replica_reads_served, before + 1);
    cluster.shutdown(driver);
}

/// A replica machine crashes: in-flight reads fall back to the primary
/// (reads are re-executable by contract), the manager shrinks the set,
/// and reads keep flowing off the survivor.
#[test]
fn replica_crash_shrinks_the_set_and_reads_keep_flowing() {
    let (cluster, mut driver, c, name, mut mgr, replicas) =
        replicated_counter(7, 0, &[1, 2], long_lease());
    let survivor = replicas.iter().find(|r| r.machine == 2).copied().unwrap();

    cluster.sim().faults().crash(1);
    // Whichever copy the round-robin picks — the corpse included — every
    // read still answers correctly (timeout fallback to the primary).
    for _ in 0..4 {
        assert_eq!(c.total(&mut driver).unwrap(), 7);
    }

    let promoted = mgr.handle_dead_machine(&mut driver, 1).unwrap();
    assert!(promoted.is_empty(), "the primary did not die");
    assert_eq!(mgr.replicas_of(&name).unwrap(), vec![survivor]);
    let dir = driver.directory();
    let (set, _) = dir.replica_set(&mut driver, name.clone()).unwrap().unwrap();
    assert_eq!(set, vec![survivor], "directory scrubbed of the dead copy");

    // Reads land exclusively on the survivor now, and write-through
    // coherence continues against the shrunken set.
    let before = driver.stats_of(2).unwrap().replica_reads_served;
    assert_eq!(c.add(&mut driver, 1).unwrap(), 8);
    for _ in 0..3 {
        assert_eq!(c.total(&mut driver).unwrap(), 8);
    }
    assert_eq!(driver.stats_of(2).unwrap().replica_reads_served, before + 3);

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// The primary's machine crashes: the manager wins the directory claim
/// and promotes a surviving replica in place — no snapshot restore, the
/// replica *is* a live copy — and the write stream continues against the
/// re-fenced incarnation with state intact.
#[test]
fn primary_crash_promotes_a_replica_with_state_intact() {
    // The primary lives on machine 1 — machine 0 hosts the naming
    // directory, which must survive to arbitrate the failover claim.
    let (cluster, mut driver, c, name, mut mgr, replicas) =
        replicated_counter(0, 1, &[2, 3], long_lease());
    for _ in 0..7 {
        c.add(&mut driver, 1).unwrap();
    }

    cluster.sim().faults().crash(1);
    let promoted = mgr.handle_dead_machine(&mut driver, 1).unwrap();
    assert_eq!(promoted.len(), 1);
    let (pname, new_primary) = promoted[0].clone();
    assert_eq!(pname, name);
    assert!(new_primary.machine == 2 || new_primary.machine == 3);
    assert!(replicas.contains(&new_primary), "promoted in place");
    assert_eq!(mgr.primary_of(&name), Some(new_primary));
    assert_eq!(mgr.stats().promotions, 1);

    // The directory agrees: bound to the promoted copy, epoch advanced.
    let dir = driver.directory();
    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((new_primary, 1, false))
    );

    // State survived byte-for-byte (the replica was write-through
    // current), and writes continue exactly-once on the new incarnation.
    let c2 = RCounterClient::from_ref(new_primary);
    assert_eq!(c2.total(&mut driver).unwrap(), 7);
    assert_eq!(c2.add(&mut driver, 1).unwrap(), 8);

    // The set shrank to the other survivor, which keeps serving reads
    // for the new primary.
    let rest = mgr.replicas_of(&name).unwrap();
    assert_eq!(rest.len(), 1);
    let other = rest[0];
    assert_ne!(other, new_primary);
    let before = driver.stats_of(other.machine).unwrap().replica_reads_served;
    assert_eq!(c2.total(&mut driver).unwrap(), 8);
    assert_eq!(
        driver.stats_of(other.machine).unwrap().replica_reads_served,
        before + 1
    );

    cluster.sim().faults().restart(1);
    cluster.shutdown(driver);
}

/// Replicated objects are unmovable (DESIGN.md §11): migration refuses
/// both the primary and its replicas with the typed `Replicated` error;
/// the way out is to tear the set down (`unreplicate`), then move the
/// primary and rebind the name (`migrate_bound`).
#[test]
fn replicated_objects_refuse_migration_until_unreplicated() {
    let (cluster, mut driver, c, name, mut mgr, replicas) =
        replicated_counter(7, 0, &[1], long_lease());

    let err = driver.migrate(c.obj_ref(), 3).unwrap_err();
    assert!(
        matches!(err, RemoteError::Replicated { object } if object == c.obj_ref().object),
        "got {err}"
    );
    assert!(err.to_string().contains("unmovable"), "got {err}");
    let err = driver.migrate(replicas[0], 3).unwrap_err();
    assert!(
        matches!(err, RemoteError::Replicated { object } if object == replicas[0].object),
        "got {err}"
    );

    mgr.unreplicate(&mut driver, &name).unwrap();
    let dir = driver.directory();
    let moved = migrate_bound(&mut driver, &dir, &name, 3).unwrap();
    assert_eq!(moved.machine, 3);
    assert!(mgr.primary_of(&name).is_none());
    // The name follows the object: a fresh resolve reaches the new home.
    let bound = driver
        .directory()
        .lookup(&mut driver, name.clone())
        .unwrap()
        .unwrap();
    assert_eq!(bound, moved);
    assert_eq!(
        RCounterClient::from_ref(moved).total(&mut driver).unwrap(),
        7
    );
    // Movable again for real: a second migration succeeds too.
    let moved_again = driver.migrate(moved, 2).unwrap();
    assert_eq!(moved_again.machine, 2);
    cluster.shutdown(driver);
}

/// Replication demands a class with read verbs and a directory binding;
/// double-replication is refused.
#[test]
fn replicate_rejects_unusable_inputs() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<RCounter>()
        .register::<WriteOnly>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut mgr = ReplicaManager::new(long_lease(), dir);

    // No reads(...) verbs: a replica could serve nothing.
    let w = WriteOnlyClient::new_on(&mut driver, 0).unwrap();
    let name_w = symbolic_addr(&["replica", "WriteOnly", "0"]);
    dir.bind(&mut driver, name_w.clone(), w.obj_ref()).unwrap();
    let err = mgr
        .replicate(&mut driver, &name_w, &w, &[1])
        .unwrap_err()
        .to_string();
    assert!(err.contains("reads"), "got {err}");

    // Not bound in the directory.
    let c = RCounterClient::new_on(&mut driver, 0).unwrap();
    let err = mgr
        .replicate(&mut driver, "oopp://nowhere", &c, &[1])
        .unwrap_err()
        .to_string();
    assert!(err.contains("not bound"), "got {err}");

    // Bound, but to a different object than the given client.
    let name_c = symbolic_addr(&["replica", "RCounter", "x"]);
    dir.bind(&mut driver, name_c.clone(), w.obj_ref()).unwrap();
    let err = mgr
        .replicate(&mut driver, &name_c, &c, &[1])
        .unwrap_err()
        .to_string();
    assert!(err.contains("does not match"), "got {err}");

    // Already replicated.
    dir.bind(&mut driver, name_c.clone(), c.obj_ref()).unwrap();
    mgr.replicate(&mut driver, &name_c, &c, &[1]).unwrap();
    let err = mgr
        .replicate(&mut driver, &name_c, &c, &[2])
        .unwrap_err()
        .to_string();
    assert!(err.contains("already replicated"), "got {err}");
    cluster.shutdown(driver);
}

/// `of_replica_set` + `broadcast`: the E1/E3 split loop over every live
/// copy — each request transmitted before any reply is awaited, each
/// member addressed directly (the primary is not re-routed back to a
/// replica).
#[test]
fn broadcast_reaches_the_primary_and_every_replica_directly() {
    let (cluster, mut driver, c, _name, _mgr, _replicas) =
        replicated_counter(7, 0, &[1, 2], long_lease());

    let group = ProcessGroup::of_replica_set(&driver, &c);
    assert_eq!(group.len(), 3, "primary + two replicas");
    let totals: Vec<u64> = group.broadcast(&mut driver, "total", |_| {}).unwrap();
    assert_eq!(totals, vec![7, 7, 7]);
    // The primary answered its own copy: broadcast bypasses read routing.
    assert_eq!(driver.stats_of(0).unwrap().replica_reads_served, 0);
    let served = driver.stats_of(1).unwrap().replica_reads_served
        + driver.stats_of(2).unwrap().replica_reads_served;
    assert_eq!(served, 2);

    // An unreplicated object broadcasts as a singleton group.
    let lone = RCounterClient::new_on(&mut driver, 3).unwrap();
    let group = ProcessGroup::of_replica_set(&driver, &lone);
    assert_eq!(group.len(), 1);
    let totals: Vec<u64> = group.broadcast(&mut driver, "total", |_| {}).unwrap();
    assert_eq!(totals, vec![0]);
    cluster.shutdown(driver);
}

/// Regression: a `StaleReplica` verdict for a **directly addressed** call
/// (`start_method_direct`, i.e. a replica-set broadcast member) is that
/// call's answer. `wait_raw` used to take it for the replayed verdict of
/// an already-redirected read, discard it, and wait out the whole retry
/// budget for a `Timeout`.
#[test]
fn direct_call_to_a_lapsed_replica_surfaces_stale_replica() {
    let cfg = ReplicaConfig {
        mode: CoherenceMode::BoundedStaleness,
        lease: Duration::from_millis(80),
    };
    let sim = ClusterConfig::zero_cost(0).with_virtual_time(7);
    let (cluster, mut driver, c, _name, _mgr, replicas) =
        replicated_counter_on(sim, 7, 0, &[1], cfg);

    // Nobody renews the coherence lease while virtual time runs past it.
    driver.serve_for(Duration::from_millis(160));

    let at_replica = driver
        .start_method_direct::<u64>(replicas[0], "total", |_| {})
        .unwrap();
    let at_primary = driver
        .start_method_direct::<u64>(c.obj_ref(), "total", |_| {})
        .unwrap();
    match at_replica.wait(&mut driver) {
        Err(RemoteError::StaleReplica { primary, .. }) => assert_eq!(primary, c.obj_ref()),
        other => panic!("the lapsed replica must answer StaleReplica, got {other:?}"),
    }
    assert_eq!(at_primary.wait(&mut driver).unwrap(), 7);
    cluster.shutdown(driver);
}

/// Regression: a replication role is part of its object's record and dies
/// with it. The roles used to live in machine-wide tables that
/// `deactivate`, `fence` and the stale-server quarantine forgot to clean,
/// so `replica_status` / `replica_renew` kept answering `Ok` for objects
/// that no longer existed — and the manager kept renewing and routing to
/// them. Both verbs must answer what any other verb aimed at the id gets.
#[test]
fn replication_roles_die_with_their_object() {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<RCounter>()
        .call_policy(test_policy())
        .build();
    let d = &mut driver;
    let c = RCounterClient::new_on(d, 0).unwrap();
    let primary = c.obj_ref();
    let state = d.snapshot_of(primary).unwrap();
    let adopt =
        |d: &mut NodeCtx, m| d.replica_adopt(m, "RCounter", state.clone(), primary, 1, 60_000);
    let (gone, fenced, stale) = (
        adopt(d, 1).unwrap(),
        adopt(d, 2).unwrap(),
        adopt(d, 3).unwrap(),
    );
    d.replica_attach(primary, vec![gone, fenced, stale], 1, true, 60_000)
        .unwrap();
    assert!(!d.replica_status_of(gone).unwrap().is_primary);

    // Both role verbs, aimed at `r`, must fail the way `want` accepts.
    let check = |d: &mut NodeCtx, r, what: &str, want: &dyn Fn(&RemoteError) -> bool| {
        let status = d.replica_status_of(r).map(|s| s.is_primary);
        let renew = d.replica_renew(r, 1, 60_000);
        assert!(
            matches!(&status, Err(e) if want(e)),
            "replica_status after {what}: {status:?}"
        );
        assert!(
            matches!(&renew, Err(e) if want(e)),
            "replica_renew after {what}: {renew:?}"
        );
    };

    d.deactivate(gone, "parked-replica".into()).unwrap();
    check(d, gone, "deactivate (replica)", &|e| {
        matches!(e, RemoteError::NoSuchObject { .. })
    });

    d.fence_object(fenced, 5, primary).unwrap();
    check(
        d,
        fenced,
        "fence",
        &|e| matches!(e, RemoteError::Moved { to } if *to == primary),
    );

    // Quarantine: the replica is supervised at epoch 1 and meets a call
    // carrying proof of a takeover at epoch 2.
    d.set_epoch_of(stale, 1).unwrap();
    d.note_epoch(stale, 2);
    let call = RCounterClient::from_ref(stale).total(d);
    assert!(
        matches!(call, Err(RemoteError::Fenced { current_epoch: 2 })),
        "the superseded incarnation must fence itself, got {call:?}"
    );
    check(d, stale, "quarantine", &|e| {
        matches!(e, RemoteError::Fenced { current_epoch: 2 })
    });

    d.deactivate(primary, "parked-primary".into()).unwrap();
    check(d, primary, "deactivate (primary)", &|e| {
        matches!(e, RemoteError::NoSuchObject { .. })
    });
    cluster.shutdown(driver);
}

/// Step `sup` until `done` (or panic after 15s).
fn settle(
    sup: &mut supervision::Supervisor,
    driver: &mut oopp_repro::oopp::Driver,
    mut done: impl FnMut(&supervision::Supervisor) -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        sup.step(driver).expect("directory must stay reachable");
        if done(sup) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "supervisor did not settle: {:?}",
            sup.stats()
        );
        driver.serve_for(Duration::from_millis(2));
    }
}

/// Regression (satellite of PR 5): the supervisor's declare-dead purge
/// must scrub replica-set records pointing at the corpse — a client
/// refreshing routes from the directory must never be handed a dead
/// replica, even if no `ReplicaManager` ever reacts.
#[test]
fn declare_dead_purges_replica_records_from_the_directory() {
    use supervision::Supervisor;

    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<RCounter>()
        .register::<WriteOnly>()
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(test_policy())
        .build();
    let dir = driver.directory();
    let mut sup = Supervisor::new(Duration::from_millis(150), vec![1, 2], dir);

    let name = symbolic_addr(&["replica", "RCounter", "0"]);
    let c = RCounterClient::new_on(&mut driver, 1).unwrap();
    sup.register(&mut driver, &name, &c, &[3]).unwrap();
    c.add(&mut driver, 7).unwrap();
    let mut mgr = ReplicaManager::new(long_lease(), dir);
    let replicas = mgr.replicate(&mut driver, &name, &c, &[2]).unwrap();
    assert_eq!(replicas[0].machine, 2);
    let (_, rs_before) = dir.replica_set(&mut driver, name.clone()).unwrap().unwrap();

    // Wait for heartbeats to flow, then kill the *replica's* machine. The
    // manager is deliberately never told: the supervisor alone must clean
    // up.
    settle(&mut sup, &mut driver, |s| s.last_heartbeat(2).is_some());
    cluster.sim().faults().crash(2);
    settle(&mut sup, &mut driver, |s| s.is_dead(2));

    let (set, rs_after) = dir.replica_set(&mut driver, name.clone()).unwrap().unwrap();
    assert!(set.is_empty(), "dead replica still advertised: {set:?}");
    assert!(rs_after > rs_before, "purge must fence with an epoch bump");
    // A route refresh now converges on "no replicas" instead of a corpse.
    mgr.refresh_routes(&mut driver).unwrap();
    assert!(driver.replica_route_of(c.obj_ref()).is_none());
    // And the primary — which never died — still serves both verbs.
    assert_eq!(c.total(&mut driver).unwrap(), 7);

    cluster.sim().faults().restart(2);
    cluster.shutdown(driver);
}
