//! Sharded control-plane suite (DESIGN.md §14).
//!
//! Exercises the `dirsvc` management plane end to end on a virtual-time
//! fabric: attaching the `DirShard` fleet to supervision or replication,
//! snapshot takeover of an unreplicated shard primary, the satellite
//! regression that a *replicated* shard heals by state-preserving
//! promotion (not a `Replicated` refusal, not a stale snapshot), lookup
//! availability through the outage window, and the client resolve
//! cache's hit/miss accounting.
//!
//! One idiom throughout: epoch-gated incarnations (takeover or promoted
//! shards) are lease-self-fenced — they serve only while supervisor
//! heartbeats renew their machine's lease (DESIGN.md §10). Audits after
//! a fault therefore run with the control loop still stepping, exactly
//! as a production driver would.

use std::time::Duration;

use dirsvc::{DirService, DirServiceConfig, DirStep};
use oopp_repro::oopp::{
    shard_addr, shard_of_name, symbolic_addr, Backoff, CallPolicy, Cluster, ClusterBuilder, Driver,
    NameService, ObjRef, RemoteError,
};
use oopp_repro::simnet::ClusterConfig;
use replica::{CoherenceMode, ReplicaConfig};

/// Fast-failure policy: dead shard seats must cost short windows.
fn fast_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(100))
        .with_max_retries(2)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)))
}

/// Service tuning scaled to the zero-cost virtual fabric.
fn svc_config(read_replicas: usize) -> DirServiceConfig {
    DirServiceConfig {
        read_replicas,
        lease_ttl: Duration::from_millis(150),
        replica: ReplicaConfig {
            mode: CoherenceMode::WriteThrough,
            lease: Duration::from_secs(30),
        },
    }
}

/// A 4-worker cluster (driver is machine 4) on a seeded virtual clock
/// with `shards` directory shards seated round-robin on machines
/// `0..4`. Machine 0 hosts the root directory and is never faulted.
fn build(shards: u32, seed: u64) -> (Cluster, Driver) {
    ClusterBuilder::new(4)
        .dir_shards(shards)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
        .call_policy(fast_policy())
        .build()
}

/// Step the service until `done` says so (panic past `limit` on the
/// cluster clock), merging every round's outcome.
fn settle(
    svc: &mut DirService,
    driver: &mut Driver,
    limit: Duration,
    mut done: impl FnMut(&DirService, &DirStep) -> bool,
) -> DirStep {
    let deadline = driver.now_nanos() + limit.as_nanos() as u64;
    let mut out = DirStep::default();
    loop {
        let round = svc.step(driver).expect("control plane must keep stepping");
        out.takeovers.extend(round.takeovers);
        out.promotions.extend(round.promotions);
        if done(svc, &out) {
            return out;
        }
        assert!(
            driver.now_nanos() < deadline,
            "dirsvc did not settle in {limit:?}: stats {:?} {:?}",
            svc.supervisor().stats(),
            svc.replicas().stats()
        );
        driver.serve_for(Duration::from_millis(2));
    }
}

/// Look `name` up through the facade with the control loop running: a
/// healed shard serves only while heartbeats renew its lease, so each
/// attempt is preceded by a service step. Panics if the lookup cannot
/// complete within the budget.
fn lookup_stepping(
    svc: &mut DirService,
    driver: &mut Driver,
    ns: &NameService,
    name: &str,
) -> Option<ObjRef> {
    for _ in 0..40 {
        svc.step(driver).expect("control plane must keep stepping");
        match ns.lookup(driver, name.to_string()) {
            Ok(v) => return v,
            Err(RemoteError::Timeout { .. }) | Err(RemoteError::Fenced { .. }) => {
                driver.serve_for(Duration::from_millis(2));
            }
            Err(e) => panic!("{name}: unexpected lookup error {e:?}"),
        }
    }
    panic!("{name}: lookup never completed with the control loop running");
}

/// Bind `n` names per shard through the sharded facade, returning the
/// `(name, target)` ledger to audit after faults.
fn bind_ledger(
    ns: &NameService,
    driver: &mut Driver,
    tag: &str,
    n: usize,
) -> Vec<(String, ObjRef)> {
    let shards = ns.shards();
    let mut ledger = Vec::new();
    let mut per_shard = vec![0usize; shards as usize];
    for i in 0..10_000usize {
        if ledger.len() == shards as usize * n {
            break;
        }
        let name = symbolic_addr(&["dirsvc", tag, &i.to_string()]);
        let s = shard_of_name(&name, shards) as usize;
        if per_shard[s] >= n {
            continue;
        }
        per_shard[s] += 1;
        let target = ObjRef {
            machine: i % 4,
            object: 10_000 + i as u64,
        };
        ns.bind(driver, name.clone(), target).unwrap();
        ledger.push((name, target));
    }
    assert_eq!(ledger.len(), shards as usize * n, "name scan exhausted");
    ledger
}

/// `attach` must refuse a classic (unsharded) cluster loudly instead of
/// supervising a shard map that does not exist.
#[test]
fn attach_refuses_a_classic_cluster() {
    let (cluster, mut driver) = build(0, 0xD1F5_0001);
    let ns = driver.directory();
    assert_eq!(ns.shards(), 0);
    let mut svc = DirService::new(svc_config(0), vec![1, 2, 3], ns);
    let err = svc.attach(&mut driver).unwrap_err();
    assert!(
        err.to_string().contains("dir_shards"),
        "refusal must name the fix, got: {err}"
    );
    cluster.shutdown(driver);
}

/// Tentpole path, unreplicated: a shard primary's machine crashes; the
/// supervisor detects it, takes the partition over from the replicated
/// snapshot at a bumped epoch, and rebinds the seat — every binding in
/// the lost partition resolves again, and lookups issued *during* the
/// outage return the correct target or a timeout, never a stale or
/// lost binding.
#[test]
fn unreplicated_shard_survives_primary_crash_by_snapshot_takeover() {
    let (cluster, mut driver) = build(4, 0xD1F5_0002);
    let ns = driver.directory();
    assert_eq!(ns.shards(), 4);
    let mut svc = DirService::new(svc_config(0), vec![1, 2, 3], ns);
    assert_eq!(svc.attach(&mut driver).unwrap(), 4);

    // Partition data lands after attach; the checkpoint pushes it into
    // every shard's snapshot backups (recovery restores the last
    // replicated partition).
    let ledger = bind_ledger(&ns, &mut driver, "take", 2);
    assert_eq!(svc.checkpoint(&mut driver), 4);

    // Wait until heartbeats flow to every shard's machine.
    settle(&mut svc, &mut driver, Duration::from_secs(5), |s, _| {
        [1, 2, 3]
            .iter()
            .all(|&m| s.supervisor().last_heartbeat(m).is_some())
    });

    // Machine 1 seats shard 1 (round-robin placement over 4 workers).
    let (probe_name, probe_target) = ledger
        .iter()
        .find(|(n, _)| shard_of_name(n, 4) == 1)
        .cloned()
        .unwrap();
    cluster.sim().faults().crash(1);

    let deadline = driver.now_nanos() + Duration::from_secs(30).as_nanos() as u64;
    let mut healed = DirStep::default();
    loop {
        let round = svc.step(&mut driver).unwrap();
        healed.takeovers.extend(round.takeovers);
        healed.promotions.extend(round.promotions);
        // Availability probe mid-outage: the routed lookup either fails
        // against the dark (or not-yet-released) seat or returns the
        // *correct* binding through the takeover incarnation — never
        // None, never a wrong target.
        match ns.lookup(&mut driver, probe_name.clone()) {
            Ok(v) => assert_eq!(v, Some(probe_target), "stale binding served mid-takeover"),
            Err(RemoteError::Timeout { .. }) | Err(RemoteError::Fenced { .. }) => {}
            Err(e) => panic!("unexpected mid-takeover error: {e:?}"),
        }
        if !healed.takeovers.is_empty() {
            break;
        }
        assert!(
            driver.now_nanos() < deadline,
            "takeover never landed: {:?}",
            svc.supervisor().stats()
        );
        driver.serve_for(Duration::from_millis(2));
    }

    // The takeover healed shard 1 specifically, by snapshot (no
    // promotions — nothing was replicated).
    assert!(healed.takeovers.iter().any(|r| r.name == shard_addr(1)));
    assert!(healed.promotions.is_empty());
    let takeover = healed
        .takeovers
        .iter()
        .find(|r| r.name == shard_addr(1))
        .unwrap()
        .clone();
    assert_ne!(takeover.to.machine, 1, "takeover must land on a survivor");

    // The machine comes back (blank) and is readmitted before the
    // audit: lease renewal for the takeover incarnation requires a
    // normal heartbeat cadence, which a permanently dark machine's
    // probe stalls would deny.
    cluster.sim().faults().restart(1);
    settle(&mut svc, &mut driver, Duration::from_secs(30), |s, _| {
        [1, 2, 3].iter().all(|&m| !s.is_dead(m))
    });

    // The entire ledger — including the lost partition — resolves.
    for (name, target) in &ledger {
        assert_eq!(
            lookup_stepping(&mut svc, &mut driver, &ns, name),
            Some(*target),
            "{name} lost in takeover"
        );
    }
    // The seat's lease is fenced forward: registration claimed epoch 1,
    // the takeover claimed past it.
    let (seat, epoch, poisoned) = ns
        .root_client()
        .lease_of(&mut driver, shard_addr(1))
        .unwrap()
        .unwrap();
    assert_eq!(seat, takeover.to);
    assert!(epoch >= 2, "takeover must bump the seat epoch, got {epoch}");
    assert!(!poisoned);

    // And the shard keeps accepting writes.
    let fresh = symbolic_addr(&["dirsvc", "take", "fresh"]);
    svc.step(&mut driver).unwrap();
    ns.bind(&mut driver, fresh.clone(), probe_target).unwrap();
    assert_eq!(
        lookup_stepping(&mut svc, &mut driver, &ns, &fresh),
        Some(probe_target)
    );

    let stats = svc.supervisor().stats();
    assert!(stats.machines_declared_dead >= 1);
    assert!(stats.objects_reactivated >= 1);
    assert_eq!(svc.replicas().stats().promotions, 0);

    cluster.shutdown(driver);
}

/// Satellite regression: a **replicated** `DirShard` survives its
/// primary's crash via replica *promotion* — state-preserving, with no
/// checkpoint ever taken — rather than refusing with
/// `RemoteError::Replicated` or restoring a stale snapshot. Bindings
/// written after attach (so present only in the live partition and its
/// write-through replica) must all survive.
#[test]
fn replicated_shard_survives_primary_crash_by_promotion() {
    let (cluster, mut driver) = build(4, 0xD1F5_0003);
    let ns = driver.directory();
    let mut svc = DirService::new(svc_config(1), vec![1, 2, 3], ns);
    assert_eq!(svc.attach(&mut driver).unwrap(), 4);

    // Written AFTER replication, NEVER checkpointed: only write-through
    // coherence can carry these across the crash.
    let ledger = bind_ledger(&ns, &mut driver, "promo", 2);

    settle(&mut svc, &mut driver, Duration::from_secs(5), |s, _| {
        [1, 2, 3]
            .iter()
            .all(|&m| s.supervisor().last_heartbeat(m).is_some())
    });

    cluster.sim().faults().crash(1);
    let healed = settle(&mut svc, &mut driver, Duration::from_secs(30), |_, out| {
        out.promotions.iter().any(|(n, _)| *n == shard_addr(1))
    });

    // Shard 1 healed by promotion; nothing was supervised, so no
    // snapshot takeovers at all. (The dead-probe stalls can hold another
    // machine's acks past a lease — its shard then *also* heals by
    // promotion, which the audit below covers.)
    assert!(healed.takeovers.is_empty());
    let (_, promoted) = healed
        .promotions
        .iter()
        .find(|(n, _)| *n == shard_addr(1))
        .cloned()
        .unwrap();
    assert_ne!(promoted.machine, 1, "promotion must land on a survivor");

    // The machine comes back (blank) and the fleet is readmitted, so
    // heartbeat cadence normalizes and lease renewal resumes — with a
    // machine permanently dark, every probe window stalls the control
    // loop and delays the survivors' heartbeats.
    cluster.sim().faults().restart(1);
    settle(&mut svc, &mut driver, Duration::from_secs(30), |s, _| {
        [1, 2, 3].iter().all(|&m| !s.is_dead(m))
    });

    // Every un-checkpointed binding survived: the promoted replicas
    // held the full partitions.
    for (name, target) in &ledger {
        assert_eq!(
            lookup_stepping(&mut svc, &mut driver, &ns, name),
            Some(*target),
            "{name} lost in promotion — replica was stale or takeover used a snapshot"
        );
    }
    // The promoted incarnation is the seat now, and accepts writes.
    assert_eq!(
        ns.root_client().lookup(&mut driver, shard_addr(1)).unwrap(),
        Some(promoted)
    );
    let fresh = symbolic_addr(&["dirsvc", "promo", "fresh"]);
    let target = ledger[0].1;
    svc.step(&mut driver).unwrap();
    ns.bind(&mut driver, fresh.clone(), target).unwrap();
    assert_eq!(
        lookup_stepping(&mut svc, &mut driver, &ns, &fresh),
        Some(target)
    );

    assert!(svc.replicas().stats().promotions >= 1);
    assert_eq!(svc.supervisor().stats().objects_reactivated, 0);

    cluster.shutdown(driver);
}

/// The client resolve cache earns its keep on the sharded path: the
/// first routed op per shard misses (root consultation), subsequent
/// ops hit, and both outcomes are counted in the node's stats — the
/// counters the `reproduce` tables surface.
#[test]
fn resolve_cache_hits_and_misses_are_counted() {
    let (cluster, mut driver) = build(2, 0xD1F5_0004);
    let ns = driver.directory();

    let name = symbolic_addr(&["dirsvc", "cache", "0"]);
    let target = ObjRef {
        machine: 1,
        object: 77,
    };
    ns.bind(&mut driver, name.clone(), target).unwrap();
    let before = driver.local_stats();
    for _ in 0..10 {
        assert_eq!(ns.lookup(&mut driver, name.clone()).unwrap(), Some(target));
    }
    let after = driver.local_stats();
    assert!(
        after.dir_cache_hits >= before.dir_cache_hits + 10,
        "10 warm lookups must hit the resolve cache ({} -> {})",
        before.dir_cache_hits,
        after.dir_cache_hits
    );
    assert!(
        before.dir_cache_misses >= 1,
        "the first routed op must miss and consult the root"
    );
    assert_eq!(
        after.dir_cache_misses, before.dir_cache_misses,
        "warm lookups must not re-consult the root"
    );
    cluster.shutdown(driver);
}
