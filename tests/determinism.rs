//! Virtual-time determinism cross-checks (DESIGN.md §12).
//!
//! Under `TimeMode::Virtual` the cluster runs on a discrete-event clock:
//! execution is serialized by the event loop, every delay is modeled, and
//! the whole run is a pure function of the seed. These tests pin the two
//! halves of that contract: the *same* seed replays a chaotic multi-machine
//! run byte-for-byte (identical flight-recorder export, identical virtual
//! timestamps, identical [`SimSchedule`]), while *different* seeds permute
//! same-time event ties and genuinely explore distinct interleavings.

use std::collections::HashSet;
use std::time::Duration;

use oopp_repro::oopp::wire::collections::F64s;
use oopp_repro::oopp::{
    join, symbolic_addr, Backoff, CallPolicy, ClusterBuilder, DoubleBlockClient, Driver, EventKind,
    ObjRef,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan, SimSchedule};
use supervision::Supervisor;

fn chaos_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(150))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(Duration::from_millis(8)))
}

/// The E3-style split-loop workload under a lossy fabric and a virtual
/// clock, flight recorder on. The async fan-out rounds give the event loop
/// genuine same-virtual-time ties to permute. Returns the gathered data,
/// the full Chrome-JSON trace export (virtual timestamps included), the
/// driver's retransmission counter, and the run's recorded schedule.
fn traced_virtual_run(seed: u64) -> (Vec<f64>, String, u64, SimSchedule) {
    traced_virtual_run_pooled(seed, 0)
}

/// `traced_virtual_run` with an M:N execution pool of `sched_workers`
/// lanes per machine (0 = the classic single-threaded engine).
fn traced_virtual_run_pooled(
    seed: u64,
    sched_workers: usize,
) -> (Vec<f64>, String, u64, SimSchedule) {
    const WORKERS: usize = 4;
    const N: usize = 48;
    let plan = FaultPlan::seeded(seed ^ 0xFA_0175)
        .with_drop(0.06)
        .with_dup(0.02);
    let (cluster, mut driver) = ClusterBuilder::new(WORKERS)
        .sched_workers(sched_workers)
        .sim_config(
            ClusterConfig::zero_cost(0)
                .with_faults(plan)
                .with_virtual_time(seed),
        )
        .call_policy(chaos_policy())
        .tracing(true)
        .build();
    let clock = cluster.sim().clock().clone();

    let blocks: Vec<_> = (0..WORKERS)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, N).unwrap())
        .collect();
    for (i, b) in blocks.iter().enumerate() {
        b.fill(&mut driver, i as f64).unwrap();
    }
    for round in 1..=3 {
        let addend = F64s((0..N).map(|j| (round * j) as f64).collect());
        let pending: Vec<_> = blocks
            .iter()
            .map(|b| {
                b.axpy_range_async(&mut driver, 0, 0.5, addend.clone())
                    .unwrap()
            })
            .collect();
        join(&mut driver, pending).unwrap();
    }
    let mut out = Vec::with_capacity(WORKERS * N);
    for b in &blocks {
        out.extend(b.read_range(&mut driver, 0, N).unwrap().0);
    }

    let retried = driver.local_stats().calls_retried;
    let recorder = cluster.recorder().expect("tracing enabled");
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    let schedule = clock.schedule().expect("virtual clock records a schedule");
    (out, recorder.merge().to_chrome_json(), retried, schedule)
}

/// Same seed, twice: the flight-recorder export must match byte for byte —
/// same spans, same event order, same *virtual* timestamps — and the
/// recorded schedules must be identical (same event count, same digest).
#[test]
fn same_seed_replays_byte_identical_traces() {
    let (data_a, trace_a, retried_a, sched_a) = traced_virtual_run(0xD5EED);
    let (data_b, trace_b, retried_b, sched_b) = traced_virtual_run(0xD5EED);

    assert_eq!(data_a, data_b, "same seed, different results");
    assert_eq!(retried_a, retried_b, "same seed, different retry counts");
    assert_eq!(sched_a, sched_b, "same seed, different event schedules");
    assert_eq!(
        trace_a, trace_b,
        "same seed, byte-divergent trace exports (schedule {sched_a})"
    );
    assert!(retried_a > 0, "a 6% loss plan must force retransmissions");
    assert!(sched_a.events > 0);
}

/// Eight distinct seeds must explore at least two distinct interleavings:
/// the seed keys the tie-break hash over same-virtual-time events, so
/// different seeds permute delivery order where the model allows it.
#[test]
fn distinct_seeds_explore_distinct_interleavings() {
    let digests: HashSet<u64> = (0..8u64)
        .map(|i| traced_virtual_run(0x1000 + i).3.digest)
        .collect();
    assert!(
        digests.len() >= 2,
        "8 seeds produced only {} distinct schedule digest(s)",
        digests.len()
    );
}

/// The M:N scheduler must not cost determinism: with a 4-lane pool on
/// every machine, the same seed still replays byte-for-byte — worker
/// wakeups, and with them which lane pops which task token, ride the same
/// seeded virtual clock as everything else (DESIGN.md §13).
#[test]
fn same_seed_replays_byte_identical_traces_with_pool() {
    let (data_a, trace_a, retried_a, sched_a) = traced_virtual_run_pooled(0xB00_57EA1, 4);
    let (data_b, trace_b, retried_b, sched_b) = traced_virtual_run_pooled(0xB00_57EA1, 4);

    assert_eq!(data_a, data_b, "same seed, different results under pool");
    assert_eq!(retried_a, retried_b, "same seed, different retry counts");
    assert_eq!(sched_a, sched_b, "same seed, different event schedules");
    assert_eq!(
        trace_a, trace_b,
        "same seed, byte-divergent trace exports under a 4-lane pool"
    );
    assert!(sched_a.events > 0);
}

/// A sharded-control-plane churn workload on a 4-lane pool under a lossy
/// virtual fabric: bind/claim/unbind traffic routed across four
/// `DirShard` partitions, then a full read-back. Returns the observable
/// directory state, the trace export, the retry counter, and the
/// schedule.
fn sharded_virtual_run(seed: u64) -> (Vec<String>, String, u64, SimSchedule) {
    const WORKERS: usize = 4;
    let plan = FaultPlan::seeded(seed ^ 0xD1_F5C0)
        .with_drop(0.04)
        .with_dup(0.02);
    let (cluster, mut driver) = ClusterBuilder::new(WORKERS)
        .sched_workers(4)
        .dir_shards(4)
        .sim_config(
            ClusterConfig::zero_cost(0)
                .with_faults(plan)
                .with_virtual_time(seed),
        )
        .call_policy(chaos_policy())
        .tracing(true)
        .build();
    let clock = cluster.sim().clock().clone();
    let ns = driver.directory();

    let names: Vec<String> = (0..24)
        .map(|i| symbolic_addr(&["det", "obj", &i.to_string()]))
        .collect();
    for (i, name) in names.iter().enumerate() {
        let target = ObjRef {
            machine: i % WORKERS,
            object: 500 + i as u64,
        };
        ns.bind(&mut driver, name.clone(), target).unwrap();
    }
    for (i, name) in names.iter().enumerate() {
        if i % 3 == 0 {
            ns.claim(&mut driver, name.clone(), 0).unwrap();
        }
        if i % 4 == 0 {
            ns.unbind(&mut driver, name.clone()).unwrap();
        }
    }

    let mut out = Vec::new();
    for name in &names {
        let lease = ns.lease_of(&mut driver, name.clone()).unwrap();
        out.push(format!("{name} => {lease:?}"));
    }
    out.push(format!(
        "list {:?}",
        ns.list(&mut driver, "oopp://det/".into()).unwrap()
    ));
    out.push(format!("len {}", ns.len(&mut driver).unwrap()));

    let retried = driver.local_stats().calls_retried;
    let recorder = cluster.recorder().expect("tracing enabled");
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    let schedule = clock.schedule().expect("virtual clock records a schedule");
    (out, recorder.merge().to_chrome_json(), retried, schedule)
}

/// The sharded control plane must not cost determinism either: directory
/// churn routed across 4 shards on a 4-lane pool replays byte-for-byte
/// under the same seed — routing, retries, and shard service order all
/// ride the seeded virtual clock (DESIGN.md §14).
#[test]
fn same_seed_replays_byte_identical_sharded_directory_runs() {
    let (state_a, trace_a, retried_a, sched_a) = sharded_virtual_run(0xD1F5_5EED);
    let (state_b, trace_b, retried_b, sched_b) = sharded_virtual_run(0xD1F5_5EED);

    assert_eq!(state_a, state_b, "same seed, different directory state");
    assert_eq!(retried_a, retried_b, "same seed, different retry counts");
    assert_eq!(sched_a, sched_b, "same seed, different event schedules");
    assert_eq!(
        trace_a, trace_b,
        "same seed, byte-divergent traces of a sharded run"
    );
    assert!(sched_a.events > 0);
}

/// Different seeds must explore different pooled interleavings: the
/// clock's tie order is seeded, so two seeds that agree on everything else
/// still order lane wakeups, and with them which lane runs which mailbox,
/// differently.
#[test]
fn distinct_seeds_explore_distinct_steal_orders() {
    let digests: HashSet<u64> = (0..8u64)
        .map(|i| traced_virtual_run_pooled(0x5EA1 + i, 4).3.digest)
        .collect();
    assert!(
        digests.len() >= 2,
        "8 seeds produced only {} distinct pooled schedule digest(s)",
        digests.len()
    );
}

/// Step `sup` until `done` holds, serving 2 ms of virtual time between
/// steps.
fn step_until(
    sup: &mut Supervisor,
    driver: &mut Driver,
    mut done: impl FnMut(&Supervisor) -> bool,
) {
    for _ in 0..5_000 {
        sup.step(driver).unwrap();
        if done(sup) {
            return;
        }
        driver.serve_for(Duration::from_millis(2));
    }
    panic!("supervisor did not settle: {:?}", sup.stats());
}

/// A supervised virtual-time run on 4 workers: machines 2 and 3 are cut
/// off together, declared dead, and healed together, so one reap can find
/// both false suspicions. Returns the machines of the `FalseSuspicion`
/// markers in recorded order.
fn double_false_suspicion(seed: u64) -> Vec<usize> {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
        .call_policy(chaos_policy())
        .tracing(true)
        .build();
    let lease = Duration::from_millis(150);
    let mut sup = Supervisor::new(lease, vec![1, 2, 3, 4], driver.directory());
    // A few real heartbeat rounds before the partition.
    let mut warm = 0;
    step_until(&mut sup, &mut driver, |_| {
        warm += 1;
        warm == 8
    });
    let faults = cluster.sim().faults();
    faults.isolate(2, &[0, 1, 3, 4]);
    faults.isolate(3, &[0, 1, 2, 4]);
    step_until(&mut sup, &mut driver, |s| s.is_dead(2) && s.is_dead(3));
    faults.rejoin(2, &[0, 1, 3, 4]);
    faults.rejoin(3, &[0, 1, 2, 4]);
    step_until(&mut sup, &mut driver, |s| !s.is_dead(2) && !s.is_dead(3));

    let recorder = cluster.recorder().expect("tracing enabled");
    cluster.shutdown(driver);
    let trace = recorder.merge();
    let marked = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::FalseSuspicion);
    marked.map(|e| e.peer).collect()
}

/// The supervisor reaps replies in request order, not hash order: two
/// false suspicions found by one reap are recorded in the same order on
/// every same-seed run.
#[test]
fn same_seed_records_a_double_false_suspicion_in_one_order() {
    let first = double_false_suspicion(7);
    assert_eq!(first.len(), 2, "markers {first:?}");
    for run in 1..8 {
        assert_eq!(double_false_suspicion(7), first, "run {run}");
    }
}
