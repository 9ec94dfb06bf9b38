//! Chaos suite: the reliable RMI layer under seeded fault injection.
//!
//! Exercises the full contract of DESIGN.md §6 end to end: at-least-once
//! delivery (client retransmission under a lossy [`FaultPlan`]),
//! at-most-once execution (server dedup window), deterministic replay of a
//! chaotic run under a fixed seed, and crash recovery through snapshot
//! replication + supervised symbolic-address resolution.

use std::time::Duration;

use oopp_repro::oopp::wire::collections::F64s;
use oopp_repro::oopp::{
    join, resolve_or_activate_supervised, symbolic_addr, Backoff, BreakerConfig, CallPolicy,
    ClusterBuilder, DoubleBlockClient, NodeCtx, RemoteClient, RemoteError, RemoteResult,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan};

/// A deliberately non-idempotent class: executing a duplicated `add` twice
/// is observable in `total`. The dedup window must prevent exactly that.
#[derive(Debug, Default)]
pub struct Counter {
    total: u64,
}

oopp_repro::oopp::remote_class! {
    class Counter {
        ctor();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
        /// Current total.
        fn total(&mut self) -> u64;
    }
}

impl Counter {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Counter::default())
    }

    fn add(&mut self, _ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        self.total += n;
        Ok(self.total)
    }

    fn total(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.total)
    }
}

/// A retry policy tuned for zero-cost test fabrics: short per-attempt
/// windows (replies normally arrive in microseconds), enough retries to
/// ride out several consecutive losses.
fn chaos_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(150))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(Duration::from_millis(8)))
}

/// The E3-style split-loop workload: one DoubleBlock per worker, async
/// axpy rounds joined per round, then a gather. Returns the gathered data
/// plus (driver retransmissions, fabric-level fault drops).
fn split_loop_run(workers: usize, n: usize, faults: FaultPlan) -> (Vec<f64>, u64, u64) {
    let (cluster, mut driver) = ClusterBuilder::new(workers)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(faults))
        .call_policy(chaos_policy())
        .build();

    let blocks: Vec<_> = (0..workers)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, n).unwrap())
        .collect();
    for (i, b) in blocks.iter().enumerate() {
        b.fill(&mut driver, i as f64).unwrap();
    }
    for round in 1..=4 {
        let addend = F64s((0..n).map(|j| (round * j) as f64).collect());
        let pending: Vec<_> = blocks
            .iter()
            .map(|b| {
                b.axpy_range_async(&mut driver, 0, 0.5, addend.clone())
                    .unwrap()
            })
            .collect();
        join(&mut driver, pending).unwrap();
    }
    let mut out = Vec::with_capacity(workers * n);
    for b in &blocks {
        out.extend(b.read_range(&mut driver, 0, n).unwrap().0);
    }
    // Every machine must hold exactly its one block (machine 0 also hosts
    // the cluster directory): a retried `create` that executed twice would
    // show up right here.
    for m in 0..workers {
        let expected = if m == 0 { 2 } else { 1 };
        assert_eq!(driver.stats_of(m).unwrap().objects_live, expected);
    }

    let retried = driver.local_stats().calls_retried;
    let dropped = cluster.snapshot().total_fault_drops();
    cluster.shutdown(driver);
    (out, retried, dropped)
}

/// Acceptance shape: 5% loss plus duplicates; the chaotic run computes
/// bit-identical results to the clean run, and the same seed replays the
/// identical fault pattern.
#[test]
fn split_loop_under_loss_matches_zero_fault_run() {
    let plan = FaultPlan::seeded(0xC0FFEE).with_drop(0.05).with_dup(0.02);
    let (clean, clean_retries, clean_drops) = split_loop_run(4, 64, FaultPlan::none());
    let (chaos, chaos_retries, chaos_drops) = split_loop_run(4, 64, plan.clone());

    assert_eq!(clean_retries, 0);
    assert_eq!(clean_drops, 0);
    assert!(chaos_drops > 0, "5% loss plan never dropped anything");
    assert!(
        chaos_retries > 0,
        "losses should have forced retransmissions"
    );
    assert_eq!(chaos, clean, "retries must be invisible to the computation");

    // Determinism: the same seed yields the same drops, retries, and bits.
    let (replay, replay_retries, replay_drops) = split_loop_run(4, 64, plan);
    assert_eq!(replay, chaos);
    assert_eq!(replay_retries, chaos_retries);
    assert_eq!(replay_drops, chaos_drops);
}

/// Duplicated requests must execute at most once even though the fabric
/// delivers them twice: the server either suppresses the copy (original
/// still in flight) or replays the cached response.
#[test]
fn duplicated_requests_execute_at_most_once() {
    let plan = FaultPlan::seeded(7).with_dup(0.3);
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(chaos_policy())
        .build();

    let c = CounterClient::new_on(&mut driver, 0).unwrap();
    const CALLS: u64 = 50;
    for _ in 0..CALLS {
        c.add(&mut driver, 1).unwrap();
    }
    assert_eq!(c.total(&mut driver).unwrap(), CALLS);

    let stats = driver.stats_of(0).unwrap();
    assert!(
        stats.dup_replayed + stats.dup_suppressed > 0,
        "a 30% dup plan must have produced duplicate requests ({stats:?})"
    );
    let dups = cluster.snapshot().faults_duplicated;
    assert!(dups > 0);

    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// Losing the *response* of a non-idempotent call is the classic
/// at-most-once trap: the retried request must be answered from the dedup
/// cache, not re-executed. Heavy loss makes that case certain to occur.
#[test]
fn lost_responses_are_replayed_not_reexecuted() {
    let plan = FaultPlan::seeded(11).with_drop(0.25);
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(chaos_policy())
        .build();

    let c = CounterClient::new_on(&mut driver, 0).unwrap();
    const CALLS: u64 = 40;
    let mut totals = Vec::new();
    for _ in 0..CALLS {
        totals.push(c.add(&mut driver, 1).unwrap());
    }
    // Exactly-once observable effect: totals are the exact sequence 1..=N,
    // and replayed responses returned the *original* total, not a fresh one.
    assert_eq!(totals, (1..=CALLS).collect::<Vec<_>>());

    let stats = driver.stats_of(0).unwrap();
    let retried = driver.local_stats().calls_retried;
    assert!(retried > 0, "25% loss must force retransmissions");
    assert!(
        stats.dup_replayed + stats.dup_suppressed > 0,
        "some retransmitted request must have hit the dedup window ({stats:?})"
    );

    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// A deadline that falls inside a backoff pause ends the call there: no
/// retransmission goes out for a call nobody waits for any more. The
/// target is dark; the 10 ms reply window lapses, the 10 ms pause would end
/// at 20 ms, and the 15 ms deadline comes first.
#[test]
fn a_deadline_inside_a_backoff_pause_sends_no_retransmission() {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xBAC0FF))
        .build();
    let c = CounterClient::new_on(&mut driver, 0).unwrap();
    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_millis(10))
            .with_backoff(Backoff::fixed(Duration::from_millis(10)))
            .with_deadline(Duration::from_millis(15)),
    );
    cluster.sim().faults().crash(0);
    let (t0, sent) = (driver.now_nanos(), cluster.snapshot().messages_sent);
    let err = c.add(&mut driver, 1).unwrap_err();
    assert!(
        matches!(err, RemoteError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(driver.now_nanos() - t0, 15_000_000);
    assert_eq!(driver.local_stats().calls_retried, 0);
    assert_eq!(cluster.snapshot().messages_sent - sent, 1);
    cluster.shutdown(driver);
}

/// The headline acceptance scenario: an E3-style workload with 5% message
/// loss AND a mid-run machine crash completes with results identical to a
/// zero-fault run, because the crashed object is reactivated from its
/// replicated snapshot via the directory.
#[test]
fn crash_mid_run_recovers_from_replicated_snapshot() {
    const N: usize = 32;

    // What the workload computes when nothing fails. Phase 1 writes i,
    // phase 2 adds 2*(10+j).
    fn run_phases(driver: &mut oopp_repro::oopp::Driver, block: &DoubleBlockClient, phase: usize) {
        match phase {
            1 => {
                for i in 0..N {
                    block.set(driver, i, i as f64).unwrap();
                }
            }
            _ => {
                let addend = F64s((0..N).map(|j| (10 + j) as f64).collect());
                block.axpy_range(driver, 0, 2.0, addend).unwrap();
            }
        }
    }

    // Clean reference run, no faults at all.
    let expected: Vec<f64> = {
        let (cluster, mut driver) = ClusterBuilder::new(3).build();
        let block = DoubleBlockClient::new_on(&mut driver, 1, N).unwrap();
        run_phases(&mut driver, &block, 1);
        run_phases(&mut driver, &block, 2);
        let data = block.read_range(&mut driver, 0, N).unwrap().0;
        cluster.shutdown(driver);
        data
    };

    // Chaotic run: 5% loss the whole time, machine 1 crashes between the
    // phases. Short attempt windows keep the dead-machine probes cheap.
    let plan = FaultPlan::seeded(42).with_drop(0.05);
    let policy = CallPolicy::reliable(Duration::from_millis(80))
        .with_max_retries(2)
        .with_backoff(Backoff::fixed(Duration::from_millis(8)));
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(policy)
        .build();
    let dir = driver.directory();
    let addr = symbolic_addr(&["chaos", "DoubleBlock", "0"]);

    // The process lives on machine 1; its name is bound in the directory
    // and its snapshot is replicated to machine 2 after phase 1.
    let block = DoubleBlockClient::new_on(&mut driver, 1, N).unwrap();
    dir.bind(&mut driver, addr.clone(), block.obj_ref())
        .unwrap();
    run_phases(&mut driver, &block, 1);
    driver.replicate_snapshot(&block, &addr, &[2]).unwrap();

    cluster.sim().faults().crash(1);

    // The stale pointer now exhausts its retries with an enriched Timeout
    // naming the dead machine and the attempt count.
    let err = block.get(&mut driver, 0).unwrap_err();
    match err {
        RemoteError::Timeout {
            machine, attempts, ..
        } => {
            assert_eq!(machine, 1);
            assert_eq!(attempts, 3); // 1 try + max_retries
        }
        other => panic!("expected Timeout against the crashed machine, got {other:?}"),
    }

    // Recovery: resolve the symbolic address under supervision. The dead
    // binding is detected and unbound; candidate 1 (still dark) is
    // skipped; the replica on machine 2 is activated and rebound.
    let recovered: DoubleBlockClient =
        resolve_or_activate_supervised(&mut driver, &dir, &addr, &[1, 2]).unwrap();
    assert_eq!(recovered.obj_ref().machine, 2);

    run_phases(&mut driver, &recovered, 2);
    let data = recovered.read_range(&mut driver, 0, N).unwrap().0;
    assert_eq!(
        data, expected,
        "recovered run must match the zero-fault run"
    );

    // A later resolution finds the live rebinding directly.
    let again: DoubleBlockClient =
        resolve_or_activate_supervised(&mut driver, &dir, &addr, &[1, 2]).unwrap();
    assert_eq!(again.obj_ref(), recovered.obj_ref());

    // Machine 1 is still dark: `shutdown` heals the fabric before it stops.
    cluster.shutdown(driver);
}

/// Runs `scenario` on its own thread and fails, instead of hanging the
/// suite, when it has not come back in 30 s of wall time.
fn bounded(what: String, scenario: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    let outcome = finished.recv_timeout(Duration::from_secs(30));
    assert!(outcome.is_ok(), "{what}: still waiting for a machine");
}

/// Two workers on a free fabric, machine 1 made unreachable by `fault`;
/// the driver is machine 2.
fn unreachable_cluster(
    virtual_time: bool,
    fault: &str,
) -> (oopp_repro::oopp::Cluster, oopp_repro::oopp::Driver) {
    let mut config = ClusterConfig::zero_cost(0);
    if virtual_time {
        config = config.with_virtual_time(0x5707);
    }
    let (cluster, driver) = ClusterBuilder::new(2).sim_config(config).build();
    let faults = cluster.sim().faults();
    match fault {
        "crash" => faults.crash(1),
        "partition" => faults.partition(1, 2),
        "spike" => faults.spike(1, Duration::from_secs(3600)),
        other => unreachable!("{other}"),
    }
    (cluster, driver)
}

/// A cluster can always be shut down: `shutdown` heals the fabric before
/// it sends its stop orders, so a machine that is dark, cut off from the
/// driver or an hour behind on its inbound link is still told to stop and
/// joined — on both clocks (a spike needs the virtual one).
#[test]
fn shutdown_reaches_a_crashed_a_partitioned_and_a_spiked_machine() {
    for (virtual_time, fault) in [
        (false, "crash"),
        (false, "partition"),
        (true, "crash"),
        (true, "partition"),
        (true, "spike"),
    ] {
        bounded(format!("{fault}, virtual time {virtual_time}"), move || {
            let (cluster, driver) = unreachable_cluster(virtual_time, fault);
            cluster.shutdown(driver);
        });
    }
}

/// A failed assertion while a machine is dark must report, not hang: the
/// unwind drops the cluster, and the emergency path heals before it stops.
#[test]
fn a_panic_with_a_machine_dark_unwinds_instead_of_hanging() {
    for virtual_time in [false, true] {
        bounded(format!("panic, virtual time {virtual_time}"), move || {
            let red = std::panic::catch_unwind(|| {
                // Bound as every program binds them: the driver drops first.
                let (_cluster, _driver) = unreachable_cluster(virtual_time, "crash");
                // No panic hook output: this is the expected path.
                std::panic::resume_unwind(Box::new("a red assertion mid-chaos"));
            });
            assert!(red.is_err());
        });
    }
}

/// A cluster and its driver may be dropped in either order, on either
/// clock. On the virtual clock the driver is one of the clock's actors, and
/// one that never parks: until it leaves, the stop orders the cluster's
/// drop sends are never delivered, and dropping the cluster first (or the
/// `(cluster, driver)` pair whole, which drops its fields in that order)
/// waited for ever. Whichever drop runs first now releases the driver's
/// place among the actors, once.
#[test]
fn a_cluster_and_its_driver_drop_in_either_order() {
    for virtual_time in [false, true] {
        for cluster_first in [false, true] {
            let what = format!("virtual time {virtual_time}, cluster first {cluster_first}");
            bounded(what, move || {
                let mut config = ClusterConfig::zero_cost(0);
                if virtual_time {
                    config = config.with_virtual_time(7);
                }
                let both = ClusterBuilder::new(2).sim_config(config).build();
                if cluster_first {
                    drop(both);
                } else {
                    let (cluster, driver) = both;
                    drop(driver);
                    drop(cluster);
                }
            });
        }
    }
}

/// The split-loop workload again, with the flight recorder on. Returns the
/// gathered data, the merged trace, the driver's retransmission counter,
/// and the fabric's (drops, duplicates).
fn traced_chaos_run(
    workers: usize,
    n: usize,
    faults: FaultPlan,
) -> (Vec<f64>, oopp_repro::oopp::Trace, u64, (u64, u64)) {
    let (cluster, mut driver) = ClusterBuilder::new(workers)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(faults))
        .call_policy(chaos_policy())
        .tracing(true)
        .build();

    let blocks: Vec<_> = (0..workers)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, n).unwrap())
        .collect();
    for (i, b) in blocks.iter().enumerate() {
        b.fill(&mut driver, i as f64).unwrap();
    }
    for round in 1..=4 {
        let addend = F64s((0..n).map(|j| (round * j) as f64).collect());
        let pending: Vec<_> = blocks
            .iter()
            .map(|b| {
                b.axpy_range_async(&mut driver, 0, 0.5, addend.clone())
                    .unwrap()
            })
            .collect();
        join(&mut driver, pending).unwrap();
    }
    let mut out = Vec::with_capacity(workers * n);
    for b in &blocks {
        out.extend(b.read_range(&mut driver, 0, n).unwrap().0);
    }

    let retried = driver.local_stats().calls_retried;
    let snap = cluster.snapshot();
    let fabric = (snap.total_fault_drops(), snap.faults_duplicated);
    let recorder = cluster.recorder().expect("tracing enabled");
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    let trace = recorder.merge();
    assert_audit_is_clean(&trace);
    (out, trace, retried, fabric)
}

/// Every rule of the audit holds over a traced run (DESIGN §8).
fn assert_audit_is_clean(trace: &oopp_repro::oopp::Trace) {
    let violations = trace.audit();
    let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
    assert!(lines.is_empty(), "the audit failed:\n{}", lines.join("\n"));
}

/// The flight recorder must agree with the reliability layer's own
/// accounting: its retransmit events match the driver's `calls_retried`
/// counter exactly, and every retransmission is explained by a fabric
/// fault (a dropped or duplicated frame) — no spurious timeouts.
#[test]
fn trace_retransmits_cross_check_fault_counters() {
    use oopp_repro::oopp::EventKind;

    let plan = FaultPlan::seeded(0xBEEF).with_drop(0.08).with_dup(0.03);
    let (data, trace, retried, (drops, dups)) = traced_chaos_run(3, 48, plan);

    let (clean, ..) = traced_chaos_run(3, 48, FaultPlan::none());
    assert_eq!(data, clean, "retries must be invisible to the computation");

    assert!(retried > 0, "an 8% loss plan must force retransmissions");
    assert_eq!(
        trace.retransmits() as u64,
        retried,
        "flight recorder and NodeStats disagree on retransmissions"
    );
    // On a zero-cost fabric a reply window only lapses because the attempt's
    // request or response was lost; every retransmit therefore maps to a
    // distinct injected fault.
    assert!(
        trace.retransmits() as u64 <= drops + dups,
        "{} retransmits cannot be explained by {drops} drops + {dups} dups",
        trace.retransmits()
    );
    // Server-side dedup verdicts appear as events too: a retransmitted
    // request whose original executed shows up as admit_done/admit_in_flight.
    let verdicts =
        trace.count(EventKind::ServerAdmitInFlight) + trace.count(EventKind::ServerAdmitDone);
    assert!(
        verdicts > 0,
        "retransmissions under duplication must produce dedup verdict events"
    );
}

/// Causality: every retransmit, server admit, dispatch, and reply event
/// belongs to a span that recorded an originating `ClientSend`, and every
/// retransmitted `req_id` pairs 1:1 with its original send — the audit's
/// causality rule, which `traced_chaos_run` holds the run to.
#[test]
fn every_retransmit_links_to_its_original_span() {
    let plan = FaultPlan::seeded(0xCAFE).with_drop(0.10).with_dup(0.05);
    let (_, trace, retried, _) = traced_chaos_run(2, 32, plan);
    assert!(retried > 0);
    assert!(trace.retransmits() > 0, "the audit had retransmits to pair");

    let export = trace.to_chrome_json();
    assert!(export.contains("\"traceEvents\""));
    assert_eq!(export.matches('{').count(), export.matches('}').count());
}

/// Deterministic replay extends to the flight recorder: the same seed must
/// produce the identical span tree (same spans, same lifecycle events, same
/// methods), timestamps aside.
#[test]
fn same_seed_replays_identical_span_tree() {
    let plan = FaultPlan::seeded(0x5EED).with_drop(0.07).with_dup(0.02);
    let (data_a, trace_a, retried_a, faults_a) = traced_chaos_run(3, 40, plan.clone());
    let (data_b, trace_b, retried_b, faults_b) = traced_chaos_run(3, 40, plan);

    assert_eq!(data_a, data_b);
    assert_eq!(retried_a, retried_b);
    assert_eq!(faults_a, faults_b);
    assert_eq!(
        trace_a.structure(),
        trace_b.structure(),
        "same seed, different span trees"
    );
    assert_eq!(trace_a.dropped, 0, "test workload must fit the rings");
}

mod proptests {
    use super::*;
    use oopp_repro::simnet::sweep::cases;

    /// Any seeded plan with drop p < 1 eventually delivers every retried
    /// call exactly once: the counter ends exactly at the call count,
    /// never above (duplicate execution) or below (lost call), and the
    /// traced run keeps every rule of the audit.
    #[test]
    fn retried_calls_deliver_exactly_once() {
        cases("proptests::retried_calls_deliver_exactly_once", 5, |c| {
            let (seed, drop_p) = (c.next_u64(), c.range(0.0..0.25));
            let plan = FaultPlan::seeded(seed)
                .with_drop(drop_p)
                .with_dup(drop_p / 2.0);
            let policy = CallPolicy::reliable(Duration::from_millis(80))
                .with_max_retries(10)
                .with_backoff(Backoff::fixed(Duration::from_millis(5)));
            let (cluster, mut driver) = ClusterBuilder::new(1)
                .register::<Counter>()
                .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
                .call_policy(policy)
                .tracing(true)
                .build();
            let recorder = cluster.recorder().expect("tracing enabled");
            let counter = CounterClient::new_on(&mut driver, 0).unwrap();
            const CALLS: u64 = 12;
            for _ in 0..CALLS {
                counter.add(&mut driver, 1).unwrap();
            }
            let total = counter.total(&mut driver).unwrap();
            cluster.sim().faults().calm();
            cluster.shutdown(driver);
            assert_audit_is_clean(&recorder.merge());
            assert_eq!(total, CALLS);
        });
    }

    /// Servers build their replies in the frames their dedup windows
    /// evicted, and callers their requests in the frames of retired calls:
    /// no buffer may be reused while anyone still reads it. Rounds of
    /// retried `add`s, one to each of eight counters on two machines, on
    /// a virtual-time fabric that drops and duplicates packets: past 2 048
    /// calls every window has evicted and recycled reply frames, some
    /// replies are replays of a kept frame, and every reply — first answer
    /// or replay — is the exact running total. The network's totals are
    /// the sums of its per-machine rows across the run.
    #[test]
    fn recycled_frames_never_change_a_reply_or_a_replay() {
        const COUNTERS: u64 = 8;
        const ROUNDS: u64 = 264;
        const _: () = assert!(COUNTERS * ROUNDS > 2 * 1024);
        let mut replayed = 0;
        cases(
            "proptests::recycled_frames_never_change_a_reply_or_a_replay",
            3,
            |c| {
                let (seed, drop_p) = (c.next_u64(), c.range(0.02..0.1));
                let plan = FaultPlan::seeded(seed).with_drop(drop_p).with_dup(drop_p);
                let (cluster, mut driver) = ClusterBuilder::new(2)
                    .register::<Counter>()
                    .sim_config(
                        ClusterConfig::zero_cost(0)
                            .with_virtual_time(seed)
                            .with_faults(plan),
                    )
                    .call_policy(chaos_policy().with_max_retries(20))
                    .build();
                let d = &mut driver;
                let counters: Vec<_> = (0..COUNTERS)
                    .map(|k| CounterClient::new_on(d, k as usize % 2).unwrap())
                    .collect();
                let mut totals = vec![0u64; COUNTERS as usize];
                for round in 1..=ROUNDS {
                    let pending: Vec<_> = counters
                        .iter()
                        .zip(1..)
                        .map(|(counter, k)| counter.add_async(d, round * k).unwrap())
                        .collect();
                    let got = join(d, pending).unwrap();
                    for ((total, k), got) in totals.iter_mut().zip(1..).zip(got) {
                        *total += round * k;
                        assert_eq!(got, *total, "counter {k}, round {round}");
                    }
                }
                cluster.sim().faults().calm();
                replayed += (0..2)
                    .map(|m| d.stats_of(m).unwrap().dup_replayed)
                    .sum::<u64>();
                let net = cluster.snapshot();
                assert!(
                    net.faults_dropped > 0 && net.faults_duplicated > 0,
                    "{net:?}"
                );
                assert_eq!(net.messages_sent, net.per_machine_sent.iter().sum::<u64>());
                assert_eq!(
                    net.bytes_sent,
                    net.per_machine_bytes_sent.iter().sum::<u64>()
                );
                cluster.shutdown(driver);
            },
        );
        assert!(replayed > 0, "no reply was replayed from a kept frame");
    }
}

// ---------------------------------------------------------------------
// Nightly soak: randomized faults under supervision (DESIGN.md §10)
// ---------------------------------------------------------------------

mod soak {
    use super::*;
    use std::time::Instant;

    use oopp_repro::oopp::{wire, Driver};
    use oopp_repro::simnet::SimSchedule;
    use supervision::Supervisor;

    /// Persistent cell for the soak ledger: every acknowledged `add` must
    /// be visible in every later total, exactly once, across any number
    /// of crash/partition/takeover cycles.
    #[derive(Debug, Default)]
    pub struct SoakCell {
        total: u64,
    }

    oopp_repro::oopp::remote_class! {
        class SoakCell {
            persistent;
            ctor();
            /// Add `n`; returns the new total.
            fn add(&mut self, n: u64) -> u64;
            /// Current total.
            fn total(&mut self) -> u64;
        }
    }

    impl SoakCell {
        pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
            Ok(SoakCell::default())
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
            Ok(SoakCell {
                total: wire::from_bytes(state)?,
            })
        }
    }

    /// Deterministic xorshift64: the whole fault schedule replays from the
    /// seed, so a soak failure is reproducible.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn soak_policy() -> CallPolicy {
        CallPolicy::reliable(Duration::from_millis(100))
            .with_max_retries(2)
            .with_backoff(Backoff::fixed(Duration::from_millis(5)))
    }

    const SOAK_LEASE_TTL: Duration = Duration::from_millis(150);

    /// Step the supervisor until `done` (panic after `limit`).
    fn settle(
        sup: &mut Supervisor,
        driver: &mut Driver,
        limit: Duration,
        mut done: impl FnMut(&Supervisor) -> bool,
    ) {
        let deadline = Instant::now() + limit;
        loop {
            sup.step(driver).unwrap();
            if done(sup) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "soak settle timed out; stats: {:?}",
                sup.stats()
            );
            driver.serve_for(Duration::from_millis(2));
        }
    }

    /// One soak run's failure, with everything needed to reproduce it.
    #[derive(Debug)]
    struct SoakFailure {
        /// Episode the panic fired in.
        episode: usize,
        /// The virtual clock's schedule at the moment of failure (None in
        /// real-time mode). Replaying the same seed must reproduce it
        /// bit-for-bit.
        schedule: Option<SimSchedule>,
        /// The panic payload.
        message: String,
    }

    /// The randomized self-healing soak, parameterized so the same harness
    /// serves three masters: the tier-1 commit gate (virtual time, seconds
    /// of wall clock), the nightly real-time variant, and the repro-line
    /// test (deliberate sabotage at a chosen episode).
    ///
    /// Schedule, per episode: write through the supervisor's view of each
    /// cell, checkpoint everywhere, then crash **or** partition a random
    /// supervised machine; wait for detection + takeover, keep writing
    /// through the outage, heal, and wait for readmission. The ledger
    /// (one strictly-increasing acknowledged total per cell) is the
    /// exactly-once proof: a split brain repeats or regresses a total, a
    /// lost recovery drops below the last acknowledged one.
    ///
    /// The `seed` drives both the fault schedule (victim choice,
    /// crash-vs-partition, write counts) and — in virtual mode — the
    /// event-loop tie-break order, so one number replays the entire run.
    fn run_soak(
        seed: u64,
        episodes: usize,
        virtual_time: bool,
        sabotage: Option<usize>,
    ) -> Result<(), SoakFailure> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};

        const SUPERVISED: [usize; 3] = [1, 2, 3];
        let mut rng = Rng(seed);

        // Machine 0 hosts the naming directory and is never faulted;
        // the driver is machine 4.
        let config = if virtual_time {
            ClusterConfig::zero_cost(0).with_virtual_time(seed)
        } else {
            ClusterConfig::zero_cost(0)
        };
        let (cluster, mut driver) = ClusterBuilder::new(4)
            .register::<SoakCell>()
            .sim_config(config)
            .call_policy(soak_policy())
            .tracing(virtual_time)
            .build();
        let recorder = cluster.recorder();
        let clock = cluster.sim().clock().clone();
        let dir = driver.directory();
        let mut sup = Supervisor::new(SOAK_LEASE_TTL, SUPERVISED.to_vec(), dir);

        // One supervised cell per supervised machine; the other two act
        // as snapshot backups, so one faulted machine at a time always
        // leaves a live candidate.
        let mut addrs = Vec::new();
        let mut first_home = Vec::new();
        for (i, &m) in SUPERVISED.iter().enumerate() {
            let addr = symbolic_addr(&["soak", "SoakCell", &i.to_string()]);
            let c = SoakCellClient::new_on(&mut driver, m).unwrap();
            let backups: Vec<usize> = SUPERVISED.iter().copied().filter(|&b| b != m).collect();
            sup.register(&mut driver, &addr, &c, &backups).unwrap();
            first_home.push(c.obj_ref());
            addrs.push(addr);
        }
        settle(&mut sup, &mut driver, Duration::from_secs(10), |s| {
            SUPERVISED.iter().all(|&m| s.last_heartbeat(m).is_some())
        });

        let mut acked = vec![0u64; addrs.len()];
        let mut attempted = vec![0u64; addrs.len()];
        let write_some = |sup: &Supervisor,
                          driver: &mut Driver,
                          rng: &mut Rng,
                          acked: &mut Vec<u64>,
                          attempted: &mut Vec<u64>| {
            for i in 0..addrs.len() {
                for _ in 0..(1 + rng.below(3)) {
                    let target = SoakCellClient::from_ref(sup.current_of(&addrs[i]).unwrap());
                    attempted[i] += 1;
                    if let Ok(total) = target.add(driver, 1) {
                        assert!(
                            total > acked[i],
                            "cell {i}: total {total} regressed or repeated after {} \
                             acknowledged writes (split brain or lost recovery)",
                            acked[i]
                        );
                        assert!(
                            total <= attempted[i],
                            "cell {i}: total {total} exceeds {} attempts (doubled write)",
                            attempted[i]
                        );
                        acked[i] = total;
                    }
                }
            }
        };

        // The episode loop runs under `catch_unwind` so a failing episode
        // can report the schedule *at the failure point* — the replay
        // contract is that the same seed reproduces this exact prefix.
        let at_episode = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for episode in 0..episodes {
                at_episode.store(episode, Ordering::Relaxed);
                if sabotage == Some(episode) {
                    panic!("sabotage: deliberate failure injected at episode {episode}");
                }
                // Healthy phase: writes land, then every cell is
                // checkpointed to every backup before any fault can strike.
                write_some(&sup, &mut driver, &mut rng, &mut acked, &mut attempted);
                assert_eq!(
                    sup.checkpoint(&mut driver),
                    addrs.len(),
                    "episode {episode}: checkpoint must reach every backup while calm"
                );

                let victim = SUPERVISED[rng.below(SUPERVISED.len() as u64) as usize];
                let partition = rng.below(2) == 0;
                let peers: Vec<usize> = (0..5).filter(|&p| p != victim).collect();
                if partition {
                    cluster.sim().faults().isolate(victim, &peers);
                } else {
                    cluster.sim().faults().crash(victim);
                }

                // Detection, then takeover of everything the victim hosted.
                settle(&mut sup, &mut driver, Duration::from_secs(30), |s| {
                    s.is_dead(victim)
                });

                // Outage phase: the cluster keeps serving through the
                // reactivated incarnations.
                write_some(&sup, &mut driver, &mut rng, &mut acked, &mut attempted);

                if partition {
                    cluster.sim().faults().rejoin(victim, &peers);
                } else {
                    cluster.sim().faults().restart(victim);
                }
                settle(&mut sup, &mut driver, Duration::from_secs(30), |s| {
                    !s.is_dead(victim)
                });

                // Readmitted: stale pre-takeover pointers must heal through
                // forwards/fencing rather than reach a zombie copy.
                for (i, &old) in first_home.iter().enumerate() {
                    if let Ok(total) = SoakCellClient::from_ref(old).total(&mut driver) {
                        assert!(
                            total >= acked[i] && total <= attempted[i],
                            "cell {i}: stale-pointer read {total} outside [{}, {}]",
                            acked[i],
                            attempted[i]
                        );
                    }
                }
            }

            // Final audit: every name is still bound (never poisoned), and
            // every acknowledged write is present exactly once.
            let stats = sup.stats();
            assert_eq!(stats.names_poisoned, 0, "a backup was always available");
            assert_eq!(stats.recoveries_failed, 0);
            assert_eq!(stats.machines_declared_dead, episodes as u64);
            // Takeovers migrate cells off their original homes, so later
            // victims may host nothing — but some episodes must have moved
            // objects, and every move must have succeeded.
            assert!(stats.objects_reactivated > 0);
            for (i, addr) in addrs.iter().enumerate() {
                let live = SoakCellClient::from_ref(sup.current_of(addr).unwrap());
                let total = live.total(&mut driver).unwrap();
                assert!(
                    total >= acked[i] && total <= attempted[i],
                    "cell {i}: final total {total} outside [{}, {}]",
                    acked[i],
                    attempted[i]
                );
            }
        }));

        match outcome {
            Ok(()) => {
                cluster.sim().faults().calm();
                cluster.shutdown(driver);
                // The virtual run is traced whole and keeps every rule.
                let trace = recorder.map(|r| r.merge()).unwrap_or_default();
                let violations: Vec<String> = trace.audit().iter().map(|v| v.to_string()).collect();
                if violations.is_empty() {
                    return Ok(());
                }
                Err(SoakFailure {
                    episode: episodes,
                    schedule: clock.schedule(),
                    message: format!("the audit of the run: {}", violations.join("; ")),
                })
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                // No orderly shutdown on failure: the supervisor may hold
                // half-finished takeovers. `cluster`'s drop fires the
                // emergency shutdown path instead.
                Err(SoakFailure {
                    episode: at_episode.load(Ordering::Relaxed),
                    schedule: clock.schedule(),
                    message,
                })
            }
        }
    }

    /// Default seed for the soak tests; override with `SIMNET_SEED=…`
    /// (hex `0x…` or decimal) to replay a failure printed by CI.
    fn seed_from_env() -> u64 {
        oopp_repro::simnet::sweep::env_seed().unwrap_or(0x50AC_C0DE_D00D_5EED)
    }

    fn repro_line(seed: u64, test: &str) -> String {
        format!("SIMNET_SEED={seed:#018x} cargo test --release --test chaos {test} -- --nocapture")
    }

    /// The tier-1 soak: 40 randomized crash/partition episodes under
    /// virtual time. Runs in the commit gate — the discrete-event clock
    /// compresses ~20 s of modeled detection/recovery latency into wall
    /// seconds. On failure the panic names the seed that replays the
    /// identical schedule bit-for-bit.
    #[test]
    fn virtual_soak_randomized_faults_preserve_exactly_once() {
        let seed = seed_from_env();
        if let Err(f) = run_soak(seed, 40, true, None) {
            panic!(
                "soak episode {} failed under virtual time: {}\n\
                 schedule at failure: {}\n\
                 replay bit-for-bit with:\n  {}",
                f.episode,
                f.message,
                f.schedule.map(|s| s.to_string()).unwrap_or_default(),
                repro_line(seed, "virtual_soak_randomized_faults_preserve_exactly_once"),
            );
        }
    }

    /// The nightly variant: the same 40 episodes against the real clock,
    /// so the virtual-time model itself stays honest (`--ignored`-gated;
    /// episodes cost real detection + recovery latency).
    #[test]
    #[ignore = "nightly soak: randomized crash/partition schedule takes minutes in real time"]
    fn soak_randomized_faults_under_supervision_preserve_exactly_once() {
        let seed = seed_from_env();
        if let Err(f) = run_soak(seed, 40, false, None) {
            panic!(
                "soak episode {} failed in real time: {}\n\
                 rerun with:\n  {}",
                f.episode,
                f.message,
                repro_line(
                    seed,
                    "soak_randomized_faults_under_supervision_preserve_exactly_once"
                ),
            );
        }
    }

    /// Tier-1 sharded-control-plane soak: a 4-shard directory under
    /// randomized shard-primary crashes on virtual time. Each episode
    /// binds fresh names through the sharded facade, checkpoints the
    /// partitions, crashes one of machines 1–3 (machine 0 hosts the
    /// root and shard 0 and is never faulted), waits for the
    /// supervisor's snapshot takeover of the lost shard, restarts the
    /// victim, and audits that *every* name ever bound still resolves
    /// to its exact target — with the control loop running, since
    /// takeover incarnations serve only under live leases.
    #[test]
    fn virtual_soak_sharded_directory_survives_crash_episodes() {
        use dirsvc::{DirService, DirServiceConfig};
        use oopp_repro::oopp::{shard_of_name, ObjRef};

        const EPISODES: usize = 6;
        let seed = seed_from_env();
        let mut rng = Rng(seed ^ 0xD1F5);
        let (cluster, mut driver) = ClusterBuilder::new(4)
            .dir_shards(4)
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
            .call_policy(soak_policy())
            .build();
        let ns = driver.directory();
        let mut svc = DirService::new(
            DirServiceConfig {
                read_replicas: 0,
                lease_ttl: SOAK_LEASE_TTL,
                ..DirServiceConfig::default()
            },
            vec![1, 2, 3],
            ns,
        );
        assert_eq!(svc.attach(&mut driver).unwrap(), 4);

        // Virtual-time settle: step the service until `done`, panicking
        // past the wall-clock limit with the replay line.
        let settle_svc = |svc: &mut DirService,
                          driver: &mut Driver,
                          done: &mut dyn FnMut(&DirService) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                svc.step(driver).unwrap();
                if done(svc) {
                    return;
                }
                assert!(
                    Instant::now() < deadline,
                    "sharded soak stalled; stats {:?}; replay: {}",
                    svc.supervisor().stats(),
                    repro_line(
                        seed,
                        "virtual_soak_sharded_directory_survives_crash_episodes"
                    ),
                );
                driver.serve_for(Duration::from_millis(2));
            }
        };

        settle_svc(&mut svc, &mut driver, &mut |s| {
            [1, 2, 3]
                .iter()
                .all(|&m| s.supervisor().last_heartbeat(m).is_some())
        });

        let mut ledger: Vec<(String, ObjRef)> = Vec::new();
        for episode in 0..EPISODES {
            // Fresh bindings land on every shard each episode.
            for k in 0..6usize {
                let name = symbolic_addr(&["soak-dir", &episode.to_string(), &k.to_string()]);
                let target = ObjRef {
                    machine: k % 4,
                    object: 20_000 + (episode * 10 + k) as u64,
                };
                ns.bind(&mut driver, name.clone(), target).unwrap();
                ledger.push((name, target));
            }
            assert_eq!(
                svc.checkpoint(&mut driver),
                4,
                "episode {episode}: calm checkpoint must reach every shard"
            );

            let victim = 1 + rng.below(3) as usize;
            cluster.sim().faults().crash(victim);
            settle_svc(&mut svc, &mut driver, &mut |s| s.is_dead(victim));
            cluster.sim().faults().restart(victim);
            settle_svc(&mut svc, &mut driver, &mut |s| {
                [1, 2, 3].iter().all(|&m| !s.is_dead(m))
            });

            // Full-ledger audit with the control loop running; a lost
            // partition, a stale snapshot, or a split-brain shard shows
            // up as a wrong or missing binding right here.
            for (name, target) in &ledger {
                let mut found = None;
                for _ in 0..40 {
                    svc.step(&mut driver).unwrap();
                    match ns.lookup(&mut driver, name.clone()) {
                        Ok(v) => {
                            found = Some(v);
                            break;
                        }
                        Err(RemoteError::Timeout { .. }) | Err(RemoteError::Fenced { .. }) => {
                            driver.serve_for(Duration::from_millis(2));
                        }
                        Err(e) => panic!(
                            "episode {episode}: {name} errored {e:?}; stats {:?}; seats {:?}; replay: {}",
                            svc.supervisor().stats(),
                            (0..4)
                                .map(|i| ns.lease_of(
                                    &mut driver,
                                    oopp_repro::oopp::shard_addr(i)
                                ))
                                .collect::<Vec<_>>(),
                            repro_line(
                                seed,
                                "virtual_soak_sharded_directory_survives_crash_episodes"
                            )
                        ),
                    }
                }
                assert_eq!(
                    found,
                    Some(Some(*target)),
                    "episode {episode}: {name} (shard {}) diverged; replay: {}",
                    shard_of_name(name, 4),
                    repro_line(
                        seed,
                        "virtual_soak_sharded_directory_survives_crash_episodes"
                    ),
                );
            }
        }

        // Every supervised name is a shard (`attach` enrolled all 4 above).
        let stats = svc.supervisor().stats();
        assert!(
            stats.objects_reactivated >= 1,
            "six crash episodes over machines 1-3 must cost at least one shard takeover ({stats:?})"
        );

        cluster.shutdown(driver);
    }

    /// Soak episode for graceful degradation (DESIGN.md §15): one machine
    /// is load-spiked — every inbound packet delayed a full second, far
    /// past the 20 ms call timeout — and the client must degrade
    /// *gracefully*: the first timeouts trip the circuit breaker, later
    /// calls fast-fail on the client without touching the spiked machine,
    /// and after the spike lifts a half-open trial re-closes the breaker
    /// and service resumes. The ledger proves zero lost calls (every
    /// acknowledged total strictly increases and never exceeds the attempt
    /// count, spiked stragglers included), and the whole episode replays
    /// byte-for-byte from its `SIMNET_SEED`.
    #[test]
    fn virtual_soak_load_spike_opens_breaker_then_recovers() {
        /// One full spike episode; everything returned must be a pure
        /// function of the seed.
        fn run(seed: u64) -> (Vec<String>, u64, u64, u64, SimSchedule) {
            let (cluster, mut driver) = ClusterBuilder::new(3)
                .register::<Counter>()
                .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
                .call_policy(soak_policy())
                .build();
            let clock = cluster.sim().clock().clone();
            let c = CounterClient::new_on(&mut driver, 1).unwrap();
            driver.set_call_policy(
                CallPolicy::reliable(Duration::from_millis(20))
                    .with_max_retries(1)
                    .with_backoff(Backoff::fixed(Duration::from_millis(5)))
                    .with_breaker(BreakerConfig {
                        failure_threshold: 3,
                        cooldown: Duration::from_millis(50),
                    }),
            );

            let mut outcomes = Vec::new();
            let (mut acked, mut attempted) = (0u64, 0u64);
            let mut write_round =
                |driver: &mut Driver, outcomes: &mut Vec<String>, calls: usize| {
                    for _ in 0..calls {
                        attempted += 1;
                        let r = c.add(driver, 1);
                        if let Ok(total) = &r {
                            assert!(
                                *total > acked && *total <= attempted,
                                "ledger violated: total {total} outside ({acked}, {attempted}] \
                                 (lost or doubled call)"
                            );
                            acked = *total;
                        }
                        outcomes.push(format!("{r:?}"));
                    }
                };

            // Healthy phase: everything lands.
            write_round(&mut driver, &mut outcomes, 5);

            // Spike phase: machine 1 answers, but a second late.
            cluster.sim().faults().spike(1, Duration::from_secs(1));
            assert!(cluster.sim().faults().is_spiked(1));
            write_round(&mut driver, &mut outcomes, 8);
            let fast_fails = driver.local_stats().breaker_fast_fails;

            // Recovery phase: lift the spike, let the stragglers drain and
            // the cooldown lapse, then service must resume.
            cluster.sim().faults().unspike(1);
            driver.serve_for(Duration::from_secs(3));
            write_round(&mut driver, &mut outcomes, 5);

            let total = c.total(&mut driver).unwrap();
            assert!(
                total >= acked && total <= attempted,
                "final total {total} outside [{acked}, {attempted}]"
            );
            assert!(
                cluster.snapshot().spike_delayed > 0,
                "the fabric must account the spiked deliveries"
            );
            cluster.sim().faults().calm();
            cluster.shutdown(driver);
            let schedule = clock.schedule().expect("virtual clock records a schedule");
            (outcomes, total, fast_fails, acked, schedule)
        }

        let seed = seed_from_env();
        let repro = repro_line(seed, "virtual_soak_load_spike_opens_breaker_then_recovers");
        let first = run(seed);
        let (ref outcomes, _, fast_fails, _, ref schedule) = first;

        let (healthy, rest) = outcomes.split_at(5);
        let (spiked, recovered) = rest.split_at(8);
        assert!(
            healthy.iter().all(|o| o.starts_with("Ok")),
            "healthy phase must land every call; outcomes {healthy:?}; replay: {repro}"
        );
        assert!(
            spiked.iter().any(|o| o.contains("Timeout")),
            "the spike must cost timeouts before the breaker trips; \
             outcomes {spiked:?}; replay: {repro}"
        );
        assert!(
            spiked.iter().any(|o| o.contains("Overloaded")) && fast_fails >= 1,
            "the breaker must open and fast-fail inside the spike phase; \
             outcomes {spiked:?}; replay: {repro}"
        );
        assert!(
            recovered.iter().all(|o| o.starts_with("Ok")),
            "after the spike lifts the breaker must re-close and serve; \
             outcomes {recovered:?}; replay: {repro}"
        );
        assert!(schedule.events > 0);

        // Byte-for-byte replay: the same seed reproduces the identical
        // outcome sequence, totals, counters, and event schedule.
        let second = run(seed);
        assert_eq!(
            second, first,
            "same seed must replay the spike episode bit-for-bit; replay: {repro}"
        );
    }

    /// The replay contract itself: a deliberately failing episode reports
    /// a schedule, and rerunning the same seed reproduces the failure at
    /// the same episode with a bit-identical schedule — exactly what the
    /// printed `SIMNET_SEED=…` repro line promises.
    #[test]
    fn failing_episode_replays_bit_for_bit_from_its_seed() {
        const SEED: u64 = 0x0BAD_5EED_0BAD_5EED;
        let first = run_soak(SEED, 4, true, Some(2)).unwrap_err();
        assert_eq!(first.episode, 2);
        assert!(first.message.contains("sabotage"), "{}", first.message);
        let schedule = first.schedule.expect("virtual runs record a schedule");
        assert!(schedule.events > 0);
        eprintln!(
            "deliberate failure at episode {}; repro: {}",
            first.episode,
            repro_line(SEED, "failing_episode_replays_bit_for_bit_from_its_seed")
        );

        let replay = run_soak(SEED, 4, true, Some(2)).unwrap_err();
        assert_eq!(replay.episode, first.episode);
        assert_eq!(
            replay.schedule,
            Some(schedule),
            "same seed must replay the identical event schedule"
        );
    }
}
