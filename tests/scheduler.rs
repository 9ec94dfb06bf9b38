//! M:N scheduler suite (DESIGN.md §13).
//!
//! A machine with `sched_workers(n)` is a dispatcher lane plus `n` worker
//! lanes executing per-object mailboxes whose task tokens share the
//! machine's one run queue; these tests pin the contracts the pool must not
//! bend: sequential-server semantics per object, at-most-once execution
//! under duplicate-heavy fabrics hammered from multiple lanes,
//! execution-time (not admission-time) epoch fencing, the `serve_for`
//! virtual-time deadline, liveness of a one-worker pool across nested
//! same-machine calls, and the run queue's yield order (a yielded token
//! before later admissions).

use std::collections::BTreeSet;
use std::time::Duration;

use oopp_repro::oopp::{
    join, Backoff, BarrierClient, CallPolicy, ClusterBuilder, NodeCtx, RemoteClient, RemoteResult,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan};

/// Deliberately non-idempotent: a duplicated or re-executed `add` is
/// observable in `total`, and each reply carries the total *at execution*,
/// so the full execution order of one object is visible to the test.
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
        /// Enter `b` (a nested remote call that parks this object until
        /// the barrier releases), then return the total.
        fn park_then_total(&mut self, b: BarrierClient) -> u64;
        /// Sleep `micros` on the cluster clock, then return its reading.
        fn work(&mut self, micros: u64) -> u64;
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

    fn park_then_total(&mut self, ctx: &mut NodeCtx, b: BarrierClient) -> RemoteResult<u64> {
        b.enter(ctx)?;
        Ok(self.total)
    }

    fn work(&mut self, ctx: &mut NodeCtx, micros: u64) -> RemoteResult<u64> {
        ctx.clock().sleep(Duration::from_micros(micros));
        Ok(ctx.now_nanos())
    }
}

fn reliable_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(150))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(Duration::from_millis(8)))
}

/// One object, many pipelined non-idempotent calls, four workers: whatever
/// lane runs the mailbox, the object must behave as one sequential server —
/// every intermediate total observed exactly once.
#[test]
fn pool_preserves_sequential_object_semantics() {
    const N: u64 = 100;
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(4)
        .register::<Counter>()
        .build();
    let c = CounterClient::new_on(&mut driver, 1).unwrap();

    let pending: Vec<_> = (0..N)
        .map(|_| c.add_async(&mut driver, 1).unwrap())
        .collect();
    let totals = join(&mut driver, pending).unwrap();

    let seen: BTreeSet<u64> = totals.iter().copied().collect();
    let expect: BTreeSet<u64> = (1..=N).collect();
    assert_eq!(seen, expect, "lost or double-executed increments");
    assert_eq!(c.total(&mut driver).unwrap(), N);
    cluster.shutdown(driver);
}

/// Satellite: the dedup window under multi-lane fire. Duplicate-heavy
/// fabric, two worker lanes per machine completing calls while the
/// dispatcher admits retransmits of the same request ids: at-most-once must
/// hold exactly even though `admit` and `complete` now race across threads.
#[test]
fn dedup_window_survives_two_worker_hammer() {
    const OBJECTS: usize = 4;
    const CALLS: u64 = 50;
    let plan = FaultPlan::seeded(0x000D_ED09)
        .with_drop(0.05)
        .with_dup(0.25);
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(2)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(reliable_policy())
        .build();

    let counters: Vec<_> = (0..OBJECTS)
        .map(|i| CounterClient::new_on(&mut driver, i % 2).unwrap())
        .collect();
    for _ in 0..CALLS {
        let pending: Vec<_> = counters
            .iter()
            .map(|c| c.add_async(&mut driver, 1).unwrap())
            .collect();
        join(&mut driver, pending).unwrap();
    }
    for c in &counters {
        assert_eq!(
            c.total(&mut driver).unwrap(),
            CALLS,
            "dedup window let a duplicate execute (or dropped a call)"
        );
    }
    let dups: u64 = (0..2)
        .map(|m| {
            let s = driver.stats_of(m).unwrap();
            s.dup_suppressed + s.dup_replayed
        })
        .sum();
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    assert!(dups > 0, "a 25% dup plan must exercise the window");
}

/// Satellite: `serve_for` under `TimeMode::Virtual` must re-read the clock
/// and return once the *virtual* deadline passes — an idle driver parked in
/// `serve_for` is exactly the state that used to spin or hang.
#[test]
fn serve_for_honors_virtual_time_deadline() {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(11))
        .build();
    let t0 = driver.now_nanos();
    driver.serve_for(Duration::from_millis(250));
    let waited = driver.now_nanos() - t0;
    assert!(
        waited >= 250_000_000,
        "serve_for returned {waited}ns early under virtual time"
    );
    assert!(
        waited < 5_000_000_000,
        "serve_for overshot the virtual deadline by {waited}ns"
    );
    cluster.shutdown(driver);
}

/// Satellite: epoch fences are judged when a request *executes*, not when
/// it is admitted. A request admitted into a busy object's mailbox at epoch
/// 1 must be rejected `Fenced` when the fence moves to 2 before the mailbox
/// drains; the client then transparently re-fences and retries, which is
/// visible as `calls_fenced` on the server and the taught epoch on the
/// driver.
#[test]
fn fence_bump_between_admission_and_execution_rejects() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(23))
        .build();

    // Barrier of 2 on machine 0; the fenced object on machine 1.
    let gate = BarrierClient::new_on(&mut driver, 0, 2).unwrap();
    let c = CounterClient::new_on(&mut driver, 1).unwrap();
    c.add(&mut driver, 5).unwrap();

    // Fence the object at epoch 1 and teach the driver about it, so its
    // frames carry a nonzero (fenceable) epoch.
    driver.set_epoch_of(c.obj_ref(), 1).unwrap();
    driver.note_epoch(c.obj_ref(), 1);

    // Park the object: the call checks it out and waits inside the barrier.
    let parked = c.park_then_total_async(&mut driver, gate).unwrap();
    // Admit a second call at epoch 1 — it queues in the object's mailbox
    // behind the parked call.
    let queued = c.total_async(&mut driver).unwrap();
    // Bump the fence while that request sits admitted-but-unexecuted.
    driver.set_epoch_of(c.obj_ref(), 2).unwrap();

    // Release the barrier; the parked call completes, the queued call hits
    // the epoch gate at execution time.
    gate.enter(&mut driver).unwrap();
    assert_eq!(parked.wait(&mut driver).unwrap(), 5);
    assert_eq!(
        queued.wait(&mut driver).unwrap(),
        5,
        "re-fenced retry must still observe the object"
    );

    let fenced = driver.stats_of(1).unwrap().calls_fenced;
    assert!(
        fenced >= 1,
        "the queued request must have been fenced at execution (saw {fenced})"
    );
    assert_eq!(
        driver.believed_epoch(c.obj_ref()),
        2,
        "the Fenced rejection must teach the driver the new epoch"
    );
    cluster.shutdown(driver);
}

/// A one-worker pool across a nested same-machine dependency: object A is
/// checked out, parked in a barrier, while a call to object B lands on the
/// same machine. The single worker is re-entrantly nudged to run B's
/// mailbox from inside its wait — if it is not, this test times out instead
/// of completing.
#[test]
fn single_worker_pool_survives_nested_parking() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Counter>()
        .call_policy(CallPolicy::no_retry(Duration::from_secs(5)))
        .build();

    let gate = BarrierClient::new_on(&mut driver, 0, 2).unwrap();
    let a = CounterClient::new_on(&mut driver, 1).unwrap();
    let b = CounterClient::new_on(&mut driver, 1).unwrap();

    let parked = a.park_then_total_async(&mut driver, gate).unwrap();
    // A holds machine 1's only worker; B must still be served.
    assert_eq!(b.add(&mut driver, 3).expect("B starved behind parked A"), 3);
    gate.enter(&mut driver).unwrap();
    assert_eq!(parked.wait(&mut driver).unwrap(), 0);
    cluster.shutdown(driver);
}

/// The yield rule: a token that has run a batch of its mailbox goes back at
/// the front of the machine's run queue, so on a one-lane pool the lane
/// takes the hot object's mailbox straight back, and a call admitted to a
/// cold object behind it waits for all of it. A token put back at the
/// queue's tail lets the cold call in after the first batch (1.6 ms into the
/// 2 ms of hot work).
#[test]
fn a_yielding_lane_takes_its_mailbox_back_before_later_admissions() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Counter>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(31))
        .build();
    let hot = CounterClient::new_on(&mut driver, 1).unwrap();
    let cold = CounterClient::new_on(&mut driver, 1).unwrap();

    let hot_calls: Vec<_> = (0..20)
        .map(|_| hot.work_async(&mut driver, 100).unwrap())
        .collect();
    let cold_call = cold.work_async(&mut driver, 0).unwrap();
    let hot_last = *join(&mut driver, hot_calls).unwrap().last().unwrap();
    let cold_at = cold_call.wait(&mut driver).unwrap();
    assert!(
        cold_at >= hot_last,
        "the cold call ran at {cold_at} ns, before the hot object's last call ({hot_last} ns)"
    );
    cluster.shutdown(driver);
}
