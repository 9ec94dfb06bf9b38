//! End-to-end tests of the oopp runtime: every §2–§5 construct of the paper
//! exercised against a real (simulated) cluster.
#![allow(clippy::approx_constant)] // 3.1415 is the paper's own literal

use std::time::Duration;

use wire::collections::{F64s, F64sView};

use crate::*;

// ---------------------------------------------------------------------
// Test classes
// ---------------------------------------------------------------------

/// A worker process that computes against other remote objects — used to
/// exercise nested calls, groups, and barriers.
#[derive(Debug)]
pub struct Computer {
    id: u64,
    peers: Vec<ComputerClient>,
    scratch: f64,
}

remote_class! {
    class Computer {
        ctor(id: u64);
        /// §4 SetGroup, deep-copy variant: store the whole table of remote
        /// pointers locally.
        fn set_group(&mut self, peers: Vec<ComputerClient>) -> ();
        /// Who am I (and how many peers do I know)?
        fn describe(&mut self) -> (u64, usize);
        /// Nested RMI: read `data[i]`, add my id, store into `data[i]`.
        fn bump(&mut self, data: DoubleBlockClient, i: usize) -> f64;
        /// Enter a barrier, then return my id (exercises deferred replies
        /// under load).
        fn sync_then_id(&mut self, barrier: BarrierClient) -> u64;
        /// Store a value locally (cheap call for pipelining tests).
        fn stash(&mut self, v: f64) -> ();
        /// Read the stashed value.
        fn stashed(&mut self) -> f64;
        /// Ask peer `p` for its stashed value (worker-to-worker RMI).
        fn peer_stashed(&mut self, p: usize) -> f64;
        /// Deliberately fail.
        fn explode(&mut self) -> ();
    }
}

impl Computer {
    fn new(_ctx: &mut NodeCtx, id: u64) -> RemoteResult<Self> {
        Ok(Computer {
            id,
            peers: Vec::new(),
            scratch: 0.0,
        })
    }

    fn set_group(&mut self, _ctx: &mut NodeCtx, peers: Vec<ComputerClient>) -> RemoteResult<()> {
        self.peers = peers;
        Ok(())
    }

    fn describe(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<(u64, usize)> {
        Ok((self.id, self.peers.len()))
    }

    fn bump(&mut self, ctx: &mut NodeCtx, data: DoubleBlockClient, i: usize) -> RemoteResult<f64> {
        let old = data.get(ctx, i)?;
        let new = old + self.id as f64;
        data.set(ctx, i, new)?;
        Ok(new)
    }

    fn sync_then_id(&mut self, ctx: &mut NodeCtx, barrier: BarrierClient) -> RemoteResult<u64> {
        barrier.enter(ctx)?;
        Ok(self.id)
    }

    fn stash(&mut self, _ctx: &mut NodeCtx, v: f64) -> RemoteResult<()> {
        self.scratch = v;
        Ok(())
    }

    fn stashed(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<f64> {
        Ok(self.scratch)
    }

    fn peer_stashed(&mut self, ctx: &mut NodeCtx, p: usize) -> RemoteResult<f64> {
        let peer = *self
            .peers
            .get(p)
            .ok_or_else(|| RemoteError::app(format!("no peer {p}")))?;
        peer.stashed(ctx)
    }

    fn explode(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<()> {
        Err(RemoteError::app("kaboom"))
    }
}

/// Base class for the inheritance tests (§3): a counter.
#[derive(Debug)]
pub struct Counter {
    count: i64,
}

remote_class! {
    class Counter {
        ctor(start: i64);
        fn increment(&mut self, by: i64) -> i64;
        fn value(&mut self) -> i64;
    }
}

impl Counter {
    fn new(_ctx: &mut NodeCtx, start: i64) -> RemoteResult<Self> {
        Ok(Counter { count: start })
    }
    fn increment(&mut self, _ctx: &mut NodeCtx, by: i64) -> RemoteResult<i64> {
        self.count += by;
        Ok(self.count)
    }
    fn value(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<i64> {
        Ok(self.count)
    }
}

/// Derived class (§3): adds a scaled read on top of `Counter`.
#[derive(Debug)]
pub struct ScaledCounter {
    base: Counter,
    scale: i64,
}

remote_class! {
    class ScaledCounter: Counter {
        ctor(start: i64, scale: i64);
        fn scaled_value(&mut self) -> i64;
    }
}

impl ScaledCounter {
    fn new(ctx: &mut NodeCtx, start: i64, scale: i64) -> RemoteResult<Self> {
        Ok(ScaledCounter {
            base: Counter::new(ctx, start)?,
            scale,
        })
    }
    fn scaled_value(&mut self, ctx: &mut NodeCtx) -> RemoteResult<i64> {
        Ok(self.base.value(ctx)? * self.scale)
    }
}

/// Takes its bulk argument as a view of the request and goes on reading it
/// across the nested calls it makes.
#[derive(Debug)]
pub struct Courier;

remote_class! {
    class Courier {
        ctor();
        /// Write `data` to `to`, half by half, and return its sum.
        fn deliver(&mut self, to: DoubleBlockClient, data: F64s) -> f64;
    }
}

impl Courier {
    fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Courier)
    }

    fn deliver(
        &mut self,
        ctx: &mut NodeCtx,
        to: DoubleBlockClient,
        data: F64sView<'_>,
    ) -> RemoteResult<f64> {
        let half = data.len() / 2;
        for (at, len) in [(0, half), (half, data.len() - half)] {
            let mut part = vec![0.0; len];
            data.copy_to(at, &mut part);
            // Another request is encoded, and on `to`'s machine another
            // dispatched, while the view is held.
            to.write_range(ctx, at, F64s(part))?;
        }
        Ok(data.iter().sum())
    }
}

fn cluster(workers: usize) -> (Cluster, Driver) {
    ClusterBuilder::new(workers)
        .register::<Computer>()
        .register::<Courier>()
        .register::<Counter>()
        .register::<ScaledCounter>()
        .call_policy(CallPolicy::no_retry(Duration::from_secs(10)))
        .build()
}

// ---------------------------------------------------------------------
// §2: processes, remote new, sequential semantics, destructors
// ---------------------------------------------------------------------

#[test]
fn ping_every_machine() {
    let (cluster, mut driver) = cluster(3);
    for m in 0..3 {
        driver.ping(m).unwrap();
    }
    cluster.shutdown(driver);
}

/// A cluster dropped without `shutdown` stops its machines with the very
/// payload `start_shutdown` sends.
#[test]
fn emergency_stop_sends_the_shutdown_verbs_payload() {
    let (cluster, mut driver) = cluster(1);
    let pending = driver.start_shutdown(0).unwrap();
    let frame = driver
        .outstanding_frame(pending.req_id())
        .expect("call in flight");
    use crate::frame::Frame;
    let Ok(Frame::Request { payload, .. } | Frame::SingleShot { payload, .. }) =
        wire::from_bytes(frame)
    else {
        panic!("not a request frame");
    };
    assert_eq!(payload.0, NodeCtx::shutdown_payload());
    pending.wait(&mut driver).unwrap();
    drop(driver);
    drop(cluster);
}

#[test]
fn paper_listing_remote_double_array() {
    // double *data = new(machine 2) double[1024];
    // data[7] = 3.1415;  double x = data[2];
    let (cluster, mut driver) = cluster(3);
    let data = DoubleBlockClient::new_on(&mut driver, 2, 1024).unwrap();
    data.set(&mut driver, 7, 3.1415).unwrap();
    assert_eq!(data.get(&mut driver, 2).unwrap(), 0.0);
    assert_eq!(data.get(&mut driver, 7).unwrap(), 3.1415);
    assert_eq!(data.len(&mut driver).unwrap(), 1024);
    data.destroy(&mut driver).unwrap();
    cluster.shutdown(driver);
}

#[test]
fn destroy_terminates_the_process() {
    let (cluster, mut driver) = cluster(2);
    let data = DoubleBlockClient::new_on(&mut driver, 0, 8).unwrap();
    data.set(&mut driver, 0, 1.0).unwrap();
    data.destroy(&mut driver).unwrap();
    // The process is gone: further dereferences fail.
    match data.get(&mut driver, 0) {
        Err(RemoteError::NoSuchObject { machine: 0, .. }) => {}
        other => panic!("expected NoSuchObject, got {other:?}"),
    }
    // Double delete is also an error.
    assert!(matches!(
        data.destroy(&mut driver),
        Err(RemoteError::NoSuchObject { .. })
    ));
    cluster.shutdown(driver);
}

#[test]
fn unknown_class_is_reported() {
    let (cluster, mut driver) = ClusterBuilder::new(1).build();
    let err = driver.create_object(0, "Phantom", vec![]).unwrap_err();
    assert_eq!(
        err,
        RemoteError::NoSuchClass {
            class: "Phantom".into()
        }
    );
    cluster.shutdown(driver);
}

#[test]
fn unknown_method_is_reported() {
    let (cluster, mut driver) = cluster(1);
    let c = CounterClient::new_on(&mut driver, 0, 5).unwrap();
    let err: RemoteResult<()> = driver.call_method(c.obj_ref(), "frobnicate", |_| {});
    assert_eq!(
        err.unwrap_err(),
        RemoteError::NoSuchMethod {
            class: "Counter".into(),
            method: "frobnicate".into()
        }
    );
    cluster.shutdown(driver);
}

#[test]
fn bad_machine_is_rejected_locally() {
    let (cluster, mut driver) = cluster(2);
    let err = DoubleBlockClient::new_on(&mut driver, 99, 8).unwrap_err();
    assert!(matches!(err, RemoteError::BadMachine { machine: 99, .. }));
    cluster.shutdown(driver);
}

#[test]
fn application_errors_propagate() {
    let (cluster, mut driver) = cluster(1);
    let c = ComputerClient::new_on(&mut driver, 0, 1).unwrap();
    let err = c.explode(&mut driver).unwrap_err();
    assert_eq!(err, RemoteError::app("kaboom"));
    // Out-of-bounds block access is an App error, not a panic.
    let d = DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
    assert!(matches!(
        d.get(&mut driver, 4),
        Err(RemoteError::App { .. })
    ));
    cluster.shutdown(driver);
}

#[test]
fn objects_on_every_machine_including_driver_host() {
    let (cluster, mut driver) = cluster(4);
    // The driver endpoint can host objects too; they are served while the
    // driver waits inside calls.
    let mut blocks = Vec::new();
    for m in 0..5 {
        blocks.push(DoubleBlockClient::new_on(&mut driver, m, 4).unwrap());
    }
    for (i, b) in blocks.iter().enumerate() {
        b.set(&mut driver, 0, i as f64).unwrap();
    }
    for (i, b) in blocks.iter().enumerate() {
        assert_eq!(b.get(&mut driver, 0).unwrap(), i as f64);
    }
    cluster.shutdown(driver);
}

#[test]
fn bulk_ranges_roundtrip() {
    let (cluster, mut driver) = cluster(1);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 100).unwrap();
    let payload: Vec<f64> = (0..50).map(|i| i as f64 * 0.5).collect();
    d.write_range(&mut driver, 25, F64s(payload.clone()))
        .unwrap();
    let back = d.read_range(&mut driver, 25, 50).unwrap();
    assert_eq!(back.0, payload);
    // Device-side reductions (§3 "move the computation to the data").
    let s = d.sum_range(&mut driver, 25, 50).unwrap();
    assert_eq!(s, payload.iter().sum::<f64>());
    let dot = d.dot_range(&mut driver, 25, F64s(vec![2.0; 50])).unwrap();
    assert!((dot - 2.0 * s).abs() < 1e-9);
    d.axpy_range(&mut driver, 25, -1.0, F64s(payload.clone()))
        .unwrap();
    assert_eq!(d.sum_range(&mut driver, 0, 100).unwrap(), 0.0);
    cluster.shutdown(driver);
}

/// What a block of eight holds after `mark`, and that it still holds it.
fn assert_untouched(d: &DoubleBlockClient, driver: &mut Driver, mark: &[f64]) {
    assert_eq!(d.read_range(driver, 0, mark.len()).unwrap().0, mark);
}

#[test]
fn a_bulk_argument_that_is_junk_changes_nothing() {
    let (cluster, mut driver) = cluster(1);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 8).unwrap();
    let mark: Vec<f64> = (1..=8).map(f64::from).collect();
    d.write_range(&mut driver, 0, F64s(mark.clone())).unwrap();

    // Eight doubles declared, three present: refused where `F64s::decode`
    // refused it, before the method runs.
    for method in ["write_range", "dot_range"] {
        let err: RemoteResult<()> = driver.call_method(d.obj_ref(), method, |w| {
            wire::Wire::encode(&0usize, w);
            w.put_varint(8);
            w.put_f64s(&[9.0; 3]);
        });
        assert!(matches!(err.unwrap_err(), RemoteError::Decode { .. }));
        assert_untouched(&d, &mut driver, &mark);
    }

    // A range past the block: the application error it always was.
    let past = d.write_range(&mut driver, 6, F64s(vec![9.0; 5]));
    assert_eq!(
        past.unwrap_err(),
        RemoteError::app("range [6, 6+5) out of bounds for block of 8")
    );
    let wraps = d.axpy_range(&mut driver, usize::MAX, 2.0, F64s(vec![9.0; 2]));
    assert!(matches!(wraps.unwrap_err(), RemoteError::App { .. }));
    let read_past = d.read_range(&mut driver, 4, 5);
    assert_eq!(
        read_past.unwrap_err(),
        RemoteError::app("range [4, 4+5) out of bounds for block of 8")
    );
    assert_untouched(&d, &mut driver, &mark);

    // And the machine answers the next call.
    assert_eq!(d.get(&mut driver, 7).unwrap(), 8.0);
    cluster.shutdown(driver);
}

#[test]
fn empty_bulk_ranges_roundtrip() {
    let (cluster, mut driver) = cluster(1);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 8).unwrap();
    d.fill(&mut driver, 1.5).unwrap();
    for start in [0, 3, 8] {
        d.write_range(&mut driver, start, F64s(vec![])).unwrap();
        assert_eq!(d.read_range(&mut driver, start, 0).unwrap(), F64s(vec![]));
        assert_eq!(d.dot_range(&mut driver, start, F64s(vec![])).unwrap(), 0.0);
    }
    assert_eq!(d.sum_range(&mut driver, 0, 8).unwrap(), 12.0);
    cluster.shutdown(driver);
}

/// A view is of the request the method was dispatched with, whatever else
/// its node encodes, sends, receives and dispatches while the method holds
/// it: calls to a block on the courier's own machine (served nested, on the
/// same node) and to one on another.
#[test]
fn a_view_argument_reads_its_own_request_across_nested_calls() {
    let (cluster, mut driver) = cluster(2);
    let courier = CourierClient::new_on(&mut driver, 0).unwrap();
    // Large enough that a reused buffer would be overwritten, odd so the
    // halves differ.
    let payload: Vec<f64> = (0..4097).map(|i| i as f64 - 0.25).collect();
    for machine in [0, 1] {
        let to = DoubleBlockClient::new_on(&mut driver, machine, payload.len()).unwrap();
        let sum = courier.deliver(&mut driver, to, F64s(payload.clone()));
        assert_eq!(sum.unwrap(), payload.iter().sum::<f64>());
        let landed = to.read_range(&mut driver, 0, payload.len()).unwrap();
        assert_eq!(landed.0, payload);
    }
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// §3: inheritance
// ---------------------------------------------------------------------

#[test]
fn derived_class_dispatches_own_and_base_methods() {
    let (cluster, mut driver) = cluster(2);
    let sc = ScaledCounterClient::new_on(&mut driver, 1, 10, 3).unwrap();
    // Own method.
    assert_eq!(sc.scaled_value(&mut driver).unwrap(), 30);
    // Base methods through the base-typed view — §3 substitutability.
    let as_counter: CounterClient = sc.as_base();
    assert_eq!(as_counter.increment(&mut driver, 5).unwrap(), 15);
    assert_eq!(as_counter.value(&mut driver).unwrap(), 15);
    // The derived view observes the mutation made through the base view.
    assert_eq!(sc.scaled_value(&mut driver).unwrap(), 45);
    // From conversion works too.
    let c2: CounterClient = sc.into();
    assert_eq!(c2.value(&mut driver).unwrap(), 15);
    cluster.shutdown(driver);
}

#[test]
fn base_client_cannot_reach_derived_methods_of_pure_base_object() {
    let (cluster, mut driver) = cluster(1);
    let c = CounterClient::new_on(&mut driver, 0, 0).unwrap();
    // Asking a pure Counter for a ScaledCounter method fails cleanly.
    let err: RemoteResult<i64> = driver.call_method(c.obj_ref(), "scaled_value", |_| {});
    assert!(matches!(err.unwrap_err(), RemoteError::NoSuchMethod { .. }));
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// §4: parallelism — split loops, groups, barriers
// ---------------------------------------------------------------------

#[test]
fn split_loop_collects_all_replies() {
    let (cluster, mut driver) = cluster(4);
    let blocks: Vec<_> = (0..4)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, 8).unwrap())
        .collect();
    // Send phase: issue all writes without waiting.
    let writes: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(i, b)| b.set_async(&mut driver, 0, i as f64 * 2.0).unwrap())
        .collect();
    // Receive phase.
    join(&mut driver, writes).unwrap();
    // Same for reads.
    let reads: Vec<_> = blocks
        .iter()
        .map(|b| b.get_async(&mut driver, 0).unwrap())
        .collect();
    let values = join(&mut driver, reads).unwrap();
    assert_eq!(values, vec![0.0, 2.0, 4.0, 6.0]);
    cluster.shutdown(driver);
}

#[test]
fn join_surfaces_the_first_error_and_drains_the_rest() {
    let (cluster, mut driver) = cluster(2);
    let good = DoubleBlockClient::new_on(&mut driver, 0, 8).unwrap();
    let pendings = vec![
        good.get_async(&mut driver, 0).unwrap(),
        good.get_async(&mut driver, 999).unwrap(), // out of bounds
        good.get_async(&mut driver, 1).unwrap(),
    ];
    assert!(matches!(
        join(&mut driver, pendings),
        Err(RemoteError::App { .. })
    ));
    // The node must not have leaked replies: further calls still work.
    assert_eq!(good.get(&mut driver, 0).unwrap(), 0.0);
    cluster.shutdown(driver);
}

#[test]
fn process_group_create_and_set_group() {
    // The paper's FFT master code: create N processes, tell each the group.
    let (cluster, mut driver) = cluster(4);
    let group: ProcessGroup<ComputerClient> =
        ProcessGroup::create(&mut driver, 4, |id| wire::to_bytes(&(id as u64))).unwrap();
    assert_eq!(group.len(), 4);
    let members = group.members().to_vec();
    group
        .par_each(&mut driver, |ctx, m, _| {
            m.set_group_async(ctx, members.clone())
        })
        .unwrap();
    let descriptions = group
        .par_each(&mut driver, |ctx, m, _| m.describe_async(ctx))
        .unwrap();
    for (id, (got_id, peer_count)) in descriptions.iter().enumerate() {
        assert_eq!(*got_id, id as u64);
        assert_eq!(*peer_count, 4);
    }
    cluster.shutdown(driver);
}

#[test]
fn workers_call_each_other_through_remote_pointers() {
    let (cluster, mut driver) = cluster(3);
    let group: ProcessGroup<ComputerClient> =
        ProcessGroup::create(&mut driver, 3, |id| wire::to_bytes(&(id as u64))).unwrap();
    let members = group.members().to_vec();
    group
        .par_each(&mut driver, |ctx, m, _| {
            m.set_group_async(ctx, members.clone())
        })
        .unwrap();
    // Stash a value on worker 2, then ask worker 0 to fetch it from its
    // peer table: a worker→worker remote call.
    group.member(2).stash(&mut driver, 42.5).unwrap();
    let fetched = group.member(0).peer_stashed(&mut driver, 2).unwrap();
    assert_eq!(fetched, 42.5);
    cluster.shutdown(driver);
}

#[test]
fn nested_calls_through_shared_data() {
    // §2's shared-memory sketch: computing processes share one data block.
    let (cluster, mut driver) = cluster(3);
    let data = DoubleBlockClient::new_on(&mut driver, 0, 1).unwrap();
    let computers: Vec<_> = (1..3)
        .map(|m| ComputerClient::new_on(&mut driver, m, m as u64).unwrap())
        .collect();
    // Sequential semantics: each bump completes before the next starts.
    for c in &computers {
        c.bump(&mut driver, data, 0).unwrap();
    }
    assert_eq!(data.get(&mut driver, 0).unwrap(), 3.0); // 1 + 2
    cluster.shutdown(driver);
}

#[test]
fn barrier_synchronizes_group_and_driver() {
    let (cluster, mut driver) = cluster(3);
    let barrier = BarrierClient::new_on(&mut driver, 0, 4).unwrap(); // 3 workers + driver
    let group: ProcessGroup<ComputerClient> =
        ProcessGroup::create(&mut driver, 3, |id| wire::to_bytes(&(id as u64))).unwrap();
    // Send phase: every worker enters the barrier (their dispatch blocks).
    let pendings: Vec<_> = group
        .members()
        .iter()
        .map(|m| m.sync_then_id_async(&mut driver, barrier).unwrap())
        .collect();
    // Driver is the last party; everyone is released.
    barrier.enter(&mut driver).unwrap();
    let mut ids = join(&mut driver, pendings).unwrap();
    ids.sort_unstable();
    assert_eq!(ids, vec![0, 1, 2]);
    assert_eq!(barrier.generations(&mut driver).unwrap(), 1);
    cluster.shutdown(driver);
}

#[test]
fn barrier_is_reusable_across_generations() {
    let (cluster, mut driver) = cluster(2);
    let barrier = BarrierClient::new_on(&mut driver, 0, 3).unwrap();
    let group: ProcessGroup<ComputerClient> =
        ProcessGroup::create(&mut driver, 2, |id| wire::to_bytes(&(id as u64))).unwrap();
    for round in 1..=3u64 {
        let pendings: Vec<_> = group
            .members()
            .iter()
            .map(|m| m.sync_then_id_async(&mut driver, barrier).unwrap())
            .collect();
        barrier.enter(&mut driver).unwrap();
        join(&mut driver, pendings).unwrap();
        assert_eq!(barrier.generations(&mut driver).unwrap(), round);
    }
    cluster.shutdown(driver);
}

#[test]
fn busy_object_defers_requests_instead_of_failing() {
    let (cluster, mut driver) = cluster(2);
    let barrier = BarrierClient::new_on(&mut driver, 0, 2).unwrap();
    let c = ComputerClient::new_on(&mut driver, 1, 7).unwrap();
    // Request 1 parks the Computer inside the barrier.
    let p1 = c.sync_then_id_async(&mut driver, barrier).unwrap();
    // Request 2 arrives while the Computer is checked out — it must be
    // deferred, not rejected.
    let p2 = c.stashed_async(&mut driver).unwrap();
    // Release the barrier; both replies now arrive.
    barrier.enter(&mut driver).unwrap();
    assert_eq!(p1.wait(&mut driver).unwrap(), 7);
    assert_eq!(p2.wait(&mut driver).unwrap(), 0.0);
    let stats = driver.stats_of(1).unwrap();
    assert!(
        stats.calls_deferred >= 1,
        "expected a deferred call, got {stats:?}"
    );
    cluster.shutdown(driver);
}

#[test]
fn self_call_deadlock_times_out() {
    // An object calling a method on *itself* through its own remote pointer
    // is the minimal distributed deadlock: its own request sits in its
    // mailbox while it waits. The engine must convert this to a
    // Timeout, not hang.
    #[derive(Debug)]
    pub struct Narcissist;
    remote_class! {
        class Narcissist {
            ctor();
            fn admire(&mut self, me: NarcissistClient) -> ();
            fn nop(&mut self) -> ();
        }
    }
    impl Narcissist {
        fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
            Ok(Narcissist)
        }
        fn admire(&mut self, ctx: &mut NodeCtx, me: NarcissistClient) -> RemoteResult<()> {
            me.nop(ctx) // deadlock: our own request can never be served
        }
        fn nop(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<()> {
            Ok(())
        }
    }

    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<Narcissist>()
        .call_policy(CallPolicy::no_retry(Duration::from_millis(300)))
        .build();
    let n = NarcissistClient::new_on(&mut driver, 0).unwrap();
    let err = n.admire(&mut driver, n).unwrap_err();
    assert!(matches!(err, RemoteError::Timeout { .. }), "got {err:?}");
    // The machine recovered: it can serve fresh calls afterwards.
    n.nop(&mut driver).unwrap();
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// §5: persistence and symbolic addresses
// ---------------------------------------------------------------------

#[test]
fn snapshot_deactivate_activate_cycle() {
    let (cluster, mut driver) = cluster(2);
    let d = DoubleBlockClient::new_on(&mut driver, 1, 4).unwrap();
    d.write_range(&mut driver, 0, F64s(vec![1.0, 2.0, 3.0, 4.0]))
        .unwrap();

    // Deactivate: state stored under a symbolic key, process destroyed.
    let key = symbolic_addr(&["data", "set", "DoubleBlock", "0"]);
    driver.deactivate(d.obj_ref(), key.clone()).unwrap();
    assert!(matches!(
        d.get(&mut driver, 0),
        Err(RemoteError::NoSuchObject { .. })
    ));

    // Activate: a fresh process with the same state.
    let revived: DoubleBlockClient = driver.activate(1, &key).unwrap();
    assert_eq!(
        revived.read_range(&mut driver, 0, 4).unwrap().0,
        vec![1.0, 2.0, 3.0, 4.0]
    );

    // Activation is non-destructive: a second activation yields another copy.
    let twin: DoubleBlockClient = driver.activate(1, &key).unwrap();
    twin.set(&mut driver, 0, 9.0).unwrap();
    assert_eq!(
        revived.get(&mut driver, 0).unwrap(),
        1.0,
        "copies are independent"
    );

    assert!(driver.drop_snapshot(1, key.clone()).unwrap());
    assert!(!driver.drop_snapshot(1, key.clone()).unwrap());
    let err = driver.activate::<DoubleBlockClient>(1, &key).unwrap_err();
    assert!(matches!(err, RemoteError::NoSuchSnapshot { .. }));
    cluster.shutdown(driver);
}

#[test]
fn snapshot_of_live_object_without_destroying_it() {
    let (cluster, mut driver) = cluster(1);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 2).unwrap();
    d.set(&mut driver, 1, 5.5).unwrap();
    let state = driver.snapshot_of(d.obj_ref()).unwrap();
    assert!(!state.0.is_empty());
    // Still alive.
    assert_eq!(d.get(&mut driver, 1).unwrap(), 5.5);
    cluster.shutdown(driver);
}

#[test]
fn non_persistent_classes_refuse_snapshots() {
    let (cluster, mut driver) = cluster(1);
    let c = CounterClient::new_on(&mut driver, 0, 1).unwrap();
    let err = driver.snapshot_of(c.obj_ref()).unwrap_err();
    assert_eq!(
        err,
        RemoteError::NotPersistent {
            class: "Counter".into()
        }
    );
    cluster.shutdown(driver);
}

#[test]
fn directory_binds_symbolic_names() {
    let (cluster, mut driver) = cluster(2);
    let dir = driver.directory();
    let d = DoubleBlockClient::new_on(&mut driver, 1, 8).unwrap();
    d.set(&mut driver, 0, 3.25).unwrap();

    let name = symbolic_addr(&["data", "set", "DoubleBlock", "34"]);
    dir.bind(&mut driver, name.clone(), d.obj_ref()).unwrap();

    // Another part of the program resolves the address and uses the object
    // — the paper's `PageDevice *pd = "http://data/set/PageDevice/34"`.
    let resolved = dir.lookup(&mut driver, name.clone()).unwrap().unwrap();
    let d2 = DoubleBlockClient::from_ref(resolved);
    assert_eq!(d2.get(&mut driver, 0).unwrap(), 3.25);

    assert_eq!(
        dir.lookup(&mut driver, "oopp://missing".into()).unwrap(),
        None
    );
    assert_eq!(
        dir.list(&mut driver, "oopp://data/".into()).unwrap(),
        vec![name.clone()]
    );
    assert_eq!(dir.len(&mut driver).unwrap(), 1);
    assert!(dir.unbind(&mut driver, name.clone()).unwrap());
    assert!(!dir.unbind(&mut driver, name).unwrap());
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// Runtime mechanics
// ---------------------------------------------------------------------

#[test]
fn stats_reflect_activity() {
    let (cluster, mut driver) = cluster(1);
    let before = driver.stats_of(0).unwrap();
    let d = DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
    d.set(&mut driver, 0, 1.0).unwrap();
    d.set(&mut driver, 1, 2.0).unwrap();
    let after = driver.stats_of(0).unwrap();
    assert_eq!(after.objects_live, before.objects_live + 1);
    assert!(after.calls_served >= before.calls_served + 3);
    cluster.shutdown(driver);
}

#[test]
fn cluster_drop_without_explicit_shutdown_does_not_hang() {
    let (cluster, mut driver) = cluster(2);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
    d.set(&mut driver, 0, 1.0).unwrap();
    drop(driver);
    drop(cluster); // emergency shutdown path
}

#[test]
fn simnet_metrics_visible_through_cluster() {
    let (cluster, mut driver) = cluster(2);
    let before = cluster.snapshot();
    let d = DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
    d.set(&mut driver, 0, 1.0).unwrap();
    let delta = cluster.snapshot().since(&before);
    // create req/resp + set req/resp = at least 4 messages.
    assert!(
        delta.messages_sent >= 4,
        "saw {} messages",
        delta.messages_sent
    );
    assert!(delta.bytes_sent > 0);
    cluster.shutdown(driver);
}

#[test]
fn many_small_objects_lifecycle() {
    let (cluster, mut driver) = cluster(4);
    let mut clients = Vec::new();
    for i in 0..100 {
        clients.push(CounterClient::new_on(&mut driver, i % 4, i as i64).unwrap());
    }
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(c.value(&mut driver).unwrap(), i as i64);
    }
    for c in clients {
        c.destroy(&mut driver).unwrap();
    }
    for m in 0..4 {
        let stats = driver.stats_of(m).unwrap();
        // Machine 0 also hosts the cluster directory.
        let expected = if m == 0 { 1 } else { 0 };
        assert_eq!(stats.objects_live, expected, "machine {m}");
    }
    cluster.shutdown(driver);
}

#[test]
fn cross_machine_call_cycle_times_out() {
    // A on machine 0, B on machine 1. A.volley(2) calls B.volley(1), which
    // calls back A.volley(0) — but A is checked out, so the callback parks
    // forever: the distributed deadlock of DESIGN.md §4.1, surfaced as a
    // Timeout.
    #[derive(Debug)]
    pub struct Player {
        peer: Option<PlayerClient>,
    }
    crate::remote_class! {
        class Player {
            ctor();
            fn set_peer(&mut self, peer: PlayerClient) -> ();
            fn volley(&mut self, n: u64) -> u64;
        }
    }
    impl Player {
        fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
            Ok(Player { peer: None })
        }
        fn set_peer(&mut self, _ctx: &mut NodeCtx, peer: PlayerClient) -> RemoteResult<()> {
            self.peer = Some(peer);
            Ok(())
        }
        fn volley(&mut self, ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
            if n == 0 {
                return Ok(0);
            }
            let peer = self.peer.ok_or_else(|| RemoteError::app("no peer"))?;
            Ok(peer.volley(ctx, n - 1)? + 1)
        }
    }

    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<Player>()
        .call_policy(CallPolicy::no_retry(Duration::from_millis(400)))
        .build();
    let a = PlayerClient::new_on(&mut driver, 0).unwrap();
    let b = PlayerClient::new_on(&mut driver, 1).unwrap();
    a.set_peer(&mut driver, b).unwrap();
    b.set_peer(&mut driver, a).unwrap();
    // One hop is fine: A → B → return.
    assert_eq!(a.volley(&mut driver, 1).unwrap(), 1);
    // Two hops cycle back into the checked-out A: timeout.
    let err = a.volley(&mut driver, 2).unwrap_err();
    assert!(matches!(err, RemoteError::Timeout { .. }), "got {err:?}");
    // Both machines recover afterwards.
    assert_eq!(a.volley(&mut driver, 0).unwrap(), 0);
    assert_eq!(b.volley(&mut driver, 1).unwrap(), 1);
    cluster.shutdown(driver);
}

/// Zero retries is fixed when a call is sent: a call sent under `no_retry`
/// to a machine it cannot reach is not retransmitted when its wait runs
/// under a retrying policy. A call sent under that policy is.
#[test]
fn a_call_sent_without_retries_is_never_retransmitted() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<Counter>()
        .sim_config(simnet::ClusterConfig::zero_cost(0).with_virtual_time(0x51_6E))
        .call_policy(CallPolicy::no_retry(Duration::from_millis(50)))
        .build();
    let counter = CounterClient::new_on(&mut driver, 1, 0).unwrap();
    let me = driver.machine();
    cluster.sim().faults().partition(me, 1);
    let reliable = CallPolicy::reliable(Duration::from_millis(50));
    let timed_out = |d: &mut Driver, sent_under: CallPolicy| {
        d.set_call_policy(sent_under);
        let id = d
            .start_method_raw(counter.obj_ref(), "value", |_| {})
            .unwrap();
        d.set_call_policy(reliable);
        let retried = d.local_stats().calls_retried;
        let Err(RemoteError::Timeout { attempts, .. }) = d.wait_raw(id) else {
            panic!("a partitioned call must time out");
        };
        (attempts, d.local_stats().calls_retried - retried)
    };
    let single = CallPolicy::no_retry(Duration::from_millis(50));
    assert_eq!(timed_out(&mut driver, single), (1, 0));
    assert_eq!(timed_out(&mut driver, reliable), (5, 4));
    cluster.sim().faults().heal_all();
    cluster.shutdown(driver);
}

#[test]
fn mismatched_return_type_is_a_decode_error() {
    let (cluster, mut driver) = cluster(1);
    let c = CounterClient::new_on(&mut driver, 0, 3).unwrap();
    // `value` returns i64 (8 bytes); decoding it as a String must fail
    // cleanly, not panic.
    let err: RemoteResult<String> = driver.call_method(c.obj_ref(), "value", |_| {});
    assert!(matches!(err.unwrap_err(), RemoteError::Decode { .. }));
    // And the object is still usable.
    assert_eq!(c.value(&mut driver).unwrap(), 3);
    cluster.shutdown(driver);
}

#[test]
fn malformed_arguments_are_a_decode_error() {
    let (cluster, mut driver) = cluster(1);
    let c = CounterClient::new_on(&mut driver, 0, 0).unwrap();
    // `increment` wants an i64; send it a truncated payload.
    let err: RemoteResult<i64> = driver.call_method(c.obj_ref(), "increment", |w| w.put_u8(1));
    assert!(matches!(err.unwrap_err(), RemoteError::Decode { .. }));
    cluster.shutdown(driver);
}

#[test]
fn stats_count_snapshots() {
    let (cluster, mut driver) = cluster(1);
    let d = DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
    driver.deactivate(d.obj_ref(), "k1".into()).unwrap();
    assert_eq!(driver.stats_of(0).unwrap().snapshots_stored, 1);
    let revived: DoubleBlockClient = driver.activate(0, "k1").unwrap();
    assert_eq!(
        driver.stats_of(0).unwrap().snapshots_stored,
        1,
        "activate keeps the snapshot"
    );
    driver.drop_snapshot(0, "k1".into()).unwrap();
    assert_eq!(driver.stats_of(0).unwrap().snapshots_stored, 0);
    revived.destroy(&mut driver).unwrap();
    cluster.shutdown(driver);
}

#[test]
fn resolve_or_activate_finds_live_then_dormant() {
    let (cluster, mut driver) = cluster(2);
    let dir = driver.directory();
    let addr = symbolic_addr(&["data", "block", "1"]);

    let d = DoubleBlockClient::new_on(&mut driver, 1, 4).unwrap();
    d.set(&mut driver, 0, 2.5).unwrap();
    dir.bind(&mut driver, addr.clone(), d.obj_ref()).unwrap();

    // Live resolution.
    let got: DoubleBlockClient = resolve_or_activate(&mut driver, &dir, 1, &addr).unwrap();
    assert_eq!(got.get(&mut driver, 0).unwrap(), 2.5);

    // Deactivate under the SAME address, drop the binding: resolution now
    // activates from the snapshot and rebinds.
    driver.deactivate(d.obj_ref(), addr.clone()).unwrap();
    dir.unbind(&mut driver, addr.clone()).unwrap();
    let revived: DoubleBlockClient = resolve_or_activate(&mut driver, &dir, 1, &addr).unwrap();
    assert_eq!(revived.get(&mut driver, 0).unwrap(), 2.5);
    // The fresh process is bound: a second resolve returns the same object.
    let again: DoubleBlockClient = resolve_or_activate(&mut driver, &dir, 1, &addr).unwrap();
    assert_eq!(again.obj_ref(), revived.obj_ref());

    // Unknown address with no snapshot: clean error.
    let err =
        resolve_or_activate::<DoubleBlockClient>(&mut driver, &dir, 1, "oopp://nope").unwrap_err();
    assert!(matches!(err, RemoteError::NoSuchSnapshot { .. }));
    cluster.shutdown(driver);
}

#[test]
fn group_destroy_removes_all_members() {
    let (cluster, mut driver) = cluster(3);
    let group: ProcessGroup<ComputerClient> =
        ProcessGroup::create(&mut driver, 3, |id| wire::to_bytes(&(id as u64))).unwrap();
    let members = group.members().to_vec();
    group.destroy(&mut driver).unwrap();
    for c in members {
        assert!(matches!(
            c.stashed(&mut driver),
            Err(RemoteError::NoSuchObject { .. })
        ));
    }
    cluster.shutdown(driver);
}

#[test]
fn directory_rebind_replaces() {
    let (cluster, mut driver) = cluster(1);
    let dir = driver.directory();
    let a = ObjRef {
        machine: 0,
        object: 10,
    };
    let b = ObjRef {
        machine: 0,
        object: 20,
    };
    dir.bind(&mut driver, "x".into(), a).unwrap();
    dir.bind(&mut driver, "x".into(), b).unwrap();
    assert_eq!(dir.lookup(&mut driver, "x".into()).unwrap(), Some(b));
    assert_eq!(dir.len(&mut driver).unwrap(), 1);
    cluster.shutdown(driver);
}

#[test]
fn clients_travel_the_wire_inside_collections() {
    // Remote pointers nest in arbitrary wire structures (§4 deep copy).
    let c = ComputerClient::from_ref(ObjRef {
        machine: 2,
        object: 9,
    });
    let table = vec![Some((c, "label".to_string())), None];
    let bytes = wire::to_bytes(&table);
    let back: Vec<Option<(ComputerClient, String)>> = wire::from_bytes(&bytes).unwrap();
    assert_eq!(back, table);
}
