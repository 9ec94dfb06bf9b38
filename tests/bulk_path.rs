//! The byte path (DESIGN.md §4 "byte path", §6): what a call of each kind
//! costs — the counted cost table — what a 2 MiB transfer may allocate,
//! what the dedup window may keep, and that bounding the window's bytes
//! never lets a request execute twice.
//!
//! The allocation budget is counted, not timed, so it holds on any machine:
//! a copy that comes back, a buffer that stops being reused, or a window
//! that stops giving bytes back, fails here with the count in the message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

use oopp_repro::fft::{c64, Complex, Direction, DistributedFft3};
use oopp_repro::oopp::wire::collections::F64s;
use oopp_repro::oopp::wire::EncodesAs;
use oopp_repro::oopp::wire::{self, Wire};
use oopp_repro::oopp::{
    join, Backoff, CallPolicy, Cluster, ClusterBuilder, DoubleBlockClient, Driver, NodeCtx, ObjRef,
    ProcessGroup, RemoteClient, RemoteError, RemoteResult, DEFAULT_TRACE_CAPACITY,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan};

/// Blocks at least this big are "large": a bulk payload or a copy of one.
const LARGE: usize = 64 << 10;

/// Large blocks allocated so far, large bytes currently live, and blocks
/// and bytes of any size allocated so far.
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGE_LIVE: AtomicUsize = AtomicUsize::new(0);
static ALL_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static ALL_BYTES: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting large blocks. A `realloc` that ends large counts as
/// a block of its own: growing a buffer into the MiB range is an allocation
/// (and, unless it can grow in place, a copy) like any other.
struct Counting;

fn note_alloc(size: usize) {
    ALL_BLOCKS.fetch_add(1, Relaxed);
    ALL_BYTES.fetch_add(size, Relaxed);
    if size >= LARGE {
        LARGE_BLOCKS.fetch_add(1, Relaxed);
        LARGE_LIVE.fetch_add(size, Relaxed);
    }
}

fn note_free(size: usize) {
    if size >= LARGE {
        LARGE_LIVE.fetch_sub(size, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide and the harness runs tests on parallel
/// threads: every test in this file holds this for its whole body.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// 2 MiB of doubles, the benchmark's bulk payload.
const N: usize = 256 << 10;
const PAYLOAD: usize = N * 8;

/// Reads the chaos test makes: enough to overrun the window's byte budget.
const READS: u64 = 40;
const _: () = assert!(READS as usize * PAYLOAD > 64 << 20);

/// Whole numbers, so sums over them are exact.
fn pattern() -> Vec<f64> {
    (0..N).map(|i| (i % 1000) as f64).collect()
}

/// Large blocks allocated while `f` ran (on any thread).
fn large_blocks_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LARGE_BLOCKS.load(Relaxed);
    let out = f();
    (LARGE_BLOCKS.load(Relaxed) - before, out)
}

/// Blocks of any size allocated while `f` ran (on any thread).
fn all_blocks_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALL_BLOCKS.load(Relaxed);
    let out = f();
    (ALL_BLOCKS.load(Relaxed) - before, out)
}

/// The copy inventory of DESIGN.md §4, as a budget. Measured with this
/// allocator at the parent of the PR that introduced it: 6 large blocks per
/// `read_range`, 6 per `write_range`, and 200 reads left 400 MiB live.
#[test]
fn a_bulk_call_stays_within_its_allocation_budget() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, mut driver) = ClusterBuilder::new(1).build();
    // What an idle cluster holds (its simulated disks, mostly).
    let idle = LARGE_LIVE.load(Relaxed);
    let d = &mut driver;
    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let data = pattern();
    // The first write of all: the request frame the arguments are encoded
    // into, grown once to fit them (which the packet and the retransmission
    // slot share). Nothing on the server: `write_range` takes a view of the
    // request and copies from there into the block.
    let arg = F64s(data.clone());
    let (blocks, ()) = large_blocks_during(|| block.write_range(d, 0, arg).unwrap());
    println!("first write_range: {blocks} large blocks (budget 1)");
    assert!(
        blocks <= 1,
        "the first 2 MiB write_range allocated {blocks} large blocks (budget 1): a copy came back"
    );
    // Warm: set-up allocations (tables growing, first buffers) are not the
    // steady state being budgeted.
    for _ in 0..3 {
        block.write_range(d, 0, F64s(data.clone())).unwrap();
        assert_eq!(block.read_range(d, 0, N).unwrap().0, data);
    }

    // A read: the response frame the block's own doubles are encoded into
    // (which the packet, the dedup window and the caller's reply then
    // share), and the caller's `Vec<f64>`. The frame is parsed in place on
    // arrival, so nothing else. (3 while the class returned an owned `F64s`:
    // its `to_vec`, gone since `read_range` returns `&[f64]`; 4 at the
    // parent of the PR that made the reply one buffer.)
    let (blocks, reply) = large_blocks_during(|| block.read_range(d, 0, N).unwrap());
    assert_eq!(reply.0, data);
    println!("read_range: {blocks} large blocks (budget 2)");
    assert!(
        blocks <= 2,
        "one 2 MiB read_range allocated {blocks} large blocks (budget 2): a copy came back"
    );

    // A write in steady state: none. The request frame is the previous
    // call's buffer, retired unshared, and the server copies from it into
    // the block. (1 while the dispatcher decoded the argument into a
    // `Vec<f64>` of the server's own; 5 at the parent of the PR that gave a
    // message one buffer.)
    let arg = F64s(data.clone());
    let (blocks, ()) = large_blocks_during(|| block.write_range(d, 0, arg).unwrap());
    println!("write_range: {blocks} large blocks (budget 0)");
    assert_eq!(
        blocks, 0,
        "one 2 MiB write_range in steady state allocated {blocks} large blocks: \
         a copy came back, or the spare request frame is gone"
    );

    // A null call, all sizes, before the server's dedup window has evicted
    // a reply to build the next one in: the reply's buffer and header (see
    // `GET_BLOCKS`). After that, none: the cost table below.
    let _ = block.get(d, 7).unwrap();
    let (blocks, v) = all_blocks_during(|| block.get(d, 7).unwrap());
    assert_eq!(v, data[7]);
    println!("get: {blocks} blocks of any size (budget {GET_BLOCKS})");
    assert!(
        blocks <= GET_BLOCKS,
        "one get allocated {blocks} blocks (budget {GET_BLOCKS}): \
         the request no longer reuses its retired frame"
    );

    // The window gives reply bytes back: 200 reads leave at most its byte
    // budget live, plus the block, this test's copy of it and a call's
    // worth of buffers.
    const WINDOW_BUDGET: usize = 64 << 20;
    for _ in 0..200 {
        assert_eq!(block.read_range(d, 0, N).unwrap().0.len(), N);
    }
    let live = LARGE_LIVE.load(Relaxed) - idle;
    assert!(
        live <= WINDOW_BUDGET + (16 << 20),
        "{} MiB of large blocks live after 200 reads (budget {} MiB): \
         the dedup window is not giving reply bytes back",
        live >> 20,
        (WINDOW_BUDGET >> 20) + 16
    );
    cluster.shutdown(driver);
}

/// A split loop that fails to issue a call gives back the calls it already
/// issued: a `par_each` of 2 MiB writes over a live block and a machine the
/// cluster does not have is `BadMachine`, and the write issued to the block
/// leaves no request frame pinned on the node. At the parent of the PR
/// that gives them back, one more ordinary write then left 2 048 KiB of
/// large blocks live: the stranded frame, in its retransmission slot for
/// good.
#[test]
fn a_failed_split_loop_strands_nothing() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, mut driver) = ClusterBuilder::new(1).build();
    let d = &mut driver;
    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let data = pattern();
    // Warm: the node's spare request frame is a write's size by now.
    for _ in 0..2 {
        block.write_range(d, 0, F64s(data.clone())).unwrap();
    }
    let object = block.obj_ref().object;
    let nowhere = DoubleBlockClient::from_ref(ObjRef {
        machine: 99,
        object,
    });
    let group = ProcessGroup::from_members(vec![block, nowhere]);
    let before = LARGE_LIVE.load(Relaxed);
    let failed = group.par_each(d, |d, b, _| b.write_range_async(d, 0, F64s(data.clone())));
    assert!(
        matches!(failed, Err(RemoteError::BadMachine { machine: 99, .. })),
        "{failed:?}"
    );
    block.write_range(d, 0, F64s(data.clone())).unwrap();
    let left = LARGE_LIVE.load(Relaxed).saturating_sub(before);
    println!("a failed split loop, then a write: {} KiB of large blocks left live (budget: under one block)", left >> 10);
    assert!(
        left < PAYLOAD,
        "{left} bytes live after a failed split loop and a write: an issued call was stranded"
    );
    assert_eq!(block.read_range(d, 0, N).unwrap().0, data);
    cluster.shutdown(driver);
}

/// Blocks of any size one `DoubleBlock::get` may allocate while the
/// server's dedup window is not yet full: the reply's buffer and its
/// reference-count header, both recycled once the window evicts. (8 before
/// a message had one buffer: three request buffers grown from empty, two
/// reply buffers, the dedup and reply-table entries around them; 3 while a
/// request built its frame header afresh.)
const GET_BLOCKS: usize = 2;

/// What one operation of a kind costs, per op: heap blocks, bytes and
/// large blocks allocated (on any thread), and frames and payload bytes on
/// the wire.
#[derive(Debug)]
struct Cost {
    allocs: f64,
    bytes: f64,
    large: f64,
    frames: f64,
    wire: f64,
}

/// The cost of `op`, averaged over `ops` runs of it on `cluster`.
fn cost_per_op(cluster: &Cluster, ops: u64, mut op: impl FnMut()) -> Cost {
    // The snapshots allocate: taken outside the counted span.
    let net = cluster.snapshot();
    let counters = [&ALL_BLOCKS, &ALL_BYTES, &LARGE_BLOCKS];
    let before = counters.map(|c| c.load(Relaxed));
    for _ in 0..ops {
        op();
    }
    let [blocks, bytes, large] = [0, 1, 2].map(|i| counters[i].load(Relaxed) - before[i]);
    let net = cluster.snapshot().since(&net);
    let per_op = |n: u64| n as f64 / ops as f64;
    Cost {
        allocs: per_op(blocks as u64),
        bytes: per_op(bytes as u64),
        large: per_op(large as u64),
        frames: per_op(net.messages_sent),
        wire: per_op(net.bytes_sent),
    }
}

/// Print `row` of the cost table and hold it to its pinned allocations,
/// large blocks, frames and wire bytes per op, within 0.001 of each.
fn pin(row: &str, cost: Cost, [allocs, large, frames, wire]: [f64; 4]) {
    println!(
        "{row:<32} {:>8.3} allocs {:>10.1} B {:>6.3} large {:>7.3} frames {:>10.1} wire B",
        cost.allocs, cost.bytes, cost.large, cost.frames, cost.wire
    );
    let near = |got: f64, want: f64| (got - want).abs() <= 0.001;
    assert!(
        near(cost.allocs, allocs)
            && near(cost.large, large)
            && near(cost.frames, frames)
            && near(cost.wire, wire),
        "{row}: {cost:?} per op; pinned: {allocs} allocs, {large} large, \
         {frames} frames, {wire} wire bytes"
    );
}

/// Whether a `Gate::hold` may return.
static GATE_OPEN: AtomicBool = AtomicBool::new(true);

/// Holds the one thread of its machine until [`GATE_OPEN`] is set, so the
/// requests sent to that machine meanwhile queue in its inbox.
#[derive(Debug, Default)]
pub struct Gate;

oopp_repro::oopp::remote_class! {
    class Gate {
        ctor();
        /// Spin until the gate opens.
        fn hold(&mut self) -> ();
    }
}

impl Gate {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Gate)
    }

    fn hold(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<()> {
        while !GATE_OPEN.load(Relaxed) {
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Past the window's 1 024 keys on every server, so replies are built in
/// the frames it evicts.
const WARM_KEYS: u64 = 1_100;

/// Null calls that fill every lane's trace ring: from then on an event
/// overwrites the oldest instead of growing the ring.
const WARM_TRACED: u64 = DEFAULT_TRACE_CAPACITY as u64 / 2;

/// The counted cost table (ROADMAP item 1(a)): per kind of operation, what
/// it allocates on every thread of the cluster and what it puts on the
/// wire, in steady state, through the public API — pinned, so a call that
/// starts allocating again fails here with its row. A call reuses the
/// frame of a retired call; a reply is built in a frame the dedup window
/// evicted; a traced call clones its method name. The rows at the parent
/// of the PR that pinned them, in allocations per op: a null `set` + `get`
/// 6, traced 10, a 64-call round 320 (5 a call), `read_range` 4 (two of
/// them 2 MiB), `write_range` 3, a transform pair 217 (four of them large)
/// — and the same frames and wire bytes as now.
#[test]
fn the_call_path_costs_what_its_cost_table_pins() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for traced in [false, true] {
        let (cluster, mut driver) = ClusterBuilder::new(1).tracing(traced).build();
        let d = &mut driver;
        let block = DoubleBlockClient::new_on(d, 0, 8).unwrap();
        let null = |d: &mut Driver| {
            block.set(d, 3, 1.5).unwrap();
            assert_eq!(block.get(d, 3).unwrap(), 1.5);
        };
        for _ in 0..if traced { WARM_TRACED } else { WARM_KEYS } {
            null(d);
        }
        let row = if traced {
            "null set + get, traced"
        } else {
            "null set + get"
        };
        let cost = cost_per_op(&cluster, 2_000, || null(d));
        pin(
            row,
            cost,
            [0.0, 0.0, 4.0, if traced { 136.0 } else { 108.0 }],
        );
        cluster.shutdown(driver);
    }

    // The §4 split loop over two machines: the caller's own two `Vec`s, of
    // pendings and of results, and nothing per call.
    const CALLS: usize = 64;
    let (cluster, mut driver) = ClusterBuilder::new(2).register::<Gate>().build();
    let d = &mut driver;
    let blocks: Vec<_> = (0..CALLS)
        .map(|k| DoubleBlockClient::new_on(d, k % 2, 8).unwrap())
        .collect();
    let round = |d: &mut Driver| {
        let mut pending = Vec::with_capacity(CALLS);
        for block in &blocks {
            pending.push(block.get_async(d, 0).unwrap());
        }
        assert_eq!(join(d, pending).unwrap(), [0.0; CALLS]);
    };
    for _ in 0..2 * WARM_KEYS / CALLS as u64 {
        round(d);
    }
    // One more warm-up round queues as deep as a round can, in every
    // inbox: each server's thread is held until all its requests sit in
    // its inbox, and the driver joins only once all the replies sit in
    // its own. Every inbox has then grown to a round's peak before the
    // counted rounds, whose queues may run as deep (a growth in them read
    // 2.010 allocations per op).
    let servers = [0, 1];
    let gates = servers.map(|m| GateClient::new_on(d, m).unwrap());
    let received = |m: usize| cluster.snapshot().per_machine_received[m];
    let wait_for = |m: usize, n: u64| {
        while received(m) < n {
            std::thread::yield_now();
        }
    };
    let (me, before) = (d.machine(), servers.map(received));
    let mine_before = received(me);
    GATE_OPEN.store(false, Relaxed);
    let held: Vec<_> = gates.iter().map(|g| g.hold_async(d).unwrap()).collect();
    let pending: Vec<_> = blocks.iter().map(|b| b.get_async(d, 0).unwrap()).collect();
    for (m, n) in servers.into_iter().zip(before) {
        wait_for(m, n + 1 + (CALLS / 2) as u64);
    }
    GATE_OPEN.store(true, Relaxed);
    wait_for(me, mine_before + 2 + CALLS as u64);
    join(d, held).unwrap();
    assert_eq!(join(d, pending).unwrap(), [0.0; CALLS]);
    let cost = cost_per_op(&cluster, 100, || round(d));
    pin(
        "64 get_async + join, 2 machines",
        cost,
        [2.0, 0.0, 128.0, 3456.0],
    );
    cluster.shutdown(driver);

    // 2 MiB each way: a read's reply frame and the caller's `Vec<f64>` are
    // the payload's two large blocks; a write, sent from a borrow of the
    // caller's data, reuses its retired request frame.
    let (cluster, mut driver) = ClusterBuilder::new(1).build();
    let d = &mut driver;
    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let data = pattern();
    let write = |d: &mut Driver| {
        d.call_method::<()>(block.obj_ref(), "write_range", |w| {
            0usize.encode(w);
            EncodesAs::<F64s>::encode_as(&data.as_slice(), w);
        })
        .unwrap()
    };
    let read = |d: &mut Driver| assert_eq!(block.read_range(d, 0, N).unwrap().0.len(), N);
    for _ in 0..WARM_KEYS {
        block.get(d, 0).unwrap();
    }
    for _ in 0..4 {
        write(d);
        read(d);
    }
    let cost = cost_per_op(&cluster, 20, || read(d));
    pin("read_range 2 MiB", cost, [3.0, 2.0, 2.0, 2_097_214.0]);
    let cost = cost_per_op(&cluster, 20, || write(d));
    pin("write_range 2 MiB", cost, [0.0, 0.0, 2.0, 2_097_212.0]);
    cluster.shutdown(driver);

    // The 64³ transform over two workers, forward and back.
    const EDGE: usize = 64;
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(2)).build();
    let d = &mut driver;
    let grid: Vec<Complex> = (0..EDGE * EDGE * EDGE)
        .map(|i| c64((i % 17) as f64, (i % 5) as f64 - 2.0))
        .collect();
    let dfft = DistributedFft3::new(d, [EDGE as u64; 3], 2).unwrap();
    dfft.scatter(d, &grid).unwrap();
    let pair = |d: &mut Driver| {
        dfft.transform(d, Direction::Forward).unwrap();
        dfft.transform(d, Direction::Inverse).unwrap();
    };
    for _ in 0..2 {
        pair(d);
    }
    let cost = cost_per_op(&cluster, 4, || pair(d));
    pin(
        "64^3 transform pair, 2 workers",
        cost,
        [197.0, 4.0, 32.0, 8_389_704.0],
    );
    cluster.shutdown(driver);
}

/// Large blocks one 64³ two-worker `transform` allocates, and its budget:
/// per worker, the one `put` request its block for the other worker is
/// gathered into in the transform's one exchange — which the inbox keeps
/// and then *is* the `take` reply, finished around the block where it
/// arrived — 2 workers × 1 exchange. The block a worker keeps never leaves
/// its slab (the axis-0 pass runs over a row table of slab runs and
/// `gathered` rows) and `gathered` is the worker's own buffer, built once,
/// so a third block is a copy of the transpose come back: the relay not in
/// place. (4 while every transform transposed back to planes; 78 before a
/// message had one buffer: a gathered copy, packed doubles, argument
/// buffer, request frame, retransmission copy and the inbox's `Vec<f64>`
/// per block, four more per reply. 14 while every exchange allocated its
/// gather buffer; 12 while a worker mailed itself its own block and every
/// reply was a fresh buffer.)
const TRANSFORM_BLOCKS: usize = 2;

/// The §4 transpose, as a budget: what one `transform` of a 64³ grid over
/// two workers may allocate in blocks of a MiB.
#[test]
fn a_distributed_transform_stays_within_its_allocation_budget() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const EDGE: usize = 64;
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(2)).build();
    let d = &mut driver;
    let grid: Vec<Complex> = (0..EDGE * EDGE * EDGE)
        .map(|i| c64((i % 17) as f64, (i % 5) as f64 - 2.0))
        .collect();
    let dfft = DistributedFft3::new(d, [EDGE as u64; 3], 2).unwrap();
    dfft.scatter(d, &grid).unwrap();
    // Warm, and back at the input.
    dfft.transform(d, Direction::Forward).unwrap();
    dfft.transform(d, Direction::Inverse).unwrap();

    let (blocks, ()) = large_blocks_during(|| dfft.transform(d, Direction::Forward).unwrap());
    println!("transform: {blocks} large blocks (budget {TRANSFORM_BLOCKS})");
    assert!(
        blocks <= TRANSFORM_BLOCKS,
        "one 64^3 transform allocated {blocks} large blocks (budget {TRANSFORM_BLOCKS}): \
         a copy of the transpose came back"
    );
    dfft.transform(d, Direction::Inverse).unwrap();
    let back = dfft.gather(d).unwrap();
    assert!(oopp_repro::fft::max_error(&back, &grid) < 1e-9);
    cluster.shutdown(driver);
}

/// A block put for an exchange nobody takes — a stray, or what a transform
/// abandoned after an error leaves behind — stays in the inbox only until
/// its worker's next `take`: N stray MiB in, one transform, and what is live
/// is what a transform leaves live anyway (its replies, in the dedup window).
#[test]
fn stray_transpose_blocks_do_not_outlive_the_next_transform() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const EDGE: usize = 64;
    const STRAYS: usize = 8;
    // One transpose block of a 64³ grid over two workers, in bytes.
    const BLOCK: usize = EDGE * EDGE * EDGE / 4 * 16;
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(2)).build();
    let d = &mut driver;
    let grid = vec![c64(1.0, -1.0); EDGE * EDGE * EDGE];
    let dfft = DistributedFft3::new(d, [EDGE as u64; 3], 2).unwrap();
    dfft.scatter(d, &grid).unwrap();
    dfft.transform(d, Direction::Forward).unwrap();
    let live = || LARGE_LIVE.load(Relaxed);
    let idle = live();
    dfft.transform(d, Direction::Inverse).unwrap();
    let per_transform = live() - idle;

    // From senders no group has, for an exchange long past.
    let inbox = dfft.inboxes()[0];
    let idle = live();
    for stray in 0..STRAYS as u64 {
        let block = &grid[..BLOCK / 16];
        let put = inbox.put_rows_async(d, 0, 100 + stray, std::iter::once(block));
        put.unwrap().wait(d).unwrap();
    }
    let kept = live() - idle;
    assert!(
        kept >= STRAYS * BLOCK,
        "{kept} bytes kept of {STRAYS} blocks"
    );

    dfft.transform(d, Direction::Forward).unwrap();
    let left = live().saturating_sub(idle);
    println!(
        "{STRAYS} stray blocks: {} MiB kept, {} KiB live after a transform ({} per transform)",
        kept >> 20,
        left >> 10,
        per_transform >> 10
    );
    // Slack: a node's spare request buffer comes and goes.
    assert!(
        left <= per_transform + 2 * BLOCK,
        "{left} bytes live after a transform, {per_transform} after one without strays"
    );
    cluster.shutdown(driver);
}

/// A transform's `take` replies — each a 1 MiB transpose block, relayed in
/// place from the `put` that brought it — go to callers that never
/// retransmit (the default `no_retry` policy), so the inboxes' dedup windows
/// keep none of them: a transform in steady state leaves no large block
/// behind. (Two machines' windows kept 4 MiB more per transform, up to
/// their byte bound, while every reply was kept for a replay.)
#[test]
fn a_transform_leaves_no_reply_block_in_the_windows() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const EDGE: usize = 64;
    // One transpose block of a 64³ grid over two workers, in bytes.
    const BLOCK: usize = EDGE * EDGE * EDGE / 4 * 16;
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(2)).build();
    let d = &mut driver;
    let grid = vec![c64(1.0, -1.0); EDGE * EDGE * EDGE];
    let dfft = DistributedFft3::new(d, [EDGE as u64; 3], 2).unwrap();
    dfft.scatter(d, &grid).unwrap();
    // Warm: each lane's spare request buffer is a block's size by now.
    dfft.transform(d, Direction::Forward).unwrap();
    dfft.transform(d, Direction::Inverse).unwrap();
    let before = LARGE_LIVE.load(Relaxed);
    dfft.transform(d, Direction::Forward).unwrap();
    let left = LARGE_LIVE.load(Relaxed).saturating_sub(before);
    println!(
        "transform: {} KiB of large blocks left live, {} reply blocks (budget 0)",
        left >> 10,
        left / BLOCK
    );
    assert!(
        left < BLOCK,
        "one 64^3 transform left {left} bytes live: a window kept a transpose block"
    );
    cluster.shutdown(driver);
}

/// Replies to a caller that never retransmits (the default `no_retry`
/// policy) heavier than one key's share of the dedup window's byte budget
/// are not kept for replay: `READS` reads of 2 MiB leave at most one reply
/// block live — the window held up to 32 of them while it kept every
/// reply. A read sent again by hand is suppressed and does not run again;
/// a `get` sent again (8 bytes, under the share) is still replayed.
#[test]
fn single_shot_large_replies_are_not_kept_for_replay() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, mut driver) = ClusterBuilder::new(1).build();
    let d = &mut driver;
    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let data = pattern();
    block.write_range(d, 0, F64s(data.clone())).unwrap();
    let before = LARGE_LIVE.load(Relaxed);
    for _ in 0..READS {
        assert_eq!(block.read_range(d, 0, N).unwrap().0.len(), N);
    }
    let replies = LARGE_LIVE.load(Relaxed).saturating_sub(before) / PAYLOAD;
    println!("{READS} single-shot read_range calls: {replies} large reply blocks live (budget 1)");
    assert!(
        replies <= 1,
        "{READS} single-shot 2 MiB reads left {replies} reply blocks live (budget 1): \
         the dedup window keeps replies nobody can ask for again"
    );

    let (read_frame, first) = call_keeping_frame(d, &block, "read_range", |w| {
        0usize.encode(w);
        N.encode(w);
    });
    assert_eq!(wire::from_bytes::<F64s>(&first).unwrap().0, data);
    let (get_frame, got) = call_keeping_frame(d, &block, "get", |w| 7usize.encode(w));
    assert_eq!(wire::from_bytes::<f64>(&got).unwrap(), data[7]);
    // Two stats calls apart, only the first of them ran in between.
    let s0 = d.stats_of(0).unwrap();
    let s1 = d.stats_of(0).unwrap();
    let me = d.machine();
    cluster.sim().net().send(me, 0, read_frame).unwrap();
    cluster.sim().net().send(me, 0, get_frame).unwrap();
    // Served after both (one inbox, in order).
    let s2 = d.stats_of(0).unwrap();
    println!(
        "re-sent single-shot read and get: {} replayed, {} suppressed, {} served",
        s2.dup_replayed - s1.dup_replayed,
        s2.dup_suppressed - s1.dup_suppressed,
        s2.calls_served - s1.calls_served,
    );
    assert_eq!(
        (s2.dup_replayed, s2.dup_suppressed),
        (s1.dup_replayed + 1, s1.dup_suppressed + 1),
        "the re-sent get is replayed, the re-sent read (no bytes kept) suppressed"
    );
    assert_eq!(
        s2.calls_served - s1.calls_served,
        s1.calls_served - s0.calls_served,
        "a re-sent request ran again"
    );
    cluster.shutdown(driver);
}

/// Start `method(args…)` on `block`, keep the frame it put on the wire,
/// and wait the call out.
fn call_keeping_frame(
    d: &mut Driver,
    block: &DoubleBlockClient,
    method: &str,
    args: impl FnOnce(&mut wire::Writer),
) -> (Vec<u8>, Vec<u8>) {
    let id = d.start_method_raw(block.obj_ref(), method, args).unwrap();
    let frame = d.outstanding_frame(id).expect("call in flight").to_vec();
    let reply = d.wait_raw(id).expect("reliable call");
    (frame, reply.to_vec())
}

/// At-most-once survives the byte bound. Under a duplicating, lossy fabric
/// an `axpy_range` (not idempotent) is followed by `READS` reads of 2 MiB, which
/// push each other's replies out of the window by bytes; then the `axpy`
/// frame and the first read's frame are sent again by hand. The `axpy`
/// (its `()` reply weighs nothing) is replayed, the read (its bytes long
/// gone) is suppressed, neither runs again — and every request frame the
/// server ever received is accounted for as new, replayed or suppressed.
#[test]
fn bounding_the_window_by_bytes_never_executes_a_request_twice() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::seeded(0xB0_1C).with_drop(0.05).with_dup(0.2);
    let policy = CallPolicy::reliable(Duration::from_millis(150))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)));
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(policy)
        .build();
    let d = &mut driver;
    // Distinct requests sent to machine 0; the first is the `create` of the
    // cluster's own directory, sent by `build`.
    let mut calls = 1u64;

    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let mut expect = pattern();
    block.write_range(d, 0, F64s(expect.clone())).unwrap();
    calls += 2;

    // data[..1024] += 2 * 1.5, exactly once.
    let (axpy_frame, _) = call_keeping_frame(d, &block, "axpy_range", |w| {
        0usize.encode(w);
        2.0f64.encode(w);
        F64s(vec![1.5; 1024]).encode(w);
    });
    expect[..1024].iter_mut().for_each(|v| *v += 3.0);
    calls += 1;

    let (read_frame, first) = call_keeping_frame(d, &block, "read_range", |w| {
        0usize.encode(w);
        N.encode(w);
    });
    assert_eq!(wire::from_bytes::<F64s>(&first).unwrap().0, expect);
    for _ in 1..READS {
        // Bit for bit: compare the encodings.
        let got = block.read_range(d, 0, N).unwrap();
        assert!(wire::to_bytes(&got) == wire::to_bytes(&F64s(expect.clone())));
    }
    calls += READS;

    // From here on the fabric is quiet, so what happens to the two frames
    // sent by hand is exactly what the counters show.
    cluster.sim().faults().calm();
    let before = d.stats_of(0).unwrap();
    calls += 1;
    let me = d.machine();
    cluster.sim().net().send(me, 0, axpy_frame).unwrap();
    cluster.sim().net().send(me, 0, read_frame).unwrap();
    // Served after both (one inbox, in order): the axpy ran exactly once.
    let sum = block.sum_range(d, 0, N).unwrap();
    assert_eq!(sum, expect.iter().sum::<f64>());
    let after = d.stats_of(0).unwrap();
    calls += 2;
    assert_eq!(
        (after.dup_replayed, after.dup_suppressed),
        (before.dup_replayed + 1, before.dup_suppressed + 1),
        "the re-sent axpy is replayed, the re-sent read (bytes dropped) suppressed"
    );

    // Every request frame delivered to the server was a first sighting, a
    // replay or a suppression: nothing slipped through to run twice.
    let net = cluster.snapshot();
    assert!(
        net.faults_duplicated > 0 && net.faults_dropped > 0,
        "{net:?}"
    );
    assert_eq!(
        net.per_machine_received[0],
        calls + after.dup_replayed + after.dup_suppressed,
        "frames received by machine 0 vs {calls} calls + {after:?}"
    );
    cluster.shutdown(driver);
}

/// A retransmission sends the frame the first transmission sent — the same
/// buffer, by reference count — and the server still runs the call once.
/// On a fabric that drops three packets in ten, 2 MiB `axpy_range` calls
/// (not idempotent) are retransmitted again and again: the sums come out
/// exact, every request frame the server received is a first sighting, a
/// replay or a suppression, and however many retransmissions it took, no
/// call allocated more than a first transmission does (at the parent each
/// retransmission cloned its 2 MiB frame).
#[test]
fn a_retransmitted_frame_is_shared_and_still_executes_once() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const CALLS: usize = 30;
    let plan = FaultPlan::seeded(0x5A_4ED).with_drop(0.3);
    let policy = CallPolicy::reliable(Duration::from_millis(60))
        .with_max_retries(20)
        .with_backoff(Backoff::fixed(Duration::from_millis(2)));
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(policy)
        .build();
    let d = &mut driver;
    let block = DoubleBlockClient::new_on(d, 0, N).unwrap();
    let ones = vec![1.0; N];
    // Warm: the first call grows the request buffer the rest reuse.
    block.axpy_range(d, 0, 1.0, F64s(ones.clone())).unwrap();

    let retried_before = d.local_stats().calls_retried;
    let (blocks, ()) = large_blocks_during(|| {
        for _ in 0..CALLS {
            block.axpy_range(d, 0, 2.0, F64s(ones.clone())).unwrap();
        }
    });
    let retried = d.local_stats().calls_retried - retried_before;
    assert!(retried >= 5, "only {retried} retransmissions at drop 0.3");
    // Per call: this test's `ones.clone()` and at most a fresh request
    // buffer — whatever `retried` is. The server allocates nothing:
    // `axpy_range` computes from a view of the request.
    println!("{CALLS} axpy_range calls, {retried} retransmissions: {blocks} large blocks");
    assert!(
        blocks <= 2 * CALLS,
        "{CALLS} calls and {retried} retransmissions allocated {blocks} large blocks: \
         a retransmission copied its frame"
    );

    cluster.sim().faults().calm();
    // data[i] = 1 + 2 * CALLS, each update applied exactly once.
    let sum = block.sum_range(d, 0, N).unwrap();
    assert_eq!(sum, (N * (1 + 2 * CALLS)) as f64);
    let stats = d.stats_of(0).unwrap();
    assert!(stats.dup_replayed + stats.dup_suppressed > 0, "{stats:?}");
    cluster.shutdown(driver);
}
