//! Distributed FFT tests: the §4 listing end-to-end, checked against the
//! local 3-D transform, plus property tests of transform invariants.

use oopp::simnet::sweep::{cases, Case};
use oopp::{Cluster, ClusterBuilder, Driver};

use crate::*;

fn cluster(workers: usize) -> (Cluster, Driver) {
    DistributedFft3::register(ClusterBuilder::new(workers)).build()
}

fn sample_grid(shape: [usize; 3], seed: u64) -> Grid3 {
    let n = shape[0] * shape[1] * shape[2];
    let mut case = Case::new(seed);
    let mut next = move || case.range(-0.5..0.5);
    Grid3::new(shape, (0..n).map(|_| c64(next(), next())).collect())
}

/// Put `block` into `inbox` as worker `from`'s block of exchange `epoch`,
/// and wait for the inbox's answer.
fn put(
    d: &mut Driver,
    inbox: BlockInboxClient,
    epoch: u64,
    from: u64,
    block: &[Complex],
) -> oopp::RemoteResult<()> {
    let sent = inbox.put_rows_async(d, epoch, from, std::iter::once(block));
    sent?.wait(d)
}

/// `r` is the `App` error whose detail mentions `needle`.
fn app_error(r: oopp::RemoteResult<()>, needle: &str) {
    match r {
        Err(oopp::RemoteError::App { detail }) => {
            assert!(detail.contains(needle), "{detail:?} lacks {needle:?}")
        }
        other => panic!("expected an App error about {needle:?}, got {other:?}"),
    }
}

#[test]
fn distributed_matches_local_for_various_part_counts() {
    let shape = [8usize, 8, 4];
    let grid = sample_grid(shape, 1);
    let plan = Fft3::new(shape);
    let expected = plan.transform(&grid, Direction::Forward);

    for parts in [1usize, 2, 4] {
        let (cluster, mut driver) = cluster(parts.max(2));
        let dfft = DistributedFft3::new(&mut driver, [8, 8, 4], parts).unwrap();
        dfft.scatter(&mut driver, grid.data()).unwrap();
        dfft.transform(&mut driver, Direction::Forward).unwrap();
        let got = dfft.gather(&mut driver).unwrap();
        let err = max_error(&got, expected.data());
        assert!(err < 1e-9, "parts={parts}: error {err}");
        dfft.destroy(&mut driver).unwrap();
        cluster.shutdown(driver);
    }
}

#[test]
fn distributed_roundtrip_forward_inverse() {
    let shape = [4usize, 4, 4];
    let grid = sample_grid(shape, 2);
    let (cluster, mut driver) = cluster(2);
    let dfft = DistributedFft3::new(&mut driver, [4, 4, 4], 2).unwrap();
    dfft.scatter(&mut driver, grid.data()).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    dfft.transform(&mut driver, Direction::Inverse).unwrap();
    let back = dfft.gather(&mut driver).unwrap();
    assert!(max_error(&back, grid.data()) < 1e-10);
    cluster.shutdown(driver);
}

#[test]
fn more_processes_than_machines_works() {
    // Two FFT processes per machine: the paper's model never requires a
    // 1:1 process/machine mapping.
    let shape = [8usize, 8, 2];
    let grid = sample_grid(shape, 3);
    let expected = Fft3::new(shape).transform(&grid, Direction::Forward);
    let (cluster, mut driver) = cluster(2);
    let dfft = DistributedFft3::new(&mut driver, [8, 8, 2], 4).unwrap();
    dfft.scatter(&mut driver, grid.data()).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    assert!(max_error(&dfft.gather(&mut driver).unwrap(), expected.data()) < 1e-9);
    cluster.shutdown(driver);
}

#[test]
fn invalid_configurations_are_rejected() {
    let (cluster, mut driver) = cluster(2);
    // Shape not divisible by parts.
    assert!(DistributedFft3::new(&mut driver, [2, 4, 4], 4).is_err());
    assert!(DistributedFft3::new(&mut driver, [4, 2, 4], 4).is_err());
    // Zero parts.
    assert!(DistributedFft3::new(&mut driver, [4, 4, 4], 0).is_err());
    // Scatter with the wrong size.
    let dfft = DistributedFft3::new(&mut driver, [4, 4, 4], 2).unwrap();
    assert!(dfft.scatter(&mut driver, &[Complex::ZERO; 7]).is_err());
    // Transform before SetGroup is impossible through the public API, but
    // a raw worker rejects it.
    let w = FftWorkerClient::new_on(&mut driver, 0, 0, 4, 4, 4, 1).unwrap();
    assert!(w.transform_local(&mut driver, -1, 0).is_err());
    // ... and the exchange rejects out-of-order invocation.
    assert!(w.transform_exchange(&mut driver, -1).is_err());
    cluster.shutdown(driver);
}

/// A transpose block nobody should have sent — of the wrong size, a second
/// one from the same worker, from a worker outside the group, or claiming to
/// come from the inbox's own worker — used to index `gathered`/`slab`
/// unchecked: the machine's thread panicked and the driver's call never
/// returned. The first is the phase's `App` error, the second the `put`'s
/// own, the last two are never asked for — in either exchange, planes to
/// columns and columns to planes; the worker stays usable, and the cluster
/// shuts down cleanly. Worker 0 of a group of two is the real one; this
/// test plays worker 1.
#[test]
fn stray_transpose_blocks_are_refused_not_indexed() {
    const SHAPE: [usize; 3] = [4, 4, 2];
    // A block: two planes x two columns of rows of two.
    const BLOCK: usize = 2 * 2 * 2;
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    let inbox = BlockInboxClient::new_on(d, 0).unwrap();
    // Where worker 0 sends what is meant for worker 1; nobody takes it.
    let sink = BlockInboxClient::new_on(d, 0).unwrap();
    let w = FftWorkerClient::new_on(d, 0, 0, 4, 4, 2, 2).unwrap();
    w.set_group(d, vec![w, w], vec![inbox, sink]).unwrap();
    // Worker 1's planes are zero, so its forward block is too.
    let mut grid = sample_grid(SHAPE, 9);
    grid.data_mut()[2 * BLOCK..].fill(Complex::ZERO);
    let load = |d: &mut Driver| {
        let slab = wire::collections::F64s(as_f64s(&grid.data()[..2 * BLOCK]).to_vec());
        w.load_slab(d, slab).unwrap();
    };
    let put = |d: &mut Driver, epoch, from, block: &[Complex]| put(d, inbox, epoch, from, block);
    let one = [c64(1.0, 2.0)];
    let zeros = [Complex::ZERO; BLOCK];
    let junk = [c64(7.0, -7.0); BLOCK];

    // The exchanges are numbered 0, 1, 2, ... in order, as the driver
    // numbers them; a refused exchange leaves the layout it started from. Planes to columns first:
    // too short (the parent's panic was an index out of range where it is
    // scattered), then a second block from the same worker — refused where
    // it is put, and the first one stands.
    load(d);
    put(d, 0, 1, &one).unwrap();
    w.transform_local(d, -1, 0).unwrap();
    app_error(w.transform_exchange(d, -1), "block of 2 doubles");
    put(d, 1, 1, &zeros).unwrap();
    app_error(put(d, 1, 1, &junk), "two transpose blocks from worker 1");
    w.transform_local(d, -1, 1).unwrap();
    w.transform_exchange(d, -1).unwrap();
    // Columns to planes checks the same way.
    put(d, 2, 1, &one).unwrap();
    w.transform_local(d, -1, 2).unwrap();
    app_error(w.transform_exchange(d, -1), "block of 2 doubles");
    put(d, 3, 1, &zeros).unwrap();
    app_error(put(d, 3, 1, &junk), "two transpose blocks from worker 1");
    w.transform_local(d, -1, 3).unwrap();
    w.transform_exchange(d, -1).unwrap();

    // A slab of the wrong size (here: half a complex value) is refused too.
    assert!(w
        .load_slab(d, wire::collections::F64s(vec![1.0; 3]))
        .is_err());

    // None of it wedged the worker, and blocks from a worker the group does
    // not have (the parent indexed `gathered` with them) or from worker 0
    // itself are never looked at: a forward from planes holds the local
    // result's columns, and the inverse from there takes them back to the
    // planes loaded. What worker 1 returns is its columns of worker 0's
    // planes after the inverse's axis-0 pass.
    let plan = Fft3::new(SHAPE);
    let expected = plan.transform(&grid, Direction::Forward);
    let mut axis0 = expected.clone();
    plan.process_axis0(axis0.data_mut(), Direction::Inverse);
    let columns = |g: &Grid3, planes: std::ops::Range<usize>, first: usize| -> Vec<Complex> {
        planes
            .flat_map(|plane| g.data()[(plane * 4 + first) * 2..][..2 * 2].to_vec())
            .collect()
    };
    let returned = columns(&axis0, 0..2, 2);
    load(d);
    for (epoch, block) in [(4, &zeros[..]), (5, &returned[..])] {
        put(d, epoch, 5, &junk).unwrap();
        put(d, epoch, 0, &junk).unwrap();
        put(d, epoch, 1, block).unwrap();
    }
    let read = |d: &mut Driver| {
        let (layout, doubles) = w.read_slab(d).unwrap();
        let mut got = vec![Complex::ZERO; 2 * BLOCK];
        as_f64s_mut(&mut got).copy_from_slice(&doubles.0);
        (layout, got)
    };
    w.transform_local(d, -1, 4).unwrap();
    w.transform_exchange(d, -1).unwrap();
    let (layout, got) = read(d);
    assert_eq!(layout, Layout::Columns);
    assert!(max_error(&got, &columns(&expected, 0..4, 0)) < 1e-9);
    w.transform_local(d, 1, 5).unwrap();
    w.transform_exchange(d, 1).unwrap();
    let (layout, got) = read(d);
    assert_eq!(layout, Layout::Planes);
    assert!(max_error(&got, &grid.data()[..2 * BLOCK]) < 1e-9);
    cluster.shutdown(driver);
}

/// A grid whose slab cannot be sized or allocated is the constructor's
/// `App` error: at the parent `1 << 40` cubed wrapped to a short slab in
/// release (then an index panic on the machine's thread inside
/// `transform_local`) and `1 << 20` cubed aborted the process in the
/// allocator. The machine answers the next call either way.
#[test]
fn a_grid_too_large_is_an_app_error_and_the_machine_lives() {
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    for edge in [1u64 << 40, 1 << 20] {
        let refused = FftWorkerClient::new_on(d, 0, 0, edge, edge, edge, 1);
        app_error(refused.map(drop), "no memory for a");
    }
    let w = FftWorkerClient::new_on(d, 0, 0, 4, 4, 2, 1).unwrap();
    assert_eq!(w.describe(d).unwrap(), (0, 1));
    cluster.shutdown(driver);
}

/// The inbox hands a `take` the block put before it, once, and refuses a
/// `take` whose block is not there at once: the driver joins every `put`
/// before it sends a `take`, so none has anything to wait for. A `take`
/// drops the blocks older exchanges left behind.
#[test]
fn a_take_gets_the_block_put_before_it_or_is_refused() {
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    let inbox = BlockInboxClient::new_on(d, 0).unwrap();
    let block = [c64(1.0, -2.0), c64(0.25, 8.0), c64(-3.0, 0.0)];
    let put = |d: &mut Driver, epoch, from| put(d, inbox, epoch, from, &block);
    let expected = wire::collections::F64s(as_f64s(&block).to_vec());

    put(d, 3, 1).unwrap();
    assert_eq!(inbox.take(d, 3, 1).unwrap(), expected);
    // One taker per block, and no take before its block.
    app_error(
        inbox.take(d, 3, 1).map(drop),
        "no transpose block from worker 1 in exchange 3",
    );
    app_error(
        inbox.take(d, 3, 2).map(drop),
        "no transpose block from worker 2 in exchange 3",
    );
    put(d, 3, 2).unwrap();
    assert_eq!(inbox.take(d, 3, 2).unwrap(), expected);

    // Exchange 3 is history once anyone takes from exchange 4: its unclaimed
    // block is dropped, and may be put again.
    put(d, 3, 9).unwrap();
    app_error(put(d, 3, 9), "two transpose blocks from worker 9");
    put(d, 4, 1).unwrap();
    assert_eq!(inbox.take(d, 4, 1).unwrap(), expected);
    put(d, 3, 9).unwrap();
    cluster.shutdown(driver);
}

/// What one forward `transform` puts on a free fabric, for the CI log: per
/// phase a request and a reply per worker, and in its one exchange a `put`
/// and a `take` (two messages each) per worker and peer — so `4·P²` — and
/// each block that leaves its worker travels twice, into the peer's inbox
/// and out of it, while the block a worker keeps never travels.
#[test]
fn transpose_traffic_is_what_the_remote_blocks_cost() {
    let shape = [16usize; 3];
    let grid = sample_grid(shape, 21);
    let grid_bytes = (16 * grid.data().len()) as u64;
    for parts in [1usize, 2, 4, 8] {
        let (cluster, mut driver) = cluster(parts);
        let dfft = DistributedFft3::new(&mut driver, [16; 3], parts).unwrap();
        dfft.scatter(&mut driver, grid.data()).unwrap();
        let before = cluster.snapshot();
        dfft.transform(&mut driver, Direction::Forward).unwrap();
        let sent = cluster.snapshot().since(&before);
        let p = parts as u64;
        let payload = 2 * grid_bytes * (p - 1) / p;
        println!(
            "transpose_traffic P={parts}: {} messages, {} bytes ({payload} of blocks)",
            sent.messages_sent, sent.bytes_sent
        );
        assert_eq!(sent.messages_sent, 4 * p * p);
        // Around the blocks: a frame's header, a method name, two integers.
        let framing = sent.bytes_sent - payload;
        assert!(framing <= 64 * sent.messages_sent, "{framing} bytes");
        cluster.shutdown(driver);
    }
}

/// A third phase straight after the first used to be accepted: it took the
/// *forward* blocks (the same size as the return blocks) for the return
/// blocks and scattered them into the slab. `sign as i32` ran `1 << 32`
/// and `0` as an inverse, and nothing held phase 2 to the sign of phase 1.
/// Each is an `App` error now, and none of them moves the worker out of
/// the phase it is in.
#[test]
fn phases_out_of_order_and_bad_signs_are_app_error() {
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    let inbox = BlockInboxClient::new_on(d, 0).unwrap();
    let w = FftWorkerClient::new_on(d, 0, 0, 4, 4, 2, 1).unwrap();
    w.set_group(d, vec![w], vec![inbox]).unwrap();
    let grid = sample_grid([4, 4, 2], 11);
    w.load_slab(d, wire::collections::F64s(as_f64s(grid.data()).to_vec()))
        .unwrap();

    w.transform_local(d, -1, 0).unwrap();
    // A second phase 1.
    app_error(w.transform_local(d, -1, 1), "out of order");
    // Phase 2 in another direction than phase 1, or in none.
    app_error(w.transform_exchange(d, 1), "after transform_local(-1)");
    app_error(w.transform_exchange(d, 0), "sign must be");
    w.transform_exchange(d, -1).unwrap();
    app_error(w.transform_exchange(d, -1), "before transform_local");
    // Not a sign: nothing runs, the worker stays idle.
    for sign in [0, 2, -2, 1 << 32, i64::MIN] {
        app_error(w.transform_local(d, sign, 1), "sign must be");
    }

    // Every refusal left the phase alone: that was one clean transform.
    let (layout, doubles) = w.read_slab(d).unwrap();
    let mut got = vec![Complex::ZERO; grid.data().len()];
    as_f64s_mut(&mut got).copy_from_slice(&doubles.0);
    let expected = Fft3::new([4, 4, 2]).transform(&grid, Direction::Forward);
    assert_eq!(layout, Layout::Columns);
    assert!(got == expected.data());
    cluster.shutdown(driver);
}

/// The workers run the two passes `Fft3` runs, on the same values in the
/// same order, whatever the number of slabs: not close, equal.
#[test]
fn distributed_equals_local_element_for_element() {
    let shape = [16usize; 3];
    let grid = sample_grid(shape, 5);
    let plan = Fft3::new(shape);
    for dir in [Direction::Forward, Direction::Inverse] {
        let expected = plan.transform(&grid, dir);
        for parts in [1usize, 2, 4] {
            let (cluster, mut driver) = cluster(parts.max(2));
            let dfft = DistributedFft3::new(&mut driver, [16; 3], parts).unwrap();
            dfft.scatter(&mut driver, grid.data()).unwrap();
            dfft.transform(&mut driver, dir).unwrap();
            let got = dfft.gather(&mut driver).unwrap();
            assert!(got == expected.data(), "parts={parts} {dir:?}");
            cluster.shutdown(driver);
        }
    }
}

/// One two-worker 64³ `transform` as the workers run it, without the
/// runtime, from the layout `*columns` says they hold into the other. From
/// planes: `process_planes` on each slab, the exchange (a block that leaves
/// its worker gathered from the slab into a message buffer and scattered
/// out of it into the receiver's `gathered`), axis 0 over each worker's row
/// table (its own block where it lies in its slab, the other's in
/// `gathered`). From columns: the same three steps backwards, the exchange
/// from `gathered` into the receiver's slab runs. Two block copies of
/// 1 MiB per worker and transform. Returns the time spent in (planes,
/// axis 0, copies).
fn replay_transform(
    plan: &Fft3,
    dir: Direction,
    columns: &mut bool,
    slabs: &mut [Vec<Complex>],
    gathered: &mut [Vec<Complex>],
    message: &mut [Complex],
) -> [std::time::Duration; 3] {
    use std::time::Instant;
    let [n1, n2, n3] = plan.shape();
    let parts = slabs.len();
    let (s1, s2) = (n1 / parts, n2 / parts);
    let (block, row) = (s1 * s2 * n3, s2 * n3);
    let run = |i: usize, q: usize| (i * n2 + q * s2) * n3;
    // Where worker q keeps worker p's block: `gathered` skips q's own.
    let slot = |p: usize, q: usize| if p < q { p } else { p - 1 };

    let planes = |slabs: &mut [Vec<Complex>]| {
        for slab in slabs.iter_mut() {
            plan.process_planes(slab, dir);
        }
    };
    let axis0 = |slabs: &mut [Vec<Complex>], gathered: &mut [Vec<Complex>]| {
        for (q, (slab, others)) in slabs.iter_mut().zip(gathered.iter_mut()).enumerate() {
            let planes = slab.chunks_exact_mut(n2 * n3);
            let own = planes.map(|plane| &mut plane[q * row..][..row]);
            let (before, after) = others.split_at_mut(q * block);
            let (before, after) = (before.chunks_exact_mut(row), after.chunks_exact_mut(row));
            let mut rows: Vec<&mut [Complex]> = before.chain(own).chain(after).collect();
            plan.process_axis0_rows(&mut rows, dir);
        }
    };
    let to_columns =
        |slabs: &[Vec<Complex>], gathered: &mut [Vec<Complex>], message: &mut [Complex]| {
            for (p, slab) in slabs.iter().enumerate() {
                for (q, into) in gathered.iter_mut().enumerate() {
                    if p != q {
                        for (i, dst) in message.chunks_exact_mut(row).enumerate() {
                            dst.copy_from_slice(&slab[run(i, q)..][..row]);
                        }
                        into[slot(p, q) * block..][..block].copy_from_slice(message);
                    }
                }
            }
        };
    let to_planes =
        |slabs: &mut [Vec<Complex>], gathered: &[Vec<Complex>], message: &mut [Complex]| {
            for (q, from) in gathered.iter().enumerate() {
                for (p, slab) in slabs.iter_mut().enumerate() {
                    if p != q {
                        message.copy_from_slice(&from[slot(p, q) * block..][..block]);
                        for (i, back) in message.chunks_exact(row).enumerate() {
                            slab[run(i, q)..][..row].copy_from_slice(back);
                        }
                    }
                }
            }
        };

    let t0 = Instant::now();
    let split = if *columns {
        axis0(slabs, gathered);
        let t1 = Instant::now();
        to_planes(slabs, gathered, message);
        let t2 = Instant::now();
        planes(slabs);
        [Instant::now() - t2, t1 - t0, t2 - t1]
    } else {
        planes(slabs);
        let t1 = Instant::now();
        to_columns(slabs, gathered, message);
        let t2 = Instant::now();
        axis0(slabs, gathered);
        [t1 - t0, Instant::now() - t2, t2 - t1]
    };
    *columns = !*columns;
    split
}

/// Where the worker time of one `fft3d` op (a forward 64³ transform over
/// two workers from planes to columns, and the inverse back) goes, so the
/// ROADMAP's split can be re-read:
/// `cargo test --release -p fft --lib replay -- --ignored --nocapture`, on
/// one pinned CPU (`taskset -c 1`) to compare with the benchmark. Every
/// build of the kernel this host runs is read, a block of ops each in
/// turn: the one it dispatches to and the narrower ones other hosts run.
#[test]
#[ignore = "prints a timing split; meaningful in --release only"]
fn replay_of_one_fft3d_op_splits_worker_time_into_arithmetic_and_copies() {
    const PARTS: usize = 2;
    const OPS: u32 = 200;
    // Ops of one build in a row, the builds alternating block by block:
    // timed op by op, each right after an AVX-512 op, the baseline build
    // read up to 27 % slower than in a replay without the AVX-512 build
    // (likely the lower clock a CPU keeps for a while after 512-bit
    // arithmetic); in blocks, within the host's noise of it.
    const BLOCK: u32 = 20;
    let shape = [64usize; 3];
    let plan = Fft3::new(shape);
    let grid = sample_grid(shape, 11);
    let cells = grid.data().len();
    let load = || {
        grid.data()
            .chunks(cells / PARTS)
            .map(<[_]>::to_vec)
            .collect::<Vec<_>>()
    };
    let mut slabs = load();
    let mut gathered = vec![vec![Complex::ZERO; cells / PARTS / PARTS * (PARTS - 1)]; PARTS];
    let mut message = vec![Complex::ZERO; cells / PARTS / PARTS];
    let mut columns = false;
    // One transform, in the given build.
    let mut op = |build, dir, slabs: &mut [Vec<Complex>], gathered: &mut [Vec<Complex>]| {
        tile::forced(build, || {
            replay_transform(&plan, dir, &mut columns, slabs, gathered, &mut message)
        })
    };
    // The grid the workers hold in columns: worker q's rows of plane i are
    // its own slab's run for its own planes, `gathered`'s for the others.
    let held = |slabs: &[Vec<Complex>], gathered: &[Vec<Complex>]| {
        let (plane, s1) = (cells / shape[0], shape[0] / PARTS);
        let row = plane / PARTS;
        let mut out = vec![Complex::ZERO; cells];
        for i in 0..shape[0] {
            for q in 0..PARTS {
                let from = if i / s1 == q {
                    &slabs[q][(i % s1) * plane + q * row..][..row]
                } else {
                    let g = if i < q * s1 { i } else { i - s1 };
                    &gathered[q][g * row..][..row]
                };
                out[i * plane + q * row..][..row].copy_from_slice(from);
            }
        }
        out
    };

    // The replay is the workers' dataflow: a forward from planes equals
    // `Fft3`, and the inverse from columns takes it back, in every build.
    let forward = plan.transform(&grid, Direction::Forward);
    let builds: Vec<tile::Build> = tile::Build::runnable().collect();
    for &build in &builds {
        slabs = load();
        op(build, Direction::Forward, &mut slabs, &mut gathered);
        assert!(
            held(&slabs, &gathered) == forward.data(),
            "{} build",
            build.name()
        );
        op(build, Direction::Inverse, &mut slabs, &mut gathered);
    }

    let mut split = vec![[std::time::Duration::ZERO; 3]; builds.len()];
    for _ in 0..OPS / BLOCK {
        for (&build, sum) in builds.iter().zip(&mut split) {
            for _ in 0..BLOCK {
                for dir in [Direction::Forward, Direction::Inverse] {
                    let took = op(build, dir, &mut slabs, &mut gathered);
                    sum.iter_mut().zip(took).for_each(|(sum, t)| *sum += t);
                }
            }
        }
    }
    for (build, split) in builds.iter().zip(split).rev() {
        let [planes, axis0, copies] = split.map(|t| t.as_secs_f64() * 1e3 / f64::from(OPS));
        println!(
            "one fft3d op, worker phases replayed, {} build: planes {planes:.2} ms + \
             axis 0 {axis0:.2} ms = {:.2} ms arithmetic, {copies:.2} ms of block copies",
            build.name(),
            planes + axis0
        );
    }
    println!(
        "this host dispatches to the {} build",
        tile::Build::detect().name()
    );
    assert!(max_error(&slabs.concat(), grid.data()) < 1e-9);
}

/// A `new` whose workers refuse to be built — a shape the slabs do not
/// divide, an edge with no plan (not a power of two), a grid too large to
/// allocate — used to return its error with every process it had made
/// still alive: the inboxes, and any worker that was built. Now it
/// destroys them first, and a later group starts from the same count of
/// live objects.
#[test]
fn a_refused_new_leaves_no_process_behind() {
    let (cluster, mut driver) = cluster(2);
    let d = &mut driver;
    let live =
        |d: &mut Driver| -> u64 { (0..2).map(|m| d.stats_of(m).unwrap().objects_live).sum() };
    let before = live(d);
    let refused = DistributedFft3::new(d, [2, 4, 4], 4).map(drop);
    app_error(refused, "not divisible into 4 slabs");
    assert_eq!(live(d), before, "an indivisible shape");
    let refused = DistributedFft3::new(d, [6, 4, 4], 2).map(drop);
    app_error(refused, "power of two");
    assert_eq!(live(d), before, "an edge that is not a power of two");
    let refused = DistributedFft3::new(d, [1 << 20; 3], 2).map(drop);
    app_error(refused, "no memory for a");
    assert_eq!(live(d), before, "a grid too large to allocate");

    let dfft = DistributedFft3::new(d, [4, 4, 4], 2).unwrap();
    assert_eq!(live(d), before + 4, "two workers, two inboxes");
    dfft.destroy(d).unwrap();
    assert_eq!(live(d), before);
    cluster.shutdown(driver);
}

/// A transform that failed part-way used to leave a worker mid-phase, and a
/// worker mid-phase refuses every later `transform_local` as out of order:
/// the group was wedged for good, however often the driver retried. Here
/// worker 1 runs a phase 1 on its own, as a transform that failed after
/// it would leave it. The next transform fails, as it must; it leaves the
/// group restarted, and the one after it equals `Fft3`'s.
#[test]
fn a_transform_that_fails_part_way_does_not_wedge_the_group() {
    let shape = [8usize, 8, 4];
    let grid = sample_grid(shape, 13);
    let expected = Fft3::new(shape).transform(&grid, Direction::Forward);
    let (cluster, mut driver) = cluster(2);
    let d = &mut driver;
    let dfft = DistributedFft3::new(d, [8, 8, 4], 2).unwrap();
    dfft.scatter(d, grid.data()).unwrap();
    dfft.transform(d, Direction::Forward).unwrap();

    dfft.workers.member(1).transform_local(d, -1, 1).unwrap();
    app_error(dfft.transform(d, Direction::Forward), "out of order");
    // Both failures moved slab planes: start from the grid again.
    dfft.scatter(d, grid.data()).unwrap();
    dfft.transform(d, Direction::Forward).unwrap();
    assert!(dfft.gather(d).unwrap() == expected.data());
    cluster.shutdown(driver);
}

/// A worker holds whichever layout its last pass left — planes after a
/// `scatter`, columns after a transform from planes, planes again after
/// the next — and `gather` reads either. Every sequence of three
/// directions (`FFF` … `III`) from a fresh `scatter`, read back after each
/// step, agrees with `Fft3` applied in the same sequence: at P = 1, 2 and
/// 4, and with four workers on one machine and on two, where a lane serves
/// one worker's phase nested inside another's.
#[test]
fn every_sequence_of_directions_agrees_with_the_local_transform_in_either_layout() {
    let shape = [8usize, 8, 4];
    let grid = sample_grid(shape, 17);
    let plan = Fft3::new(shape);
    for (machines, parts) in [(1, 1), (2, 2), (4, 4), (1, 4), (2, 4)] {
        let (cluster, mut driver) = cluster(machines);
        let d = &mut driver;
        let dfft = DistributedFft3::new(d, [8, 8, 4], parts).unwrap();
        for sequence in 0..8u32 {
            let dirs = (0..3).map(|step| match sequence >> (2 - step) & 1 {
                0 => Direction::Forward,
                _ => Direction::Inverse,
            });
            let name: String = dirs
                .clone()
                .map(|dir| format!("{dir:?}")[..1].to_string())
                .collect();
            dfft.scatter(d, grid.data()).unwrap();
            let mut expected = grid.clone();
            for (step, dir) in dirs.enumerate() {
                dfft.transform(d, dir).unwrap();
                plan.process(&mut expected, dir);
                let err = max_error(&dfft.gather(d).unwrap(), expected.data());
                assert!(
                    err < 1e-9,
                    "{parts} workers on {machines} machines, {name} step {step}: error {err}"
                );
            }
        }
        dfft.destroy(d).unwrap();
        cluster.shutdown(driver);
    }
}

/// A group whose workers hold different layouts has no grid to gather:
/// here a transform leaves both in columns and a `load_slab` on worker 0
/// alone puts it back in planes. `gather` refuses that as an `App` error
/// rather than cut the grid two ways, and the next `scatter` puts the
/// group back in step.
#[test]
fn gather_refuses_a_group_in_mixed_layouts() {
    let shape = [4usize, 4, 2];
    let grid = sample_grid(shape, 19);
    let (cluster, mut driver) = cluster(2);
    let d = &mut driver;
    let dfft = DistributedFft3::new(d, [4, 4, 2], 2).unwrap();
    dfft.scatter(d, grid.data()).unwrap();
    dfft.transform(d, Direction::Forward).unwrap();
    let slab = wire::collections::F64s(as_f64s(&grid.data()[..16]).to_vec());
    dfft.workers.member(0).load_slab(d, slab).unwrap();
    app_error(dfft.gather(d).map(drop), "different layouts");
    dfft.scatter(d, grid.data()).unwrap();
    assert!(dfft.gather(d).unwrap() == grid.data());
    cluster.shutdown(driver);
}

#[test]
fn workers_report_identity() {
    let (cluster, mut driver) = cluster(2);
    let dfft = DistributedFft3::new(&mut driver, [4, 4, 2], 2).unwrap();
    // describe goes through the same RMI path as transform.
    let w = FftWorkerClient::new_on(&mut driver, 1, 7, 4, 4, 2, 2).unwrap_err();
    assert!(matches!(w, oopp::RemoteError::App { .. })); // id out of range
    let _ = dfft;
    cluster.shutdown(driver);
}

#[test]
fn complex_slices_read_and_write_as_interleaved_doubles_where_they_lie() {
    let mut xs = vec![c64(1.0, 2.0), c64(-3.0, 0.5)];
    assert_eq!(as_f64s(&xs), [1.0, 2.0, -3.0, 0.5]);
    as_f64s_mut(&mut xs[1..])[1] = 7.0;
    assert_eq!(xs[1], c64(-3.0, 7.0));
    assert!(as_f64s(&[]).is_empty());
}

/// Parseval's theorem holds for the plan across random sizes/inputs.
#[test]
fn parseval_holds() {
    cases("parseval_holds", 8, |c| {
        let (n, seed) = (1 << c.range(0usize..7), c.range(0u64..1000));
        let plan = Fft::new(n);
        let grid = sample_grid([n, 1, 1], seed);
        let x = grid.data();
        let y = plan.forward(x);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - ex * n as f64).abs() < 1e-6 * (1.0 + ex) * n as f64);
    });
}

/// forward then inverse is the identity for every power-of-two size.
#[test]
fn roundtrip_holds() {
    cases("roundtrip_holds", 8, |c| {
        let (n, seed) = (1 << c.range(0usize..6), c.range(0u64..1000));
        let plan = Fft::new(n);
        let grid = sample_grid([n, 1, 1], seed);
        let back = plan.inverse(&plan.forward(grid.data()));
        assert!(max_error(grid.data(), &back) < 1e-8);
    });
}

/// The fast plan agrees with the O(n²) definition.
#[test]
fn fast_matches_slow() {
    cases("fast_matches_slow", 8, |c| {
        let (n, seed) = (1 << c.range(0usize..6), c.range(0u64..1000));
        let plan = Fft::new(n);
        let grid = sample_grid([n, 1, 1], seed);
        let fast = plan.forward(grid.data());
        let slow = dft(grid.data(), Direction::Forward);
        assert!(max_error(&fast, &slow) < 1e-7);
    });
}

/// Time shift ⇔ frequency phase ramp (shift theorem).
#[test]
fn shift_theorem() {
    cases("shift_theorem", 8, |c| {
        let (n, shift, seed) = (
            1 << c.range(1usize..6),
            c.range(1usize..8),
            c.range(0u64..1000),
        );
        let shift = shift % n;
        let plan = Fft::new(n);
        let grid = sample_grid([n, 1, 1], seed);
        let x = grid.data();
        let shifted: Vec<Complex> = (0..n).map(|i| x[(i + shift) % n]).collect();
        let fx = plan.forward(x);
        let fs = plan.forward(&shifted);
        for k in 0..n {
            let phase = Complex::cis(std::f64::consts::TAU * (k * shift) as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-7 * (1.0 + fx[k].abs()));
        }
    });
}
