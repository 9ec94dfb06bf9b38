//! Hand-written message-passing counterparts of the paper's examples —
//! the baselines the oopp versions are measured against.
//!
//! * [`fft_slab_step`] / [`fft_run`]: the §4 distributed 3-D FFT written
//!   MPI-style (slab decomposition, `alltoall` transposes) — baseline for
//!   experiment E4.
//! * [`pageio_run`]: the §4 parallel page-read example written with
//!   explicit sends and receives, in both the sequential and the
//!   hand-pipelined form — baseline for experiment E3.

use std::sync::Arc;
use std::time::Duration;

use fft::{as_f64s, as_f64s_mut, Complex, Direction, Fft3};
use simnet::{ClusterConfig, SimCluster};

use crate::comm::{Comm, MpResult};
use crate::world::MpiWorld;

/// One distributed 3-D FFT step for this rank's slab (planes
/// `[rank·n1/P, (rank+1)·n1/P)` of `plan`'s `n1 × n2 × n3` grid,
/// row-major), with one transpose, as the oopp workers run it from planes:
/// returns this rank's columns `[rank·n2/P, (rank+1)·n2/P)` of every plane,
/// `[n1][n2/P][n3]`. `n1` and `n2` must be divisible by the world size.
pub fn fft_slab_step(
    comm: &mut Comm,
    plan: &Fft3,
    mut slab: Vec<Complex>,
    dir: Direction,
) -> MpResult<Vec<Complex>> {
    let [n1, n2, n3] = plan.shape();
    let p = comm.size();
    assert_eq!(n1 % p, 0, "n1 must divide into {p} slabs");
    assert_eq!(n2 % p, 0, "n2 must divide into {p} slabs");
    let (s1, s2) = (n1 / p, n2 / p);
    assert_eq!(slab.len(), s1 * n2 * n3, "slab size mismatch");

    // 2-D FFTs (axes 1, 2) on each local plane.
    plan.process_planes(&mut slab, dir);

    // The transpose via alltoall. A block is one rank's planes x another's
    // columns, as interleaved `re, im` doubles — the same slice codec the
    // oopp workers use. Per plane, rank q's columns are one run of rows;
    // its block lands as planes `[q·s1, (q+1)·s1)` of the [n1][s2][n3]
    // buffer.
    let block = s1 * s2 * n3;
    let mut outgoing = Vec::with_capacity(p);
    for q in 0..p {
        let mut out = Vec::with_capacity(2 * block);
        for i in 0..s1 {
            let run = (i * n2 + q * s2) * n3;
            out.extend_from_slice(as_f64s(&slab[run..run + s2 * n3]));
        }
        outgoing.push(out);
    }
    let incoming = comm.alltoall_f64(outgoing)?;
    if let Some(b) = incoming.iter().find(|b| b.len() != 2 * block) {
        return Err(crate::MpError::Decode(format!(
            "transpose block of {} doubles, expected {}",
            b.len(),
            2 * block
        )));
    }
    let mut columns = vec![Complex::ZERO; n1 * s2 * n3];
    for (data, dst) in incoming.iter().zip(columns.chunks_exact_mut(block)) {
        as_f64s_mut(dst).copy_from_slice(data);
    }

    // Axis-0 FFTs on the columns this rank now holds.
    plan.process_axis0(&mut columns, dir);
    Ok(columns)
}

/// Run a full distributed FFT over a fresh world: scatter `grid` (row-major
/// `n1·n2·n3`) by planes, transform, gather the ranks' columns back into
/// the grid. Returns the transformed grid and the transform's time on the
/// cluster clock — the slowest rank's step, which on a virtual-time world
/// is the one transpose's modeled link time (host arithmetic is not
/// modeled).
pub fn fft_run(
    config: ClusterConfig,
    shape: [usize; 3],
    grid: Vec<Complex>,
    dir: Direction,
) -> (Vec<Complex>, Duration) {
    fft_on(&SimCluster::new(config), shape, grid, dir)
}

fn fft_on(
    sim: &SimCluster,
    shape: [usize; 3],
    grid: Vec<Complex>,
    dir: Direction,
) -> (Vec<Complex>, Duration) {
    let [n1, n2, n3] = shape;
    let p = sim.machines();
    let (slab_len, row) = (n1 / p * n2 * n3, n2 / p * n3);
    let grid = Arc::new(grid);
    let plan = Arc::new(Fft3::new(shape));
    let ranks = MpiWorld::launch(sim, move |comm| {
        let rank = comm.rank();
        let slab = grid[rank * slab_len..(rank + 1) * slab_len].to_vec();
        let t0 = comm.now_nanos();
        let columns = fft_slab_step(comm, &plan, slab, dir).expect("fft step failed");
        (columns, comm.now_nanos() - t0)
    });
    let slowest = ranks.iter().map(|(_, nanos)| *nanos).max().unwrap_or(0);
    // Rank q's row i is its columns of plane i.
    let mut out = vec![Complex::ZERO; n1 * n2 * n3];
    for (q, (columns, _)) in ranks.iter().enumerate() {
        for (i, from) in columns.chunks_exact(row).enumerate() {
            out[i * n2 * n3 + q * row..][..row].copy_from_slice(from);
        }
    }
    (out, Duration::from_nanos(slowest))
}

/// Transfer discipline for the page-I/O baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Request–wait–next: the unsplit loop of §4.
    Sequential,
    /// All requests first, then all replies: the hand-written equivalent of
    /// the compiler's split loop.
    Pipelined,
}

const TAG_REQ: u64 = 1;
const TAG_PAGE: u64 = 2;
const STOP: u64 = u64::MAX;

/// The §4 parallel-read example, message-passing style. Ranks
/// `0..size-1` act as page servers (one disk-backed page file each); the
/// last rank is the client reading one page from every server. Returns the
/// client's time for the read round on the cluster clock (servers return
/// zero).
pub fn pageio_run(
    config: ClusterConfig,
    page_size: usize,
    pages_per_device: u64,
    mode: IoMode,
) -> (Duration, simnet::MetricsSnapshot) {
    let world = MpiWorld::new(config);
    let size = world.size();
    assert!(size >= 2, "need at least one server and the client");
    let servers = size - 1;
    let client = servers;
    let (results, metrics) = world.run(move |comm| {
        if comm.rank() < servers {
            page_server(comm, client, page_size);
            Duration::ZERO
        } else {
            page_client(comm, servers, page_size, pages_per_device, mode)
        }
    });
    (results[client], metrics)
}

fn page_server(comm: &mut Comm, client: usize, page_size: usize) {
    let disk = comm.disk(0);
    // Serve until the stop sentinel.
    loop {
        let page_index: u64 = comm.recv_val(client, TAG_REQ).expect("server recv");
        if page_index == STOP {
            return;
        }
        let mut buf = vec![0u8; page_size];
        disk.read(page_index as usize * page_size, &mut buf)
            .expect("page read");
        comm.send(client, TAG_PAGE, &buf).expect("server send");
    }
}

fn page_client(
    comm: &mut Comm,
    servers: usize,
    page_size: usize,
    pages_per_device: u64,
    mode: IoMode,
) -> Duration {
    let t0 = comm.now_nanos();
    match mode {
        IoMode::Sequential => {
            for s in 0..servers {
                let page = (s as u64 * 7) % pages_per_device;
                comm.send_val(s, TAG_REQ, &page).expect("client send");
                let buf = comm.recv(s, TAG_PAGE).expect("client recv");
                assert_eq!(buf.len(), page_size);
            }
        }
        IoMode::Pipelined => {
            for s in 0..servers {
                let page = (s as u64 * 7) % pages_per_device;
                comm.send_val(s, TAG_REQ, &page).expect("client send");
            }
            for s in 0..servers {
                let buf = comm.recv(s, TAG_PAGE).expect("client recv");
                assert_eq!(buf.len(), page_size);
            }
        }
    }
    let elapsed = Duration::from_nanos(comm.now_nanos() - t0);
    for s in 0..servers {
        comm.send_val(s, TAG_REQ, &STOP).expect("client stop");
    }
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use fft::{c64, max_error, Fft3, Grid3};

    fn sample(shape: [usize; 3]) -> Vec<Complex> {
        let n = shape[0] * shape[1] * shape[2];
        (0..n)
            .map(|i| c64((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn mpi_fft_matches_local_fft() {
        let shape = [8usize, 8, 4];
        let data = sample(shape);
        let expected =
            Fft3::new(shape).transform(&Grid3::new(shape, data.clone()), Direction::Forward);
        for ranks in [1, 2, 4] {
            let (got, _) = fft_run(
                ClusterConfig::zero_cost(ranks),
                shape,
                data.clone(),
                Direction::Forward,
            );
            let err = max_error(&got, expected.data());
            assert!(err < 1e-9, "ranks={ranks}: error {err}");
        }
    }

    #[test]
    fn mpi_fft_roundtrip() {
        let shape = [4usize, 4, 4];
        let data = sample(shape);
        let (forward, _) = fft_run(
            ClusterConfig::zero_cost(2),
            shape,
            data.clone(),
            Direction::Forward,
        );
        let (back, _) = fft_run(
            ClusterConfig::zero_cost(2),
            shape,
            forward,
            Direction::Inverse,
        );
        assert!(max_error(&back, &data) < 1e-10);
    }

    #[test]
    fn pageio_both_modes_complete() {
        for mode in [IoMode::Sequential, IoMode::Pipelined] {
            let (elapsed, metrics) = pageio_run(ClusterConfig::zero_cost(5), 1024, 8, mode);
            assert!(elapsed > Duration::ZERO);
            // 4 servers: 4 requests + 4 pages + 4 stops = 12 messages.
            assert_eq!(metrics.messages_sent, 12);
            assert_eq!(metrics.disk_reads, 4);
        }
    }

    #[test]
    fn pipelined_is_not_slower_under_latency() {
        // 2ms of one-way latency (and nothing else) under 4 servers: the
        // sequential loop pays 4 round trips, the pipelined loop overlaps
        // them into one — its four pages land 1ns apart on the client's
        // FIFO link.
        let config = ClusterConfig::lan(5, 2000, f64::INFINITY).with_virtual_time(5);
        let (seq, _) = pageio_run(config.clone(), 512, 4, IoMode::Sequential);
        let (pipe, _) = pageio_run(config, 512, 4, IoMode::Pipelined);
        assert_eq!(seq, Duration::from_millis(16));
        assert_eq!(pipe, Duration::from_millis(4) + Duration::from_nanos(3));
    }

    #[test]
    fn one_seed_replays_the_fft_to_the_event() {
        let shape = [8usize, 8, 4];
        let run = |seed: u64| {
            let sim = SimCluster::new(ClusterConfig::lan(4, 50, 10.0).with_virtual_time(seed));
            let (grid, modeled) = fft_on(&sim, shape, sample(shape), Direction::Forward);
            (grid, modeled, sim.clock().schedule().expect("virtual"))
        };
        let (a, b) = (run(11), run(11));
        assert!(
            a.1 > Duration::from_micros(50),
            "the transpose crosses a 50us link"
        );
        assert_eq!(a.2.events, b.2.events);
        assert_eq!(
            a, b,
            "same seed: same grid, same modeled time, same schedule"
        );
        // Another seed permutes same-instant deliveries, not the outcome.
        let c = run(12);
        assert_eq!((&a.0, a.1), (&c.0, c.1));
        assert_ne!(a.2.digest, c.2.digest);
    }
}
