//! SPMD launcher: one thread per rank over a simulated cluster.

use std::sync::Arc;

use simnet::{ClusterConfig, MetricsSnapshot, SimCluster, WORKER_LABEL_BASE};

use crate::comm::Comm;

/// A message-passing world: the substrate plus the rank count.
///
/// [`run`](MpiWorld::run) is `mpiexec`: it launches the program closure on
/// every rank simultaneously and joins them. The world can be run multiple
/// times (each run spawns fresh ranks over a fresh cluster with the same
/// configuration).
#[derive(Debug, Clone)]
pub struct MpiWorld {
    config: ClusterConfig,
}

impl MpiWorld {
    /// A world with one rank per machine of `config`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.machines > 0, "world needs at least one rank");
        MpiWorld { config }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.config.machines
    }

    /// Launch `program` on every rank, wait for all to finish, and return
    /// the per-rank results (in rank order) plus the substrate counters.
    ///
    /// Panics in any rank propagate after all ranks are joined.
    pub fn run<R, F>(&self, program: F) -> (Vec<R>, MetricsSnapshot)
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let sim = SimCluster::new(self.config.clone());
        let results = Self::launch(&sim, program);
        (results, sim.snapshot())
    }

    /// [`run`](MpiWorld::run) on a cluster the caller built (and can read
    /// the clock of afterwards): one rank per machine of `sim`.
    pub fn launch<R, F>(sim: &SimCluster, program: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        let program = Arc::new(program);
        let (size, clock) = (sim.machines(), sim.clock());
        // Every `Comm` enrolls in the cluster clock here, before any rank
        // runs, and every rank opens at a start gate the clock serves in
        // rank order: on virtual time one rank runs at a time from its
        // first instruction, and time moves only when all are parked.
        let comms: Vec<Comm> = (0..size)
            .map(|rank| {
                let (inbox, disks) = (sim.take_inbox(rank), sim.disks(rank).to_vec());
                Comm::new(rank, size, sim.net().clone(), inbox, disks)
            })
            .collect();
        let mut handles = Vec::with_capacity(size);
        for (rank, mut comm) in comms.into_iter().enumerate() {
            let gate = WORKER_LABEL_BASE + rank as u64;
            clock.notify_label(gate);
            let (program, clock) = (program.clone(), clock.clone());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mplite-rank-{rank}"))
                    .spawn(move || {
                        clock.wait_label(gate);
                        program(&mut comm)
                    })
                    .expect("spawn rank thread"),
            );
        }
        // Join all before surfacing a panic: a rank drops its `Comm` (and
        // leaves the clock) as it unwinds, so the others run to their end.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined
            .into_iter()
            .map(|r| r.expect("rank panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_rank_once() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(5));
        assert_eq!(world.size(), 5);
        let (ranks, _) = world.run(|comm| comm.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn world_is_reusable() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let (a, _) = world.run(|c| c.size());
        let (b, _) = world.run(|c| c.size());
        assert_eq!(a, b);
    }

    #[test]
    fn a_panicking_rank_leaves_the_clock_so_the_others_finish() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = Arc::new(AtomicUsize::new(0));
        let seen = finished.clone();
        let world = MpiWorld::new(ClusterConfig::lan(3, 50, 1.0).with_virtual_time(3));
        let outcome = std::panic::catch_unwind(move || {
            world.run(move |comm| {
                if comm.rank() == 1 {
                    panic!("boom");
                }
                // Were the dead rank still enrolled, virtual time could
                // never reach this receive's deadline: a hang, not an error.
                let err = comm.recv(1, 7).unwrap_err();
                assert!(matches!(err, crate::MpError::Timeout { src: 1, .. }));
                seen.fetch_add(1, Ordering::SeqCst);
            })
        });
        let panic = outcome.expect_err("the rank's panic must propagate");
        assert!(format!("{:?}", panic.downcast_ref::<String>()).contains("rank panicked"));
        assert_eq!(finished.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn rank_panic_propagates() {
        let world = MpiWorld::new(ClusterConfig::zero_cost(2));
        let _ = world.run(|comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }
}
