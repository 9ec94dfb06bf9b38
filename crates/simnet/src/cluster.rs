//! Cluster assembly: machines + network + disks + metrics in one handle.

use std::sync::Arc;

use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use crate::clock::Clock;
use crate::config::{ClusterConfig, TimeMode};
use crate::disk::SimDisk;
use crate::faults::{FaultInjector, FaultState};
use crate::message::{MachineId, Packet};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::network::Network;

/// A fully assembled simulated cluster.
///
/// The cluster owns the passive pieces — fabric, inboxes, disks, counters.
/// It deliberately does **not** own compute threads: the layer above (the
/// oopp runtime, or an mplite program) decides what runs on each machine and
/// claims that machine's inbox with [`take_inbox`](SimCluster::take_inbox).
pub struct SimCluster {
    config: ClusterConfig,
    network: Network,
    inboxes: Vec<Mutex<Option<Receiver<Packet>>>>,
    disks: Vec<Vec<Arc<SimDisk>>>,
    metrics: Arc<Metrics>,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("machines", &self.config.machines)
            .field("disks_per_machine", &self.config.disks_per_machine)
            .finish()
    }
}

impl SimCluster {
    /// Build a cluster from `config`.
    ///
    /// # Panics
    /// If `config` has no machines, or asks a real-time fabric to charge a
    /// link cost (see [`crate::network`]): everything costed runs
    /// `with_virtual_time`.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(config.machines > 0, "a cluster needs at least one machine");
        let clock = match config.time {
            TimeMode::Real => Clock::real(),
            TimeMode::Virtual { seed } => Clock::virtual_time(seed),
        };
        let metrics = Arc::new(Metrics::new(config.machines));
        let faults = Arc::new(FaultState::new(config.faults.clone(), config.machines));
        let (network, inbox_rxs) = Network::build(
            config.machines,
            config.link,
            metrics.clone(),
            faults,
            clock.clone(),
        );
        let inboxes = inbox_rxs
            .into_iter()
            .map(|rx| Mutex::new(Some(rx)))
            .collect();
        let disks = (0..config.machines)
            .map(|_| {
                (0..config.disks_per_machine)
                    .map(|_| {
                        Arc::new(SimDisk::with_clock(
                            config.disk,
                            config.disk_capacity,
                            metrics.clone(),
                            clock.clone(),
                        ))
                    })
                    .collect()
            })
            .collect();
        SimCluster {
            config,
            network,
            inboxes,
            disks,
            metrics,
        }
    }

    /// Number of machine endpoints.
    pub fn machines(&self) -> usize {
        self.config.machines
    }

    /// The configuration this cluster was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Sending handle into the fabric (cloneable).
    pub fn net(&self) -> &Network {
        &self.network
    }

    /// The cluster's time source (real or virtual; cloneable).
    pub fn clock(&self) -> &Clock {
        self.network.clock()
    }

    /// Claim machine `m`'s inbox. Each inbox can be claimed exactly once —
    /// one consumer loop per machine, per the paper's one-server-per-process
    /// model.
    ///
    /// # Panics
    /// If `m` is out of range or the inbox was already claimed.
    pub fn take_inbox(&self, m: MachineId) -> Receiver<Packet> {
        self.inboxes
            .get(m)
            .unwrap_or_else(|| panic!("no machine {m} in a cluster of {}", self.machines()))
            .lock()
            .take()
            .unwrap_or_else(|| panic!("inbox of machine {m} already claimed"))
    }

    /// The disks attached to machine `m`.
    pub fn disks(&self, m: MachineId) -> &[Arc<SimDisk>] {
        &self.disks[m]
    }

    /// One disk handle (machine `m`, disk `d`).
    pub fn disk(&self, m: MachineId, d: usize) -> Arc<SimDisk> {
        self.disks[m][d].clone()
    }

    /// Runtime handle for scripting partitions and machine crashes.
    pub fn faults(&self) -> FaultInjector {
        self.network.fault_injector()
    }

    /// Cluster-wide counters.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Convenience: snapshot the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of distinct disks that have performed at least one operation —
    /// the "degree of I/O parallelism" a data layout achieved (E5).
    pub fn active_disks(&self) -> usize {
        self.disks
            .iter()
            .flatten()
            .filter(|d| d.op_count() > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiskConfig;

    #[test]
    fn builds_machines_with_disks() {
        let c = SimCluster::new(ClusterConfig {
            disks_per_machine: 2,
            ..ClusterConfig::zero_cost(3)
        });
        assert_eq!(c.machines(), 3);
        assert_eq!(c.disks(0).len(), 2);
        assert_eq!(c.disk(2, 1).capacity(), c.config().disk_capacity);
    }

    #[test]
    fn send_and_receive_across_machines() {
        let c = SimCluster::new(ClusterConfig::zero_cost(2));
        let inbox = c.take_inbox(1);
        c.net().send(0, 1, b"page".to_vec()).unwrap();
        let pkt = inbox.recv().unwrap();
        assert_eq!(pkt.src, 0);
        assert_eq!(pkt.dst, 1);
        assert_eq!(pkt.payload, b"page");
    }

    #[test]
    #[should_panic(expected = "already claimed")]
    fn inbox_claimable_once() {
        let c = SimCluster::new(ClusterConfig::zero_cost(1));
        let _a = c.take_inbox(0);
        let _b = c.take_inbox(0);
    }

    #[test]
    #[should_panic(expected = "no machine")]
    fn out_of_range_inbox_panics() {
        let c = SimCluster::new(ClusterConfig::zero_cost(1));
        let _ = c.take_inbox(5);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_cluster_rejected() {
        let _ = SimCluster::new(ClusterConfig::zero_cost(0));
    }

    #[test]
    fn active_disks_counts_touched_devices() {
        let c = SimCluster::new(ClusterConfig {
            disk: DiskConfig::zero(),
            disk_capacity: 1024,
            ..ClusterConfig::zero_cost(4)
        });
        assert_eq!(c.active_disks(), 0);
        c.disk(0, 0).write(0, &[1]).unwrap();
        c.disk(2, 0).write(0, &[1]).unwrap();
        c.disk(2, 0).write(8, &[1]).unwrap(); // same disk again
        assert_eq!(c.active_disks(), 2);
    }

    #[test]
    fn disks_are_independent_per_machine() {
        let c = SimCluster::new(ClusterConfig {
            disk_capacity: 64,
            ..ClusterConfig::zero_cost(2)
        });
        c.disk(0, 0).write(0, &[7]).unwrap();
        let mut buf = [0u8; 1];
        c.disk(1, 0).read(0, &mut buf).unwrap();
        assert_eq!(buf[0], 0, "machine 1's disk must not see machine 0's write");
    }

    #[test]
    fn metrics_flow_through_cluster() {
        let c = SimCluster::new(ClusterConfig::zero_cost(2));
        let inbox = c.take_inbox(0);
        c.net().send(1, 0, vec![0u8; 3]).unwrap();
        inbox.recv().unwrap();
        c.disk(0, 0).write(0, &[1, 2]).unwrap();
        let s = c.snapshot();
        assert_eq!(s.messages_sent, 1);
        assert_eq!(s.bytes_sent, 3);
        assert_eq!(s.disk_writes, 1);
        assert_eq!(s.disk_bytes_written, 2);
    }
}
