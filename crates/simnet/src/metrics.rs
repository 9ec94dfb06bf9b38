//! Cluster-wide counters.
//!
//! Experiments need more than wall-clock time: E5 ("the PageMap determines
//! the degree of parallelism") is answered by *which devices did work*, and
//! the RMI-vs-message-passing comparisons need message and byte counts to
//! show the two models generate the same traffic. All counters are relaxed
//! atomics — they are statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

/// What a row of the counter table is, by kind: its live and snapshot
/// types, a zeroed live cell for a cluster of `$n` machines, a copy of a
/// live cell, and the saturating difference of two copies.
macro_rules! cell {
    (live scalar) => { AtomicU64 };
    (live per_machine) => { Vec<AtomicU64> };
    (copy scalar) => { u64 };
    (copy per_machine) => { Vec<u64> };
    (new scalar $n:expr) => { AtomicU64::new(0) };
    (new per_machine $n:expr) => { (0..$n).map(|_| AtomicU64::new(0)).collect() };
    (load scalar $c:expr) => { $c.load(Ordering::Relaxed) };
    (load per_machine $c:expr) => { $c.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
    (since scalar $now:expr, $then:expr) => { $now.saturating_sub($then) };
    (since per_machine $now:expr, $then:expr) => {
        $now.iter()
            .enumerate()
            .map(|(i, &v)| v.saturating_sub($then.get(i).copied().unwrap_or(0)))
            .collect()
    };
}

/// The counter table: one row per counter, `scalar` (one cluster-wide
/// count) or `per_machine` (one count per endpoint). The `totals` above
/// the rows have no live counter: each is the sum of a `per_machine` row
/// of the same snapshot, so recording a packet bumps no cluster-wide
/// counter. From the table come the live [`Metrics`], its constructor, the
/// [`MetricsSnapshot`] copy and the snapshot difference — so a new counter
/// is one row plus the `record_*` that bumps it, and cannot be forgotten in
/// any of them.
macro_rules! metrics {
    (
        totals { $( $(#[$tdoc:meta])* $total:ident = $of:ident; )* }
        $( $(#[$doc:meta])* $kind:ident $name:ident; )*
    ) => {
        /// Live counters shared by every component of a cluster.
        #[derive(Debug)]
        pub struct Metrics {
            $( $name: cell!(live $kind), )*
        }

        /// Point-in-time copy of [`Metrics`], cheap to diff.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$tdoc])* pub $total: u64, )*
            $( $(#[$doc])* pub $name: cell!(copy $kind), )*
        }

        impl Metrics {
            /// Counters for a cluster of `machines` endpoints.
            pub fn new(machines: usize) -> Self {
                Metrics {
                    $( $name: cell!(new $kind machines), )*
                }
            }

            /// Copy every counter.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let mut snapshot = MetricsSnapshot {
                    $( $name: cell!(load $kind self.$name), )*
                    ..MetricsSnapshot::default()
                };
                $( snapshot.$total = snapshot.$of.iter().sum(); )*
                snapshot
            }
        }

        impl MetricsSnapshot {
            /// Counter-wise difference `self - earlier`: activity between
            /// two snapshots. Saturating, so a mismatched pair never
            /// underflows.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $total: self.$total.saturating_sub(earlier.$total), )*
                    $( $name: cell!(since $kind self.$name, earlier.$name), )*
                }
            }
        }
    };
}

metrics! {
    totals {
        /// Total messages injected into the network.
        messages_sent = per_machine_sent;
        /// Total payload bytes injected into the network.
        bytes_sent = per_machine_bytes_sent;
    }
    /// Messages sent, per source machine.
    per_machine per_machine_sent;
    /// Payload bytes injected, per source machine: a machine serving hot
    /// objects shows up here through its reply traffic even when its
    /// receive side is quiet.
    per_machine per_machine_bytes_sent;
    /// Messages delivered, per destination machine.
    per_machine per_machine_received;
    /// Payload bytes delivered, per destination machine. Under faults this
    /// diverges from a sender-side view: a machine behind a lossy or
    /// partitioned link *receives* fewer bytes than its peers sent it, and
    /// that asymmetry is only visible receiver-side.
    per_machine per_machine_bytes_received;
    /// Disk read operations across all disks.
    scalar disk_reads;
    /// Disk write operations across all disks.
    scalar disk_writes;
    /// Bytes read from disks.
    scalar disk_bytes_read;
    /// Bytes written to disks.
    scalar disk_bytes_written;
    /// Modeled disk busy time, summed over all disks, in nanoseconds.
    /// `disk_busy_nanos / wall_clock` estimates achieved I/O parallelism.
    scalar disk_busy_nanos;
    /// Packets that reached a NIC whose machine inbox was already gone
    /// (machine shut down mid-delivery).
    scalar deliveries_dropped;
    /// Packets dropped by the seeded [`FaultPlan`](crate::FaultPlan).
    scalar faults_dropped;
    /// Packets duplicated by the seeded fault plan.
    scalar faults_duplicated;
    /// Packets dropped because their (src, dst) pair was partitioned.
    scalar partition_dropped;
    /// Packets dropped because their source or destination was crashed.
    scalar crash_dropped;
    /// Packets delivered late because their destination was load-spiked
    /// (see [`FaultInjector::spike`](crate::FaultInjector::spike)).
    scalar spike_delayed;
}

impl Metrics {
    /// Record one message of `bytes` payload from `src`.
    pub fn record_send(&self, src: usize, bytes: usize) {
        if let Some(c) = self.per_machine_sent.get(src) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.per_machine_bytes_sent.get(src) {
            c.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Record one message of `bytes` payload delivered to `dst`.
    pub fn record_delivery(&self, dst: usize, bytes: usize) {
        if let Some(c) = self.per_machine_received.get(dst) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.per_machine_bytes_received.get(dst) {
            c.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Record a disk read of `bytes` that kept the device busy `busy_nanos`.
    pub fn record_disk_read(&self, bytes: usize, busy_nanos: u64) {
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        self.disk_bytes_read
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.disk_busy_nanos
            .fetch_add(busy_nanos, Ordering::Relaxed);
    }

    /// Record a packet whose destination inbox was gone at delivery time.
    pub fn record_delivery_dropped(&self) {
        self.deliveries_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a packet dropped by the seeded fault plan.
    pub fn record_fault_drop(&self) {
        self.faults_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a packet duplicated by the seeded fault plan.
    pub fn record_fault_dup(&self) {
        self.faults_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a packet dropped by a scripted partition.
    pub fn record_partition_drop(&self) {
        self.partition_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a packet dropped because a machine was crashed.
    pub fn record_crash_drop(&self) {
        self.crash_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a packet delivered late because its destination was
    /// load-spiked.
    pub fn record_spike_delay(&self) {
        self.spike_delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a disk write of `bytes` that kept the device busy `busy_nanos`.
    pub fn record_disk_write(&self, bytes: usize, busy_nanos: u64) {
        self.disk_writes.fetch_add(1, Ordering::Relaxed);
        self.disk_bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
        self.disk_busy_nanos
            .fetch_add(busy_nanos, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Total packets the fault layer removed from the fabric.
    pub fn total_fault_drops(&self) -> u64 {
        self.faults_dropped + self.partition_dropped + self.crash_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new(3);
        m.record_send(0, 100);
        m.record_send(0, 50);
        m.record_send(2, 7);
        m.record_delivery(1, 100);
        m.record_disk_read(4096, 1_000);
        m.record_disk_write(512, 2_000);

        let s = m.snapshot();
        assert_eq!(s.messages_sent, 3);
        assert_eq!(s.bytes_sent, 157);
        assert_eq!(s.per_machine_sent, vec![2, 0, 1]);
        assert_eq!(s.per_machine_bytes_sent, vec![150, 0, 7]);
        assert_eq!(s.per_machine_received, vec![0, 1, 0]);
        assert_eq!(s.per_machine_bytes_received, vec![0, 100, 0]);
        assert_eq!(s.disk_reads, 1);
        assert_eq!(s.disk_writes, 1);
        assert_eq!(s.disk_bytes_read, 4096);
        assert_eq!(s.disk_bytes_written, 512);
        assert_eq!(s.disk_busy_nanos, 3_000);
    }

    #[test]
    fn out_of_range_machine_ids_are_ignored() {
        let m = Metrics::new(1);
        // Machine 5 doesn't exist: no row counts it, and the totals are
        // the rows' sums.
        m.record_send(5, 10);
        m.record_delivery(9, 10);
        let s = m.snapshot();
        assert_eq!(s.messages_sent, 0);
        assert_eq!(s.per_machine_sent, vec![0]);
        assert_eq!(s.per_machine_bytes_received, vec![0]);
    }

    #[test]
    fn delivered_bytes_accumulate_per_machine() {
        let m = Metrics::new(2);
        m.record_delivery(0, 64);
        m.record_delivery(0, 36);
        m.record_delivery(1, 8);
        let s = m.snapshot();
        assert_eq!(s.per_machine_received, vec![2, 1]);
        assert_eq!(s.per_machine_bytes_received, vec![100, 8]);

        // And they diff like every other counter.
        let before = s;
        m.record_delivery(1, 5);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.per_machine_bytes_received, vec![0, 5]);
    }

    #[test]
    fn since_diffs_counters() {
        let m = Metrics::new(2);
        m.record_send(0, 10);
        let before = m.snapshot();
        m.record_send(1, 20);
        m.record_disk_read(1, 5);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.messages_sent, 1);
        assert_eq!(delta.bytes_sent, 20);
        assert_eq!(delta.per_machine_sent, vec![0, 1]);
        assert_eq!(delta.per_machine_bytes_sent, vec![0, 20]);
        assert_eq!(delta.disk_reads, 1);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = MetricsSnapshot {
            messages_sent: 1,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            messages_sent: 5,
            ..Default::default()
        };
        assert_eq!(a.since(&b).messages_sent, 0);
    }
}
