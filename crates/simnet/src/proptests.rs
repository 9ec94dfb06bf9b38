//! Property tests for the substrate: cost-model arithmetic, the link's
//! charge, metrics accounting, and disk allocation invariants.

use std::sync::Arc;
use std::time::Duration;

use crate::clock::Clock;
use crate::config::{DiskConfig, NetCost};
use crate::disk::SimDisk;
use crate::faults::{FaultPlan, FaultState};
use crate::metrics::Metrics;
use crate::network::Network;
use crate::sweep::cases;
use crate::time::transfer_time;

/// transfer_time is monotone in bytes and inversely monotone in rate.
#[test]
fn transfer_time_monotone() {
    cases("transfer_time_monotone", 64, |c| {
        let (a, b) = (c.range(0usize..1_000_000), c.range(0usize..1_000_000));
        let rate = c.range(1.0..1e12);
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(transfer_time(lo, rate) <= transfer_time(hi, rate));
        assert!(transfer_time(hi, rate * 2.0) <= transfer_time(hi, rate));
    });
}

/// One link: a message between distinct machines pays its latency in
/// either direction; loopback is free.
#[test]
fn uniform_topology_is_uniform() {
    cases("uniform_topology_is_uniform", 64, |c| {
        let (src, dst) = (c.range(0usize..8), c.range(0usize..8));
        let latency = Duration::from_micros(c.range(0u64..1000));
        let landed = |from: usize, to: usize| {
            let link = NetCost {
                latency,
                bytes_per_sec: f64::INFINITY,
            };
            let (net, _inboxes) = Network::build(
                8,
                link,
                Arc::new(Metrics::new(8)),
                Arc::new(FaultState::new(FaultPlan::none(), 8)),
                Clock::virtual_time(1),
            );
            // No registered actors: the send runs the event loop itself.
            net.send(from, to, vec![0]).unwrap();
            net.clock().now_nanos()
        };
        let expect = if src == dst {
            0
        } else {
            latency.as_nanos() as u64
        };
        assert_eq!(landed(src, dst), expect);
        assert_eq!(landed(dst, src), expect);
    });
}

/// Metrics deltas equal what was recorded between snapshots.
#[test]
fn metrics_deltas_add_up() {
    cases("metrics_deltas_add_up", 64, |c| {
        let sends = c.vec(0..20, |c| (c.range(0usize..4), c.range(1usize..5000)));
        let m = Metrics::new(4);
        let before = m.snapshot();
        let mut total_bytes = 0u64;
        for (src, bytes) in &sends {
            m.per_machine_sent.add(*src, 1);
            m.per_machine_bytes_sent.add(*src, *bytes as u64);
            total_bytes += *bytes as u64;
        }
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.messages_sent, sends.len() as u64);
        assert_eq!(delta.bytes_sent, total_bytes);
        assert_eq!(
            delta.per_machine_sent.iter().sum::<u64>(),
            sends.len() as u64
        );
    });
}

/// Disk allocations never overlap and never exceed capacity.
#[test]
fn disk_allocations_are_disjoint() {
    cases("disk_allocations_are_disjoint", 64, |c| {
        let sizes = c.vec(1..32, |c| c.range(1usize..4096));
        let capacity = 64 << 10;
        let disk = SimDisk::new(DiskConfig::zero(), capacity, Arc::new(Metrics::new(0)));
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for size in sizes {
            match disk.alloc(size) {
                Ok(base) => {
                    assert!(base + size <= capacity);
                    for (b, s) in &regions {
                        assert!(
                            base >= b + s || base + size <= *b,
                            "regions overlap: ({base},{size}) vs ({b},{s})"
                        );
                    }
                    regions.push((base, size));
                }
                Err(_) => {
                    // Once full, must stay full for anything at least as big.
                    let used: usize = regions.iter().map(|(_, s)| s).sum();
                    assert!(used + size > capacity);
                }
            }
        }
    });
}

/// Writes to disjoint regions read back independently.
#[test]
fn disk_regions_are_independent() {
    cases("disk_regions_are_independent", 64, |c| {
        let (data_a, data_b) = (c.bytes(1..256), c.bytes(1..256));
        let disk = SimDisk::new(DiskConfig::zero(), 4096, Arc::new(Metrics::new(0)));
        let a = disk.alloc(data_a.len()).unwrap();
        let b = disk.alloc(data_b.len()).unwrap();
        disk.write(a, &data_a).unwrap();
        disk.write(b, &data_b).unwrap();
        let mut got_a = vec![0u8; data_a.len()];
        disk.read(a, &mut got_a).unwrap();
        let mut got_b = vec![0u8; data_b.len()];
        disk.read(b, &mut got_b).unwrap();
        assert_eq!(got_a, data_a);
        assert_eq!(got_b, data_b);
    });
}
