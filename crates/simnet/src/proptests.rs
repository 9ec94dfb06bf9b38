//! Property tests for the substrate: cost-model arithmetic, topology
//! classification, metrics accounting, and disk allocation invariants.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use crate::config::{DiskConfig, NetCost};
use crate::disk::SimDisk;
use crate::metrics::Metrics;
use crate::time::transfer_time;
use crate::topology::TopologySpec;

proptest! {
    /// transfer_time is monotone in bytes and inversely monotone in rate.
    #[test]
    fn transfer_time_monotone(a in 0usize..1_000_000, b in 0usize..1_000_000,
                              rate in 1.0f64..1e12) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(transfer_time(lo, rate) <= transfer_time(hi, rate));
        prop_assert!(transfer_time(hi, rate * 2.0) <= transfer_time(hi, rate));
    }

    /// Uniform topology: loopback free, all distinct pairs equal.
    #[test]
    fn uniform_topology_is_uniform(src in 0usize..64, dst in 0usize..64,
                                   lat_us in 0u64..1000) {
        let t = TopologySpec::Uniform(NetCost::lan(lat_us, 1.0));
        let c = t.cost(src, dst);
        if src == dst {
            prop_assert!(c.is_zero());
        } else {
            prop_assert_eq!(c.latency, Duration::from_micros(lat_us));
            // Symmetric.
            prop_assert_eq!(t.cost(dst, src).latency, c.latency);
        }
    }

    /// Rack topology classifies by rack id, symmetrically.
    #[test]
    fn rack_topology_classifies(src in 0usize..64, dst in 0usize..64,
                                rack in 1usize..9) {
        let intra = NetCost::lan(5, 10.0);
        let inter = NetCost::lan(50, 1.0);
        let t = TopologySpec::Racks { rack_size: rack, intra, inter };
        let c = t.cost(src, dst);
        if src == dst {
            prop_assert!(c.is_zero());
        } else if src / rack == dst / rack {
            prop_assert_eq!(c.latency, intra.latency);
        } else {
            prop_assert_eq!(c.latency, inter.latency);
        }
        prop_assert_eq!(t.cost(dst, src).latency, c.latency);
    }

    /// Metrics deltas equal what was recorded between snapshots.
    #[test]
    fn metrics_deltas_add_up(sends in proptest::collection::vec((0usize..4, 1usize..5000), 0..20)) {
        let m = Metrics::new(4);
        let before = m.snapshot();
        let mut total_bytes = 0u64;
        for (src, bytes) in &sends {
            m.record_send(*src, *bytes);
            total_bytes += *bytes as u64;
        }
        let delta = m.snapshot().since(&before);
        prop_assert_eq!(delta.messages_sent, sends.len() as u64);
        prop_assert_eq!(delta.bytes_sent, total_bytes);
        prop_assert_eq!(delta.per_machine_sent.iter().sum::<u64>(), sends.len() as u64);
    }

    /// Disk allocations never overlap and never exceed capacity.
    #[test]
    fn disk_allocations_are_disjoint(sizes in proptest::collection::vec(1usize..4096, 1..32)) {
        let capacity = 64 << 10;
        let disk = SimDisk::new(DiskConfig::zero(), capacity, Arc::new(Metrics::new(0)));
        let mut regions: Vec<(usize, usize)> = Vec::new();
        for size in sizes {
            match disk.alloc(size) {
                Ok(base) => {
                    prop_assert!(base + size <= capacity);
                    for (b, s) in &regions {
                        prop_assert!(base >= b + s || base + size <= *b,
                            "regions overlap: ({base},{size}) vs ({b},{s})");
                    }
                    regions.push((base, size));
                }
                Err(_) => {
                    // Once full, must stay full for anything at least as big.
                    let used: usize = regions.iter().map(|(_, s)| s).sum();
                    prop_assert!(used + size > capacity);
                }
            }
        }
    }

    /// Writes to disjoint regions read back independently.
    #[test]
    fn disk_regions_are_independent(data_a in proptest::collection::vec(any::<u8>(), 1..256),
                                    data_b in proptest::collection::vec(any::<u8>(), 1..256)) {
        let disk = SimDisk::new(DiskConfig::zero(), 4096, Arc::new(Metrics::new(0)));
        let a = disk.alloc(data_a.len()).unwrap();
        let b = disk.alloc(data_b.len()).unwrap();
        disk.write(a, &data_a).unwrap();
        disk.write(b, &data_b).unwrap();
        let mut got_a = vec![0u8; data_a.len()];
        disk.read(a, &mut got_a).unwrap();
        let mut got_b = vec![0u8; data_b.len()];
        disk.read(b, &mut got_b).unwrap();
        prop_assert_eq!(got_a, data_a);
        prop_assert_eq!(got_b, data_b);
    }

    /// The cost honours the spec kind.
    #[test]
    fn build_matches_spec(lat in 0u64..100, rack in 1usize..5) {
        let uni = TopologySpec::Uniform(NetCost::lan(lat, 1.0));
        prop_assert_eq!(uni.cost(0, 1).latency, Duration::from_micros(lat));
        let racks = TopologySpec::Racks {
            rack_size: rack,
            intra: NetCost::zero(),
            inter: NetCost::lan(lat, 1.0),
        };
        prop_assert!(racks.cost(0, rack).latency >= racks.cost(0, 0).latency);
    }
}
