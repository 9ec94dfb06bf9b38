//! Network topologies: which cost a message pays depends on which link it
//! crosses.

use crate::config::NetCost;
use crate::message::MachineId;

/// The links of a cluster. Machines grouped into racks model the two-level
/// networks the paper's petascale array (§5, hundreds of drives on multiple
/// nodes) would live on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Every pair of distinct machines shares one [`NetCost`]; loopback
    /// (src == dst) is free.
    Uniform(NetCost),
    /// Machines grouped into racks of `rack_size`; intra-rack links use
    /// `intra`, inter-rack links use `inter`.
    Racks {
        rack_size: usize,
        intra: NetCost,
        inter: NetCost,
    },
}

impl TopologySpec {
    /// True if no link in this topology ever charges anything (lets the
    /// cluster skip delivery threads entirely).
    pub fn is_zero(&self) -> bool {
        match self {
            TopologySpec::Uniform(c) => c.is_zero(),
            TopologySpec::Racks { intra, inter, .. } => intra.is_zero() && inter.is_zero(),
        }
    }

    /// Cost of one message from `src` to `dst`; loopback is free. Pure and
    /// cheap: it is called once per message on the send path.
    ///
    /// # Panics
    /// If a rack topology has `rack_size == 0`.
    pub fn cost(&self, src: MachineId, dst: MachineId) -> NetCost {
        if src == dst {
            return NetCost::zero();
        }
        match *self {
            TopologySpec::Uniform(cost) => cost,
            TopologySpec::Racks {
                rack_size,
                intra,
                inter,
            } => {
                assert!(rack_size > 0, "rack_size must be positive");
                if src / rack_size == dst / rack_size {
                    intra
                } else {
                    inter
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn uniform_charges_distinct_pairs_only() {
        let t = TopologySpec::Uniform(NetCost::lan(10, 1.0));
        assert!(t.cost(3, 3).is_zero(), "loopback must be free");
        assert_eq!(t.cost(0, 1).latency, Duration::from_micros(10));
        assert_eq!(t.cost(1, 0).latency, Duration::from_micros(10));
        assert!(!t.is_zero());
    }

    #[test]
    fn zero_uniform_reports_zero() {
        assert!(TopologySpec::Uniform(NetCost::zero()).is_zero());
    }

    #[test]
    fn racks_distinguish_intra_and_inter() {
        let t = TopologySpec::Racks {
            rack_size: 4,
            intra: NetCost::lan(5, 10.0),
            inter: NetCost::lan(50, 1.0),
        };
        // Machines 0-3 are rack 0; 4-7 rack 1.
        assert_eq!(t.cost(0, 3).latency, Duration::from_micros(5));
        assert_eq!(t.cost(0, 4).latency, Duration::from_micros(50));
        assert_eq!(t.cost(7, 4).latency, Duration::from_micros(5));
        assert!(t.cost(6, 6).is_zero());
        // Machine 11 lives in rack 2 (machines 8-11).
        assert_eq!(t.cost(11, 8).latency, Duration::from_micros(5));
        assert_eq!(t.cost(11, 7).latency, Duration::from_micros(50));
    }

    #[test]
    #[should_panic(expected = "rack_size")]
    fn zero_rack_size_panics() {
        let t = TopologySpec::Racks {
            rack_size: 0,
            intra: NetCost::zero(),
            inter: NetCost::zero(),
        };
        let _ = t.cost(0, 1);
    }

    #[test]
    fn build_dispatches_on_spec() {
        let t = TopologySpec::Uniform(NetCost::zero());
        assert!(t.is_zero());
        let t = TopologySpec::Racks {
            rack_size: 2,
            intra: NetCost::zero(),
            inter: NetCost::lan(1, 1.0),
        };
        assert!(!t.is_zero());
        assert!(t.cost(0, 1).is_zero());
        assert!(!t.cost(0, 2).is_zero());
    }
}
