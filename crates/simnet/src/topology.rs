//! Which cost a message pays: a cluster has one link, paid between
//! distinct machines; loopback is free.

use crate::config::NetCost;
use crate::message::MachineId;

/// Cost of one message from `src` to `dst` on a cluster whose machines
/// share `link`; loopback is free. Pure and cheap: the virtual route calls
/// it once per message.
pub(crate) fn cost(link: NetCost, src: MachineId, dst: MachineId) -> NetCost {
    if src == dst {
        NetCost::zero()
    } else {
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn uniform_charges_distinct_pairs_only() {
        let link = NetCost::lan(10, 1.0);
        assert!(cost(link, 3, 3).is_zero(), "loopback must be free");
        assert_eq!(cost(link, 0, 1).latency, Duration::from_micros(10));
        assert_eq!(cost(link, 1, 0).latency, Duration::from_micros(10));
        assert!(!cost(link, 0, 1).is_zero());
    }

    #[test]
    fn zero_uniform_reports_zero() {
        assert!(cost(NetCost::zero(), 0, 1).is_zero());
    }
}
