//! Cluster, network, and disk configuration.

use std::time::Duration;

use crate::faults::FaultPlan;

/// Cost of sending one message over one link. A cluster has one: every
/// pair of distinct machines pays it, and loopback (src == dst) is free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetCost {
    /// One-way propagation latency (paid once per message, overlappable
    /// across concurrent messages).
    pub latency: Duration,
    /// Link bandwidth in bytes per second; transfers to the same receiver
    /// serialize against each other. `f64::INFINITY` disables the charge.
    pub bytes_per_sec: f64,
}

impl NetCost {
    /// A free link (tests).
    pub const fn zero() -> Self {
        NetCost {
            latency: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
        }
    }

    /// True if messages on this link cost nothing.
    pub fn is_zero(&self) -> bool {
        self.latency.is_zero() && !self.bytes_per_sec.is_finite()
    }

    /// A typical commodity-cluster link: `latency_us` microseconds one-way,
    /// `gbps` gigabits per second.
    pub fn lan(latency_us: u64, gbps: f64) -> Self {
        NetCost {
            latency: Duration::from_micros(latency_us),
            bytes_per_sec: gbps * 1e9 / 8.0,
        }
    }
}

/// Performance model of one simulated disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskConfig {
    /// Fixed positioning cost per operation.
    pub seek: Duration,
    /// Sequential transfer rate in bytes per second; `f64::INFINITY`
    /// disables the charge.
    pub bytes_per_sec: f64,
}

impl DiskConfig {
    /// Free disk (tests).
    pub const fn zero() -> Self {
        DiskConfig {
            seek: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
        }
    }

    /// True if operations on this disk cost nothing.
    pub fn is_zero(&self) -> bool {
        self.seek.is_zero() && !self.bytes_per_sec.is_finite()
    }

    /// A fast NVMe-class device: ~20µs access, ~3 GB/s transfer.
    pub fn nvme() -> Self {
        DiskConfig {
            seek: Duration::from_micros(20),
            bytes_per_sec: 3e9,
        }
    }
}

/// Which time backend a cluster runs on (see [`crate::Clock`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimeMode {
    /// Wall-clock time (the default), for fabrics with nothing to charge:
    /// a cluster with a costed link must be [`Virtual`](TimeMode::Virtual).
    #[default]
    Real,
    /// Deterministic discrete-event virtual time, seeded. Modeled delays
    /// are charged logically and a run's event order is a replayable
    /// function of this seed (see [`crate::SimSchedule`]).
    Virtual {
        /// Seed for the event-order tiebreak.
        seed: u64,
    },
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machine endpoints (the oopp runtime typically asks for
    /// `workers + 1`, reserving the last id for the driver).
    pub machines: usize,
    /// What a message between two distinct machines costs.
    pub link: NetCost,
    /// Performance model for each disk.
    pub disk: DiskConfig,
    /// Locally attached disks per machine.
    pub disks_per_machine: usize,
    /// Capacity of each disk in bytes.
    pub disk_capacity: usize,
    /// Seeded fault-injection plan ([`FaultPlan::none`] by default).
    pub faults: FaultPlan,
    /// Time backend: real wall clock (default) or deterministic virtual
    /// time.
    pub time: TimeMode,
}

impl ClusterConfig {
    /// `n` machines, free network, one free disk each — the deterministic
    /// configuration unit tests use.
    pub fn zero_cost(n: usize) -> Self {
        ClusterConfig {
            machines: n,
            link: NetCost::zero(),
            disk: DiskConfig::zero(),
            disks_per_machine: 1,
            disk_capacity: 64 << 20,
            faults: FaultPlan::none(),
            time: TimeMode::Real,
        }
    }

    /// `n` machines on a uniform costed network. Costs are charged on the
    /// virtual clock: follow with
    /// [`with_virtual_time`](ClusterConfig::with_virtual_time).
    pub fn lan(n: usize, latency_us: u64, gbps: f64) -> Self {
        ClusterConfig {
            machines: n,
            link: NetCost::lan(latency_us, gbps),
            disk: DiskConfig::zero(),
            disks_per_machine: 1,
            disk_capacity: 64 << 20,
            faults: FaultPlan::none(),
            time: TimeMode::Real,
        }
    }

    /// Override the fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Run on deterministic virtual time with this schedule seed (builder
    /// style).
    pub fn with_virtual_time(mut self, seed: u64) -> Self {
        self.time = TimeMode::Virtual { seed };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_configs_report_zero() {
        assert!(NetCost::zero().is_zero());
        assert!(DiskConfig::zero().is_zero());
        assert!(ClusterConfig::zero_cost(4).link.is_zero());
    }

    #[test]
    fn lan_cost_converts_units() {
        let c = NetCost::lan(50, 8.0); // 8 Gb/s = 1 GB/s
        assert_eq!(c.latency, Duration::from_micros(50));
        assert!((c.bytes_per_sec - 1e9).abs() < 1.0);
        assert!(!c.is_zero());
    }

    #[test]
    fn disk_presets_are_costed() {
        assert!(!DiskConfig::nvme().is_zero());
        assert!(DiskConfig::zero().seek < DiskConfig::nvme().seek);
    }

    #[test]
    fn time_mode_builders() {
        let c = ClusterConfig::zero_cost(2);
        assert_eq!(c.time, TimeMode::Real);
        let c = ClusterConfig::lan(2, 50, 1.0);
        assert_eq!(c.time, TimeMode::Real);
        let c = c.with_virtual_time(42);
        assert_eq!(c.time, TimeMode::Virtual { seed: 42 });
    }
}
