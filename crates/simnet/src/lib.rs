//! # simnet — a simulated cluster for the oopp runtime
//!
//! The paper ("Object-Oriented Parallel Programming") assumes a pool of
//! machines — `machine 0`, `machine 1`, … — each with a network interface
//! and locally attached disks. This crate is that substrate, scaled to a
//! single host: each simulated **machine** is an endpoint with an inbox
//! served by an OS thread (the oopp runtime supplies the thread), every
//! **message** pays an explicit `latency + bytes/bandwidth` cost on its
//! link, and every **disk** operation pays `seek + bytes/rate`, serialized
//! per device.
//!
//! The cost model is the point: the paper's claims are all statements about
//! communication structure — round trips, overlap, data movement — and those
//! become *measurable* once messages and disk operations have explicit,
//! configurable costs. Tests run with [`ClusterConfig::zero_cost`] (as fast
//! as channels); experiments run with microsecond-scale costs on the
//! virtual clock, where the paper's shapes come out exact and repeatable.
//!
//! Each mechanism is written once. Time is one [`Clock`] per cluster —
//! wall-clock, or a seeded discrete-event simulation that replays bit for
//! bit — and everything that waits, charges a delay or stamps an event
//! does it on that clock, through one blocking receive and one sleep. A
//! cluster has one link cost, [`ClusterConfig::link`], paid between distinct
//! machines and not on loopback; when a packet lands is one
//! function, charged on the virtual clock only (a real-time fabric
//! delivers directly and refuses a cost it could not charge); a disk
//! queues its ops behind one watermark on either clock; the counters are
//! one table ([`metrics`]); every seeded draw is one hash, and every
//! randomized test draws its cases from one runner ([`sweep`]); every
//! `Duration` becomes clock nanos in one saturating conversion
//! ([`time::after`]).
//!
//! ```
//! use simnet::{ClusterConfig, SimCluster};
//!
//! // Four machines, free network (unit tests).
//! let cluster = SimCluster::new(ClusterConfig::zero_cost(4));
//! let inbox = cluster.take_inbox(1);
//! cluster.net().send(0, 1, b"hello".to_vec());
//! let pkt = inbox.recv().unwrap();
//! assert_eq!(pkt.src, 0);
//! assert_eq!(pkt.payload, b"hello");
//! ```

pub mod clock;
pub mod cluster;
pub mod config;
pub mod disk;
pub mod faults;
pub mod message;
pub mod metrics;
pub mod network;
pub mod sweep;
pub mod time;
mod topology;

pub use clock::{ActorSeat, Clock, ClockRecvError, SimSchedule, WORKER_LABEL_BASE};
pub use cluster::SimCluster;
pub use config::{ClusterConfig, DiskConfig, NetCost, TimeMode};
pub use disk::SimDisk;
pub use faults::{FaultInjector, FaultPlan};
pub use message::{MachineId, Packet, PacketBytes, Spare};
pub use metrics::{Metrics, MetricsSnapshot};
pub use network::Network;

#[cfg(test)]
mod proptests;
