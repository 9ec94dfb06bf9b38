//! # mplite — the message-passing baseline
//!
//! The paper positions object-oriented processes *against* hand-written
//! message passing ("Processes exchange information by executing methods on
//! remote objects rather than by passing messages", §2) and imitated its
//! framework "using standard C++ and several functions of the MPI 2.0
//! standard" (§1). To measure that comparison rather than assert it, this
//! crate is a small MPI: SPMD ranks over the **same** [`simnet`] substrate
//! the oopp runtime uses — identical link costs, identical disks — with
//! tagged point-to-point messages and the classic collectives.
//!
//! ```
//! use mplite::MpiWorld;
//! use simnet::ClusterConfig;
//!
//! let world = MpiWorld::new(ClusterConfig::zero_cost(4));
//! let (sums, _metrics) = world.run(|comm| {
//!     let mine = (comm.rank() + 1) as f64;
//!     comm.allreduce_f64(mine).unwrap()
//! });
//! assert_eq!(sums, vec![10.0; 4]);
//! ```

pub mod apps;
pub mod collectives;
pub mod comm;
pub mod world;

pub use comm::{Comm, MpError, MpResult};
pub use world::MpiWorld;
