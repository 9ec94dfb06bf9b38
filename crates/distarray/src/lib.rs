//! # distarray — the paper's §5 distributed Array system
//!
//! A three-dimensional array of doubles "that requires a large number of
//! hardware devices for its storage", built from:
//!
//! * [`Domain`] — half-open index boxes (`read`/`write`/`sum` operate on
//!   these), defined in `pagestore`, whose devices take the page-local
//!   boxes an access splits into;
//! * [`PageMap`] — the layout: which device, which slot, for every page;
//!   four strategies ([round-robin](PageMap::round_robin),
//!   [blocked](PageMap::blocked), [hashed](PageMap::hashed),
//!   [z-curve](PageMap::zcurve)) whose I/O-parallelism differences are
//!   experiment E5;
//! * [`BlockStorage`] — the `ArrayPageDevice` processes, one per disk;
//! * [`Array`] — the client handle assembling sub-arrays from page
//!   fragments, with device-side (`sum`) and client-side
//!   (`sum_by_moving_data`) reductions;
//! * [`ArrayWorker`]/[`parallel_sum`] — multiple coordinating Array
//!   clients deployed in parallel.
//!
//! ```
//! use distarray::{Array, BlockStorage, Domain, PageMap, register_classes};
//! use oopp::ClusterBuilder;
//!
//! let (cluster, mut driver) = register_classes(ClusterBuilder::new(2)).build();
//!
//! // 8x8x8 array in 4x4x4 pages over 2 devices.
//! let storage = BlockStorage::create(&mut driver, "a", 2, 4, 4, 4, 4, 1).unwrap();
//! let map = PageMap::round_robin([2, 2, 2], 2);
//! let array = Array::new([8, 8, 8], [4, 4, 4], storage, map).unwrap();
//!
//! let d = Domain::new(2, 6, 2, 6, 2, 6);
//! array.fill(&mut driver, &d, 1.0).unwrap();
//! assert_eq!(array.sum(&mut driver, &array.whole()).unwrap(), 64.0);
//! cluster.shutdown(driver);
//! ```

pub mod array;
pub mod pagemap;
pub mod parallel;
pub mod storage;

pub use array::Array;
pub use pagemap::{MapKind, PageAddress, PageMap};
pub use pagestore::Domain;
pub use parallel::{parallel_sum, ArrayWorker, ArrayWorkerClient};
pub use storage::{register_classes, BlockStorage};

#[cfg(test)]
mod tests;
