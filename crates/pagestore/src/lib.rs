//! # pagestore — block storage devices as object-processes
//!
//! The paper's running example (§2–§3): a [`Page`] holds a block of
//! unstructured bytes; a [`PageDevice`] is a device-process storing
//! fixed-size pages at integer addresses; an [`ArrayPage`] is a page
//! reinterpreted as an `n1 × n2 × n3` block of doubles; and an
//! [`ArrayPageDevice`] is the **derived process** that stores array pages
//! and can run computations (like [`sum`](ArrayPageDeviceClient::sum))
//! next to the data. Its sub-box verbs take a page-local [`Domain`], the
//! §5 box type that `distarray` splits an array access with.
//!
//! Created remotely, a device is exactly the paper's listing:
//!
//! ```
//! use oopp::ClusterBuilder;
//! use pagestore::{Page, PageDevice, PageDeviceClient};
//!
//! let (cluster, mut driver) = ClusterBuilder::new(2)
//!     .register::<PageDevice>()
//!     .build();
//!
//! // PageDevice *PageStore = new(machine 1)
//! //     PageDevice("pagefile", NumberOfPages, PageSize);
//! let page_store =
//!     PageDeviceClient::new_on(&mut driver, 1, "pagefile".into(), 10, 1024, 0).unwrap();
//!
//! // Page *page = GenerateDataPage();  PageStore->write(page, 17);
//! let page = Page::generate(1024, 42);
//! page_store.write(&mut driver, 7, page.clone().into_bytes()).unwrap();
//! let back = Page::from_bytes(page_store.read(&mut driver, 7).unwrap());
//! assert_eq!(back, page);
//! cluster.shutdown(driver);
//! ```
//!
//! The last constructor argument (`0`) picks which of the hosting machine's
//! simulated disks backs the device — the paper's "each ArrayPageDevice …
//! assigned to a different hard drive" (§4).

pub mod array_device;
pub mod device;
pub mod domain;
pub mod page;

pub use array_device::{ArrayPageDevice, ArrayPageDeviceClient};
pub use device::{PageDevice, PageDeviceClient};
pub use domain::Domain;
pub use page::{ArrayPage, Page};

#[cfg(test)]
mod tests;
