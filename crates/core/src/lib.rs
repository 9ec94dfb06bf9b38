//! # oopp — Object-Oriented Parallel Programming
//!
//! A Rust implementation of the framework from *"Object-Oriented Parallel
//! Programming"* (E. Givelberg): **programming objects interpreted as
//! processes**. A parallel program is a collection of persistent processes
//! that communicate by executing remote methods; the protocol work the
//! paper assigns to a compiler is performed here by the
//! [`remote_class!`] macro, and the cluster of machines is simulated by the
//! [`simnet`] substrate (thread-per-machine with an explicit communication
//! cost model).
//!
//! ## The paper's constructs, mapped
//!
//! | Paper (§) | Here |
//! |---|---|
//! | `new(machine 1) PageDevice(...)` (§2) | `PageDeviceClient::new_on(&mut driver, 1, ...)` |
//! | remote method call, sequential semantics (§2) | `client.method(&mut ctx, args)` — blocks until complete |
//! | `new(machine 2) double[1024]`, `data[7] = 3.1415` (§2) | [`DoubleBlockClient`] `::new_on`, `.set`, `.get` |
//! | `delete ptr` terminates the process (§2) | `client.destroy(&mut ctx)` |
//! | process inheritance (§3) | `remote_class!(class Derived: Base { ... })` — name-based dispatch falls through to the base, so base-typed pointers work on derived objects (the control plane's own [`DirShard`] is-a [`Directory`]) |
//! | compiler loop-splitting (§4) | `client.method_async(...)` → [`Pending`], [`join`], [`ProcessGroup::par_each`] |
//! | `fft->barrier()` (§4) | [`BarrierClient`], [`ProcessGroup`] |
//! | persistent processes, symbolic addresses (§5) | [`NodeCtx::deactivate`]/[`NodeCtx::activate`], [`naming::Directory`] with `oopp://…` names — root only by default, partitioned over shards by [`ClusterBuilder::dir_shards`] |
//!
//! ## Quick start
//!
//! ```
//! use oopp::{ClusterBuilder, DoubleBlockClient};
//!
//! // "Multiple computers machine 0, machine 1, ... are available."
//! let (cluster, mut driver) = ClusterBuilder::new(3).build();
//!
//! // double *data = new(machine 2) double[1024];
//! let data = DoubleBlockClient::new_on(&mut driver, 2, 1024).unwrap();
//!
//! // data[7] = 3.1415;  double x = data[2];
//! data.set(&mut driver, 7, 3.1415).unwrap();
//! let x = data.get(&mut driver, 2).unwrap();
//! assert_eq!(x, 0.0);
//! assert_eq!(data.get(&mut driver, 7).unwrap(), 3.1415);
//!
//! // delete data;  -- destruction terminates the remote process
//! data.destroy(&mut driver).unwrap();
//! cluster.shutdown(driver);
//! ```

#[macro_use]
pub mod macros;

pub mod array;
pub(crate) mod dedup;
pub mod error;
pub mod frame;
pub mod future;
pub mod group;
pub mod ids;
pub mod naming;
pub mod node;
pub mod policy;
pub mod process;
pub mod runtime;
pub(crate) mod shared;
pub mod trace;

pub use array::{DoubleBlock, DoubleBlockClient};
pub use error::{RemoteError, RemoteResult};
pub use frame::{Body, MigrationPayload, NodeStats, ReplicaStatus};
pub use future::{issue_each, join, join_clients, Issued, Pending, PendingClient};
pub use group::{Barrier, BarrierClient, ProcessGroup};
pub use ids::{ObjRef, ObjectId, DAEMON};
pub use naming::{
    migrate_bound, resolve_or_activate, resolve_or_activate_supervised, shard_addr, shard_of_name,
    symbolic_addr, DirShard, DirShardClient, Directory, DirectoryClient, NameService, Takeover,
    DIRSVC_PREFIX,
};
pub use node::{CallInfo, NodeCtx, DEFAULT_TIMEOUT};
pub use policy::{Backoff, BreakerConfig, CallPolicy, OverloadConfig};
pub use process::{ClassRegistry, DispatchResult, RemoteClient, ServerClass, ServerObject};
pub use runtime::{Cluster, ClusterBuilder, Driver};
pub use simnet::PacketBytes;
pub use trace::{
    EventKind, MethodStats, Recorder, Rule, SpanEvent, Trace, TraceCtx, Violation,
    DEFAULT_TRACE_CAPACITY,
};

// Re-exported for macro expansion and downstream convenience.
pub use paste;
pub use simnet;
pub use wire;

#[cfg(test)]
mod tests;
