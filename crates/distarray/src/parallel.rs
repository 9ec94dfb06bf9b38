//! Parallel Array clients (§5): "an application may deploy multiple
//! coordinating Array client processes in parallel".
//!
//! An [`ArrayWorker`] is an object-process holding an [`Array`] handle
//! (handles are wire-encodable, so shipping one to a worker is just a
//! constructor argument). The driver splits a domain into slabs, assigns
//! one slab per worker, and each worker performs its portion — its page
//! I/O fanning out to the devices from *its* machine, concurrently with
//! every other worker.

use oopp::{issue_each, join, remote_class, NodeCtx, ProcessGroup, RemoteError, RemoteResult};
use pagestore::Domain;

use crate::array::Array;

/// Server state: an Array client living on a worker machine.
#[derive(Debug)]
pub struct ArrayWorker {
    array: Array,
}

remote_class! {
    /// Remote pointer to an [`ArrayWorker`].
    class ArrayWorker {
        ctor(array: Array);
        /// Sum the slab (device-side partial sums, combined by this worker).
        fn sum(&mut self, domain: Domain) -> f64;
        /// Read the slab and return a checksum (exercises the read path
        /// without shipping the slab back to the driver).
        fn read_checksum(&mut self, domain: Domain) -> f64;
    }
}

impl ArrayWorker {
    fn new(_ctx: &mut NodeCtx, array: Array) -> RemoteResult<Self> {
        Ok(ArrayWorker { array })
    }

    fn sum(&mut self, ctx: &mut NodeCtx, domain: Domain) -> RemoteResult<f64> {
        self.array.sum(ctx, &domain)
    }

    fn read_checksum(&mut self, ctx: &mut NodeCtx, domain: Domain) -> RemoteResult<f64> {
        let data = self.array.read(ctx, &domain)?;
        // Position-weighted checksum: order-sensitive, so layout bugs show.
        Ok(data
            .iter()
            .enumerate()
            .map(|(i, v)| v * (1.0 + (i % 97) as f64))
            .sum())
    }
}

/// Sum `domain` with `clients` parallel Array workers dealt over the worker
/// machines: create, split, sum, destroy. Returns the total.
pub fn parallel_sum(
    ctx: &mut NodeCtx,
    array: &Array,
    domain: &Domain,
    clients: usize,
) -> RemoteResult<f64> {
    if clients == 0 {
        return Err(RemoteError::app("need at least one client"));
    }
    let workers = ctx.workers();
    let pending_workers = issue_each(ctx, 0..clients, |ctx, i| {
        ArrayWorkerClient::new_on_async(ctx, i % workers, array.clone())
    })?;
    let group: ProcessGroup<ArrayWorkerClient> =
        ProcessGroup::from_members(oopp::join_clients(ctx, pending_workers)?);
    let slabs = domain.split_axis0(clients as u64);
    // Send loop: one slab per worker (extra workers idle if the domain is
    // shallow); receive loop: combine.
    let pendings = issue_each(ctx, slabs.iter().enumerate(), |ctx, (i, slab)| {
        group.member(i % group.len()).sum_async(ctx, *slab)
    })?;
    let total: f64 = join(ctx, pendings)?.into_iter().sum();
    group.destroy(ctx)?;
    Ok(total)
}
