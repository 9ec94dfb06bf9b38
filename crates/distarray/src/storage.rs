//! Block storage — "a BlockStorage object represents the available hardware
//! storage, where array data pages are stored" (§5).

use oopp::{issue_each, join_clients, NodeCtx, RemoteError, RemoteResult};
use pagestore::{ArrayPageDevice, ArrayPageDeviceClient};
use wire::Wire;

/// The collection of [`ArrayPageDevice`] processes backing one distributed
/// array — the paper's `typedef vector<ArrayPageDevice*> BlockStorage`.
///
/// The paper's guidance, "each ArrayPageDevice process of the BlockStorage
/// object should be assigned to a different hard disk", is what
/// [`BlockStorage::create`] does: devices are dealt over `(machine, disk)`
/// pairs so no two devices share a spindle.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStorage {
    devices: Vec<ArrayPageDeviceClient>,
}

impl Wire for BlockStorage {
    fn encode(&self, w: &mut wire::Writer) {
        self.devices.encode(w);
    }
    fn decode(r: &mut wire::Reader<'_>) -> wire::WireResult<Self> {
        Ok(BlockStorage {
            devices: Vec::decode(r)?,
        })
    }
}

impl BlockStorage {
    /// Wrap existing device clients.
    pub fn from_devices(devices: Vec<ArrayPageDeviceClient>) -> Self {
        BlockStorage { devices }
    }

    /// Create `device_count` array page devices of `pages_per_device` pages
    /// of shape `n1 × n2 × n3`, dealt round-robin over the cluster's
    /// machines and each machine's disks, **in parallel** (§4 split loop
    /// applied to construction).
    ///
    /// Device `d` lands on machine `d % workers`, disk
    /// `(d / workers) % disks_per_machine`. Creating more devices than
    /// `(machine, disk)` pairs is allowed but devices then share disks.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        ctx: &mut NodeCtx,
        name: &str,
        device_count: usize,
        pages_per_device: u64,
        n1: u64,
        n2: u64,
        n3: u64,
        disks_per_machine: usize,
    ) -> RemoteResult<Self> {
        if device_count == 0 {
            return Err(RemoteError::app("BlockStorage needs at least one device"));
        }
        if disks_per_machine == 0 {
            return Err(RemoteError::app("disks_per_machine must be positive"));
        }
        let workers = ctx.workers();
        let pendings = issue_each(ctx, 0..device_count, |ctx, d| {
            let machine = d % workers;
            let disk = (d / workers) % disks_per_machine;
            ArrayPageDeviceClient::new_on_async(
                ctx,
                machine,
                format!("{name}.{d}"),
                pages_per_device,
                n1,
                n2,
                n3,
                disk,
                None,
            )
        })?;
        Ok(BlockStorage {
            devices: join_clients(ctx, pendings)?,
        })
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when the storage has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `id` (the `device_id` of a
    /// [`PageAddress`](crate::PageAddress)).
    pub fn device(&self, id: usize) -> &ArrayPageDeviceClient {
        &self.devices[id]
    }

    /// All devices.
    pub fn devices(&self) -> &[ArrayPageDeviceClient] {
        &self.devices
    }

    /// Destroy every device process (in parallel).
    pub fn destroy(self, ctx: &mut NodeCtx) -> RemoteResult<()> {
        let devices = self.devices.iter().map(oopp::RemoteClient::obj_ref);
        let pendings = issue_each(ctx, devices, |ctx, d| ctx.start_destroy(d))?;
        oopp::join(ctx, pendings)?;
        Ok(())
    }
}

/// Registration helper: every class a cluster must know to host block
/// storage and parallel array clients.
pub fn register_classes(builder: oopp::ClusterBuilder) -> oopp::ClusterBuilder {
    builder
        .register::<pagestore::PageDevice>()
        .register::<ArrayPageDevice>()
        .register::<crate::parallel::ArrayWorker>()
}
