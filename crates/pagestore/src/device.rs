//! `PageDevice`: the paper's block storage device as an object-process.

use std::sync::Arc;

use oopp::{remote_class, NodeCtx, RemoteError, RemoteResult};
use simnet::SimDisk;
use wire::collections::Bytes;
use wire::wire_struct;

/// Server state of a page device (§2).
///
/// The paper's implementation "creates a file filename of NumberOfPages *
/// PageSize bytes"; here the file is a region of one of the hosting
/// machine's simulated disks, so reads and writes pay realistic positioning
/// and transfer costs and devices on *different* disks operate in parallel
/// (§4).
pub struct PageDevice {
    filename: String,
    number_of_pages: u64,
    pub(crate) page_size: u64,
    disk_index: usize,
    /// Base offset of this device's region on the shared disk.
    base: usize,
    disk: Arc<SimDisk>,
    /// The device's page buffer: a read lands here and the reply is encoded
    /// from here. Empty until the first read.
    page: Vec<u8>,
}

impl std::fmt::Debug for PageDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageDevice")
            .field("filename", &self.filename)
            .field("number_of_pages", &self.number_of_pages)
            .field("page_size", &self.page_size)
            .finish()
    }
}

/// Persisted configuration (§5): the disk keeps the data; the snapshot only
/// needs the geometry to reattach.
#[derive(Debug, Clone, PartialEq)]
pub struct PageDeviceState {
    /// Device name (the paper's `filename`).
    pub filename: String,
    /// Capacity in pages.
    pub number_of_pages: u64,
    /// Bytes per page.
    pub page_size: u64,
    /// Which local disk backs the device.
    pub disk_index: usize,
    /// Base offset of the device's region on that disk (reattaching must
    /// find the same pages).
    pub base: u64,
}

wire_struct!(PageDeviceState {
    filename,
    number_of_pages,
    page_size,
    disk_index,
    base
});

remote_class! {
    /// Remote pointer to a [`PageDevice`] (§2's `PageDevice *`).
    class PageDevice {
        persistent;
        ctor(filename: String, number_of_pages: u64, page_size: u64, disk_index: usize);
        /// Store a page at `page_index` (the paper's `write(Page*, int)`).
        fn write(&mut self, page_index: u64, data: Bytes) -> ();
        /// Fetch the page at `page_index` (the paper's `read(Page*, int)`).
        fn read(&mut self, page_index: u64) -> Bytes;
        /// Capacity in pages.
        fn number_of_pages(&mut self) -> u64;
        /// Bytes per page.
        fn page_size(&mut self) -> u64;
        /// Device name.
        fn filename(&mut self) -> String;
    }
}

impl PageDevice {
    /// Constructor: claim `number_of_pages * page_size` bytes on local disk
    /// `disk_index` of the hosting machine.
    pub fn new(
        ctx: &mut NodeCtx,
        filename: String,
        number_of_pages: u64,
        page_size: u64,
        disk_index: usize,
    ) -> RemoteResult<Self> {
        let needed = region_len(number_of_pages, page_size)?;
        let disk = local_disk(ctx, disk_index)?;
        // "Creates a file filename of NumberOfPages * PageSize bytes":
        // reserve an exclusive region so devices sharing a disk never
        // overlap.
        let base = disk
            .alloc(needed)
            .map_err(|e| RemoteError::app(e.to_string()))?;
        Ok(PageDevice {
            filename,
            number_of_pages,
            page_size,
            disk_index,
            base,
            disk,
            page: Vec::new(),
        })
    }

    /// Reattach to an existing region (persistence restore path). The
    /// snapshot may come from anywhere, so its geometry is held to what
    /// `new` would have built: a region of whole pages on the disk.
    fn reattach(ctx: &mut NodeCtx, s: PageDeviceState) -> RemoteResult<Self> {
        let needed = region_len(s.number_of_pages, s.page_size)?;
        let disk = local_disk(ctx, s.disk_index)?;
        let end = s.base.checked_add(needed as u64);
        if end.is_none_or(|end| end > disk.capacity() as u64) {
            return Err(RemoteError::app(format!(
                "device region of {needed} bytes at {} lies off disk {} ({} bytes)",
                s.base,
                s.disk_index,
                disk.capacity()
            )));
        }
        Ok(PageDevice {
            filename: s.filename,
            number_of_pages: s.number_of_pages,
            page_size: s.page_size,
            disk_index: s.disk_index,
            base: s.base as usize,
            disk,
            page: Vec::new(),
        })
    }

    fn offset_of(&self, page_index: u64) -> RemoteResult<usize> {
        if page_index >= self.number_of_pages {
            return Err(RemoteError::app(format!(
                "page index {page_index} out of range (device {} holds {} pages)",
                self.filename, self.number_of_pages
            )));
        }
        Ok(self.base + (page_index * self.page_size) as usize)
    }

    /// The page goes from the request, where it arrived, to the disk.
    fn write(&mut self, _ctx: &mut NodeCtx, page_index: u64, data: &[u8]) -> RemoteResult<()> {
        if data.len() as u64 != self.page_size {
            return Err(RemoteError::app(format!(
                "page of {} bytes written to device with page_size {}",
                data.len(),
                self.page_size
            )));
        }
        self.write_page_raw(page_index, data)
    }

    fn read(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<&[u8]> {
        self.read_page_raw(page_index)
    }

    fn number_of_pages(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.number_of_pages)
    }

    fn page_size(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.page_size)
    }

    fn filename(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<String> {
        Ok(self.filename.clone())
    }

    // --- internal accessors used by the derived ArrayPageDevice ---

    /// Read a page into the device's page buffer.
    pub(crate) fn read_page_raw(&mut self, page_index: u64) -> RemoteResult<&[u8]> {
        let offset = self.offset_of(page_index)?;
        self.page.resize(self.page_size as usize, 0);
        self.disk
            .read(offset, &mut self.page)
            .map_err(|e| RemoteError::app(e.to_string()))?;
        Ok(&self.page)
    }

    pub(crate) fn write_page_raw(&self, page_index: u64, data: &[u8]) -> RemoteResult<()> {
        let offset = self.offset_of(page_index)?;
        self.disk
            .write(offset, data)
            .map_err(|e| RemoteError::app(e.to_string()))
    }

    /// Persistence hook (§5): geometry only — the disk retains the pages.
    pub fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&PageDeviceState {
            filename: self.filename.clone(),
            number_of_pages: self.number_of_pages,
            page_size: self.page_size,
            disk_index: self.disk_index,
            base: self.base as u64,
        })
    }

    /// Persistence hook (§5): reattach to the same region of the same
    /// local disk (no fresh allocation — the pages are still there).
    pub fn load_state(ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let s: PageDeviceState = wire::from_bytes(state)?;
        PageDevice::reattach(ctx, s)
    }
}

/// Bytes of `number_of_pages` pages of `page_size`: the region a device
/// claims on its disk.
fn region_len(number_of_pages: u64, page_size: u64) -> RemoteResult<usize> {
    if page_size == 0 {
        return Err(RemoteError::app("page_size must be positive"));
    }
    number_of_pages
        .checked_mul(page_size)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| RemoteError::app("device size overflows"))
}

/// Local disk `disk_index` of the hosting machine.
fn local_disk(ctx: &NodeCtx, disk_index: usize) -> RemoteResult<Arc<SimDisk>> {
    ctx.disks().get(disk_index).cloned().ok_or_else(|| {
        RemoteError::app(format!(
            "machine {} has no disk {disk_index} (it has {})",
            ctx.machine(),
            ctx.disks().len()
        ))
    })
}
