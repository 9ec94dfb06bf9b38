//! `ArrayPageDevice`: the derived device-process (§3, §5).
//!
//! Derivation is the paper's headline §3 example: the array device stores
//! structured `n1 × n2 × n3` pages of doubles on top of the base
//! [`PageDevice`] machinery, adds computations that run **next to the
//! data** (`sum` of a page; `sum`, `min`, `max` and `scale` of any sub-box
//! of a page, given as a page-local [`Domain`]), and — because method
//! dispatch falls through to the base — a plain `PageDeviceClient` works
//! against it unchanged.

use std::ops::Range;

use oopp::{remote_class, NodeCtx, RemoteError, RemoteResult};
use wire::collections::{Bytes, F64s, F64sView};

use crate::device::{PageDevice, PageDeviceClient};
use crate::domain::Domain;

/// Server state: a [`PageDevice`] base plus the array shape.
#[derive(Debug)]
pub struct ArrayPageDevice {
    base: PageDevice,
    n1: u64,
    n2: u64,
    n3: u64,
}

remote_class! {
    /// Remote pointer to an [`ArrayPageDevice`] (§3).
    ///
    /// Inherited `PageDevice` methods (`read`, `write`, `page_size`, …) are
    /// reachable through [`as_base`](ArrayPageDeviceClient::as_base), or by
    /// any plain `PageDeviceClient` holding this object's reference.
    class ArrayPageDevice: PageDevice {
        persistent;
        ctor(
            filename: String,
            number_of_pages: u64,
            n1: u64,
            n2: u64,
            n3: u64,
            disk_index: usize,
            copy_from: Option<PageDeviceClient>
        );
        /// §3's device-side `sum(PageAddress)`: ships 8 bytes instead of a
        /// page — "moving the computation to the data".
        fn sum(&mut self, page_index: u64) -> f64;
        /// Fetch a page as structured doubles.
        fn read_array(&mut self, page_index: u64) -> F64s;
        /// Store a structured page.
        fn write_array(&mut self, page_index: u64, data: F64s) -> ();
        /// Read a sub-box of one page — device-side extraction, shipping
        /// only what is asked for.
        fn read_sub(&mut self, page_index: u64, sub: Domain) -> F64s;
        /// Write a sub-box of one page (read-modify-write on the device).
        fn write_sub(&mut self, page_index: u64, sub: Domain, data: F64s) -> ();
        /// Device-side sum of a sub-box of one page.
        fn sum_sub(&mut self, page_index: u64, sub: Domain) -> f64;
        /// Device-side minimum over a sub-box (+inf for an empty box).
        fn min_sub(&mut self, page_index: u64, sub: Domain) -> f64;
        /// Device-side maximum over a sub-box (-inf for an empty box).
        fn max_sub(&mut self, page_index: u64, sub: Domain) -> f64;
        /// Scale a sub-box in place (read-modify-write on the device).
        fn scale_sub(&mut self, page_index: u64, sub: Domain, alpha: f64) -> ();
        /// Array shape `(n1, n2, n3)` of each page.
        fn shape(&mut self) -> (u64, u64, u64);
    }
}

impl ArrayPageDevice {
    /// Constructor. Mirrors the paper's §3 listing — the base is built with
    /// `PageSize = n1 * n2 * n3 * sizeof(double)` — plus the §5 extension:
    /// when `copy_from` is `Some`, the new device **copies the state of an
    /// existing device process** page by page (remote calls from inside a
    /// constructor), after which the old process may be deleted.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ctx: &mut NodeCtx,
        filename: String,
        number_of_pages: u64,
        n1: u64,
        n2: u64,
        n3: u64,
        disk_index: usize,
        copy_from: Option<PageDeviceClient>,
    ) -> RemoteResult<Self> {
        let page_size = page_size_of(n1, n2, n3)?;
        let base = PageDevice::new(ctx, filename, number_of_pages, page_size, disk_index)?;
        let device = ArrayPageDevice { base, n1, n2, n3 };
        if let Some(source) = copy_from {
            // §5: `new ArrayPageDevice(page_device)` — copy construction
            // from a live process.
            let src_pages = source.number_of_pages(ctx)?;
            let src_size = source.page_size(ctx)?;
            if src_size != page_size {
                return Err(RemoteError::app(format!(
                    "cannot copy-construct: source page size {src_size} != {page_size}"
                )));
            }
            let pages_to_copy = src_pages.min(number_of_pages);
            for p in 0..pages_to_copy {
                let data = source.read(ctx, p)?;
                device.base.write_page_raw(p, &data.0)?;
            }
        }
        Ok(device)
    }

    /// The box of one whole page.
    fn whole(&self) -> Domain {
        Domain::whole(self.n1, self.n2, self.n3)
    }

    /// The rows of `sub` in a page, once `sub` is checked against the
    /// page's box.
    fn rows(&self, sub: &Domain) -> RemoteResult<impl Iterator<Item = Range<usize>>> {
        if !self.whole().contains_domain(sub) {
            return Err(RemoteError::app(format!(
                "sub-box {sub:?} invalid for page {}x{}x{}",
                self.n1, self.n2, self.n3
            )));
        }
        Ok(sub.runs_in(&self.whole()))
    }

    /// A page as it lies in the base device's page buffer: doubles in wire
    /// order already.
    fn page(&mut self, page_index: u64) -> RemoteResult<F64sView<'_>> {
        F64sView::of_le_bytes(self.base.read_page_raw(page_index)?)
            .ok_or_else(|| RemoteError::app("page size is not a whole number of doubles"))
    }

    /// A page decoded, for the verbs that index into it or change it.
    fn load(&mut self, page_index: u64) -> RemoteResult<Vec<f64>> {
        Ok(self.page(page_index)?.to_vec())
    }

    fn store(&self, page_index: u64, data: &[f64]) -> RemoteResult<()> {
        let mut bytes = wire::Writer::with_capacity(size_of_val(data));
        bytes.put_f64s(data);
        self.base.write_page_raw(page_index, bytes.as_slice())
    }

    /// A reduction over `sub`, one row at a time.
    fn fold_rows(
        &mut self,
        page_index: u64,
        sub: &Domain,
        init: f64,
        f: impl Fn(f64, &[f64]) -> f64,
    ) -> RemoteResult<f64> {
        let rows = self.rows(sub)?;
        let page = self.load(page_index)?;
        Ok(rows.fold(init, |acc, r| f(acc, &page[r])))
    }

    fn sum(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<f64> {
        Ok(self.page(page_index)?.iter().sum())
    }

    /// The reply is the page's bytes behind their count: never decoded.
    fn read_array(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<F64sView<'_>> {
        self.page(page_index)
    }

    /// The doubles go to the disk as they arrived: a page stores them in
    /// wire order.
    fn write_array(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        data: F64sView<'_>,
    ) -> RemoteResult<()> {
        let elems = self.whole().len() as usize;
        if data.len() != elems {
            return Err(RemoteError::app(format!(
                "array page of {} elements written to device expecting {elems}",
                data.len(),
            )));
        }
        self.base.write_page_raw(page_index, data.as_le_bytes())
    }

    fn read_sub(&mut self, _ctx: &mut NodeCtx, page_index: u64, sub: Domain) -> RemoteResult<F64s> {
        let rows = self.rows(&sub)?;
        let page = self.load(page_index)?;
        let mut out = Vec::with_capacity(sub.len() as usize);
        for r in rows {
            out.extend_from_slice(&page[r]);
        }
        Ok(F64s(out))
    }

    fn write_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        sub: Domain,
        data: F64sView<'_>,
    ) -> RemoteResult<()> {
        let rows = self.rows(&sub)?;
        if data.len() as u64 != sub.len() {
            return Err(RemoteError::app(format!(
                "sub-box write of {} elements, expected {}",
                data.len(),
                sub.len()
            )));
        }
        let mut page = self.load(page_index)?;
        // Row by row from the request; the length was checked above.
        let mut at = 0;
        for r in rows {
            let run = r.len();
            data.copy_to(at, &mut page[r]);
            at += run;
        }
        self.store(page_index, &page)
    }

    /// Per-row partial sums, added in row order.
    fn sum_sub(&mut self, _ctx: &mut NodeCtx, page_index: u64, sub: Domain) -> RemoteResult<f64> {
        self.fold_rows(page_index, &sub, 0.0, |t, row| t + row.iter().sum::<f64>())
    }

    fn min_sub(&mut self, _ctx: &mut NodeCtx, page_index: u64, sub: Domain) -> RemoteResult<f64> {
        self.fold_rows(page_index, &sub, f64::INFINITY, |m, row| {
            row.iter().copied().fold(m, f64::min)
        })
    }

    fn max_sub(&mut self, _ctx: &mut NodeCtx, page_index: u64, sub: Domain) -> RemoteResult<f64> {
        self.fold_rows(page_index, &sub, f64::NEG_INFINITY, |m, row| {
            row.iter().copied().fold(m, f64::max)
        })
    }

    fn scale_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        sub: Domain,
        alpha: f64,
    ) -> RemoteResult<()> {
        let rows = self.rows(&sub)?;
        let mut page = self.load(page_index)?;
        for r in rows {
            page[r].iter_mut().for_each(|v| *v *= alpha);
        }
        self.store(page_index, &page)
    }

    fn shape(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<(u64, u64, u64)> {
        Ok((self.n1, self.n2, self.n3))
    }

    /// Persistence hook (§5): base geometry plus the array shape.
    pub fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&(Bytes(self.base.save_state()), self.n1, self.n2, self.n3))
    }

    /// Persistence hook (§5). The shape must fill the base device's pages,
    /// as `new` makes it.
    pub fn load_state(ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let (base_state, n1, n2, n3): (Bytes, u64, u64, u64) = wire::from_bytes(state)?;
        let base = PageDevice::load_state(ctx, &base_state.0)?;
        if page_size_of(n1, n2, n3)? != base.page_size {
            return Err(RemoteError::app(format!(
                "{n1}x{n2}x{n3} array pages on a device of {}-byte pages",
                base.page_size
            )));
        }
        Ok(ArrayPageDevice { base, n1, n2, n3 })
    }
}

/// Bytes of one `n1 × n2 × n3` page of doubles.
fn page_size_of(n1: u64, n2: u64, n3: u64) -> RemoteResult<u64> {
    if n1 == 0 || n2 == 0 || n3 == 0 {
        return Err(RemoteError::app("array page dimensions must be positive"));
    }
    [n2, n3, size_of::<f64>() as u64]
        .into_iter()
        .try_fold(n1, u64::checked_mul)
        .ok_or_else(|| RemoteError::app("array page size overflows"))
}
