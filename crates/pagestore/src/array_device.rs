//! `ArrayPageDevice`: the derived device-process (§3, §5).
//!
//! Derivation is the paper's headline §3 example: the array device stores
//! structured `n1 × n2 × n3` pages of doubles on top of the base
//! [`PageDevice`] machinery, adds computations that run **next to the
//! data** (`sum`, `min`, `max`, `scale`), and — because method dispatch
//! falls through to the base — a plain `PageDeviceClient` works against it
//! unchanged.

use oopp::{remote_class, NodeCtx, RemoteError, RemoteResult};
use wire::collections::{Bytes, F64s, F64sView};

use crate::device::{PageDevice, PageDeviceClient};
use crate::page::ArrayPage;

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
        /// Device-side minimum of a page.
        fn min(&mut self, page_index: u64) -> f64;
        /// Device-side maximum of a page.
        fn max(&mut self, page_index: u64) -> f64;
        /// Multiply every element of a page in place.
        fn scale(&mut self, page_index: u64, alpha: f64) -> ();
        /// Fetch a page as structured doubles.
        fn read_array(&mut self, page_index: u64) -> F64s;
        /// Store a structured page.
        fn write_array(&mut self, page_index: u64, data: F64s) -> ();
        /// Read a sub-box `[a1,b1) × [a2,b2) × [a3,b3)` of one page —
        /// device-side extraction, shipping only what is asked for.
        fn read_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64
        ) -> F64s;
        /// Write a sub-box of one page (read-modify-write on the device).
        fn write_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64,
            data: F64s
        ) -> ();
        /// Device-side sum of a sub-box of one page.
        fn sum_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64
        ) -> f64;
        /// Device-side minimum over a sub-box (+inf for an empty box).
        fn min_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64
        ) -> f64;
        /// Device-side maximum over a sub-box (-inf for an empty box).
        fn max_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64
        ) -> f64;
        /// Scale a sub-box in place (read-modify-write on the device).
        fn scale_sub(
            &mut self,
            page_index: u64,
            a1: u64, b1: u64,
            a2: u64, b2: u64,
            a3: u64, b3: u64,
            alpha: f64
        ) -> ();
        /// Array shape `(n1, n2, n3)` of each page.
        fn shape(&mut self) -> (u64, u64, u64);
    }
}

/// Bounds of a sub-box within a page.
struct SubBox {
    a1: usize,
    b1: usize,
    a2: usize,
    b2: usize,
    a3: usize,
    b3: usize,
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

    fn elems(&self) -> usize {
        (self.n1 * self.n2 * self.n3) as usize
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

    #[allow(clippy::too_many_arguments)]
    fn check_sub(
        &self,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
    ) -> RemoteResult<SubBox> {
        if a1 > b1 || b1 > self.n1 || a2 > b2 || b2 > self.n2 || a3 > b3 || b3 > self.n3 {
            return Err(RemoteError::app(format!(
                "sub-box [{a1},{b1})x[{a2},{b2})x[{a3},{b3}) invalid for page {}x{}x{}",
                self.n1, self.n2, self.n3
            )));
        }
        Ok(SubBox {
            a1: a1 as usize,
            b1: b1 as usize,
            a2: a2 as usize,
            b2: b2 as usize,
            a3: a3 as usize,
            b3: b3 as usize,
        })
    }

    fn sum(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<f64> {
        Ok(self.page(page_index)?.iter().sum())
    }

    fn min(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<f64> {
        Ok(self.page(page_index)?.iter().fold(f64::INFINITY, f64::min))
    }

    fn max(&mut self, _ctx: &mut NodeCtx, page_index: u64) -> RemoteResult<f64> {
        let page = self.page(page_index)?;
        Ok(page.iter().fold(f64::NEG_INFINITY, f64::max))
    }

    fn scale(&mut self, _ctx: &mut NodeCtx, page_index: u64, alpha: f64) -> RemoteResult<()> {
        let mut data = self.load(page_index)?;
        for v in &mut data {
            *v *= alpha;
        }
        self.store(page_index, &data)
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
        if data.len() != self.elems() {
            return Err(RemoteError::app(format!(
                "array page of {} elements written to device expecting {}",
                data.len(),
                self.elems()
            )));
        }
        self.base.write_page_raw(page_index, data.as_le_bytes())
    }

    #[allow(clippy::too_many_arguments)]
    fn read_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
    ) -> RemoteResult<F64s> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        let page = self.load(page_index)?;
        let (n2, n3) = (self.n2 as usize, self.n3 as usize);
        let mut out = Vec::with_capacity((sb.b1 - sb.a1) * (sb.b2 - sb.a2) * (sb.b3 - sb.a3));
        for i1 in sb.a1..sb.b1 {
            for i2 in sb.a2..sb.b2 {
                let row = (i1 * n2 + i2) * n3;
                out.extend_from_slice(&page[row + sb.a3..row + sb.b3]);
            }
        }
        Ok(F64s(out))
    }

    #[allow(clippy::too_many_arguments)]
    fn write_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
        data: F64sView<'_>,
    ) -> RemoteResult<()> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        let expect = (sb.b1 - sb.a1) * (sb.b2 - sb.a2) * (sb.b3 - sb.a3);
        if data.len() != expect {
            return Err(RemoteError::app(format!(
                "sub-box write of {} elements, expected {expect}",
                data.len()
            )));
        }
        let mut page = self.load(page_index)?;
        let (n2, n3) = (self.n2 as usize, self.n3 as usize);
        // Row by row from the request; the length was checked above.
        let mut at = 0;
        for i1 in sb.a1..sb.b1 {
            for i2 in sb.a2..sb.b2 {
                let row = (i1 * n2 + i2) * n3;
                data.copy_to(at, &mut page[row + sb.a3..row + sb.b3]);
                at += sb.b3 - sb.a3;
            }
        }
        self.store(page_index, &page)
    }

    #[allow(clippy::too_many_arguments)]
    fn sum_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
    ) -> RemoteResult<f64> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        let page = self.load(page_index)?;
        let (n2, n3) = (self.n2 as usize, self.n3 as usize);
        let mut total = 0.0;
        for i1 in sb.a1..sb.b1 {
            for i2 in sb.a2..sb.b2 {
                let row = (i1 * n2 + i2) * n3;
                total += page[row + sb.a3..row + sb.b3].iter().sum::<f64>();
            }
        }
        Ok(total)
    }

    fn fold_sub(
        &mut self,
        page_index: u64,
        sb: &SubBox,
        init: f64,
        f: impl Fn(f64, f64) -> f64,
    ) -> RemoteResult<f64> {
        let page = self.load(page_index)?;
        let (n2, n3) = (self.n2 as usize, self.n3 as usize);
        let mut acc = init;
        for i1 in sb.a1..sb.b1 {
            for i2 in sb.a2..sb.b2 {
                let row = (i1 * n2 + i2) * n3;
                for &v in &page[row + sb.a3..row + sb.b3] {
                    acc = f(acc, v);
                }
            }
        }
        Ok(acc)
    }

    #[allow(clippy::too_many_arguments)]
    fn min_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
    ) -> RemoteResult<f64> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        self.fold_sub(page_index, &sb, f64::INFINITY, f64::min)
    }

    #[allow(clippy::too_many_arguments)]
    fn max_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
    ) -> RemoteResult<f64> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        self.fold_sub(page_index, &sb, f64::NEG_INFINITY, f64::max)
    }

    #[allow(clippy::too_many_arguments)]
    fn scale_sub(
        &mut self,
        _ctx: &mut NodeCtx,
        page_index: u64,
        a1: u64,
        b1: u64,
        a2: u64,
        b2: u64,
        a3: u64,
        b3: u64,
        alpha: f64,
    ) -> RemoteResult<()> {
        let sb = self.check_sub(a1, b1, a2, b2, a3, b3)?;
        let mut page = self.load(page_index)?;
        let (n2, n3) = (self.n2 as usize, self.n3 as usize);
        for i1 in sb.a1..sb.b1 {
            for i2 in sb.a2..sb.b2 {
                let row = (i1 * n2 + i2) * n3;
                for v in &mut page[row + sb.a3..row + sb.b3] {
                    *v *= alpha;
                }
            }
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

/// Client-side helper mirroring §3's "move the data to the computation":
/// fetch the whole page and sum locally. Contrast with
/// [`ArrayPageDeviceClient::sum`], which ships only the result.
pub fn sum_by_moving_data(
    ctx: &mut NodeCtx,
    device: &ArrayPageDeviceClient,
    page_index: u64,
) -> RemoteResult<f64> {
    let (n1, n2, n3) = device.shape(ctx)?;
    let data = device.read_array(ctx, page_index)?;
    let page = ArrayPage::from_f64s(n1 as usize, n2 as usize, n3 as usize, data);
    Ok(page.sum())
}
