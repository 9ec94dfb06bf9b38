//! The distributed `Array` (§5): a three-dimensional array of doubles too
//! large for one machine, stored as pages across a [`BlockStorage`], with
//! `read`/`write`/`sum` over arbitrary [`Domain`]s.
//!
//! An `Array` value is the paper's *Array client*: a lightweight handle
//! that any process can hold (it is wire-encodable), performing
//! computations on a small subdomain at a time. All page I/O inside one
//! operation is issued with the §4 split loop, so pages on different
//! devices move in parallel; the [`PageMap`] decides how much parallelism
//! an access pattern can get.

use oopp::{issue_each, join, NodeCtx, Pending, RemoteError, RemoteResult};
use pagestore::{ArrayPageDeviceClient, Domain};
use wire::collections::F64s;
use wire::{Wire, WireError};

use crate::pagemap::{PageAddress, PageMap};
use crate::storage::BlockStorage;

/// Distributed 3-D array handle — the paper's `Array` class.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    n: [u64; 3],
    p: [u64; 3],
    storage: BlockStorage,
    map: PageMap,
}

/// A handle decodes only if it keeps what [`Array::new`] checks.
impl Wire for Array {
    fn encode(&self, w: &mut wire::Writer) {
        self.n.encode(w);
        self.p.encode(w);
        self.storage.encode(w);
        self.map.encode(w);
    }
    fn decode(r: &mut wire::Reader<'_>) -> wire::WireResult<Self> {
        let array = Array {
            n: Wire::decode(r)?,
            p: Wire::decode(r)?,
            storage: Wire::decode(r)?,
            map: Wire::decode(r)?,
        };
        array.check().map_err(WireError::Invalid)?;
        Ok(array)
    }
}

impl Array {
    /// Assemble an array of logical size `n1 × n2 × n3` from pages of
    /// `p1 × p2 × p3` doubles laid out by `map` over `storage`.
    ///
    /// Page dimensions must divide into the grid the map was built for:
    /// `map.grid()[d] == ceil(n[d] / p[d])`, and the map must not address
    /// more devices than `storage` holds.
    pub fn new(
        n: [u64; 3],
        p: [u64; 3],
        storage: BlockStorage,
        map: PageMap,
    ) -> RemoteResult<Self> {
        let array = Array { n, p, storage, map };
        array.check().map_err(RemoteError::app)?;
        Ok(array)
    }

    fn check(&self) -> Result<(), &'static str> {
        let (n, p) = (self.n, self.p);
        if p.contains(&0) || n.contains(&0) {
            return Err("array and page dimensions must be positive");
        }
        if n.into_iter().try_fold(1, u64::checked_mul).is_none() {
            return Err("array size overflows");
        }
        if self.map.grid() != [0, 1, 2].map(|d| n[d].div_ceil(p[d])) {
            return Err("page map grid does not match the array grid");
        }
        if self.map.devices() as usize > self.storage.len() {
            return Err("page map addresses more devices than the storage holds");
        }
        Ok(())
    }

    /// Logical dimensions `(N1, N2, N3)`.
    pub fn dims(&self) -> [u64; 3] {
        self.n
    }

    /// The page grid (pages per axis).
    pub fn grid(&self) -> [u64; 3] {
        self.map.grid()
    }

    /// The whole-array domain.
    pub fn whole(&self) -> Domain {
        Domain::whole(self.n[0], self.n[1], self.n[2])
    }

    /// The layout in use.
    pub fn map(&self) -> &PageMap {
        &self.map
    }

    /// The storage behind the array.
    pub fn storage(&self) -> &BlockStorage {
        &self.storage
    }

    /// Total elements.
    pub fn len(&self) -> u64 {
        self.whole().len()
    }

    /// Always false: zero-sized arrays are rejected at construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn check_domain(&self, domain: &Domain) -> RemoteResult<()> {
        if !self.whole().contains_domain(domain) {
            return Err(RemoteError::app(format!(
                "domain {domain:?} exceeds array bounds {:?}",
                self.n
            )));
        }
        Ok(())
    }

    /// The box of array indices covered by page `c` (edge pages are
    /// truncated to the array bounds).
    fn page_box(&self, c: [u64; 3]) -> Domain {
        let a = [0, 1, 2].map(|d| c[d] * self.p[d]);
        let b = [0, 1, 2].map(|d| (a[d] + self.p[d]).min(self.n[d]));
        Domain { a, b }
    }

    /// Page coordinates whose boxes intersect `domain`, in row-major
    /// order, with the intersection each contributes.
    fn pages_of(&self, domain: &Domain) -> Vec<([u64; 3], Domain)> {
        if domain.is_empty() {
            return Vec::new();
        }
        let pages = Domain {
            a: [0, 1, 2].map(|d| domain.a[d] / self.p[d]),
            b: [0, 1, 2].map(|d| (domain.b[d] - 1) / self.p[d] + 1),
        };
        pages
            .points()
            .filter_map(|(c1, c2, c3)| {
                let c = [c1, c2, c3];
                Some((c, domain.intersect(&self.page_box(c))?))
            })
            .collect()
    }

    /// The physical address of the page holding coordinate `c`.
    pub fn physical(&self, c: [u64; 3]) -> PageAddress {
        self.map.physical(c)
    }

    /// Distinct devices an access to `domain` would engage — the paper's
    /// degree of I/O parallelism (E5).
    pub fn devices_touched(&self, domain: &Domain) -> usize {
        self.map
            .devices_touched(self.pages_of(domain).into_iter().map(|(c, _)| c))
    }

    // ------------------------------------------------------------------
    // I/O
    // ------------------------------------------------------------------

    /// The split loop (§4) every operation goes through: check `domain`,
    /// `issue` one request per page it touches — given the device, the
    /// page's slot, the page-local box and the same box in array
    /// coordinates — and only then wait for the replies, in page order.
    fn split_loop<T: Wire>(
        &self,
        ctx: &mut NodeCtx,
        domain: &Domain,
        mut issue: impl FnMut(
            &mut NodeCtx,
            &ArrayPageDeviceClient,
            u64,
            Domain,
            &Domain,
        ) -> RemoteResult<Pending<T>>,
    ) -> RemoteResult<Vec<(Domain, T)>> {
        self.check_domain(domain)?;
        let pages = self.pages_of(domain);
        let pendings = issue_each(ctx, &pages, |ctx, &(c, ref inter)| {
            let addr = self.map.physical(c);
            let dev = self.storage.device(addr.device_id as usize);
            let local = inter.relative_to(self.page_box(c).a);
            issue(ctx, dev, addr.index, local, inter)
        })?;
        let boxes = pages.into_iter().map(|(_, inter)| inter);
        Ok(boxes.zip(join(ctx, pendings)?).collect())
    }

    /// Read `domain` into a row-major buffer (the paper's
    /// `read(subarray, domain)`), using device-side sub-box extraction.
    pub fn read(&self, ctx: &mut NodeCtx, domain: &Domain) -> RemoteResult<Vec<f64>> {
        let replies = self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.read_sub_async(ctx, page, local)
        })?;
        let mut out = vec![0.0f64; domain.len() as usize];
        for (inter, data) in replies {
            for (dst, src) in inter.runs_in(domain).zip(inter.runs_in(&inter)) {
                out[dst].copy_from_slice(&data.0[src]);
            }
        }
        Ok(out)
    }

    /// Write a row-major buffer into `domain` (the paper's
    /// `write(subarray, domain)`).
    pub fn write(&self, ctx: &mut NodeCtx, domain: &Domain, data: &[f64]) -> RemoteResult<()> {
        // A box's length is defined only once the box is checked.
        self.check_domain(domain)?;
        if data.len() as u64 != domain.len() {
            return Err(RemoteError::app(format!(
                "buffer of {} elements written to domain of {}",
                data.len(),
                domain.len()
            )));
        }
        self.split_loop(ctx, domain, |ctx, dev, page, local, inter| {
            let portion = inter.runs_in(domain).flat_map(|r| &data[r]).copied();
            dev.write_sub_async(ctx, page, local, F64s(portion.collect()))
        })?;
        Ok(())
    }

    /// One element — the degenerate single-point read.
    pub fn get(&self, ctx: &mut NodeCtx, i1: u64, i2: u64, i3: u64) -> RemoteResult<f64> {
        Ok(self.read(ctx, &Domain::point(i1, i2, i3))?[0])
    }

    /// Set one element.
    pub fn set(&self, ctx: &mut NodeCtx, i1: u64, i2: u64, i3: u64, v: f64) -> RemoteResult<()> {
        self.write(ctx, &Domain::point(i1, i2, i3), &[v])
    }

    // ------------------------------------------------------------------
    // Computations
    // ------------------------------------------------------------------

    /// Sum over `domain`, computed **on the devices**: each device returns
    /// only its partial sum, which the client combines (§5's sum — "the
    /// partial sums are computed by the data server processes and combined
    /// together by the Array client").
    pub fn sum(&self, ctx: &mut NodeCtx, domain: &Domain) -> RemoteResult<f64> {
        let parts = self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.sum_sub_async(ctx, page, local)
        })?;
        Ok(parts.into_iter().map(|(_, s)| s).sum())
    }

    /// Sum over `domain` by shipping the data to the client — the
    /// "move the data to the computation" baseline for E2.
    pub fn sum_by_moving_data(&self, ctx: &mut NodeCtx, domain: &Domain) -> RemoteResult<f64> {
        Ok(self.read(ctx, domain)?.iter().sum())
    }

    /// Minimum over `domain`, computed on the devices.
    pub fn min(&self, ctx: &mut NodeCtx, domain: &Domain) -> RemoteResult<f64> {
        let parts = self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.min_sub_async(ctx, page, local)
        })?;
        Ok(parts
            .into_iter()
            .map(|(_, m)| m)
            .fold(f64::INFINITY, f64::min))
    }

    /// Maximum over `domain`, computed on the devices.
    pub fn max(&self, ctx: &mut NodeCtx, domain: &Domain) -> RemoteResult<f64> {
        let parts = self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.max_sub_async(ctx, page, local)
        })?;
        Ok(parts
            .into_iter()
            .map(|(_, m)| m)
            .fold(f64::NEG_INFINITY, f64::max))
    }

    /// Scale `domain` in place on the devices (no data crosses the wire
    /// except the command).
    pub fn scale(&self, ctx: &mut NodeCtx, domain: &Domain, alpha: f64) -> RemoteResult<()> {
        self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.scale_sub_async(ctx, page, local, alpha)
        })?;
        Ok(())
    }

    /// Fill `domain` with `v`.
    pub fn fill(&self, ctx: &mut NodeCtx, domain: &Domain, v: f64) -> RemoteResult<()> {
        self.split_loop(ctx, domain, |ctx, dev, page, local, _| {
            dev.write_sub_async(ctx, page, local, F64s(vec![v; local.len() as usize]))
        })?;
        Ok(())
    }
}
