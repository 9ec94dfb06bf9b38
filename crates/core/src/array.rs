//! Remote primitive arrays — the paper's "process semantics extend
//! naturally to simple objects" (§2):
//!
//! ```c++
//! double *data = new(machine 2) double[1024];
//! data[7] = 3.1415;
//! double x = data[2];
//! ```
//!
//! [`DoubleBlock`] is that `double[1024]` as a process: a block of f64s
//! living on a remote machine, with element access, bulk range transfer, and
//! a few device-side reductions (so E8's shared-memory computing processes
//! have something to compute). It is **persistent** (§5): a block can be
//! deactivated to a snapshot and reactivated later.
//!
//! The bulk verbs touch each byte once on the server and allocate nothing
//! there: `write_range`, `dot_range` and `axpy_range` take a view of their
//! argument where it arrived ([`F64sView`]), `read_range` returns a borrow
//! of the block and the reply is encoded from it — the
//! [`remote_class!`](crate::macros) contract's view forms. The client is
//! the declared one: `F64s` in, `F64s` out.

use wire::collections::{F64s, F64sView};

use crate::error::{RemoteError, RemoteResult};
use crate::node::NodeCtx;

/// Server state for a remote block of doubles.
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleBlock {
    data: Vec<f64>,
}

remote_class! {
    /// Remote pointer to a block of `f64` on another machine (§2's
    /// `new(machine 2) double[1024]`).
    class DoubleBlock {
        persistent;
        ctor(n: usize);
        /// `data[i] = v` — one element store, one round trip.
        fn set(&mut self, i: usize, v: f64) -> ();
        /// `x = data[i]` — one element load, one round trip.
        fn get(&mut self, i: usize) -> f64;
        /// Fill the whole block with `v`.
        fn fill(&mut self, v: f64) -> ();
        /// Number of elements.
        fn len(&mut self) -> usize;
        /// Bulk read of `[start, start+len)`.
        fn read_range(&mut self, start: usize, len: usize) -> F64s;
        /// Bulk write starting at `start`.
        fn write_range(&mut self, start: usize, data: F64s) -> ();
        /// Device-side sum over `[start, start+len)` — move the computation
        /// to the data (§3).
        fn sum_range(&mut self, start: usize, len: usize) -> f64;
        /// Device-side dot product of `[start, start+len)` with `other`.
        fn dot_range(&mut self, start: usize, other: F64s) -> f64;
        /// `data[start..start+other.len()] += alpha * other` (axpy).
        fn axpy_range(&mut self, start: usize, alpha: f64, other: F64s) -> ();
    }
}

impl DoubleBlock {
    fn check_range(&self, start: usize, len: usize) -> RemoteResult<()> {
        if start
            .checked_add(len)
            .is_none_or(|end| end > self.data.len())
        {
            return Err(RemoteError::app(format!(
                "range [{start}, {start}+{len}) out of bounds for block of {}",
                self.data.len()
            )));
        }
        Ok(())
    }

    /// Constructor: allocate `n` zeroed doubles on the hosting machine.
    pub fn new(_ctx: &mut NodeCtx, n: usize) -> RemoteResult<Self> {
        Ok(DoubleBlock { data: vec![0.0; n] })
    }

    fn set(&mut self, _ctx: &mut NodeCtx, i: usize, v: f64) -> RemoteResult<()> {
        self.check_range(i, 1)?;
        self.data[i] = v;
        Ok(())
    }

    fn get(&mut self, _ctx: &mut NodeCtx, i: usize) -> RemoteResult<f64> {
        self.check_range(i, 1)?;
        Ok(self.data[i])
    }

    fn fill(&mut self, _ctx: &mut NodeCtx, v: f64) -> RemoteResult<()> {
        self.data.fill(v);
        Ok(())
    }

    fn len(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<usize> {
        Ok(self.data.len())
    }

    /// The reply is encoded straight from the block: no copy is made to be
    /// encoded and dropped.
    fn read_range(&mut self, _ctx: &mut NodeCtx, start: usize, len: usize) -> RemoteResult<&[f64]> {
        self.check_range(start, len)?;
        Ok(&self.data[start..start + len])
    }

    /// The doubles go from the request, where they arrived, into the block.
    fn write_range(
        &mut self,
        _ctx: &mut NodeCtx,
        start: usize,
        data: F64sView<'_>,
    ) -> RemoteResult<()> {
        self.check_range(start, data.len())?;
        data.copy_to(0, &mut self.data[start..start + data.len()]);
        Ok(())
    }

    fn sum_range(&mut self, _ctx: &mut NodeCtx, start: usize, len: usize) -> RemoteResult<f64> {
        self.check_range(start, len)?;
        Ok(self.data[start..start + len].iter().sum())
    }

    fn dot_range(
        &mut self,
        _ctx: &mut NodeCtx,
        start: usize,
        other: F64sView<'_>,
    ) -> RemoteResult<f64> {
        self.check_range(start, other.len())?;
        Ok(self.data[start..start + other.len()]
            .iter()
            .zip(other.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    fn axpy_range(
        &mut self,
        _ctx: &mut NodeCtx,
        start: usize,
        alpha: f64,
        other: F64sView<'_>,
    ) -> RemoteResult<()> {
        self.check_range(start, other.len())?;
        for (dst, src) in self.data[start..start + other.len()]
            .iter_mut()
            .zip(other.iter())
        {
            *dst += alpha * src;
        }
        Ok(())
    }

    /// Persistence hook (§5): the state is just the elements.
    pub fn save_state(&self) -> Vec<u8> {
        wire::to_bytes_as::<F64s, _>(&self.data.as_slice())
    }

    /// Persistence hook (§5).
    pub fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let data: F64s = wire::from_bytes(state)?;
        Ok(DoubleBlock { data: data.0 })
    }
}
