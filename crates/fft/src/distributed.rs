//! The paper's §4 parallel FFT: "a collection of processes for a joint
//! computation of a Fourier transform".
//!
//! A 3-D array of shape `n1 × n2 × n3` is slab-decomposed over `P` worker
//! processes (worker `p` loads planes `i1 ∈ [p·n1/P, (p+1)·n1/P)`). Each
//! worker holds whichever [`Layout`] its last pass left: its planes, whole
//! along axes 1 and 2, or its columns `i2 ∈ [p·n2/P, (p+1)·n2/P)` of every
//! plane, whole along axis 0. One distributed transform is:
//!
//! 1. each worker runs the passes over the axes it holds — 2-D FFTs on its
//!    planes, or the axis-0 FFTs on its columns;
//! 2. one global **transpose**: every worker sends every other worker one
//!    block (the paper's inter-process communication "implemented by
//!    executing methods on remote objects") and now holds the other layout;
//! 3. each worker runs the passes over the axes it now holds.
//!
//! A forward from planes ends in columns, and the inverse that follows
//! starts there, as FFTW-MPI's transposed output does: no transform
//! transposes back. [`DistributedFft3::gather`] reads the grid in either
//! layout.
//!
//! The master-side code is exactly the paper's listing: create `N`
//! processes with `new(machine id) FFT(id)`, tell each about the group with
//! `SetGroup` (deep copy — the peer table is copied into each process), and
//! invoke `transform(sign, a)` on all of them with the split loop.
//!
//! ## Why the [`BlockInbox`] exists
//!
//! While a worker's `transform` method is executing, the worker **object**
//! is checked out — requests addressed to it are deferred (one process per
//! object, §2). If peers pushed transpose blocks at the worker object
//! itself, every worker would be waiting for objects that cannot serve:
//! a distributed deadlock. Each worker therefore pairs with a separate
//! `BlockInbox` object on the same machine. Inboxes are never busy — each
//! method answers at once — so block transfers flow while every worker is
//! deep inside `transform`. The inbox only keeps blocks: the driver joins
//! phase 1, whose `put`s every worker joins, before any phase-2 `take` is
//! sent, so a `take` finds its block there or is refused at once, and it
//! relays the block as its reply where the `put` brought it.
//!
//! ## What it no longer carries
//!
//! A process's own data is a memory access; only remote data is a message.
//! The block a worker keeps — its planes × its own columns — is never
//! copied: the axis-0 pass runs over a row table
//! (`Fft3::process_axis0_rows`) whose rows for the worker's own planes
//! are runs of its slab, where they lie, and whose other rows are those of
//! `gathered`, which holds only the blocks other workers sent. A group of
//! one sends no transpose message and copies nothing. A block that does
//! travel is touched twice: gathered from the held rows into the `put`
//! request, and scattered from the `take` reply — which *is* that
//! request's buffer, the frame rebuilt around the block where it arrived
//! ([`Body::relaying`]).

use std::cell::Cell;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

use oopp::{
    issue_each, join, remote_class, Body, DispatchResult, Issued, NodeCtx, ObjRef, PacketBytes,
    Pending, PendingClient, ProcessGroup, RemoteClient, RemoteError, RemoteResult,
};
use wire::collections::{F64s, F64sView};
use wire::{EncodesAs, Reader, ViewOf, Wire, WireResult, Writer};

use crate::complex::{as_f64s, as_f64s_mut, Complex};
use crate::dft::Direction;
use crate::nd::Fft3;

// ---------------------------------------------------------------------
// BlockInbox: transpose-block rendezvous
// ---------------------------------------------------------------------

remote_class! {
    /// Remote pointer to a [`BlockInbox`].
    class BlockInbox {
        ctor();
        /// Deposit the block worker `from` sends in exchange `epoch`.
        fn put(&mut self, epoch: u64, from: u64, block: F64s) -> ();
        /// The block worker `from` put for exchange `epoch`, refused if it
        /// is not there.
        fn take(&mut self, epoch: u64, from: u64) -> F64s;
    }
}

/// Mailbox for transpose blocks, one per FFT worker.
///
/// A block is interleaved `re, im` doubles encoded as [`F64s`], and the
/// inbox never decodes one: `put` checks the encoding and keeps that range
/// of its request alive, `take` sends the range on as its reply.
#[derive(Debug, Default)]
pub struct BlockInbox {
    /// Blocks put and not yet taken, by exchange epoch and sender: the
    /// block's encoding, where it arrived.
    kept: HashMap<(u64, u64), PacketBytes>,
}

/// The block argument of `put`, left in the request: checked as
/// [`F64sView`] checks it, so `take` never relays a malformed block, and
/// named by the bytes it spans there.
struct BlockAt(Range<usize>);

impl<'a> ViewOf<'a, F64s> for BlockAt {
    fn view(r: &mut Reader<'a>) -> WireResult<Self> {
        let start = r.position();
        F64sView::decode(r)?;
        Ok(BlockAt(start..r.position()))
    }
}

impl BlockInbox {
    fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(BlockInbox::default())
    }

    fn put(
        &mut self,
        ctx: &mut NodeCtx,
        epoch: u64,
        from: u64,
        block: BlockAt,
    ) -> RemoteResult<()> {
        let block = ctx
            .request_bytes(block.0)
            .ok_or_else(|| RemoteError::app("put dispatched outside its request"))?;
        let Entry::Vacant(slot) = self.kept.entry((epoch, from)) else {
            return Err(RemoteError::app(format!(
                "two transpose blocks from worker {from} in exchange {epoch}"
            )));
        };
        slot.insert(block);
        Ok(())
    }

    fn take(&mut self, _ctx: &mut NodeCtx, epoch: u64, from: u64) -> RemoteResult<DispatchResult> {
        // The worker has moved on: a block an older exchange left here
        // nobody will ask for.
        self.kept.retain(|&(older, _), _| older >= epoch);
        let block = self.kept.remove(&(epoch, from)).ok_or_else(|| {
            RemoteError::app(format!(
                "no transpose block from worker {from} in exchange {epoch}"
            ))
        })?;
        Ok(DispatchResult::Reply(Body::relaying(block)))
    }
}

impl BlockInboxClient {
    /// Deposit a block for exchange `epoch` from worker `from`: the
    /// concatenation of `rows` as one [`F64s`] of interleaved `re, im`
    /// doubles, each row copied once, from where it lies into the request.
    pub fn put_rows_async<'a>(
        &self,
        ctx: &mut NodeCtx,
        epoch: u64,
        from: u64,
        rows: impl Iterator<Item = &'a [Complex]> + Clone,
    ) -> RemoteResult<Pending<()>> {
        ctx.start_method(self.obj_ref(), "put", |w| {
            epoch.encode(w);
            from.encode(w);
            let doubles: usize = rows.clone().map(|row| 2 * row.len()).sum();
            w.put_varint(doubles as u64);
            w.reserve(8 * doubles);
            for row in rows {
                w.put_f64s(as_f64s(row));
            }
        })
    }

    /// What worker `me` of `parts` does with its own inbox: take the block
    /// of exchange `epoch` from every other worker — all the takes before
    /// the first wait — and hand each, by sender, to `scatter` where the
    /// reply brought it. A block that is not exactly `len` complex values
    /// is a `RemoteError::app`, never an index out of range in `scatter`.
    fn collect(
        &self,
        ctx: &mut NodeCtx,
        epoch: u64,
        me: usize,
        parts: usize,
        len: usize,
        mut scatter: impl FnMut(usize, F64sView<'_>),
    ) -> RemoteResult<()> {
        let senders = (0..parts).filter(|&q| q != me);
        let takes = issue_each(ctx, senders.clone(), |ctx, q| {
            self.take_async(ctx, epoch, q as u64)
        })?;
        let mut takes = senders.zip(takes);
        let scattered = takes.try_for_each(|(q, take)| {
            // The reply is read where it arrived, not decoded into an `F64s`.
            let reply = ctx.wait_raw(take.req_id())?;
            let r = &mut Reader::new(&reply);
            let block = F64sView::decode(r)?;
            r.expect_end()?;
            if block.len() != 2 * len {
                return Err(RemoteError::app(format!(
                    "transpose block of {} doubles from worker {q}, expected {}",
                    block.len(),
                    2 * len
                )));
            }
            scatter(q, block);
            Ok(())
        });
        // After an error nobody waits for the rest.
        takes.for_each(|(_, take)| take.give_up(ctx));
        scattered
    }
}

// ---------------------------------------------------------------------
// FftWorker: the paper's `class FFT`
// ---------------------------------------------------------------------

/// Which part of the grid a worker holds whole: where its last pass left
/// it. A transform runs the passes over the axes held, exchanges once and
/// runs the rest, so every transform flips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The worker's planes `[id·n1/P, (id+1)·n1/P)`, whole along axes 1
    /// and 2, in its slab: what `load_slab` and `restart` leave.
    Planes,
    /// The worker's columns `[id·n2/P, (id+1)·n2/P)` of every plane, whole
    /// along axis 0: runs of its slab for its own planes, rows of
    /// `gathered` for every other.
    Columns,
}

wire::wire_enum!(Layout {
    0 => Planes,
    1 => Columns,
});

/// Server state of one FFT process (the paper's `FFT` class: `id`, `N`,
/// `FFT *fft` — here the deep-copied peer table, §4).
#[derive(Debug)]
pub struct FftWorker {
    id: u64,
    /// Grid shape `[n1, n2, n3]` and the number of slabs it is cut into.
    shape: [usize; 3],
    parts: usize,
    peers: Vec<FftWorkerClient>,
    inboxes: Vec<BlockInboxClient>,
    slab: Vec<Complex>,
    /// Which values of `slab` and `gathered` are the grid's.
    layout: Layout,
    phase: Phase,
    plan: Fft3,
    /// The one scratch, read in [`Layout::Columns`] only: this worker's
    /// columns of every plane but its own, `[n1 − n1/P][n2/P][n3]` in plane
    /// order — the other workers' blocks, collected into, transformed along
    /// axis 0 in place beside the block that never leaves the slab, and
    /// sent back from.
    gathered: Vec<Complex>,
}

/// Where a worker stands in one `transform`: whether it has sent the
/// blocks of an exchange it has not collected. `transform_local` is
/// accepted when idle only, `transform_exchange` after it only; `restart`
/// in either.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Idle,
    /// `transform_local` ran in `dir` and sent the blocks of `epoch`.
    Sent {
        epoch: u64,
        dir: Direction,
    },
}

/// The paper's integer `sign`, checked: −1 forward, +1 inverse.
fn direction(sign: i64) -> RemoteResult<Direction> {
    match sign {
        -1 => Ok(Direction::Forward),
        1 => Ok(Direction::Inverse),
        _ => Err(RemoteError::app(format!(
            "sign must be -1 (forward) or +1 (inverse), got {sign}"
        ))),
    }
}

remote_class! {
    /// Remote pointer to an [`FftWorker`] (the paper's `FFT *`).
    class FftWorker {
        ctor(id: u64, n1: u64, n2: u64, n3: u64, parts: u64);
        /// The paper's `SetGroup(N, fft)` with the preferred deep-copy
        /// semantics: the whole table of remote pointers is copied into
        /// this process.
        fn set_group(&mut self, peers: Vec<FftWorkerClient>, inboxes: Vec<BlockInboxClient>) -> ();
        /// Load this worker's slab (planes `[id·n1/P, (id+1)·n1/P)`),
        /// interleaved re/im: the worker holds planes.
        fn load_slab(&mut self, data: F64s) -> ();
        /// The layout this worker holds and its part of the grid in it,
        /// row-major: its planes (`[n1/P][n2][n3]`) or its columns of
        /// every plane (`[n1][n2/P][n3]`).
        fn read_slab(&mut self) -> (Layout, F64s);
        /// Phase 1 of `transform(sign, a)`: the passes over the axes this
        /// worker holds, then its block for every other worker sent, as
        /// exchange `epoch` (the driver's number for this transform).
        fn transform_local(&mut self, sign: i64, epoch: u64) -> ();
        /// Phase 2: collect every other worker's block, then the passes
        /// over the axes this worker now holds.
        fn transform_exchange(&mut self, sign: i64) -> ();
        /// Back to no phase and to planes, wherever a failed transform
        /// left this worker: the driver's recovery.
        fn restart(&mut self) -> ();
        /// Identification (id, group size).
        fn describe(&mut self) -> (u64, u64);
    }
}

/// What `read_slab` answers, written from where the worker holds its
/// values straight into the reply: the layout, then the doubles.
struct Held<'a>(&'a FftWorker);

impl EncodesAs<(Layout, F64s)> for Held<'_> {
    fn encode_as(&self, w: &mut Writer) {
        let worker = self.0;
        worker.layout.encode(w);
        w.put_varint(2 * worker.slab.len() as u64);
        match worker.layout {
            Layout::Planes => w.put_f64s(as_f64s(&worker.slab)),
            Layout::Columns => {
                for i in 0..worker.shape[0] {
                    w.put_f64s(as_f64s(worker.column_row(i)));
                }
            }
        }
    }

    fn encoded_len_as(&self) -> usize {
        let doubles = 2 * self.0.slab.len();
        1 + wire::varint::encoded_len(doubles as u64) + 8 * doubles
    }
}

impl FftWorker {
    fn new(
        _ctx: &mut NodeCtx,
        id: u64,
        n1: u64,
        n2: u64,
        n3: u64,
        parts: u64,
    ) -> RemoteResult<Self> {
        if parts == 0 || id >= parts {
            return Err(RemoteError::app(format!(
                "worker id {id} out of range for {parts} parts"
            )));
        }
        if ![n1, n2, n3].iter().all(|n| n.is_power_of_two()) {
            return Err(RemoteError::app(format!(
                "grid {n1}x{n2}x{n3}: every edge must be a power of two"
            )));
        }
        if !n1.is_multiple_of(parts) || !n2.is_multiple_of(parts) {
            return Err(RemoteError::app(format!(
                "shape {n1}x{n2}x{n3} not divisible into {parts} slabs on axes 0 and 1"
            )));
        }
        let shape = [n1 as usize, n2 as usize, n3 as usize];
        let parts = parts as usize;
        // The slab, and the `P − 1` blocks of it the other workers send.
        // Sized before the plan is, which allocates by the edge lengths too.
        let too_large = || RemoteError::app(format!("no memory for a {n1}x{n2}x{n3} grid"));
        let cells = (shape[0] / parts)
            .checked_mul(shape[1])
            .and_then(|cells| cells.checked_mul(shape[2]))
            .ok_or_else(too_large)?;
        let zeros = |cells: usize| -> RemoteResult<Vec<Complex>> {
            let mut buf = Vec::new();
            buf.try_reserve_exact(cells).map_err(|_| too_large())?;
            buf.resize(cells, Complex::ZERO);
            Ok(buf)
        };
        let (slab, gathered) = (zeros(cells)?, zeros(cells / parts * (parts - 1))?);
        Ok(FftWorker {
            id,
            shape,
            parts,
            peers: Vec::new(),
            inboxes: Vec::new(),
            slab,
            layout: Layout::Planes,
            phase: Phase::Idle,
            plan: Fft3::new(shape),
            gathered,
        })
    }

    fn set_group(
        &mut self,
        _ctx: &mut NodeCtx,
        peers: Vec<FftWorkerClient>,
        inboxes: Vec<BlockInboxClient>,
    ) -> RemoteResult<()> {
        if peers.len() != self.parts || inboxes.len() != self.parts {
            return Err(RemoteError::app(
                "group tables must have one entry per part",
            ));
        }
        self.peers = peers;
        self.inboxes = inboxes;
        Ok(())
    }

    /// The slab is filled from the request, where it arrived.
    fn load_slab(&mut self, _ctx: &mut NodeCtx, data: F64sView<'_>) -> RemoteResult<()> {
        let slab = as_f64s_mut(&mut self.slab);
        if data.len() != slab.len() {
            return Err(RemoteError::app("the slab loaded has the wrong size"));
        }
        data.copy_to(0, slab);
        self.layout = Layout::Planes;
        Ok(())
    }

    /// The reply is encoded from the slab and `gathered` themselves.
    fn read_slab(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<Held<'_>> {
        Ok(Held(self))
    }

    fn describe(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<(u64, u64)> {
        Ok((self.id, self.parts as u64))
    }

    /// The length of one row of the columns a worker holds,
    /// `(n2/P)·n3`, and the number of planes a worker loads, `n1/P`.
    fn row_and_planes(&self) -> (usize, usize) {
        let [n1, n2, n3] = self.shape;
        (n2 / self.parts * n3, n1 / self.parts)
    }

    /// Row `i` of the columns this worker holds, plane `i`'s part of them:
    /// a run of its slab for its own planes, a row of `gathered` for every
    /// other.
    fn column_row(&self, i: usize) -> &[Complex] {
        let ((row, s1), me) = (self.row_and_planes(), self.id as usize);
        let own = me * s1..(me + 1) * s1;
        if own.contains(&i) {
            let plane = self.shape[1] * self.shape[2];
            &self.slab[(i - own.start) * plane + me * row..][..row]
        } else {
            let g = if i < own.start { i } else { i - s1 };
            &self.gathered[g * row..][..row]
        }
    }

    /// Row `i` of the block this worker sends worker `q`: from planes, its
    /// plane `i`'s run of `q`'s columns; from columns, `q`'s plane `i`'s
    /// run of its own.
    fn block_row(&self, q: usize, i: usize) -> &[Complex] {
        let (row, s1) = self.row_and_planes();
        match self.layout {
            Layout::Planes => &self.slab[i * self.shape[1] * self.shape[2] + q * row..][..row],
            Layout::Columns => self.column_row(q * s1 + i),
        }
    }

    /// The passes over the axes this worker holds, where the values lie.
    fn run_passes(&mut self, dir: Direction) {
        match self.layout {
            Layout::Planes => self.plan.process_planes(&mut self.slab, dir),
            Layout::Columns => {
                // Axis 0 over a row table: `column_row`'s rows, mutable.
                let ((row, s1), me) = (self.row_and_planes(), self.id as usize);
                let planes = self.slab.chunks_exact_mut(self.shape[1] * self.shape[2]);
                let own = planes.map(|plane| &mut plane[me * row..][..row]);
                let (before, after) = self.gathered.split_at_mut(me * s1 * row);
                let (before, after) = (before.chunks_exact_mut(row), after.chunks_exact_mut(row));
                let mut rows: Vec<&mut [Complex]> = before.chain(own).chain(after).collect();
                self.plan.process_axis0_rows(&mut rows, dir);
            }
        }
    }

    /// Why two phases instead of one `transform` method: the driver's
    /// join between them does two jobs. A machine may host several
    /// workers and a nested dispatch cannot resume the one beneath it on
    /// the stack, so each phase performs all of its **sends before any
    /// wait**; and every `take`'s block is already in its inbox, so the
    /// `take` relays it in place. Both one-method `transform`s prototyped
    /// at commit `303f6d9` kept one job only: sending first copied every
    /// block, joining the `put`s behind a barrier deadlocked co-located
    /// workers (DESIGN.md §4.1).
    fn transform_local(&mut self, ctx: &mut NodeCtx, sign: i64, epoch: u64) -> RemoteResult<()> {
        if self.inboxes.is_empty() {
            return Err(RemoteError::app("SetGroup must be called before transform"));
        }
        if !matches!(self.phase, Phase::Idle) {
            return Err(RemoteError::app("transform phases called out of order"));
        }
        let dir = direction(sign)?;
        self.run_passes(dir);

        // Worker q's block is one row of the held layout per plane q is
        // about to hold. A worker's own block stays where it is, the
        // others go to their inboxes.
        self.phase = Phase::Sent { epoch, dir };
        let ((_, s1), me) = (self.row_and_planes(), self.id as usize);
        let peers = self.inboxes.iter().enumerate().filter(|&(q, _)| q != me);
        let sends = issue_each(ctx, peers, |ctx, (q, inbox)| {
            let rows = (0..s1).map(|i| self.block_row(q, i));
            inbox.put_rows_async(ctx, epoch, self.id, rows)
        })?;
        join(ctx, sends)?;
        Ok(())
    }

    fn transform_exchange(&mut self, ctx: &mut NodeCtx, sign: i64) -> RemoteResult<()> {
        let Phase::Sent { epoch, dir } = self.phase else {
            return Err(RemoteError::app(
                "transform_exchange before transform_local",
            ));
        };
        if direction(sign)? != dir {
            return Err(RemoteError::app(format!(
                "transform_exchange({sign}) after transform_local({})",
                dir.sign()
            )));
        }
        // Whatever the exchange finds, the worker is free to start over.
        self.phase = Phase::Idle;
        let ((row, s1), me) = (self.row_and_planes(), self.id as usize);
        let block = s1 * row;

        // Collect the other workers' blocks (all in flight: the driver
        // joined transform_local across the whole group).
        let inbox = &self.inboxes[me];
        match self.layout {
            Layout::Planes => {
                // Worker q's block is its planes of my columns: one run of
                // `gathered`, which holds every plane but mine.
                let slot = |q: usize| if q < me { q } else { q - 1 };
                let gathered = &mut self.gathered;
                inbox.collect(ctx, epoch, me, self.parts, block, |q, from| {
                    from.copy_to(0, as_f64s_mut(&mut gathered[slot(q) * block..][..block]));
                })?;
                self.layout = Layout::Columns;
            }
            Layout::Columns => {
                // Worker q's block is my planes of its columns: per plane,
                // one run of the slab.
                let (plane, slab) = (self.shape[1] * self.shape[2], &mut self.slab);
                inbox.collect(ctx, epoch, me, self.parts, block, |q, from| {
                    for i in 0..s1 {
                        let run = &mut slab[i * plane + q * row..][..row];
                        from.copy_to(2 * i * row, as_f64s_mut(run));
                    }
                })?;
                self.layout = Layout::Planes;
            }
        }
        self.run_passes(dir);
        Ok(())
    }

    fn restart(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<()> {
        self.phase = Phase::Idle;
        self.layout = Layout::Planes;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Driver-side handle
// ---------------------------------------------------------------------

/// Wait for every construction in `pending`, recording in `made` each that
/// succeeded; the first error wins once all have answered.
fn join_recorded<C: RemoteClient>(
    ctx: &mut NodeCtx,
    pending: Vec<PendingClient<C>>,
    made: &mut Vec<ObjRef>,
) -> RemoteResult<Vec<C>> {
    let mut waited = Vec::with_capacity(pending.len());
    for p in pending {
        let client = p.wait(ctx);
        if let Ok(c) = &client {
            made.push(c.obj_ref());
        }
        waited.push(client);
    }
    waited.into_iter().collect()
}

/// Driver handle for a group of FFT worker processes — the paper's master
/// program, packaged.
#[derive(Debug)]
pub struct DistributedFft3 {
    shape: [u64; 3],
    parts: usize,
    pub(crate) workers: ProcessGroup<FftWorkerClient>,
    inboxes: ProcessGroup<BlockInboxClient>,
    /// Transforms begun: transform `k` runs exchange `k`, whether it
    /// succeeds or fails.
    exchanges: Cell<u64>,
}

impl DistributedFft3 {
    /// Register the classes this module needs on a cluster builder.
    pub fn register(builder: oopp::ClusterBuilder) -> oopp::ClusterBuilder {
        builder.register::<FftWorker>().register::<BlockInbox>()
    }

    /// The paper's master listing: create `parts` FFT processes (one per
    /// machine, round-robin), then `SetGroup` each with the deep-copied
    /// tables.
    ///
    /// Every edge must be a power of two, and `shape[0]` and `shape[1]`
    /// divisible by `parts`. On any error every process created so far is
    /// destroyed before it is returned.
    pub fn new(ctx: &mut NodeCtx, shape: [u64; 3], parts: usize) -> RemoteResult<Self> {
        if parts == 0 {
            return Err(RemoteError::app("need at least one FFT process"));
        }
        let mut made = Vec::with_capacity(2 * parts);
        let group = Self::create(ctx, shape, parts, &mut made);
        if group.is_err() {
            // Best effort: the error that matters is the one being returned.
            let destroys = made.iter().map(|&obj| ctx.start_destroy(obj));
            let destroys: Vec<_> = destroys.filter_map(Result::ok).collect();
            let _ = join(ctx, destroys);
        }
        group
    }

    /// The processes of [`new`](Self::new), each one recorded in `made` as
    /// soon as its constructor has answered.
    fn create(
        ctx: &mut NodeCtx,
        shape: [u64; 3],
        parts: usize,
        made: &mut Vec<ObjRef>,
    ) -> RemoteResult<Self> {
        let machines = ctx.workers();
        // for (id = 0; id < N; id++) fft[id] = new(machine id) FFT(id);
        // An issue that fails destroys the processes issued before it.
        let inboxes = issue_each(ctx, 0..parts, |ctx, id| {
            BlockInboxClient::new_on_async(ctx, id % machines)
        })?;
        let inboxes = join_recorded(ctx, inboxes, made)?;
        let workers = issue_each(ctx, 0..parts, |ctx, id| {
            let [n1, n2, n3] = shape;
            FftWorkerClient::new_on_async(ctx, id % machines, id as u64, n1, n2, n3, parts as u64)
        })?;
        let workers = ProcessGroup::from_members(join_recorded(ctx, workers, made)?);
        // for (id = 0; id < N; id++) fft[id]->SetGroup(N, fft);
        workers.par_each(ctx, |ctx, w, _| {
            w.set_group_async(ctx, workers.members().to_vec(), inboxes.clone())
        })?;
        Ok(DistributedFft3 {
            shape,
            parts,
            workers,
            inboxes: ProcessGroup::from_members(inboxes),
            exchanges: Cell::new(0),
        })
    }

    /// Grid shape.
    pub fn shape(&self) -> [u64; 3] {
        self.shape
    }

    /// Number of FFT processes.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The workers' inboxes, by worker id.
    pub fn inboxes(&self) -> &[BlockInboxClient] {
        self.inboxes.members()
    }

    fn slab_elems(&self) -> usize {
        (self.shape[0] as usize / self.parts) * self.shape[1] as usize * self.shape[2] as usize
    }

    /// Distribute a full grid (row-major, `n1*n2*n3` values) to the
    /// workers, slab by slab, in parallel.
    pub fn scatter(&self, ctx: &mut NodeCtx, data: &[Complex]) -> RemoteResult<()> {
        let total = (self.shape[0] * self.shape[1] * self.shape[2]) as usize;
        if data.len() != total {
            return Err(RemoteError::app(format!(
                "grid of {} values scattered into shape {:?}",
                data.len(),
                self.shape
            )));
        }
        let slab = self.slab_elems();
        // `load_slab(F64s)`, each slab written once: into its request.
        self.workers.par_each(ctx, |ctx, w, id| {
            ctx.start_method::<()>(w.obj_ref(), "load_slab", |w| {
                w.put_varint(2 * slab as u64);
                w.put_f64s(as_f64s(&data[id * slab..][..slab]));
            })
        })?;
        Ok(())
    }

    /// Collect the distributed grid back into one buffer, in whichever
    /// layout the workers hold. Workers in different layouts — one loaded
    /// alone after a transform — are a `RemoteError::app`, never a grid
    /// cut two ways.
    pub fn gather(&self, ctx: &mut NodeCtx) -> RemoteResult<Vec<Complex>> {
        let [_, n2, n3] = self.shape.map(|n| n as usize);
        let (slab, row) = (self.slab_elems(), n2 / self.parts * n3);
        let held = self
            .workers
            .par_each(ctx, |ctx, w, _| w.read_slab_async(ctx))?;
        let layout = held[0].0;
        if held.iter().any(|(other, _)| *other != layout) {
            return Err(RemoteError::app(
                "the workers hold different layouts: no grid to gather",
            ));
        }
        let mut out = vec![Complex::ZERO; self.parts * slab];
        for (p, (_, doubles)) in held.iter().enumerate() {
            if doubles.0.len() != 2 * slab {
                return Err(RemoteError::app("a worker's slab has the wrong size"));
            }
            match layout {
                Layout::Planes => {
                    as_f64s_mut(&mut out[p * slab..][..slab]).copy_from_slice(&doubles.0)
                }
                // Worker p's columns of plane i, for every plane.
                Layout::Columns => {
                    for (i, from) in doubles.0.chunks_exact(2 * row).enumerate() {
                        let dst = &mut out[i * n2 * n3 + p * row..][..row];
                        as_f64s_mut(dst).copy_from_slice(from);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The paper's parallel invocation:
    /// `for (id = 0; id < N; id++) fft[id]->transform(sign, a);` —
    /// issued as the split loop, so all workers run concurrently. The
    /// group is joined between the two internal phases (the passes over
    /// the axes each worker holds and the sends; the takes and the other
    /// passes). That join lets any number of workers share a machine
    /// without deadlock, and it puts every block in its inbox before any
    /// `take` asks, so each is relayed in place: both one-method
    /// `transform`s prototyped kept only one of the two (DESIGN.md §4.1).
    /// The workers end in the other layout: [`gather`](Self::gather)
    /// reads either, and the next transform starts from where this one
    /// stopped.
    ///
    /// Each transform, failed or not, gets the next exchange number. One
    /// that fails part-way leaves no worker mid-phase: before its error is
    /// returned every worker is restarted in planes, so the next transform
    /// runs (and its `take`s drop the blocks the failed one left in an
    /// inbox).
    pub fn transform(&self, ctx: &mut NodeCtx, dir: Direction) -> RemoteResult<()> {
        let epoch = self.exchanges.get();
        self.exchanges.set(epoch + 1);
        let (sign, fft) = (dir.sign() as i64, &self.workers);
        let phases = fft
            .par_each(ctx, |ctx, w, _| w.transform_local_async(ctx, sign, epoch))
            .and_then(|_| fft.par_each(ctx, |ctx, w, _| w.transform_exchange_async(ctx, sign)));
        if phases.is_err() {
            // Best effort: the error that matters is the phase's.
            let _ = fft.par_each(ctx, |ctx, w, _| w.restart_async(ctx));
        }
        phases.map(drop)
    }

    /// Destroy the worker and inbox processes.
    pub fn destroy(self, ctx: &mut NodeCtx) -> RemoteResult<()> {
        self.workers.destroy(ctx)?;
        self.inboxes.destroy(ctx)
    }
}
