//! Pending replies: the split-loop transform as an API.
//!
//! §4 of the paper shows the compiler parallelizing
//!
//! ```c++
//! for (i = 0; i < N; i++) device[i]->read(buffer[k[i]], page_address[i]);
//! ```
//!
//! by splitting it into a send-loop and a receive-loop. Here that transform
//! is explicit: `*_async` client methods return a [`Pending<T>`]; issuing
//! all the calls and then [`join`]ing them is exactly the split loop, with
//! all the latencies overlapped.

use std::marker::PhantomData;

use wire::Wire;

use crate::error::RemoteResult;
use crate::ids::ObjRef;
use crate::node::NodeCtx;
use crate::process::RemoteClient;

/// A reply that has been requested but not yet collected.
///
/// Dropping a `Pending` without waiting pins the call's retransmission
/// slot — the encoded request frame included, 2 MiB for a bulk write — and
/// its eventual reply on the node until the node is dropped: hence
/// `#[must_use]`. [`NodeCtx::abandon_call`] is the way to give a call up.
#[must_use = "a Pending reply must be waited on (or the call had no effect you can observe)"]
#[derive(Debug)]
pub struct Pending<T> {
    pub(crate) req_id: u64,
    _result: PhantomData<fn() -> T>,
}

impl<T: Wire> Pending<T> {
    pub(crate) fn new(req_id: u64) -> Self {
        Pending {
            req_id,
            _result: PhantomData,
        }
    }

    /// Block until the reply arrives (serving incoming requests meanwhile)
    /// and decode it.
    pub fn wait(self, ctx: &mut NodeCtx) -> RemoteResult<T> {
        let bytes = ctx.wait_raw(self.req_id)?;
        Ok(wire::from_bytes(&bytes)?)
    }

    /// The call's request id, for [`NodeCtx::try_take_reply`] and
    /// [`NodeCtx::abandon_call`]: a caller that polls rather than waits.
    pub fn req_id(&self) -> u64 {
        self.req_id
    }
}

/// A call in flight that [`issue_each`] can give up.
pub trait Issued {
    /// Give the call up: forget its reply, or destroy the object it made.
    fn give_up(self, ctx: &mut NodeCtx);
}

impl<T> Issued for Pending<T> {
    fn give_up(self, ctx: &mut NodeCtx) {
        ctx.abandon_call(self.req_id);
    }
}

/// The send-loop of the split loop: `issue` a call per item, in order. If
/// one fails to issue, every call already issued is given up before the
/// error is returned, so none pins its frame or leaves an object behind.
pub fn issue_each<I, P: Issued>(
    ctx: &mut NodeCtx,
    items: impl IntoIterator<Item = I>,
    mut issue: impl FnMut(&mut NodeCtx, I) -> RemoteResult<P>,
) -> RemoteResult<Vec<P>> {
    let mut issued = Vec::new();
    for item in items {
        let call = issue(ctx, item)
            .inspect_err(|_| issued.drain(..).for_each(|call: P| call.give_up(ctx)))?;
        issued.push(call);
    }
    Ok(issued)
}

/// Wait for every pending reply, in order. Returns the first error after
/// draining the rest (so no reply is leaked into the stash).
pub fn join<T: Wire>(ctx: &mut NodeCtx, pendings: Vec<Pending<T>>) -> RemoteResult<Vec<T>> {
    drain(ctx, pendings, Pending::wait)
}

/// The receive-loop of the split loop: `wait` for each of `pendings` in
/// order, all of them even after one fails. Inlined, so `join` stays the
/// single loop around `wait_raw` that the `split_loop` benchmark times.
#[inline]
fn drain<P, T>(
    ctx: &mut NodeCtx,
    pendings: Vec<P>,
    wait: impl Fn(P, &mut NodeCtx) -> RemoteResult<T>,
) -> RemoteResult<Vec<T>> {
    let mut out = Vec::with_capacity(pendings.len());
    let mut first_err = None;
    for p in pendings {
        match wait(p, ctx) {
            Ok(v) => out.push(v),
            Err(e) if first_err.is_none() => first_err = Some(e),
            Err(_) => {}
        }
    }
    match first_err {
        None => Ok(out),
        Some(e) => Err(e),
    }
}

/// A remote construction in flight: `new(machine m) T(...)` issued
/// asynchronously. Waiting yields the typed client.
#[must_use = "a pending construction must be waited on to obtain the client"]
#[derive(Debug)]
pub struct PendingClient<C> {
    pub(crate) machine: usize,
    pub(crate) req_id: u64,
    _client: PhantomData<fn() -> C>,
}

impl<C: RemoteClient> PendingClient<C> {
    pub(crate) fn new(machine: usize, req_id: u64) -> Self {
        PendingClient {
            machine,
            req_id,
            _client: PhantomData,
        }
    }

    /// Block until construction completes; returns the typed client.
    pub fn wait(self, ctx: &mut NodeCtx) -> RemoteResult<C> {
        let bytes = ctx.wait_raw(self.req_id)?;
        let object: u64 = wire::from_bytes(&bytes)?;
        Ok(C::from_ref(ObjRef {
            machine: self.machine,
            object,
        }))
    }
}

impl<C: RemoteClient> Issued for PendingClient<C> {
    fn give_up(self, ctx: &mut NodeCtx) {
        let made = self.wait(ctx).map(|c| c.obj_ref());
        let _ = made.and_then(|obj| ctx.start_destroy(obj)?.wait(ctx));
    }
}

/// Wait for every pending construction. First error wins, all are drained.
pub fn join_clients<C: RemoteClient>(
    ctx: &mut NodeCtx,
    pendings: Vec<PendingClient<C>>,
) -> RemoteResult<Vec<C>> {
    drain(ctx, pendings, PendingClient::wait)
}
