//! Process groups and barriers (§4).
//!
//! The paper's FFT example creates `N` processes, tells each about the
//! whole group (`SetGroup`), and synchronizes them with a
//! "compiler-supported barrier method for arrays of objects"
//! (`fft->barrier()`). [`ProcessGroup`] is that array-of-remote-pointers,
//! and [`Barrier`] the synchronization object.
//!
//! A barrier must *not* reply to `enter` until the last party arrives, so
//! its `enter` returns [`DispatchResult::NoReply`] and the last party
//! answers every caller with [`NodeCtx::send_reply`] — a class description
//! like any other (see `remote_class!`'s deferred replies).

use wire::Wire;

use crate::error::{RemoteError, RemoteResult};
use crate::frame::Body;
use crate::future::{issue_each, join, join_clients, Pending};
use crate::node::{CallInfo, NodeCtx};
use crate::process::{DispatchResult, RemoteClient};

remote_class! {
    /// Remote pointer to a [`Barrier`].
    class Barrier {
        ctor(parties: usize);
        /// Enter the barrier and block until all parties have entered.
        fn enter(&mut self) -> ();
        /// How many rounds this barrier has completed.
        fn generations(&mut self) -> u64;
        /// How many parties the barrier waits for.
        fn parties(&mut self) -> usize;
    }
}

/// Server state: a rendezvous for `parties` callers.
#[derive(Debug)]
pub struct Barrier {
    parties: usize,
    waiting: Vec<CallInfo>,
    /// Completed barrier rounds (for introspection/testing).
    generations: u64,
}

impl Barrier {
    /// A barrier for `parties` participants (must be ≥ 1).
    fn new(_ctx: &mut NodeCtx, parties: usize) -> RemoteResult<Self> {
        if parties == 0 {
            return Err(RemoteError::app("a barrier needs at least one party"));
        }
        Ok(Barrier {
            parties,
            waiting: Vec::with_capacity(parties),
            generations: 0,
        })
    }

    fn enter(&mut self, ctx: &mut NodeCtx) -> RemoteResult<DispatchResult> {
        let call = ctx
            .current_call()
            .expect("barrier dispatched outside a call");
        self.waiting.push(call);
        if self.waiting.len() == self.parties {
            // Last party: release everyone (including this caller).
            self.generations += 1;
            for waiter in self.waiting.drain(..) {
                ctx.send_reply(waiter, Ok(Body::of(&())));
            }
        }
        Ok(DispatchResult::NoReply)
    }

    fn generations(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.generations)
    }

    fn parties(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<usize> {
        Ok(self.parties)
    }
}

/// An array of remote objects of one class — the paper's `FFT *fft[N]`.
#[derive(Debug, Clone)]
pub struct ProcessGroup<C> {
    members: Vec<C>,
}

impl<C: RemoteClient> ProcessGroup<C> {
    /// Wrap existing clients.
    pub fn from_members(members: Vec<C>) -> Self {
        ProcessGroup { members }
    }

    /// Create one member per worker machine `0..n`, **in parallel**: all
    /// constructor requests are issued before any reply is awaited (the §4
    /// split loop applied to `new`). `make_args(id)` encodes the
    /// constructor arguments for member `id`.
    pub fn create(
        ctx: &mut NodeCtx,
        n: usize,
        mut make_args: impl FnMut(usize) -> Vec<u8>,
    ) -> RemoteResult<Self> {
        let pendings = issue_each(ctx, 0..n, |ctx, id| {
            ctx.create_async::<C>(id, make_args(id))
        })?;
        Ok(ProcessGroup {
            members: join_clients(ctx, pendings)?,
        })
    }

    /// Group size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members, in id order.
    pub fn members(&self) -> &[C] {
        &self.members
    }

    /// Member `id`.
    pub fn member(&self, id: usize) -> &C {
        &self.members[id]
    }

    /// The paper's parallel loop: issue `start(ctx, member, id)` for every
    /// member (the send half), then collect every reply (the receive half).
    pub fn par_each<T: Wire>(
        &self,
        ctx: &mut NodeCtx,
        mut start: impl FnMut(&mut NodeCtx, &C, usize) -> RemoteResult<Pending<T>>,
    ) -> RemoteResult<Vec<T>> {
        let members = self.members.iter().enumerate();
        let pendings = issue_each(ctx, members, |ctx, (id, m)| start(ctx, m, id))?;
        join(ctx, pendings)
    }

    /// The group of live copies of a replicated object: the primary first,
    /// then every read replica from the route registered on this node (see
    /// [`NodeCtx::register_replica_route`]). An unreplicated object yields
    /// a singleton group, so callers can broadcast unconditionally.
    pub fn of_replica_set(ctx: &NodeCtx, primary: &C) -> Self {
        let mut members = vec![C::from_ref(primary.obj_ref())];
        if let Some((replicas, _)) = ctx.replica_route_of(primary.obj_ref()) {
            members.extend(replicas.into_iter().map(C::from_ref));
        }
        ProcessGroup { members }
    }

    /// Broadcast one call to every member — the §4 split loop with an
    /// identical payload: every request is transmitted before any reply is
    /// awaited. Each member is addressed by its own remote pointer, so a
    /// broadcast over [`of_replica_set`](ProcessGroup::of_replica_set)
    /// lands on each replica directly instead of being re-routed; use it
    /// for read verbs only (a write verb would bounce off every replica
    /// with [`Moved`](crate::RemoteError::Moved)).
    pub fn broadcast<T: Wire>(
        &self,
        ctx: &mut NodeCtx,
        method: &str,
        encode_args: impl Fn(&mut wire::Writer),
    ) -> RemoteResult<Vec<T>> {
        self.par_each(ctx, |ctx, m, _| {
            ctx.start_method_direct(m.obj_ref(), method, &encode_args)
        })
    }

    /// Destroy every member (in parallel).
    pub fn destroy(self, ctx: &mut NodeCtx) -> RemoteResult<()> {
        let pendings = issue_each(ctx, &self.members, |ctx, m| ctx.start_destroy(m.obj_ref()))?;
        join(ctx, pendings)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ObjRef;

    #[test]
    fn barrier_rejects_zero_parties() {
        let (cluster, mut driver) = crate::ClusterBuilder::new(1).build();
        let err = BarrierClient::new_on(&mut driver, 0, 0).unwrap_err();
        assert!(err
            .to_string()
            .contains("a barrier needs at least one party"));
        let b = BarrierClient::new_on(&mut driver, 0, 3).unwrap();
        assert_eq!(b.parties(&mut driver).unwrap(), 3);
        assert_eq!(b.generations(&mut driver).unwrap(), 0);
        cluster.shutdown(driver);
    }

    #[test]
    fn barrier_client_is_wire_encodable() {
        let c = BarrierClient::from_ref(ObjRef {
            machine: 1,
            object: 5,
        });
        let back: BarrierClient = wire::from_bytes(&wire::to_bytes(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn group_accessors() {
        let g = ProcessGroup::from_members(vec![
            BarrierClient::from_ref(ObjRef {
                machine: 0,
                object: 1,
            }),
            BarrierClient::from_ref(ObjRef {
                machine: 1,
                object: 1,
            }),
        ]);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.member(1).obj_ref().machine, 1);
        assert_eq!(g.members().len(), 2);
    }
}
