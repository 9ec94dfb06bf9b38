//! The per-machine daemon (object 0): object lifecycle, persistence,
//! migration, supervision and replication verbs.
//!
//! The protocol is declared **once**, in the [`daemon_verbs!`] table below:
//! each row gives a verb's wire name, whom it is aimed at — a machine
//! (`MachineId`) or an object on one (`ObjRef`) — its arguments in wire
//! order, its reply type and, for a verb callers issue synchronously, the
//! name of its blocking stub. The macro derives from it the whole client
//! surface and the server's decode-and-dispatch arm (`on_<verb>`). Adding
//! a verb is one table row and one `on_<verb>` handler.

use std::sync::atomic::Ordering;

use simnet::MachineId;
use wire::collections::Bytes;
use wire::{Reader, Wire, Writer};

use super::judge::{judge, Verdict};
use super::{CallInfo, NodeCtx};
use crate::error::{RemoteError, RemoteResult};
use crate::frame::{Body, MigrationPayload, NodeStats, ReplicaStatus};
use crate::future::{Pending, PendingClient};
use crate::ids::{ObjRef, ObjectId, DAEMON};
use crate::process::{RemoteClient, ServerObject};
use crate::shared::{
    raise_epoch, swap_record, Ask, IncomingReq, LiveObj, ObjRecord, PrimaryMeta, ReplicaMeta, Role,
    Shard,
};
use crate::trace::{EventKind, Family};

/// Why a daemon handler produced no reply. Handlers return
/// [`Handled`], so `?` carries both cases out of them.
enum Refusal {
    /// The verb's object is checked out by a lane (or mid-migration):
    /// park the request on that object's record (see `park_verb`).
    Busy(ObjectId),
    /// Answer the caller with this error.
    Failed(RemoteError),
}

impl From<RemoteError> for Refusal {
    fn from(e: RemoteError) -> Self {
        Refusal::Failed(e)
    }
}

impl From<wire::WireError> for Refusal {
    fn from(e: wire::WireError) -> Self {
        Refusal::Failed(e.into())
    }
}

type Handled<T> = Result<T, Refusal>;

/// Derive the daemon protocol from its verb table. Per row
/// `"name" => verb(Addr, arg: Ty, ...) -> Ret[, pub sync];` this generates
///
/// * `NodeCtx::start_<verb>(at, args) -> Pending<Ret>`: issue the call to
///   the daemon of `at`'s machine without waiting — the wire name, then
///   (when `Addr` is `ObjRef`) `at`'s object id, then the arguments in
///   table order, exactly like a user-class call, so the dispatch path is
///   uniform;
/// * with `pub sync`, `NodeCtx::sync(at, args) -> Ret`: issue and wait;
/// * one arm of `NodeCtx::daemon_dispatch`: decode the object id (for an
///   `ObjRef` row) and the arguments in the same order, reject trailing
///   bytes, run `self.on_<verb>([object,] args)`, encode its reply.
macro_rules! daemon_verbs {
    ($(
        $(#[$doc:meta])*
        $name:literal => $verb:ident($addr:ident $(, $arg:ident: $ty:ty)*) -> $ret:ty
            $(, pub $sync:ident)?;
    )*) => { paste::paste! {
        /// Wire names of every daemon verb, in table order.
        pub const DAEMON_VERBS: &[&str] = &[$($name),*];

        impl NodeCtx {
            $(
                $(#[$doc])*
                ///
                /// Asynchronous daemon stub: the reply is collected with
                /// [`Pending::wait`] (or, by its request id,
                /// [`try_take_reply`](NodeCtx::try_take_reply)).
                pub fn [<start_ $verb>](
                    &mut self,
                    at: $addr
                    $(, $arg: $ty)*
                ) -> RemoteResult<Pending<$ret>> {
                    let (machine, object) = daemon_verbs!(@aim $addr at);
                    let req_id = self.start_method_raw(ObjRef::daemon(machine), $name, |w| {
                        if let Some(object) = object {
                            Wire::encode(&object, w);
                        }
                        $( Wire::encode(&$arg, w); )*
                    })?;
                    Ok(Pending::new(req_id))
                }

                daemon_verbs!(@sync [$($sync)?] $(#[$doc])* [<start_ $verb>]($addr $(, $arg: $ty)*) -> $ret);
            )*

            /// Server side of the table: decode `method`'s arguments from
            /// `args` and run its handler.
            fn daemon_dispatch(&mut self, method: &str, args: &mut Reader<'_>) -> Handled<Body> {
                match method {
                    $(
                        $name => daemon_verbs!(@serve $addr self.[<on_ $verb>](args $(, $arg: $ty)*) -> $ret),
                    )*
                    other => Err(Refusal::Failed(RemoteError::NoSuchMethod {
                        class: "<daemon>".to_string(),
                        method: other.to_string(),
                    })),
                }
            }
        }
    }};
    // A row's address: the machine whose daemon serves the verb, and the
    // object id that leads the arguments on the wire.
    (@aim MachineId $at:ident) => { ($at, None::<ObjectId>) };
    (@aim ObjRef $at:ident) => { ($at.machine, Some($at.object)) };
    (@sync [] $($row:tt)*) => {};
    (@sync [$sync:ident] $(#$doc:tt)* $start:ident($addr:ident $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {
        $(#$doc)*
        pub fn $sync(&mut self, at: $addr $(, $arg: $ty)*) -> RemoteResult<$ret> {
            self.$start(at $(, $arg)*)?.wait(self)
        }
    };
    // An `ObjRef` row's handler takes the object id first.
    (@serve MachineId $($call:tt)*) => { daemon_verbs!(@decode [] $($call)*) };
    (@serve ObjRef $($call:tt)*) => { daemon_verbs!(@decode [object] $($call)*) };
    (@decode [$($object:ident)?] $node:ident.$on:ident($args:ident $(, $arg:ident: $ty:ty)*) -> $ret:ty) => {{
        $( let $object = <ObjectId as Wire>::decode($args)?; )?
        $( let $arg = <$ty as Wire>::decode($args)?; )*
        $args.expect_end()?;
        let reply: $ret = $node.$on($($object,)? $($arg),*)?;
        Ok(Body::of(&reply))
    }};
}

daemon_verbs! {
    /// Liveness probe of a machine's daemon; renews no lease.
    "ping" => ping(MachineId) -> (), pub ping;
    /// `new(machine m) Class(args...)`: construct an object of the
    /// registered `class` from its encoded constructor arguments. Replies
    /// the new object's id.
    "create" => create(MachineId, class: String, args: Bytes) -> ObjectId;
    /// `delete ptr`: run the destructor, terminating the object-process.
    "destroy" => destroy(ObjRef) -> (), pub destroy;
    /// Stop the machine's serve loop (cluster shutdown).
    "shutdown" => shutdown(MachineId) -> (), pub shutdown_machine;
    /// Serialize an object's state without destroying it (persistence,
    /// §5). Fails for non-persistent classes.
    "snapshot" => snapshot(ObjRef) -> Bytes, pub snapshot_of;
    /// §5 deactivation: snapshot the object under `key` on its machine,
    /// then destroy it. Reactivate later with
    /// [`activate`](NodeCtx::activate).
    "deactivate" => deactivate(ObjRef, key: String) -> (), pub deactivate;
    /// §5 activation: restore the snapshot stored under `key` as a fresh
    /// process (the snapshot stays stored). Replies the new object's id.
    "activate" => activate(MachineId, key: String) -> ObjectId;
    /// Remove a stored snapshot. Replies whether one existed.
    "drop_snapshot" => drop_snapshot(MachineId, key: String) -> bool, pub drop_snapshot;
    /// Store a snapshot taken elsewhere under `key` — the replication
    /// half of crash recovery: the machine can later
    /// [`activate`](NodeCtx::activate) it though the object never lived
    /// there.
    "put_snapshot" => put_snapshot(MachineId, key: String, class: String, state: Bytes) -> (),
        pub put_snapshot;
    /// The machine's runtime counters.
    "stats" => stats(MachineId) -> NodeStats, pub stats_of;
    /// Begin a live migration: quiesce the object (its calls defer),
    /// snapshot it and park the state until the coordinator commits or
    /// rolls back. Replies the object's portable identity.
    "migrate_out" => migrate_out(ObjRef) -> MigrationPayload;
    /// Finish a migration on the source: drop the parked state and install
    /// a forwarding stub at the old address pointing at `to`.
    "migrate_commit" => migrate_commit(ObjRef, to: ObjRef) -> ();
    /// Abort a migration on the source: restore the parked state under the
    /// object's **original** id, so old pointers stay valid.
    "migrate_rollback" => migrate_rollback(ObjRef) -> ();
    /// Target half of a migration: restore `state` as a fresh process of
    /// `class` (like `activate`, but the state travels inline). Replies
    /// the new object's id.
    "adopt_state" => adopt_state(MachineId, class: String, state: Bytes) -> ObjectId;
    /// Per-object served-call counters, sorted by object id — the
    /// placement subsystem's load signal.
    "loads" => loads(MachineId) -> Vec<(ObjectId, u64)>, pub loads_of;
    /// One supervisor heartbeat: the reply is the supervisor's liveness
    /// evidence, and its arrival at the far side renewed that machine's
    /// serving lease for `ttl_millis` (DESIGN.md §10): once the lease
    /// expires the machine self-fences its supervised objects.
    "heartbeat" => heartbeat(MachineId, ttl_millis: u64) -> ();
    /// Place the object under epoch fencing at `epoch` (supervision
    /// registration, or a takeover bumping the incarnation).
    "set_epoch" => set_epoch(ObjRef, epoch: u64) -> ();
    /// Takeover half of a recovery: restore the snapshot under `key` *and*
    /// register it at `epoch` atomically, so no call can reach the new
    /// incarnation unfenced. Replies the new object's id.
    "activate_fenced" => activate_fenced(MachineId, key: String, epoch: u64) -> ObjectId;
    /// Fence a (possibly still live) old incarnation after a takeover: its
    /// machine destroys the local object if present, records `epoch` as
    /// its fence, and forwards stale pointers to `to`.
    "fence" => fence(ObjRef, epoch: u64, to: ObjRef) -> (), pub fence_object;
    /// Materialize a read replica of `primary`: restore `state` as a fresh
    /// process of `class`, synced at `rs_epoch`, with a coherence lease of
    /// `lease_millis`. Replies the new object's id.
    "replica_adopt" => replica_adopt(
        MachineId, class: String, state: Bytes, primary: ObjRef, rs_epoch: u64, lease_millis: u64
    ) -> ObjectId;
    /// Primary→replica write propagation: overwrite the replica's state
    /// with `state` at `rs_epoch` and renew its coherence lease. A sync
    /// below the replica's current epoch only renews the lease.
    "replica_sync" => replica_sync(ObjRef, state: Bytes, rs_epoch: u64, lease_millis: u64) -> (),
        pub replica_sync_to;
    /// Lease renewal without a state transfer. Renews only if the replica
    /// is exactly at `rs_epoch`; replies `false` when it has drifted and
    /// needs a full `replica_sync`.
    "replica_renew" => replica_renew(ObjRef, rs_epoch: u64, lease_millis: u64) -> bool,
        pub replica_renew;
    /// Tear down a replica (idempotent) and install a forwarding stub
    /// toward its primary, so stale routes heal through the `Moved` chase.
    "replica_drop" => replica_drop(ObjRef) -> (), pub replica_drop;
    /// Install (or replace) the primary-side replica-set record of the
    /// object: the live replicas, the current replica-set epoch, the
    /// coherence mode and the lease granted to replicas. An empty set with
    /// no lease detaches.
    "replica_attach" => replica_attach(
        ObjRef, replicas: Vec<ObjRef>, rs_epoch: u64, write_through: bool, lease_millis: u64
    ) -> (), pub replica_attach;
    /// Replication role and coherence position of the object; both
    /// primaries and replicas answer.
    "replica_status" => replica_status(ObjRef) -> ReplicaStatus, pub replica_status_of;
    /// Failover: turn a local replica into a normal (primary-capable)
    /// object fenced at incarnation `epoch`.
    "replica_promote" => replica_promote(ObjRef, epoch: u64) -> ();
}

impl NodeCtx {
    // ------------------------------------------------------------------
    // Hand-written conveniences: what the table cannot say — typed
    // clients, epoch beliefs, a loop over machines, the migration driver
    // ------------------------------------------------------------------

    /// `new(machine m) class(args)`: construct an object remotely, blocking
    /// until the constructor finishes.
    pub fn create_object(
        &mut self,
        machine: MachineId,
        class: &str,
        args: Vec<u8>,
    ) -> RemoteResult<ObjRef> {
        let object = self
            .start_create(machine, class.to_string(), Bytes(args))?
            .wait(self)?;
        Ok(ObjRef { machine, object })
    }

    /// Typed remote construction (sync). Prefer the generated
    /// `Client::new_on` wrappers; this is their engine.
    pub fn create<C: RemoteClient>(
        &mut self,
        machine: MachineId,
        args: Vec<u8>,
    ) -> RemoteResult<C> {
        Ok(C::from_ref(self.create_object(machine, C::CLASS, args)?))
    }

    /// Typed remote construction (async).
    pub fn create_async<C: RemoteClient>(
        &mut self,
        machine: MachineId,
        args: Vec<u8>,
    ) -> RemoteResult<PendingClient<C>> {
        let pending = self.start_create(machine, C::CLASS.to_string(), Bytes(args))?;
        Ok(PendingClient::new(machine, pending.req_id))
    }

    /// The payload `start_shutdown` sends, for the cluster's emergency
    /// stop, which has no node context to send it from.
    pub(crate) fn shutdown_payload() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len_prefixed(b"shutdown");
        w.into_bytes()
    }

    /// §5 activation: re-create the process stored under `key` on
    /// `machine`. The snapshot remains stored (activate is not destructive).
    pub fn activate<C: RemoteClient>(&mut self, machine: MachineId, key: &str) -> RemoteResult<C> {
        let object = self.start_activate(machine, key.to_string())?.wait(self)?;
        Ok(C::from_ref(ObjRef { machine, object }))
    }

    /// Takeover activation: restore the snapshot under `key` on `machine`
    /// with the incarnation registered at `epoch` before any call can
    /// reach it. This node also records the epoch belief so its own calls
    /// to the fresh incarnation are stamped correctly.
    pub fn activate_fenced<C: RemoteClient>(
        &mut self,
        machine: MachineId,
        key: &str,
        epoch: u64,
    ) -> RemoteResult<C> {
        let r = self.activate_fenced_raw(machine, key, epoch)?;
        Ok(C::from_ref(r))
    }

    /// Untyped [`activate_fenced`](NodeCtx::activate_fenced) — the
    /// supervisor's form, which knows objects by name and snapshot rather
    /// than by compile-time class.
    pub fn activate_fenced_raw(
        &mut self,
        machine: MachineId,
        key: &str,
        epoch: u64,
    ) -> RemoteResult<ObjRef> {
        let object = self
            .start_activate_fenced(machine, key.to_string(), epoch)?
            .wait(self)?;
        let r = ObjRef { machine, object };
        self.note_epoch(r, epoch);
        Ok(r)
    }

    /// Register `r` for epoch fencing at `epoch` on its home machine
    /// (supervision enrollment; see DESIGN.md §10).
    pub fn set_epoch_of(&mut self, r: ObjRef, epoch: u64) -> RemoteResult<()> {
        self.start_set_epoch(r, epoch)?.wait(self)?;
        self.note_epoch(r, epoch);
        Ok(())
    }

    /// Snapshot a live object and store a copy under `key` on each of
    /// `backups`. If the object's home machine later crashes, any backup
    /// can reactivate it (see
    /// [`resolve_or_activate_supervised`](crate::naming::resolve_or_activate_supervised)).
    pub fn replicate_snapshot<C: RemoteClient>(
        &mut self,
        client: &C,
        key: &str,
        backups: &[MachineId],
    ) -> RemoteResult<()> {
        let state = self.snapshot_of(client.obj_ref())?;
        for &m in backups {
            self.put_snapshot(m, key.to_string(), C::CLASS.to_string(), state.clone())?;
        }
        Ok(())
    }

    /// Materialize a read replica of `class` on `machine` from `state`,
    /// mirroring `primary` at `rs_epoch` under a `lease_millis` coherence
    /// lease. Returns the replica's address.
    pub fn replica_adopt(
        &mut self,
        machine: MachineId,
        class: &str,
        state: Bytes,
        primary: ObjRef,
        rs_epoch: u64,
        lease_millis: u64,
    ) -> RemoteResult<ObjRef> {
        let class = class.to_string();
        let object = self
            .start_replica_adopt(machine, class, state, primary, rs_epoch, lease_millis)?
            .wait(self)?;
        Ok(ObjRef { machine, object })
    }

    /// Promote the replica at `r` into a normal object fenced at `epoch`
    /// (primary-death failover; pair with a directory CAS and a
    /// `replica_attach` of the surviving set).
    pub fn replica_promote(&mut self, r: ObjRef, epoch: u64) -> RemoteResult<()> {
        self.start_replica_promote(r, epoch)?.wait(self)?;
        self.note_epoch(r, epoch);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Live migration (placement subsystem)
    // ------------------------------------------------------------------

    /// Live-migrate a **persistent** object to `target`, transparently to
    /// its callers: quiesce (the source parks the object; its calls
    /// defer), transfer (snapshot shipped through this coordinator),
    /// reactivate on the target, commit (a forwarding stub replaces the
    /// object at the old address; parked and in-flight calls redirect and
    /// execute exactly once at the new home). Stale pointers on other
    /// machines chase at most one forward before needing to re-resolve.
    ///
    /// On failure before the commit the object is rolled back — restored
    /// at the source under its original id — so old pointers stay valid
    /// and the object is never lost. Returns the object's new address.
    pub fn migrate(&mut self, obj: ObjRef, target: MachineId) -> RemoteResult<ObjRef> {
        if target >= self.machines() {
            return Err(RemoteError::BadMachine {
                machine: target,
                machines: self.machines(),
            });
        }
        if obj.object == DAEMON {
            return Err(RemoteError::app("the daemon cannot migrate"));
        }
        let obj = self.beliefs.forwarded(obj);
        if obj.machine == target {
            return Ok(obj); // already home
        }
        // The move's control-plane RMIs must survive a lossy fabric even
        // under a caller's single-shot policy: a lost commit would strand
        // the object in quiesce forever.
        let saved_policy = self.policy;
        self.policy = saved_policy.with_min_retries(3);
        let result = match self.migrate_inner(obj, target) {
            // The ref was stale (someone else moved it first): follow the
            // forward once and retry — or accept it if it already ended up
            // on the requested machine.
            Err(RemoteError::Moved { to }) => {
                self.beliefs.learn_move(obj, to);
                if to.machine == target {
                    Ok(to)
                } else {
                    self.migrate_inner(to, target)
                }
            }
            r => r,
        };
        self.policy = saved_policy;
        result
    }

    fn migrate_inner(&mut self, obj: ObjRef, target: MachineId) -> RemoteResult<ObjRef> {
        // The move is one span: its markers share it, and a move made while
        // serving a traced request belongs to that request's trace.
        let mut moving = self.marker_span(Family::Migration);
        if let (Some(t), Some(serving)) = (&mut moving, self.serving_trace()) {
            t.trace_id = serving.trace_id;
        }
        let mark = |ctx: &Self, kind, peer, bytes| {
            ctx.trace_call(kind, peer, moving.as_ref(), 0, 0, bytes)
        };
        mark(self, EventKind::MigrateBegin, obj.machine, 0);
        // 1. Quiesce + snapshot at the source.
        let bundle = self.start_migrate_out(obj)?.wait(self)?;
        mark(
            self,
            EventKind::MigrateTransfer,
            target,
            bundle.state.0.len() as u32,
        );
        // 2. Reactivate on the target from the shipped state.
        let adopted = self
            .start_adopt_state(target, bundle.class, bundle.state)
            .and_then(|p| p.wait(self));
        match adopted {
            Ok(object) => {
                let new_ref = ObjRef {
                    machine: target,
                    object,
                };
                // 3. Commit: install the forwarding stub at the source.
                match self
                    .start_migrate_commit(obj, new_ref)
                    .and_then(|p| p.wait(self))
                {
                    Ok(()) => {
                        mark(self, EventKind::MigrateCommit, target, 0);
                        self.beliefs.learn_move(obj, new_ref);
                        Ok(new_ref)
                    }
                    Err(e) => {
                        // Commit unreachable: the fresh copy must not
                        // become a second live identity. Undo it and try
                        // to restore the source; if the source is down,
                        // its parked state survives for a later rollback.
                        let _ = self.destroy(new_ref);
                        let _ = self.start_migrate_rollback(obj).and_then(|p| p.wait(self));
                        mark(self, EventKind::MigrateRollback, obj.machine, 0);
                        Err(e)
                    }
                }
            }
            Err(e) => {
                // 2'. Target dead or rejected the state: roll back — the
                // object is restored at the source under its original id.
                self.start_migrate_rollback(obj)?.wait(self)?;
                mark(self, EventKind::MigrateRollback, obj.machine, 0);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Serving the daemon (any lane: a parked verb runs on its object's)
    // ------------------------------------------------------------------

    pub(super) fn serve_daemon(&mut self, req: IncomingReq) {
        let (reply_to, req_id) = (req.reply_to, req.req_id);
        // Calls a verb issues inherit the request's trace (nested spans).
        let saved = self.current_call.replace(CallInfo {
            req_id,
            reply_to,
            trace: req.trace.clone(),
        });
        // The reader borrows the request, not `self`, so handlers run with
        // the whole node at hand and no payload is ever copied.
        let mut reader = Reader::new(&req.payload);
        let outcome = match reader.take_str() {
            Ok(method) => {
                let outcome = self.daemon_dispatch(method, &mut reader);
                // A verb refused `Busy` did not run: it is deferred, not dispatched.
                if !matches!(outcome, Err(Refusal::Busy(_))) {
                    self.trace_request(EventKind::ServerDispatch, &req, 0);
                }
                outcome
            }
            Err(e) => Err(e.into()),
        };
        self.current_call = saved;
        let result = match outcome {
            Err(Refusal::Busy(object)) => return self.park_verb(req, object),
            Err(Refusal::Failed(e)) => Err(e),
            Ok(bytes) => {
                self.shared.stats.calls_served.bump();
                Ok(bytes)
            }
        };
        self.send_response(reply_to, req_id, req.trace.as_ref(), result);
    }

    /// Park `req`, a verb refused `Busy`, on `object`'s record (the token
    /// holder runs it when the running call returns), behind the verbs
    /// parked there and ahead of every call: a verb waits for one call,
    /// never for a queue. A record that changed meanwhile runs it again.
    fn park_verb(&mut self, mut req: IncomingReq, object: ObjectId) {
        let mut shard = self.shared.shard(object);
        let queue = match shard.get_mut(&object) {
            Some(ObjRecord::Live(live)) if live.scheduled => &mut live.mailbox,
            Some(ObjRecord::Migrating { waiting, .. }) => waiting,
            _ => {
                drop(shard);
                return self.serve_daemon(req);
            }
        };
        self.park(&mut req);
        let at = queue.iter().take_while(|r| r.target == DAEMON).count();
        queue.insert(at, req);
    }

    /// What a lifecycle verb aimed at `object` is told when its `record`
    /// is not a live object: the request pipeline's answer for a caller
    /// with no epoch belief — a quiesced (mid-migration) id parks the
    /// verb, a forwarded one redirects, a fenced one says so, and
    /// anything else (`None` included) never existed here.
    fn refuse(&self, record: Option<&ObjRecord>, object: ObjectId) -> Refusal {
        // Neither clock nor lease gates anything but a live object.
        let (here, ask) = (self.here(object), Ask::default());
        match judge(record, here, &ask, &[], 0, u64::MAX, &self.shared.overload) {
            Verdict::Reject(err) | Verdict::Quarantine { err, .. } => Refusal::Failed(err),
            // (`Serve` is for live records, which no caller passes.)
            Verdict::Defer | Verdict::Serve { .. } => Refusal::Busy(object),
        }
    }

    /// The live object of `object` in its (locked) `shard`, for verbs that
    /// read or edit its record in place — checked out or not; any other id
    /// is [`refuse`](NodeCtx::refuse)d.
    fn live<'a>(&self, shard: &'a mut Shard, object: ObjectId) -> Handled<&'a mut LiveObj> {
        match shard.get_mut(&object) {
            Some(ObjRecord::Live(live)) => Ok(live),
            other => Err(self.refuse(other.as_deref(), object)),
        }
    }

    /// [`live`](NodeCtx::live) for a verb that touches the object itself —
    /// reads its state, replaces it, or retires it: the object and its
    /// record's fields, borrowed apart. While a lane has the object checked
    /// out, the verb waits (see [`checked_in`]).
    fn idle<'a>(&self, shard: &'a mut Shard, object: ObjectId) -> Handled<Idle<'a>> {
        match checked_in(shard, object)? {
            Some(ObjRecord::Live(LiveObj {
                slot: Some(obj),
                role,
                epoch,
                calls,
                ..
            })) => Ok(Idle {
                obj,
                role,
                epoch,
                calls: *calls,
            }),
            other => Err(self.refuse(other.as_deref(), object)),
        }
    }

    /// The replica metadata in `object`'s `role`; an object that is no
    /// replica is `NoSuchObject`.
    fn replica<'a>(&self, role: &'a mut Role, object: ObjectId) -> Handled<&'a mut ReplicaMeta> {
        match role {
            Role::Replica(meta) => Ok(meta),
            _ => Err(self.refuse(None, object)),
        }
    }

    /// Swap `object`'s record under its shard lock, then re-admit the
    /// requests that waited in the old one (a mailbox, a migration's
    /// waiters). `edit` swaps it with [`swap_record`]; once the lock is
    /// released, each waiting request is admitted as if it had arrived
    /// after the swap: a call is judged against what `edit` left in the
    /// table, a verb gets its own answer. Dropping the old object
    /// afterwards runs its destructor.
    fn retire<T>(
        &mut self,
        object: ObjectId,
        edit: impl FnOnce(&Self, &mut Shard) -> Handled<(T, Option<ObjRecord>)>,
    ) -> Handled<T> {
        let (out, mut retired) = edit(self, &mut self.shared.shard(object))?;
        for req in self.shared.drain(&mut retired) {
            self.admit(req);
        }
        Ok(out)
    }

    /// Build an object of the registered `class` from snapshot bytes; the
    /// caller decides under which id it becomes reachable.
    fn restore(&mut self, class: &str, state: &[u8]) -> RemoteResult<Box<dyn ServerObject>> {
        let registry = self.registry.clone();
        registry.restore(class, self, state)
    }

    /// [`restore`](NodeCtx::restore) from the snapshot stored under `key`
    /// (which stays stored).
    fn restore_snapshot(&mut self, key: String) -> RemoteResult<Box<dyn ServerObject>> {
        let stored = self.shared.snapshots.lock().get(&key).cloned();
        let (class, state) = stored.ok_or(RemoteError::NoSuchSnapshot { key })?;
        self.restore(&class, &state)
    }

    /// The clock reading at which a lease of `millis` granted now runs
    /// out. `millis` comes off the wire: saturate, so an absurd grant
    /// means "never expires" rather than an overflow panic (debug) or a
    /// wrapped, possibly already past, deadline (release).
    fn lease_expiry(&self, millis: u64) -> u64 {
        self.clock
            .now_nanos()
            .saturating_add(millis.saturating_mul(1_000_000))
    }

    // ------------------------------------------------------------------
    // Verb handlers (`daemon_dispatch` decodes the arguments and calls
    // these)
    // ------------------------------------------------------------------

    fn on_ping(&mut self) -> Handled<()> {
        Ok(())
    }

    fn on_create(&mut self, class: String, args: Bytes) -> Handled<ObjectId> {
        let registry = self.registry.clone();
        let obj = registry.construct(&class, self, &mut Reader::new(&args.0))?;
        Ok(self.adopt(obj).object)
    }

    fn on_destroy(&mut self, object: ObjectId) -> Handled<()> {
        self.retire(object, |ctx, shard| {
            // A supervised incarnation leaves its fence behind.
            let fence = ObjRecord::gone(*ctx.idle(shard, object)?.epoch, None);
            Ok(((), swap_record(shard, object, fence)))
        })
    }

    fn on_shutdown(&mut self) -> Handled<()> {
        // The serve loop exits once this request has been answered.
        self.alive = false;
        Ok(())
    }

    fn on_snapshot(&mut self, object: ObjectId) -> Handled<Bytes> {
        let mut shard = self.shared.shard(object);
        Ok(Bytes(self.idle(&mut shard, object)?.obj.snapshot_state()?))
    }

    /// A snapshot failure (a non-persistent class) leaves the object
    /// untouched.
    fn on_deactivate(&mut self, object: ObjectId, key: String) -> Handled<()> {
        let snapshot = self.retire(object, |ctx, shard| {
            let idle = ctx.idle(shard, object)?;
            let snapshot = (
                idle.obj.class_name().to_string(),
                idle.obj.snapshot_state()?,
            );
            let fence = ObjRecord::gone(*idle.epoch, None);
            Ok((snapshot, swap_record(shard, object, fence)))
        })?;
        self.shared.snapshots.lock().insert(key, snapshot);
        Ok(())
    }

    fn on_activate(&mut self, key: String) -> Handled<ObjectId> {
        let obj = self.restore_snapshot(key)?;
        Ok(self.adopt(obj).object)
    }

    fn on_drop_snapshot(&mut self, key: String) -> Handled<bool> {
        Ok(self.shared.snapshots.lock().remove(&key).is_some())
    }

    fn on_put_snapshot(&mut self, key: String, class: String, state: Bytes) -> Handled<()> {
        self.shared.snapshots.lock().insert(key, (class, state.0));
        Ok(())
    }

    fn on_stats(&mut self) -> Handled<NodeStats> {
        Ok(self.local_stats())
    }

    /// Quiesce + transfer: the record turns `Migrating` — the object's
    /// state parked in it, its requests waiting in it from here on (the
    /// queued ones too: quiesce) — and a snapshot ships to the
    /// coordinator. The object is no longer live but fully recoverable
    /// until commit.
    fn on_migrate_out(&mut self, object: ObjectId) -> Handled<MigrationPayload> {
        self.retire(object, |ctx, shard| {
            let idle = ctx.idle(shard, object)?;
            // Replicated objects are unmovable (DESIGN.md §11): a moving
            // primary would race its own write propagation, and a moving
            // replica is pointless — drop and re-adopt.
            if !matches!(idle.role, Role::Plain) {
                return Err(RemoteError::Replicated { object }.into());
            }
            // A non-persistent class fails with the object intact.
            let payload = MigrationPayload {
                class: idle.obj.class_name().to_string(),
                state: Bytes(idle.obj.snapshot_state()?),
            };
            let parked = ObjRecord::Migrating {
                class: payload.class.clone(),
                state: payload.state.0.clone(),
                epoch: *idle.epoch,
                calls: idle.calls,
                waiting: Default::default(),
            };
            Ok((payload, swap_record(shard, object, Some(parked))))
        })
    }

    /// The parked state goes; the forwarding stub (and the fence, if the
    /// object had one) stays, and the requests that waited out the move
    /// are answered `Moved`.
    fn on_migrate_commit(&mut self, object: ObjectId, to: ObjRef) -> Handled<()> {
        self.retire(object, |ctx, shard| match shard.get(&object) {
            Some(ObjRecord::Migrating { epoch, .. }) => {
                ctx.shared.stats.migrated_out.bump();
                let stub = ObjRecord::Gone {
                    epoch: *epoch,
                    forward: Some(to),
                };
                Ok(((), swap_record(shard, object, Some(stub))))
            }
            // Dedup normally absorbs commit retransmits; this arm
            // keeps the verb idempotent even across a dedup reset.
            Some(ObjRecord::Gone {
                forward: Some(at), ..
            }) if *at == to => Ok(((), None)),
            _ => Err(
                RemoteError::app(format!("migrate_commit: object {object} is not migrating"))
                    .into(),
            ),
        })
    }

    /// The record stays `Migrating` — requests keep waiting in it, even
    /// ones a nested serve inside `restore` admits — until the restored
    /// object is swapped in. A failed restore leaves the state parked
    /// rather than lose the object; a later rollback can retry.
    fn on_migrate_rollback(&mut self, object: ObjectId) -> Handled<()> {
        let (class, state) = match self.shared.shard(object).get(&object) {
            Some(ObjRecord::Migrating { class, state, .. }) => (class.clone(), state.clone()),
            // Idempotent: already rolled back.
            Some(ObjRecord::Live(_)) => return Ok(()),
            _ => {
                return Err(RemoteError::app(format!(
                    "migrate_rollback: object {object} is not migrating"
                ))
                .into())
            }
        };
        let obj = self.restore(&class, &state)?;
        // Restore under the ORIGINAL id: every pointer minted before the
        // aborted move stays valid, no directory update needed.
        self.retire(object, |_, shard| match shard.get(&object) {
            Some(&ObjRecord::Migrating { epoch, calls, .. }) => {
                let live = LiveObj {
                    epoch,
                    calls,
                    ..LiveObj::new(obj)
                };
                Ok(((), swap_record(shard, object, Some(ObjRecord::Live(live)))))
            }
            _ => Ok(((), None)),
        })
    }

    /// Reactivation half of a migration: build the object from its shipped
    /// snapshot under a fresh local id.
    fn on_adopt_state(&mut self, class: String, state: Bytes) -> Handled<ObjectId> {
        let obj = self.restore(&class, &state.0)?;
        self.shared.stats.migrated_in.bump();
        Ok(self.adopt(obj).object)
    }

    /// Sorted by id so the reply is deterministic.
    fn on_loads(&mut self) -> Handled<Vec<(ObjectId, u64)>> {
        let mut loads = Vec::new();
        for shard in &self.shared.shards {
            loads.extend(
                shard
                    .lock()
                    .iter()
                    .filter_map(|(&id, record)| match record {
                        ObjRecord::Live(LiveObj { calls, .. })
                        | ObjRecord::Migrating { calls, .. }
                            if *calls > 0 =>
                        {
                            Some((id, *calls))
                        }
                        _ => None,
                    }),
            );
        }
        loads.sort_unstable();
        Ok(loads)
    }

    /// The reply is the supervisor's liveness evidence. Arrival also renews
    /// the serving lease — the machine may serve supervised objects for
    /// another `ttl_millis` from *now*.
    fn on_heartbeat(&mut self, ttl_millis: u64) -> Handled<()> {
        let lease = self.lease_expiry(ttl_millis);
        self.shared.lease.store(lease, Ordering::Relaxed);
        self.shared.stats.heartbeats_served.bump();
        Ok(())
    }

    /// Raise the epoch of a live object or of what one left behind; an id
    /// this machine has no record of is refused like any other verb's —
    /// planting a fence for it would ambush whichever object is later
    /// allocated that id.
    fn on_set_epoch(&mut self, object: ObjectId, epoch: u64) -> Handled<()> {
        match self.shared.shard(object).get_mut(&object) {
            Some(record) => {
                raise_epoch(record.epoch_mut(), epoch);
                Ok(())
            }
            None => Err(self.refuse(None, object)),
        }
    }

    /// The restored incarnation is born at its bumped epoch: no call can
    /// reach it unfenced.
    fn on_activate_fenced(&mut self, key: String, epoch: u64) -> Handled<ObjectId> {
        let obj = self.restore_snapshot(key)?;
        let id = self.shared.alloc_obj_id();
        let live = LiveObj {
            epoch: Some(epoch),
            ..LiveObj::new(obj)
        };
        self.shared.insert_object(id, live);
        Ok(id)
    }

    /// Idempotent: fencing an already-fenced or never-lived id just
    /// (re)installs the epoch and the forwarding stub. One swap retires
    /// the local object (or its parked migration state) and leaves the
    /// tombstone, so the requests that waited in it resolve against the
    /// stub.
    fn on_fence(&mut self, object: ObjectId, epoch: u64, to: ObjRef) -> Handled<()> {
        self.retire(object, |_, shard| {
            let mut fence = checked_in(shard, object)?.and_then(|record| record.epoch());
            raise_epoch(&mut fence, epoch);
            let fence = ObjRecord::Gone {
                epoch: fence,
                forward: Some(to),
            };
            Ok(((), swap_record(shard, object, Some(fence))))
        })
    }

    /// The replica is an ordinary object whose `Replica` role gates what
    /// it may serve; role and object become visible in one insert.
    fn on_replica_adopt(
        &mut self,
        class: String,
        state: Bytes,
        primary: ObjRef,
        rs_epoch: u64,
        lease_millis: u64,
    ) -> Handled<ObjectId> {
        let obj = self.restore(&class, &state.0)?;
        let read_verbs = obj.read_verbs();
        if read_verbs.is_empty() {
            return Err(RemoteError::app(format!(
                "replica_adopt: class {class:?} declares no read verbs \
                 (nothing a replica could serve)"
            ))
            .into());
        }
        let id = self.shared.alloc_obj_id();
        let live = LiveObj {
            role: Role::Replica(Box::new(ReplicaMeta {
                primary,
                rs_epoch,
                lease_until: self.lease_expiry(lease_millis),
                read_verbs,
            })),
            ..LiveObj::new(obj)
        };
        self.shared.insert_object(id, live);
        Ok(id)
    }

    /// A sync at or above the replica's epoch replaces its state; an older
    /// one (a raced propagation that lost) only renews the lease — state
    /// never regresses.
    fn on_replica_sync(
        &mut self,
        object: ObjectId,
        state: Bytes,
        rs_epoch: u64,
        lease_millis: u64,
    ) -> Handled<()> {
        let (fresh, class) = {
            let mut shard = self.shared.shard(object);
            let idle = self.idle(&mut shard, object)?;
            let meta = self.replica(idle.role, object)?;
            (rs_epoch >= meta.rs_epoch, idle.obj.class_name())
        };
        let replaced = match fresh {
            true => Some(self.restore(class, &state.0)?),
            false => None,
        };
        // Re-take the shard lock (restore may itself serve): if a worker
        // checked the replica out meanwhile, come back once it is idle
        // rather than swap mid-read.
        let mut shard = self.shared.shard(object);
        let idle = self.idle(&mut shard, object)?;
        let meta = self.replica(idle.role, object)?;
        if let Some(replaced) = replaced {
            *idle.obj = replaced;
        }
        meta.rs_epoch = meta.rs_epoch.max(rs_epoch);
        meta.lease_until = self.lease_expiry(lease_millis);
        Ok(())
    }

    fn on_replica_renew(
        &mut self,
        object: ObjectId,
        rs_epoch: u64,
        lease_millis: u64,
    ) -> Handled<bool> {
        let mut shard = self.shared.shard(object);
        let meta = self.replica(&mut self.live(&mut shard, object)?.role, object)?;
        let current = meta.rs_epoch == rs_epoch;
        if current {
            meta.lease_until = self.lease_expiry(lease_millis);
        }
        Ok(current)
    }

    /// Idempotent. One swap: the replica goes and the forwarding stub
    /// toward its primary appears atomically.
    fn on_replica_drop(&mut self, object: ObjectId) -> Handled<()> {
        self.retire(object, |_, shard| {
            let stub = match checked_in(shard, object)? {
                Some(ObjRecord::Live(LiveObj {
                    role: Role::Replica(meta),
                    epoch,
                    ..
                })) => ObjRecord::gone(*epoch, Some(meta.primary)),
                _ => return Ok(((), None)),
            };
            Ok(((), swap_record(shard, object, stub)))
        })
    }

    /// From here on, write verbs served by `object` bump the replica-set
    /// epoch and propagate per the mode.
    fn on_replica_attach(
        &mut self,
        object: ObjectId,
        replicas: Vec<ObjRef>,
        rs_epoch: u64,
        write_through: bool,
        lease_millis: u64,
    ) -> Handled<()> {
        let mut shard = self.shared.shard(object);
        let live = self.live(&mut shard, object)?;
        if replicas.is_empty() && lease_millis == 0 {
            // Detach: an empty set with no lease is `unreplicate`
            // tearing the record down — the object becomes a
            // normal (and movable) single process again.
            if matches!(live.role, Role::Primary(_)) {
                live.role = Role::Plain;
            }
        } else {
            live.role = Role::Primary(Box::new(PrimaryMeta {
                replicas,
                rs_epoch,
                write_through,
                lease_millis,
            }));
        }
        Ok(())
    }

    fn on_replica_status(&mut self, object: ObjectId) -> Handled<ReplicaStatus> {
        let mut shard = self.shared.shard(object);
        match &self.live(&mut shard, object)?.role {
            Role::Primary(pm) => Ok(ReplicaStatus {
                is_primary: true,
                rs_epoch: pm.rs_epoch,
                replicas: pm.replicas.clone(),
            }),
            Role::Replica(meta) => Ok(ReplicaStatus {
                is_primary: false,
                rs_epoch: meta.rs_epoch,
                replicas: vec![meta.primary],
            }),
            Role::Plain => Err(self.refuse(None, object)),
        }
    }

    /// The manager re-attaches the surviving set afterwards.
    fn on_replica_promote(&mut self, object: ObjectId, epoch: u64) -> Handled<()> {
        let mut shard = self.shared.shard(object);
        let idle = self.idle(&mut shard, object)?;
        if matches!(idle.role, Role::Replica(_)) {
            *idle.role = Role::Plain;
        }
        raise_epoch(idle.epoch, epoch);
        Ok(())
    }
}

/// `object`'s record, for a verb that touches the object itself. A live
/// object a lane has checked out is `Busy`: the verb is parked at the head
/// of its mailbox and runs once the call has returned, before any call
/// queued behind it, so it sees the call's effect. This is the one place a
/// verb meets a checked-out object.
fn checked_in(shard: &mut Shard, object: ObjectId) -> Handled<Option<&mut ObjRecord>> {
    match shard.get_mut(&object) {
        Some(ObjRecord::Live(LiveObj { slot: None, .. })) => Err(Refusal::Busy(object)),
        record => Ok(record),
    }
}

/// A checked-in live object, borrowed field by field (see
/// [`NodeCtx::idle`]).
struct Idle<'a> {
    obj: &'a mut Box<dyn ServerObject>,
    role: &'a mut Role,
    epoch: &'a mut Option<u64>,
    calls: u64,
}
