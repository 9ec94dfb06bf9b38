//! The per-machine progress engine.
//!
//! Every machine in an oopp cluster runs one **dispatcher** [`NodeCtx`]: the
//! engine that owns the machine's network inbox, **admits** requests into
//! their target objects' mailboxes, serves daemon verbs, and **issues**
//! requests on behalf of the code currently running on it. Execution of
//! object mailboxes happens either inline on the dispatcher (the classic
//! single-threaded profile, still the default) or on an M:N pool of worker
//! lanes with per-worker work-stealing deques (DESIGN.md §13) — each worker
//! lane is itself a `NodeCtx` sharing the machine's `SharedNode` state, so
//! methods running on a worker issue remote calls exactly like the paper's
//! sequential RMI model prescribes.
//!
//! One process per object means calls to an object **serialize**: a mailbox
//! is owned by at most one lane at a time (a single "task token" per object
//! enforces it), so within an object the original semantics are untouched no
//! matter how many workers the machine runs. A cycle of cross-object waits
//! (A's method calls B while B's method calls A on the same lanes) is a
//! genuine distributed deadlock; the engine converts it into
//! [`RemoteError::Timeout`] rather than hanging forever.
//!
//! The engine is split along its roles: `call` issues requests and waits
//! for replies (the client role) and `beliefs` is what that role has
//! learned about its targets — one record per object, one per machine;
//! `serve` admits and executes incoming requests (the server role) through
//! the gates of `judge`; and `daemon` is the per-machine daemon — the verb
//! table, its public wrappers and its handlers.

mod beliefs;
mod call;
mod daemon;
mod judge;
mod serve;

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use simnet::{Clock, MachineId, Network, Packet, PacketBytes, SimDisk};
use wire::Reader;

use crate::error::{RemoteError, RemoteResult};
use crate::frame::NodeStats;
use crate::ids::{IdMap, ObjRef, ObjectId};
use crate::policy::CallPolicy;
use crate::process::{ClassRegistry, ServerClass, ServerObject};
use crate::shared::{CallTrace, IncomingReq, LiveObj, Sched, SharedNode, WorkerMsg};
use crate::trace::{EventKind, Recorder, Tracer};

use beliefs::Beliefs;
use call::OutboundCall;
pub use daemon::DAEMON_VERBS;

/// Identity of an in-flight request, handed to objects that defer their
/// replies (see [`DispatchResult::NoReply`](crate::DispatchResult::NoReply)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallInfo {
    /// Correlation id chosen by the caller.
    pub req_id: u64,
    /// Machine the response must go to.
    pub reply_to: MachineId,
}

/// Worker-lane identity: the control channel the dispatcher routes into,
/// the virtual-clock park label, and this worker's own work-stealing deque.
pub(crate) struct WorkerLane {
    pub(crate) rx: Receiver<WorkerMsg>,
    pub(crate) label: u64,
    pub(crate) index: usize,
    pub(crate) deque: sched::Worker<ObjectId>,
}

/// What every lane of one machine is built from.
pub(crate) struct MachineEnv<'a> {
    pub(crate) machine: MachineId,
    pub(crate) workers: usize,
    pub(crate) net: &'a Network,
    pub(crate) registry: &'a Arc<ClassRegistry>,
    pub(crate) disks: &'a [Arc<SimDisk>],
    pub(crate) policy: CallPolicy,
    /// The cluster's flight recorder, when tracing is on.
    pub(crate) recorder: Option<&'a Arc<Recorder>>,
    pub(crate) shared: Arc<SharedNode>,
}

/// A lane's role on its machine, with what only that role receives through.
pub(crate) enum LaneRole {
    /// Owns the machine's network inbox and the admission path; executes
    /// objects inline when the machine's `sched` is [`Sched::Inline`],
    /// hands them to the pool otherwise. The driver endpoint is one too.
    Dispatcher(Receiver<Packet>),
    /// Worker lane `index` of a pooled machine.
    Worker(WorkerLane),
}

/// A lane's place among the virtual clock's actors (DESIGN §12.2): taken
/// when the lane is built, given up exactly once — by the lane's drop, or,
/// for the driver, by the cluster's when that runs first (the driver never
/// parks, so while it holds its place the clock delivers nothing). A no-op
/// on the real clock.
#[derive(Clone)]
pub(crate) struct ActorSeat {
    clock: Clock,
    held: Arc<AtomicBool>,
}

impl ActorSeat {
    fn take(clock: &Clock) -> Self {
        clock.register_actor();
        ActorSeat {
            clock: clock.clone(),
            held: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Leave the clock's actors, unless this seat already has. If that
    /// leaves every remaining actor parked, the clock runs on before this
    /// returns — the shutdown cascade depends on it.
    pub(crate) fn release(&self) {
        if self.held.swap(false, Ordering::AcqRel) {
            self.clock.deregister_actor();
        }
    }
}

/// Default reply window. Long enough for heavily costed benchmark runs,
/// short enough that a deadlocked test fails rather than hangs.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// One machine's runtime state: its objects, its link to the fabric, and
/// the progress engine that serves and issues calls.
pub struct NodeCtx {
    machine: MachineId,
    workers: usize,
    net: Network,
    /// The cluster clock (shared with the fabric): all timeouts, backoffs
    /// and leases on this node are measured against it, so a virtual-time
    /// cluster never blocks on a wall-clock-only timer.
    clock: Clock,
    /// This lane's place among the virtual clock's actors.
    seat: ActorSeat,
    /// What this lane is, and with it what it receives through: the
    /// machine's network inbox, or a worker lane's control channel.
    role: LaneRole,
    /// Request-id lane number. Every lane on a machine allocates req_ids
    /// congruent to its lane number modulo `stride`, so the dispatcher can
    /// route a response to the lane that issued the call without any shared
    /// correlation table. Lane 0 is the dispatcher; worker `w` is lane
    /// `w + 1`.
    lane_no: u64,
    /// `sched workers + 1` on pooled machines, 1 everywhere else (which
    /// makes req-id allocation byte-identical to the single-threaded
    /// engine).
    stride: u64,
    registry: Arc<ClassRegistry>,
    disks: Vec<Arc<SimDisk>>,
    /// The machine's thread-shared server state: the object table, dedup
    /// window, counters, and the scheduler handle.
    shared: Arc<SharedNode>,
    /// Requests this lane must retry later (daemon verbs that reported
    /// Busy, requests for mid-migration objects). Dispatcher-only in
    /// practice; lane-local always.
    deferred: VecDeque<IncomingReq>,
    /// Replies that have arrived for calls still `outstanding`, each still
    /// inside the packet that brought it.
    replies: IdMap<u64, Result<PacketBytes, RemoteError>>,
    /// Passivated object states (daemon verbs `deactivate`/`activate`).
    /// Dispatcher-local: only daemon verbs touch it.
    snapshots: HashMap<String, (String, Vec<u8>)>,
    /// Everything this lane believes about the objects, machines and
    /// names it calls.
    beliefs: Beliefs,
    outstanding: IdMap<u64, OutboundCall>,
    /// The buffer of the last call retired with nobody else holding its
    /// frame (empty when there is none): the next call is encoded into it
    /// instead of a fresh allocation (see `retire_call`).
    spare_frame: Vec<u8>,
    current_call: Option<CallInfo>,
    /// Method name and arguments of the request being dispatched, for
    /// [`request_bytes`](NodeCtx::request_bytes).
    current_args: Option<PacketBytes>,
    next_req_id: u64,
    alive: bool,
    policy: CallPolicy,
    /// Flight recorder handle; `None` (the default) disables tracing.
    tracer: Option<Tracer>,
    /// Monotone counter behind span-id allocation (see `alloc_span`).
    next_span: u64,
    /// Trace identity of the request currently being dispatched, so calls
    /// issued from inside a method inherit its trace and parent span.
    current_trace: Option<(u64, u64)>,
    /// Absolute deadline of the request currently being dispatched, so
    /// calls issued from inside a method inherit the caller's remaining
    /// budget (deadline propagation across hops, DESIGN.md §15).
    current_deadline: Option<u64>,
    /// Round counter feeding the seeded steal-order permutation. A `Cell`
    /// so a worker can scan for a task while holding its lane (borrowed
    /// from `role`) for the park that follows an empty scan.
    steal_round: Cell<u64>,
}

impl std::fmt::Debug for NodeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCtx")
            .field("machine", &self.machine)
            .field("lane", &self.lane_no)
            .field("objects", &self.shared.objects_live())
            .field("deferred", &self.deferred.len())
            .finish()
    }
}

impl Drop for NodeCtx {
    fn drop(&mut self) {
        self.seat.release();
    }
}

impl NodeCtx {
    /// Build one lane of `env`'s machine.
    pub(crate) fn new(env: &MachineEnv<'_>, role: LaneRole) -> Self {
        let clock = env.net.clock().clone();
        // Virtual time only advances while every actor is parked in the
        // clock, so each NodeCtx — worker lanes included — takes a seat.
        let seat = ActorSeat::take(&clock);
        let stride = match &env.shared.sched {
            Sched::Inline => 1,
            Sched::Pool(pool) => pool.workers() as u64 + 1,
        };
        let lane_no = match &role {
            LaneRole::Dispatcher(_) => 0,
            LaneRole::Worker(lane) => lane.index as u64 + 1,
        };
        NodeCtx {
            machine: env.machine,
            workers: env.workers,
            net: env.net.clone(),
            clock,
            seat,
            role,
            lane_no,
            stride,
            registry: env.registry.clone(),
            disks: env.disks.to_vec(),
            shared: env.shared.clone(),
            deferred: VecDeque::new(),
            replies: IdMap::default(),
            snapshots: HashMap::new(),
            beliefs: Beliefs::new(env.workers + 1),
            outstanding: IdMap::default(),
            spare_frame: Vec::new(),
            current_call: None,
            current_args: None,
            // Lane 0 starts at `stride` (so id 0 stays unused, and with
            // stride 1 this is the classic "ids start at 1"); lane L
            // starts at L. Stepping by `stride` keeps lanes disjoint.
            next_req_id: if lane_no == 0 { stride } else { lane_no },
            alive: true,
            policy: env.policy,
            tracer: env
                .recorder
                .map(|r| r.tracer_lane(env.machine, lane_no as usize)),
            next_span: 1,
            current_trace: None,
            current_deadline: None,
            steal_round: Cell::new(0),
        }
    }

    /// Cluster-unique span id: machine-prefixed so two machines can never
    /// mint the same id (`machine + 1` so id 0 stays reserved for
    /// "untraced"), lane-prefixed so two lanes of one machine cannot
    /// either.
    fn alloc_span(&mut self) -> u64 {
        let span = ((self.machine as u64 + 1) << 48) | (self.lane_no << 40) | self.next_span;
        self.next_span += 1;
        span
    }

    /// Next request id on this lane's arithmetic progression (see
    /// `lane_no`/`stride`).
    fn alloc_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += self.stride;
        id
    }

    // ------------------------------------------------------------------
    // Identity and hardware
    // ------------------------------------------------------------------

    /// This machine's id.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of worker machines (ids `0..workers()`). The driver program
    /// runs on the extra endpoint `workers()`.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total endpoints, workers plus driver.
    pub fn machines(&self) -> usize {
        self.workers + 1
    }

    /// This lane's place among the virtual clock's actors.
    pub(crate) fn seat(&self) -> &ActorSeat {
        &self.seat
    }

    /// The cluster clock this node measures every timeout, backoff and
    /// lease against. Virtual nanos under a virtual-time cluster.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Current clock reading in nanoseconds since the cluster epoch.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Locally attached disks.
    pub fn disks(&self) -> &[Arc<SimDisk>] {
        &self.disks
    }

    /// One local disk handle.
    ///
    /// # Panics
    /// If `i` is out of range for this machine.
    pub fn disk(&self, i: usize) -> Arc<SimDisk> {
        self.disks[i].clone()
    }

    // ------------------------------------------------------------------
    // Flight recorder (every event this node emits goes through these)
    // ------------------------------------------------------------------

    /// Record an event of a call identified by a [`CallTrace`]: the client
    /// side of a call this node issued (`peer` = its destination), or the
    /// reply to one it served (`peer` = the caller). No-op when tracing is
    /// off or the call is untraced.
    fn trace_call(
        &self,
        kind: EventKind,
        peer: MachineId,
        trace: Option<&CallTrace>,
        req_id: u64,
        attempt: u32,
        bytes: usize,
    ) {
        if let (Some(tracer), Some(t)) = (&self.tracer, trace) {
            tracer.record(
                kind,
                peer,
                t.trace_id,
                t.span,
                t.parent_span,
                req_id,
                attempt,
                bytes as u32,
                t.method.clone(),
            );
        }
    }

    /// Record a server-side event about the admitted request `req` (peer =
    /// its caller; `value` lands in the `bytes` column).
    fn trace_req(&self, kind: EventKind, req: &IncomingReq, value: u32) {
        if let (Some(tracer), Some(method)) = (&self.tracer, &req.method) {
            tracer.record(
                kind,
                req.reply_to,
                req.trace_id,
                req.span,
                0,
                req.req_id,
                0,
                value,
                method.clone(),
            );
        }
    }

    /// Record an origin event — a marker that opens its own span rather
    /// than belonging to a call: `value` lands in the `bytes` column and
    /// `label` in the method column.
    fn trace_marker(&mut self, kind: EventKind, peer: MachineId, value: u32, label: &str) {
        if self.tracer.is_none() {
            return;
        }
        let span = self.alloc_span();
        if let Some(tracer) = &self.tracer {
            tracer.record(kind, peer, span, span, 0, 0, 0, value, label.into());
        }
    }

    /// Record a client-side overload marker event (breaker transitions,
    /// fast-fails). These are origin events: `value` lands in the `bytes`
    /// column and the peer column names the destination machine.
    fn record_overload_marker(&mut self, kind: EventKind, dest: MachineId, value: u32) {
        self.trace_marker(kind, dest, value, "overload");
    }

    /// Record a replica lifecycle marker in the flight recorder (no-op
    /// when tracing is off). `peer` is the machine the event concerns;
    /// `bytes` carries the marker's scalar payload (replica-set epoch, or
    /// replica count for scale events).
    pub fn replica_marker(&mut self, kind: EventKind, peer: MachineId, bytes: u32) {
        self.trace_marker(kind, peer, bytes, "replicate");
    }

    /// Record a supervision lifecycle marker in the flight recorder (no-op
    /// when tracing is off). `peer` is the machine the event is about;
    /// `bytes` carries the marker's scalar payload (phi ×1000 for
    /// suspicion events, MTTR in microseconds for reactivations).
    pub fn supervision_marker(&mut self, kind: EventKind, peer: MachineId, bytes: u32) {
        self.trace_marker(kind, peer, bytes, "supervise");
    }

    /// Number of live objects on this node (excluding the daemon).
    pub fn objects_live(&self) -> usize {
        self.shared.objects_live()
    }

    /// This node's own counters, without a network round trip — what
    /// [`stats_of`](NodeCtx::stats_of) would report about this machine.
    /// The driver uses it to read its client-role counters
    /// (`calls_retried`) after a chaotic run.
    pub fn local_stats(&self) -> NodeStats {
        self.shared.stats.snapshot(
            self.shared.objects_live() as u64,
            self.snapshots.len() as u64,
        )
    }

    /// Register a locally constructed object (used by the runtime to host
    /// driver-side objects and by tests). Returns its reference.
    pub fn adopt(&mut self, obj: Box<dyn ServerObject>) -> ObjRef {
        let id = self.shared.alloc_obj_id();
        self.shared.insert_object(id, LiveObj::new(obj));
        self.here(id)
    }

    /// The address of `object` on this machine.
    fn here(&self, object: ObjectId) -> ObjRef {
        ObjRef {
            machine: self.machine,
            object,
        }
    }

    /// Construct and host an object of class `T` on **this** node directly
    /// (no network round trip). Used by the runtime for built-ins.
    pub fn adopt_new<T: ServerClass>(&mut self, args: Vec<u8>) -> RemoteResult<ObjRef> {
        let mut reader = Reader::new(&args);
        let obj = T::construct(self, &mut reader)?;
        Ok(self.adopt(Box::new(obj)))
    }
}

/// First len-prefixed string of a request payload — the method name. Only
/// the flight recorder calls this; malformed payloads trace as `"?"`.
fn payload_method(payload: &[u8]) -> Arc<str> {
    Reader::new(payload).take_str().unwrap_or("?").into()
}
