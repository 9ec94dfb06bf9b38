//! The per-machine progress engine.
//!
//! Every machine in an oopp cluster runs one **dispatcher** [`NodeCtx`]: the
//! engine that owns the machine's network inbox, **admits** requests into
//! their target objects' mailboxes, serves daemon verbs, and **issues**
//! requests on behalf of the code currently running on it. Execution of
//! object mailboxes happens either inline on the dispatcher (the classic
//! single-threaded profile, still the default) or on an M:N pool of worker
//! lanes that share the machine's one run queue (DESIGN.md §13) — each worker
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
//! [`RemoteError::Timeout`](crate::RemoteError::Timeout) rather than
//! hanging forever.
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

use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Receiver;
use simnet::{ActorSeat, Clock, MachineId, Network, Packet, PacketBytes, SimDisk};
use wire::Reader;

use crate::dedup::DEFAULT_DEDUP_CAPACITY;
use crate::frame::{FramePool, NodeStats};
use crate::ids::{IdHasher, IdMap, ObjRef, ObjectId};
use crate::policy::CallPolicy;
use crate::process::{ClassRegistry, ServerObject};
use crate::shared::{CallTrace, IncomingReq, LiveObj, SharedNode, WorkerMsg};
use crate::trace::{EventKind, Family, Recorder, Tracer};

use beliefs::Beliefs;
use call::OutboundCall;
pub use daemon::DAEMON_VERBS;

/// Identity of an in-flight request, handed to objects that defer their
/// replies (see [`DispatchResult::NoReply`](crate::DispatchResult::NoReply)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallInfo {
    /// Correlation id chosen by the caller.
    pub req_id: u64,
    /// Machine the response must go to.
    pub reply_to: MachineId,
    /// The request's trace identity, for its reply's event and the spans
    /// of the calls issued while serving it (`None` when untraced).
    pub(crate) trace: Option<CallTrace>,
}

/// Worker-lane identity: the control channel the dispatcher routes into,
/// the virtual-clock park label, and the lane's index in its pool.
pub(crate) struct WorkerLane {
    pub(crate) rx: Receiver<WorkerMsg>,
    pub(crate) label: u64,
    pub(crate) index: usize,
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
    /// objects inline when the machine's pool has no workers, hands them to
    /// the pool otherwise. The driver endpoint is one too.
    Dispatcher(Receiver<Packet>),
    /// Worker lane `index` of a pooled machine.
    Worker(WorkerLane),
}

/// Default reply window. Long enough for heavily costed benchmark runs,
/// short enough that a deadlocked test fails rather than hangs.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// One machine's runtime state: its objects, its link to the fabric, and
/// the progress engine that serves and issues calls.
pub struct NodeCtx {
    /// This lane's place among the virtual clock's actors (DESIGN §12.2),
    /// given up when the lane drops — first of its fields, so before its
    /// inbox and its trace ring go — or, for the driver, by the cluster's
    /// drop when that runs first (the driver never parks, so while it holds
    /// its place the clock delivers nothing).
    seat: ActorSeat,
    machine: MachineId,
    workers: usize,
    net: Network,
    /// The cluster clock (shared with the fabric): all timeouts, backoffs
    /// and leases on this node are measured against it, so a virtual-time
    /// cluster never blocks on a wall-clock-only timer.
    clock: Clock,
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
    /// Everything this lane believes about the objects, machines and
    /// names it calls.
    beliefs: Beliefs,
    /// This lane's calls in flight, each with its reply once it arrives.
    outstanding: IdMap<u64, OutboundCall>,
    /// The retired frames this lane builds its next requests and replies
    /// in, instead of fresh allocations.
    frames: FramePool,
    /// The request being dispatched: whom to answer, and the trace that
    /// calls issued from inside its method inherit (nested spans).
    current_call: Option<CallInfo>,
    /// Method name and arguments of the request being dispatched, for
    /// [`request_bytes`](NodeCtx::request_bytes).
    current_args: Option<PacketBytes>,
    next_req_id: u64,
    alive: bool,
    policy: CallPolicy,
    /// Flight recorder handle; `None` (the default) disables tracing.
    tracer: Option<Tracer>,
    /// The method names this lane's traced events carry, each allocated once.
    names: Names,
    /// Monotone counter behind span-id allocation (see `alloc_span`).
    next_span: u64,
    /// Absolute deadline of the request currently being dispatched, so
    /// calls issued from inside a method inherit the caller's remaining
    /// budget (deadline propagation across hops, DESIGN.md §15).
    current_deadline: Option<u64>,
}

impl std::fmt::Debug for NodeCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCtx")
            .field("machine", &self.machine)
            .field("lane", &self.lane_no)
            .field("objects", &self.shared.objects_live())
            .finish()
    }
}

impl NodeCtx {
    /// Build one lane of `env`'s machine.
    pub(crate) fn new(env: &MachineEnv<'_>, role: LaneRole) -> Self {
        let clock = env.net.clock().clone();
        let stride = env.shared.pool.workers() as u64 + 1;
        let lane_no = match &role {
            LaneRole::Dispatcher(_) => 0,
            LaneRole::Worker(lane) => lane.index as u64 + 1,
        };
        NodeCtx {
            // Virtual time only advances while every actor is parked in
            // the clock, so each lane — workers included — takes a seat.
            seat: clock.seat(),
            machine: env.machine,
            workers: env.workers,
            net: env.net.clone(),
            clock,
            role,
            lane_no,
            stride,
            registry: env.registry.clone(),
            disks: env.disks.to_vec(),
            shared: env.shared.clone(),
            beliefs: Beliefs::new(env.workers + 1),
            outstanding: IdMap::default(),
            frames: FramePool::default(),
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
            names: Names::default(),
            next_span: 1,
            current_deadline: None,
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
    /// side of a call this node issued (`peer` = its destination), a
    /// request it serves (`peer` = the caller), or a migration's step.
    /// `value` lands in the `bytes` column. The [`NodeStats`] row that
    /// names `kind`, if one does, counts it here, traced or not; the
    /// record itself is a no-op when tracing is off or the call is
    /// untraced.
    fn trace_call(
        &self,
        kind: EventKind,
        peer: MachineId,
        trace: Option<&CallTrace>,
        req_id: u64,
        attempt: u32,
        value: u32,
    ) {
        self.shared.stats.note(kind);
        if let (Some(tracer), Some(t)) = (&self.tracer, trace) {
            tracer.record(
                kind,
                peer,
                t.trace_id,
                t.span,
                t.parent_span,
                req_id,
                attempt,
                value,
                t.method.clone(),
            );
        }
    }

    /// Record an event of `req`, a request this node serves, on the
    /// request's own span (`peer` = its caller): an admission, a deferral,
    /// a dispatch, a replica's verdict, a shed or a drop.
    fn trace_request(&self, kind: EventKind, req: &IncomingReq, value: u32) {
        self.trace_call(kind, req.reply_to, req.trace.as_ref(), req.req_id, 0, value);
    }

    /// Record a marker: an origin event about no single request, with a
    /// span of its own — a breaker transition, a fast-fail, a replica
    /// sync, a suspicion. `peer` is the machine it concerns,
    /// `value` its scalar (the `bytes` column: a queue depth, an epoch, a silence
    /// in ms, an MTTR in µs…) and its family names the method column.
    /// No-op when tracing is off.
    pub fn trace_marker(&mut self, kind: EventKind, peer: MachineId, value: u32) {
        let span = self.marker_span(kind.family());
        self.trace_call(kind, peer, span.as_ref(), 0, 0, value);
    }

    /// A fresh span for a marker of `family` (its own trace), or `None`
    /// when tracing is off.
    fn marker_span(&mut self, family: Family) -> Option<CallTrace> {
        debug_assert!(family != Family::Call, "a call's events belong to its span");
        self.tracer.as_ref()?;
        let span = self.alloc_span();
        Some(CallTrace {
            trace_id: span,
            span,
            parent_span: 0,
            method: self.names.get(family.marker_method()),
        })
    }

    /// Trace identity of the request being dispatched, when it is traced.
    fn serving_trace(&self) -> Option<&CallTrace> {
        let trace = self.current_call.as_ref()?.trace.as_ref()?;
        (trace.span != 0).then_some(trace)
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
            self.shared.snapshots.lock().len() as u64,
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
}

/// The method names a lane's traced events carry, interned: a traced call
/// or request clones its name's `Arc` instead of allocating one. Names from
/// the lane's own calls and from the requests it serves; past as many
/// names as the dedup window has keys — a peer sending junk names — a name
/// is allocated as it comes, and not kept.
#[derive(Default)]
struct Names(HashSet<Arc<str>, BuildHasherDefault<IdHasher>>);

impl Names {
    /// `name`, interned.
    fn get(&mut self, name: &str) -> Arc<str> {
        if let Some(name) = self.0.get(name) {
            return name.clone();
        }
        let name: Arc<str> = name.into();
        if self.0.len() < DEFAULT_DEDUP_CAPACITY {
            self.0.insert(name.clone());
        }
        name
    }

    /// The method name at the head of a request payload — its first
    /// len-prefixed string — interned; a malformed payload traces as `"?"`.
    fn of_payload(&mut self, payload: &[u8]) -> Arc<str> {
        self.get(Reader::new(payload).take_str().unwrap_or("?"))
    }
}
