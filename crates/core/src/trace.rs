//! Flight recorder: causal RMI tracing and per-call latency accounting.
//!
//! The paper's claims are statements about communication structure — how
//! many messages a construct costs, where time is spent between "issue the
//! remote instruction" and "instruction complete". The counters in
//! [`NodeStats`](crate::frame::NodeStats) aggregate that structure away;
//! the flight recorder keeps it. Every call attempt leaves a trail of
//! [`SpanEvent`]s — queued, sent, dispatched, replied, plus retransmits and
//! dedup verdicts — in a ring owned by the recording lane, stamped by the
//! cluster's [`simnet::Clock`]. At teardown the rings merge
//! into a [`Trace`] that can answer causal questions ("which original send
//! does this retransmit belong to?"), render per-method latency statistics
//! ([`MethodStats`]), and export Chrome/Perfetto `trace_event` JSON.
//!
//! ## The trace contract
//!
//! Each outbound call is one **span**. The client allocates the span id
//! (machine-prefixed, cluster-unique, never 0) and sends it inside the
//! request frame as a [`TraceCtx`]; the server stamps its own events with
//! the same id, so client and server halves of one call join on `span`.
//! Nested calls — a dispatched method issuing its own RMI — inherit the
//! serving request's `trace_id` and record the serving span as
//! `parent_span`, producing the causal tree of an entire top-level
//! operation under one `trace_id`. Root calls start a fresh trace whose id
//! is the root span's id.
//!
//! Tracing off (the default) costs two zero bytes per request frame and
//! one branch per event site.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{Clock, MachineId};
use wire::{wire_struct, V64};

mod audit;
pub use audit::{Rule, Violation};

/// Per-call trace identity carried in every request frame.
///
/// Both fields travel as varints: an untraced frame (`trace_id == span ==
/// 0`) pays two bytes. `span` is the id of *this* call's span, allocated by
/// the caller; `trace_id` groups every span of one top-level operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Id of the top-level operation this call belongs to (0 = untraced).
    pub trace_id: V64,
    /// Id of this call's span, allocated by the caller (0 = untraced).
    pub span: V64,
}

wire_struct!(TraceCtx { trace_id, span });

/// Which part of the runtime an event speaks for. A family decides how an
/// event is read: only `Call` events describe a call's own lifecycle (the
/// per-method table and the audit's causality rule read them); an event of
/// any other family needs no `ClientSend` before it — a marker, or a
/// replica's verdict or a refusal on a request's span — and is exported
/// as an instant in its own category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// A call's lifecycle: sends, admissions, executions, replies.
    Call,
    /// The coordinator's steps of one live migration (DESIGN.md §9).
    Migration,
    /// Failure detection and recovery (DESIGN.md §10).
    Supervision,
    /// Replica hits, refusals, syncs and failovers (DESIGN.md §11).
    Replication,
    /// Sheds, drops and breaker transitions (DESIGN.md §15).
    Overload,
}

impl Family {
    /// The method column of a marker of this family (a marker has no
    /// method of its own).
    pub(crate) fn marker_method(self) -> &'static str {
        match self {
            Family::Call => "call",
            Family::Migration => "migrate",
            Family::Supervision => "supervise",
            Family::Replication => "replicate",
            Family::Overload => "overload",
        }
    }

    /// The Chrome export's `cat` for this family's instants.
    fn category(self) -> &'static str {
        match self {
            Family::Call => "reliability",
            Family::Migration => "placement",
            Family::Supervision => "supervision",
            Family::Replication => "replication",
            Family::Overload => "overload",
        }
    }
}

/// The event table: every kind is one row — its variant, its stable label
/// (used in exports and summaries) and its family — and `EventKind`,
/// `label` and `family` are generated from it. A new kind is one row.
macro_rules! event_kinds {
    ($($(#[doc = $doc:literal])* $kind:ident => $label:literal, $family:ident;)*) => {
        /// What happened at one point of a call's lifecycle, or beside it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum EventKind {
            $($(#[doc = $doc])* $kind,)*
        }

        impl EventKind {
            /// Short stable label used in exports and summaries.
            pub fn label(&self) -> &'static str {
                match self {
                    $(EventKind::$kind => $label,)*
                }
            }

            /// The family this kind belongs to.
            pub fn family(&self) -> Family {
                match self {
                    $(EventKind::$kind => Family::$family,)*
                }
            }
        }
    };
}

event_kinds! {
    /// Client encoded and transmitted the first copy of a request.
    ClientSend => "send", Call;
    /// Client retransmitted the identical frame after a reply window lapsed.
    ClientRetransmit => "retransmit", Call;
    /// Client consumed the reply; the span is complete.
    ClientRecv => "recv", Call;
    /// Server admitted a first-sighting request for execution.
    ServerAdmitNew => "admit_new", Call;
    /// Server dropped a duplicate whose original is still in flight.
    ServerAdmitInFlight => "admit_in_flight", Call;
    /// Server replayed a cached response for an already-executed duplicate.
    ServerAdmitDone => "admit_done", Call;
    /// Server parked the request because its target object was busy.
    ServerDefer => "defer", Call;
    /// Server began executing the method body.
    ServerDispatch => "dispatch", Call;
    /// Server transmitted the response.
    ServerReply => "reply", Call;
    /// Client chased a forwarding stub: a reply said the target object had
    /// migrated, and the engine re-issued the same request (same `req_id`)
    /// at the object's new address.
    ClientForward => "forward", Call;
    /// Migration coordinator started moving an object (quiesce requested).
    /// A move's markers share one span.
    MigrateBegin => "migrate_begin", Migration;
    /// Source quiesced and snapshotted; state is in flight to the target.
    MigrateTransfer => "migrate_transfer", Migration;
    /// Target activated the object; forward installed at the old address.
    MigrateCommit => "migrate_commit", Migration;
    /// The move failed mid-flight; the object was restored at the source
    /// under its original identity.
    MigrateRollback => "migrate_rollback", Migration;
    /// A machine's (`peer`) first heartbeat to go a whole lease unanswered
    /// since its last ack. `bytes` carries the milliseconds since that ack.
    SuspectRaised => "suspect_raised", Supervision;
    /// Supervisor declared a machine (`peer`) dead; recovery starts.
    MachineDeclaredDead => "machine_dead", Supervision;
    /// Supervisor reactivated one lost object onto a survivor (`peer`).
    /// `bytes` carries the recovery's MTTR in microseconds, so E11's
    /// per-recovery tables come straight from the trace.
    ObjectReactivated => "object_reactivated", Supervision;
    /// A machine previously declared dead heartbeated again — the
    /// suspicion was false. `peer` is the resurrected machine.
    FalseSuspicion => "false_suspicion", Supervision;
    /// A read replica served a read verb under a live coherence lease
    /// (on the request's span).
    ReplicaHit => "replica_hit", Replication;
    /// A read replica refused a read: lease expired or the caller's
    /// replica-set epoch was ahead. The caller falls back to the primary.
    ReplicaStale => "replica_stale", Replication;
    /// A primary (or the replica manager) pushed state to one replica
    /// (`peer` is the replica's machine).
    ReplicaSync => "replica_sync", Replication;
    /// The client engine redirected a read from a failed/stale replica to
    /// the primary, reusing the same request id.
    ReplicaFallback => "replica_fallback", Replication;
    /// A replica was promoted to primary after the old primary's machine
    /// died (`peer` is the machine that now hosts the primary).
    ReplicaPromote => "replica_promote", Replication;
    /// The replica manager grew or shrank an object's replica set
    /// (`bytes` carries the new replica count).
    ReplicaScale => "replica_scale", Replication;
    /// Server rejected a request at admission: mailbox cap or machine
    /// in-flight budget exceeded (`bytes` carries the observed queue
    /// depth). The request was never queued. This and the two drops ride
    /// the refused request's span.
    ServerShed => "shed", Overload;
    /// Server shed an admitted request at execution time because its
    /// queue sojourn exceeded the CoDel target (`bytes` carries the
    /// sojourn in microseconds).
    ServerSojournDrop => "sojourn_drop", Overload;
    /// Server dropped a request whose propagated deadline had expired —
    /// at admission or at execution time (`bytes` carries the overshoot
    /// in microseconds). The work did not run.
    ServerDeadlineDrop => "deadline_drop", Overload;
    /// A client-side circuit breaker tripped open for a destination
    /// machine (`peer`) after consecutive overload-class failures.
    BreakerOpen => "breaker_open", Overload;
    /// The breaker's cooldown lapsed; the next call to `peer` is the
    /// half-open trial.
    BreakerHalfOpen => "breaker_half_open", Overload;
    /// A half-open trial succeeded; the breaker for `peer` closed.
    BreakerClose => "breaker_close", Overload;
    /// A call failed fast against an open breaker — no frame was sent
    /// (`peer` is the destination machine).
    ClientFastFail => "fast_fail", Overload;
}

/// One recorded point in a call's lifecycle.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Nanoseconds since the cluster's trace epoch.
    pub at_nanos: u64,
    /// Lifecycle point.
    pub kind: EventKind,
    /// Machine that recorded the event.
    pub machine: MachineId,
    /// Scheduler lane that recorded the event: 0 for the dispatcher (and
    /// for single-threaded machines), `w + 1` for pool worker `w`.
    pub worker: u32,
    /// The other endpoint: target machine for client events, `reply_to`
    /// for server events.
    pub peer: MachineId,
    /// Top-level operation id.
    pub trace_id: u64,
    /// This call's span id (joins client and server halves).
    pub span_id: u64,
    /// Span of the serving request that issued this call (0 = root).
    pub parent_span: u64,
    /// Caller-chosen correlation id (unique per caller, not cluster-wide).
    pub req_id: u64,
    /// 1-based attempt number for client events, 0 for server events.
    pub attempt: u32,
    /// Frame bytes on the wire for send/retransmit/recv/reply, 0 otherwise.
    pub bytes: u32,
    /// Method name (`Arc` so retransmits clone a pointer, not a string).
    pub method: Arc<str>,
}

/// Default per-lane ring capacity (events). At ~100 bytes per event a
/// lane's ring tops out around 3 MB; longer runs wrap, and the merge
/// reports how many events were overwritten.
pub const DEFAULT_TRACE_CAPACITY: usize = 32_768;

/// One lane's ring: its newest `capacity` events, oldest first, and a
/// count of the older ones it let go.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<SpanEvent>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    /// Append an event, letting the oldest go once full.
    fn record(&mut self, ev: SpanEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Where a lane's ring is: never handed out, out with the lane's
/// [`Tracer`], or back in the recorder for [`Recorder::merge`] to read.
#[derive(Debug)]
enum Slot {
    Unclaimed,
    Out,
    Returned(Ring),
}

/// One lane's handle into the recorder. It owns the lane's ring while it
/// lives, so recording is a plain push with no atomics, and puts the ring
/// back in its recorder slot when it drops (with the lane's `NodeCtx`, so
/// when the lane's thread ends). Each scheduler lane of a machine has its
/// own, stamped with the machine's id plus the lane number.
pub struct Tracer {
    machine: MachineId,
    worker: u32,
    clock: Clock,
    ring: RefCell<Ring>,
    slot: Arc<Mutex<Slot>>,
}

impl Tracer {
    /// Record one event, stamped with the current trace time and this
    /// machine's id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        kind: EventKind,
        peer: MachineId,
        trace_id: u64,
        span_id: u64,
        parent_span: u64,
        req_id: u64,
        attempt: u32,
        bytes: u32,
        method: Arc<str>,
    ) {
        let at_nanos = self.clock.now_nanos();
        self.ring.borrow_mut().record(SpanEvent {
            at_nanos,
            kind,
            machine: self.machine,
            worker: self.worker,
            peer,
            trace_id,
            span_id,
            parent_span,
            req_id,
            attempt,
            bytes,
            method,
        });
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        *self.slot.lock() = Slot::Returned(std::mem::take(self.ring.get_mut()));
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("machine", &self.machine)
            .finish()
    }
}

/// The cluster-wide flight recorder: one ring per lane, one clock.
///
/// Built by the runtime when tracing is enabled
/// ([`ClusterBuilder::tracing`](crate::ClusterBuilder::tracing)); clone the
/// `Arc` out of [`Cluster::recorder`](crate::Cluster::recorder) *before*
/// shutdown, then call [`merge`](Recorder::merge) *after* it, once every
/// lane has given its ring back.
#[derive(Debug)]
pub struct Recorder {
    clock: Clock,
    /// One slot per lane, laid out `machine * lanes + lane`.
    slots: Vec<Arc<Mutex<Slot>>>,
    /// Rings per machine: 1 for single-threaded machines, `sched_workers + 1`
    /// when an execution pool is attached (lane 0 is the dispatcher).
    lanes: usize,
    /// Events a ring keeps before it wraps.
    capacity: usize,
}

impl Recorder {
    /// A recorder for `machines` endpoints (workers + driver) running
    /// `lanes` scheduler lanes each (dispatcher + pool workers). Every lane
    /// records into its own ring of `capacity` events, stamped from
    /// `clock` — the cluster's, so a stamp is on the axis leases and
    /// deadlines use, and a virtual-time run records virtual nanos and
    /// replays byte-for-byte.
    pub fn new(machines: usize, lanes: usize, capacity: usize, clock: Clock) -> Self {
        assert!(lanes > 0, "a machine has at least its dispatcher lane");
        assert!(capacity > 0, "a trace ring needs at least one slot");
        let slots = (0..machines * lanes)
            .map(|_| Arc::new(Mutex::new(Slot::Unclaimed)))
            .collect();
        Recorder {
            clock,
            slots,
            lanes,
            capacity,
        }
    }

    /// The handle lane `lane` of machine `m` records through. Lane 0 is the
    /// dispatcher; pool worker `w` is lane `w + 1`. Each lane's ring is
    /// handed out once: a second request for it panics.
    pub fn tracer_lane(&self, machine: MachineId, lane: usize) -> Tracer {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let slot = &self.slots[machine * self.lanes + lane];
        {
            let mut state = slot.lock();
            assert!(
                matches!(*state, Slot::Unclaimed),
                "the trace ring of machine {machine} lane {lane} was already handed out"
            );
            *state = Slot::Out;
        }
        Tracer {
            machine,
            worker: lane as u32,
            clock: self.clock.clone(),
            ring: RefCell::new(Ring {
                capacity: self.capacity,
                ..Ring::default()
            }),
            slot: slot.clone(),
        }
    }

    /// Merge the rings their lanes have given back into one time-ordered
    /// [`Trace`], in slot order, so events that tie sort by machine, lane
    /// and span, then in recording order. A lane gives its ring back when
    /// its [`Tracer`] drops; after [`Cluster::shutdown`](crate::Cluster::shutdown)
    /// every ring is back. Merging earlier is sound and reads only the
    /// lanes already gone.
    pub fn merge(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for slot in &self.slots {
            if let Slot::Returned(ring) = &*slot.lock() {
                events.extend(ring.events.iter().cloned());
                dropped += ring.dropped;
            }
        }
        events.sort_by_key(|e| (e.at_nanos, e.machine, e.worker, e.span_id));
        Trace { events, dropped }
    }
}

/// Per-method latency and traffic accounting, derived from a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct MethodStats {
    /// Method name.
    pub method: String,
    /// Completed client spans (send … recv matched).
    pub calls: u64,
    /// Wire transmissions: first sends plus retransmits.
    pub attempts: u64,
    /// Retransmissions alone.
    pub retransmits: u64,
    /// Duplicate admissions observed server-side (replayed + suppressed).
    pub dups: u64,
    /// Median client latency (send → recv), microseconds.
    pub p50_micros: u64,
    /// 99th-percentile client latency, microseconds.
    pub p99_micros: u64,
    /// Mean server queue time (admit → dispatch), microseconds.
    pub queue_micros: u64,
    /// Mean server service time (dispatch → reply), microseconds.
    pub service_micros: u64,
    /// Request bytes put on the wire (including retransmits).
    pub bytes_out: u64,
    /// Response bytes received by clients.
    pub bytes_in: u64,
}

/// The merged, time-ordered record of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every retained event, ordered by timestamp.
    pub events: Vec<SpanEvent>,
    /// Events lost to ring wrap-around (0 unless a ring overflowed).
    pub dropped: u64,
}

impl Trace {
    /// Events of one kind.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Client retransmissions across all machines.
    pub fn retransmits(&self) -> usize {
        self.count(EventKind::ClientRetransmit)
    }

    /// Timestamp-free shape of the run: one tuple per event, ordered by
    /// span then lifecycle, for comparing deterministic replays. Two runs
    /// under the same seed and workload must produce equal structures even
    /// though wall-clock timings differ.
    pub fn structure(&self) -> Vec<(u64, &'static str, String, bool)> {
        let mut shape: Vec<_> = self
            .events
            .iter()
            .map(|e| {
                (
                    e.span_id,
                    e.kind.label(),
                    e.method.to_string(),
                    e.parent_span != 0,
                )
            })
            .collect();
        shape.sort();
        shape
    }

    /// Per-method statistics of the calls in the trace (a marker makes no
    /// row), sorted by method name.
    pub fn method_stats(&self) -> Vec<MethodStats> {
        use std::collections::HashMap;

        #[derive(Default)]
        struct Acc {
            calls: u64,
            attempts: u64,
            retransmits: u64,
            dups: u64,
            latencies: Vec<u64>,
            queue_total: u64,
            queue_n: u64,
            service_total: u64,
            service_n: u64,
            bytes_out: u64,
            bytes_in: u64,
        }

        // span → timestamps of its lifecycle points.
        let mut send_at: HashMap<u64, u64> = HashMap::new();
        let mut admit_at: HashMap<u64, u64> = HashMap::new();
        let mut dispatch_at: HashMap<u64, u64> = HashMap::new();
        let mut acc: HashMap<&str, Acc> = HashMap::new();

        // Only a call's own events make a method's row: a marker's method
        // column names its family, not a method.
        for e in self
            .events
            .iter()
            .filter(|e| e.kind.family() == Family::Call)
        {
            let a = acc.entry(&e.method).or_default();
            match e.kind {
                EventKind::ClientSend => {
                    a.attempts += 1;
                    a.bytes_out += e.bytes as u64;
                    send_at.insert(e.span_id, e.at_nanos);
                }
                EventKind::ClientRetransmit => {
                    a.attempts += 1;
                    a.retransmits += 1;
                    a.bytes_out += e.bytes as u64;
                }
                EventKind::ClientRecv => {
                    a.bytes_in += e.bytes as u64;
                    if let Some(&s) = send_at.get(&e.span_id) {
                        a.calls += 1;
                        a.latencies.push(e.at_nanos.saturating_sub(s));
                    }
                }
                EventKind::ServerAdmitNew => {
                    admit_at.insert(e.span_id, e.at_nanos);
                }
                EventKind::ServerAdmitInFlight | EventKind::ServerAdmitDone => {
                    a.dups += 1;
                }
                EventKind::ServerDispatch => {
                    dispatch_at.insert(e.span_id, e.at_nanos);
                    if let Some(&adm) = admit_at.get(&e.span_id) {
                        a.queue_total += e.at_nanos.saturating_sub(adm);
                        a.queue_n += 1;
                    }
                }
                EventKind::ServerReply => {
                    if let Some(&d) = dispatch_at.get(&e.span_id) {
                        a.service_total += e.at_nanos.saturating_sub(d);
                        a.service_n += 1;
                    }
                }
                // A chase is another transmission of the same request (the
                // span's latency already spans it: send … recv).
                EventKind::ClientForward => {
                    a.attempts += 1;
                    a.bytes_out += e.bytes as u64;
                }
                // A deferral is not timed here.
                _ => {}
            }
        }

        let mut out: Vec<MethodStats> = acc
            .into_iter()
            .map(|(method, mut a)| {
                a.latencies.sort_unstable();
                let pct = |p: usize| -> u64 {
                    if a.latencies.is_empty() {
                        0
                    } else {
                        let idx = (a.latencies.len() - 1) * p / 100;
                        a.latencies[idx] / 1_000
                    }
                };
                MethodStats {
                    method: method.to_string(),
                    calls: a.calls,
                    attempts: a.attempts,
                    retransmits: a.retransmits,
                    dups: a.dups,
                    p50_micros: pct(50),
                    p99_micros: pct(99),
                    queue_micros: a.queue_total.checked_div(a.queue_n).unwrap_or(0) / 1_000,
                    service_micros: a.service_total.checked_div(a.service_n).unwrap_or(0) / 1_000,
                    bytes_out: a.bytes_out,
                    bytes_in: a.bytes_in,
                }
            })
            .collect();
        out.sort_by(|x, y| x.method.cmp(&y.method));
        out
    }

    /// Export as Chrome/Perfetto `trace_event` JSON (load in `ui.perfetto.dev`
    /// or `chrome://tracing`).
    ///
    /// * Completed client spans become `"X"` (complete) events on the
    ///   caller's track, send → recv (`rmi`).
    /// * Server executions become `"X"` events on the server's track,
    ///   dispatch → reply (`serve`).
    /// * Every other event but an admission becomes an `"i"` (instant) in
    ///   its family's category: a call's retransmits, chases, dedup
    ///   verdicts and deferrals are `label:method` on the lane's track; a
    ///   move's steps are `label:migrate` with its span; a request's
    ///   replica verdict, shed or drop is `label:method` on the lane's
    ///   track with its span, its `req_id` and its scalar as `value`; a
    ///   marker is `label:m<peer>` with its scalar as `value`.
    /// * A send that never saw its recv becomes an `unanswered:method`
    ///   instant.
    ///
    /// Timestamps are microseconds with nanosecond fractions; `pid` is the
    /// machine id and `tid` the recording lane; `args` carry the causal
    /// identity (`trace_id`, `span`, `parent_span`, `req_id`).
    pub fn to_chrome_json(&self) -> String {
        use std::collections::HashMap;
        let mut bodies = Vec::with_capacity(self.events.len());
        // Spans still open: a send waits for its recv, a dispatch for its
        // reply.
        let mut open_send: HashMap<u64, &SpanEvent> = HashMap::new();
        let mut open_dispatch: HashMap<u64, &SpanEvent> = HashMap::new();
        for e in &self.events {
            match e.kind {
                EventKind::ClientSend => {
                    open_send.insert(e.span_id, e);
                }
                EventKind::ServerDispatch => {
                    open_dispatch.insert(e.span_id, e);
                }
                EventKind::ClientRecv => {
                    if let Some(s) = open_send.remove(&e.span_id) {
                        let args = format!("\"server\":{},\"attempts\":{}", s.peer, e.attempt);
                        bodies.push(complete(s, e, "rmi", &args));
                    }
                }
                EventKind::ServerReply => {
                    if let Some(d) = open_dispatch.remove(&e.span_id) {
                        let args = format!("\"client\":{}", d.peer);
                        bodies.push(complete(d, e, "serve", &args));
                    }
                }
                EventKind::ServerAdmitNew => {}
                kind => {
                    let family = kind.family();
                    let (name, scope, args) = match family {
                        _ if e.req_id != 0 => {
                            let (key, value) = match family {
                                Family::Call => ("attempt", e.attempt),
                                _ => ("value", e.bytes),
                            };
                            let (trace, span, req) = (e.trace_id, e.span_id, e.req_id);
                            let args = format!(
                                "\"trace_id\":{trace},\"span\":{span},\"req_id\":{req},\"{key}\":{value}"
                            );
                            (e.method.to_string(), "t", args)
                        }
                        Family::Migration => (
                            e.method.to_string(),
                            "p",
                            format!(
                                "\"trace_id\":{},\"span\":{},\"target\":{},\"bytes\":{}",
                                e.trace_id, e.span_id, e.peer, e.bytes
                            ),
                        ),
                        _ => (
                            format!("m{}", e.peer),
                            "p",
                            format!("\"machine\":{},\"value\":{}", e.peer, e.bytes),
                        ),
                    };
                    let name = format!("{}:{name}", kind.label());
                    let cat = family.category();
                    bodies.push(instant(&name, cat, scope, e, &args));
                }
            }
        }
        // Timed-out client spans never saw a recv; surface them as instants
        // rather than dropping them silently. (Sorted so the export is
        // byte-stable for a given trace.)
        let mut unanswered: Vec<_> = open_send.into_iter().collect();
        unanswered.sort_by_key(|(span, _)| *span);
        for (_, s) in unanswered {
            let name = format!("unanswered:{}", s.method);
            let args = format!("\"span\":{},\"req_id\":{}", s.span_id, s.req_id);
            bodies.push(instant(&name, Family::Call.category(), "t", s, &args));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{}}}}}",
            bodies.join(","),
            self.dropped
        )
    }
}

/// A Chrome `"X"` event from `start` to `end` on `start`'s track: the
/// span's causal identity, then `args`.
fn complete(start: &SpanEvent, end: &SpanEvent, cat: &str, args: &str) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\
         \"args\":{{\"trace_id\":{},\"span\":{},\"parent_span\":{},\"req_id\":{},{args}}}}}",
        json_string(&start.method),
        micros(start.at_nanos),
        micros(end.at_nanos.saturating_sub(start.at_nanos)),
        start.machine,
        start.worker,
        start.trace_id,
        start.span_id,
        start.parent_span,
        start.req_id,
    )
}

/// A Chrome `"i"` event at `e`'s time on the track of the lane that
/// recorded it; `scope` is `t` (thread) or `p` (process).
fn instant(name: &str, cat: &str, scope: &str, e: &SpanEvent, args: &str) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"{scope}\",\"ts\":{},\"pid\":{},\
         \"tid\":{},\"args\":{{{args}}}}}",
        json_string(name),
        micros(e.at_nanos),
        e.machine,
        e.worker,
    )
}

/// Nanoseconds → microseconds with three decimals (Chrome `ts` is µs).
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Minimal JSON string encoder for method names and labels.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, at: u64, span: u64, method: &str) -> SpanEvent {
        SpanEvent {
            at_nanos: at,
            kind,
            machine: 0,
            worker: 0,
            peer: 1,
            trace_id: span,
            span_id: span,
            parent_span: 0,
            req_id: span,
            attempt: 1,
            bytes: 10,
            method: method.into(),
        }
    }

    #[test]
    fn ring_retains_most_recent_events_after_wrap() {
        let rec = Recorder::new(1, 1, 4, Clock::default());
        let tracer = rec.tracer_lane(0, 0);
        for i in 0..10u64 {
            tracer.record(EventKind::ClientSend, 1, i, i, 0, i, 1, 10, "m".into());
        }
        drop(tracer);
        let trace = rec.merge();
        assert_eq!(trace.dropped, 6);
        let ids: Vec<u64> = trace.events.iter().map(|e| e.req_id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn recorder_merge_orders_events_and_counts_drops() {
        let rec = Recorder::new(2, 1, 4, Clock::default());
        let t0 = rec.tracer_lane(0, 0);
        let t1 = rec.tracer_lane(1, 0);
        t0.record(EventKind::ClientSend, 1, 5, 5, 0, 5, 1, 10, "a".into());
        t1.record(EventKind::ServerDispatch, 0, 5, 5, 0, 5, 0, 0, "a".into());
        drop((t0, t1));
        let trace = rec.merge();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.dropped, 0);
        assert!(trace
            .events
            .windows(2)
            .all(|w| w[0].at_nanos <= w[1].at_nanos));
    }

    #[test]
    #[should_panic(expected = "machine 1 lane 0 was already handed out")]
    fn a_lane_ring_is_handed_out_once() {
        let rec = Recorder::new(2, 1, 4, Clock::default());
        drop(rec.tracer_lane(1, 0));
        rec.tracer_lane(1, 0);
    }

    #[test]
    fn merge_reads_only_the_rings_already_returned() {
        let rec = Recorder::new(2, 1, 4, Clock::default());
        let t0 = rec.tracer_lane(0, 0);
        let t1 = rec.tracer_lane(1, 0);
        t0.record(EventKind::ClientSend, 1, 5, 5, 0, 5, 1, 10, "a".into());
        t1.record(EventKind::ServerDispatch, 0, 5, 5, 0, 5, 0, 0, "a".into());
        assert!(
            rec.merge().events.is_empty(),
            "both lanes still hold their rings"
        );
        drop(t1);
        let early = rec.merge();
        assert_eq!(early.events.len(), 1);
        assert_eq!(early.events[0].machine, 1);
        drop(t0);
        assert_eq!(rec.merge().events.len(), 2);
    }

    /// Every lane, pool workers included, gives its ring back as its thread
    /// ends: merged after shutdown, the trace holds both halves of every
    /// call the run made, its shutdown orders included.
    #[test]
    fn merge_after_shutdown_holds_every_event() {
        let (cluster, mut driver) = crate::ClusterBuilder::new(2)
            .sched_workers(2)
            .tracing(true)
            .build();
        let recorder = cluster.recorder().expect("tracing enabled");
        let block = crate::DoubleBlockClient::new_on(&mut driver, 1, 8).unwrap();
        for i in 0..5 {
            block.set(&mut driver, i, 1.0).unwrap();
        }
        assert!(recorder.merge().events.is_empty(), "no lane has ended yet");
        cluster.shutdown(driver);
        let trace = recorder.merge();
        // The root directory, the block, five sets and two shutdowns.
        for kind in [
            EventKind::ClientSend,
            EventKind::ServerDispatch,
            EventKind::ServerReply,
            EventKind::ClientRecv,
        ] {
            assert_eq!(trace.count(kind), 9, "{}", kind.label());
        }
        assert_eq!(trace.dropped, 0);
        assert!(trace.audit().is_empty());
    }

    #[test]
    fn method_stats_compute_latency_and_attempts() {
        let t = Trace {
            events: vec![
                ev(EventKind::ClientSend, 1_000, 7, "get"),
                ev(EventKind::ServerAdmitNew, 2_000, 7, "get"),
                ev(EventKind::ServerDispatch, 3_000, 7, "get"),
                ev(EventKind::ServerReply, 5_000, 7, "get"),
                ev(EventKind::ClientRecv, 9_000, 7, "get"),
                ev(EventKind::ClientSend, 0, 8, "set"),
                ev(EventKind::ClientRetransmit, 500, 8, "set"),
                ev(EventKind::ClientRecv, 10_500, 8, "set"),
            ],
            dropped: 0,
        };
        let stats = t.method_stats();
        assert_eq!(stats.len(), 2);
        let get = &stats[0];
        assert_eq!(get.method, "get");
        assert_eq!(get.calls, 1);
        assert_eq!(get.attempts, 1);
        assert_eq!(get.p50_micros, 8); // 9_000 - 1_000 ns = 8 µs
        assert_eq!(get.queue_micros, 1);
        assert_eq!(get.service_micros, 2);
        let set = &stats[1];
        assert_eq!(set.retransmits, 1);
        assert_eq!(set.attempts, 2);
        assert_eq!(set.bytes_out, 20); // both transmissions count
        assert_eq!(set.p50_micros, 10);
    }

    /// Markers make no method row, though each names its family in the
    /// method column.
    #[test]
    fn method_stats_have_a_row_per_called_method_only() {
        let mut shed = ev(EventKind::ServerShed, 500, 9, "overload");
        shed.attempt = 0;
        let t = Trace {
            events: vec![
                ev(EventKind::MigrateBegin, 0, 8, "migrate"),
                ev(EventKind::ClientSend, 1_000, 7, "get"),
                shed,
                ev(EventKind::ClientRecv, 3_000, 7, "get"),
            ],
            dropped: 0,
        };
        let methods: Vec<_> = t.method_stats().into_iter().map(|s| s.method).collect();
        assert_eq!(methods, ["get"]);
    }

    #[test]
    fn causal_violations_catch_orphan_retransmits() {
        let mut retransmit = ev(EventKind::ClientRetransmit, 1, 1, "m");
        retransmit.attempt = 2;
        let sound = Trace {
            events: vec![ev(EventKind::ClientSend, 0, 1, "m"), retransmit.clone()],
            dropped: 0,
        };
        assert!(sound.audit().is_empty());

        retransmit.span_id = 2;
        let orphan = Trace {
            events: vec![retransmit],
            dropped: 0,
        };
        assert_eq!(orphan.audit().len(), 1);
    }

    #[test]
    fn chrome_export_is_balanced_json_with_expected_events() {
        let t = Trace {
            events: vec![
                ev(EventKind::ClientSend, 1_000, 7, "get\"x\""),
                ev(EventKind::ServerDispatch, 3_000, 7, "get\"x\""),
                ev(EventKind::ServerReply, 5_000, 7, "get\"x\""),
                ev(EventKind::ClientRecv, 9_000, 7, "get\"x\""),
                ev(EventKind::ClientRetransmit, 2_000, 7, "get\"x\""),
                ev(EventKind::ClientSend, 100, 9, "lost"),
            ],
            dropped: 3,
        };
        let json = t.to_chrome_json();
        // Structural sanity: balanced braces/brackets, no raw quotes leaked.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("retransmit:get\\\"x\\\""));
        assert!(json.contains("unanswered:lost"));
        assert!(json.contains("\"dropped_events\":3"));
        // Client complete span: 1µs start, 8µs duration.
        assert!(json.contains("\"ts\":1.000,\"dur\":8.000"));
    }

    #[test]
    fn migration_markers_are_causal_roots_and_export_as_instants() {
        let t = Trace {
            events: vec![
                ev(EventKind::MigrateBegin, 10, 100, "migrate"),
                ev(EventKind::MigrateTransfer, 20, 100, "migrate"),
                ev(EventKind::MigrateCommit, 30, 100, "migrate"),
                ev(EventKind::MigrateRollback, 40, 101, "migrate"),
            ],
            dropped: 0,
        };
        // Markers have no ClientSend; they must not read as orphans.
        assert!(t.audit().is_empty(), "{:?}", t.audit());
        let json = t.to_chrome_json();
        assert!(json.contains("migrate_begin:migrate"));
        assert!(json.contains("migrate_rollback:migrate"));
        assert!(json.contains("\"cat\":\"placement\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn forward_chase_counts_as_an_attempt() {
        let t = Trace {
            events: vec![
                ev(EventKind::ClientSend, 0, 5, "get"),
                ev(EventKind::ClientForward, 100, 5, "get"),
                ev(EventKind::ClientRecv, 2_000, 5, "get"),
            ],
            dropped: 0,
        };
        assert!(t.audit().is_empty());
        let stats = t.method_stats();
        assert_eq!(stats[0].attempts, 2);
        assert_eq!(stats[0].calls, 1);
        assert_eq!(stats[0].p50_micros, 2); // latency spans the chase
    }

    #[test]
    fn structure_is_timestamp_free() {
        let a = Trace {
            events: vec![
                ev(EventKind::ClientSend, 10, 1, "m"),
                ev(EventKind::ClientRecv, 20, 1, "m"),
            ],
            dropped: 0,
        };
        let b = Trace {
            events: vec![
                ev(EventKind::ClientRecv, 9_999, 1, "m"),
                ev(EventKind::ClientSend, 5, 1, "m"),
            ],
            dropped: 0,
        };
        assert_eq!(a.structure(), b.structure());
    }
}
