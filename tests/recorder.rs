//! The flight recorder's consumers held to literal values (DESIGN.md §8).
//!
//! One hand-built [`Trace`] holds every [`EventKind`] — calls with a
//! retransmit, a forward and a nested span, every marker family, orphans, a
//! send nobody answered — recorded by two machines with two lanes each. The
//! Chrome export (its length and FNV-1a digest), the per-method table, the
//! audit and the timestamp-free structure of that trace are pinned
//! here, so a change to the recorder's vocabulary or its writers that moves
//! one byte of what it exports fails by name. A pin moves only with a change
//! that means to move the output; say why in the commit that re-records it.

use std::collections::BTreeSet;
use std::time::Duration;

use oopp_repro::oopp::{
    symbolic_addr, wire, BreakerConfig, CallPolicy, ClusterBuilder, EventKind, NodeCtx,
    OverloadConfig, RemoteClient, RemoteResult, SpanEvent, Trace,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan};
use replica::{CoherenceMode, ReplicaConfig, ReplicaManager};

/// One event as a lane records it.
#[allow(clippy::too_many_arguments)]
fn ev(
    at_nanos: u64,
    kind: EventKind,
    (machine, worker): (usize, u32),
    peer: usize,
    (trace_id, span_id, parent_span): (u64, u64, u64),
    req_id: u64,
    attempt: u32,
    bytes: u32,
    method: &str,
) -> SpanEvent {
    SpanEvent {
        at_nanos,
        kind,
        machine,
        worker,
        peer,
        trace_id,
        span_id,
        parent_span,
        req_id,
        attempt,
        bytes,
        method: method.into(),
    }
}

/// A marker: an origin event about no single request, with a span of its
/// own, as `NodeCtx` records one (trace id = span, no request id, no
/// attempt).
fn marker(
    at_nanos: u64,
    kind: EventKind,
    lane: (usize, u32),
    peer: usize,
    span: u64,
    value: u32,
    method: &str,
) -> SpanEvent {
    ev(
        at_nanos,
        kind,
        lane,
        peer,
        (span, span, 0),
        0,
        0,
        value,
        method,
    )
}

/// Every kind, on machines 0 and 1, lanes 0 and 1 of each.
fn every_kind() -> Trace {
    use EventKind::*;
    let (m0, m0w1, m1, m1w1) = ((0, 0), (0, 1), (1, 0), (1, 1));
    let events = vec![
        // A move of one object: its four markers share one span.
        marker(100, MigrateBegin, m0, 1, 10, 0, "migrate"),
        marker(200, MigrateTransfer, m0, 0, 10, 512, "migrate"),
        marker(300, MigrateCommit, m0, 0, 10, 0, "migrate"),
        marker(400, MigrateRollback, m0, 1, 11, 0, "migrate"),
        // Span 1, `get`: m0 → m1, retransmitted once, queued, executed
        // on lane 1 as a replica hit, answered.
        ev(1_000, ClientSend, m0, 1, (1, 1, 0), 1, 1, 40, "get"),
        ev(2_000, ServerAdmitNew, m1, 0, (1, 1, 0), 1, 0, 0, "get"),
        ev(2_100, ServerDefer, m1, 0, (1, 1, 0), 1, 0, 0, "get"),
        ev(2_500, ClientRetransmit, m0, 1, (1, 1, 0), 1, 2, 40, "get"),
        ev(2_600, ServerAdmitDone, m1, 0, (1, 1, 0), 1, 0, 0, "get"),
        ev(3_000, ReplicaHit, m1w1, 0, (1, 1, 0), 1, 0, 7, "get"),
        ev(3_000, ServerDispatch, m1w1, 0, (1, 1, 0), 1, 0, 0, "get"),
        // Span 2, `add`, nested in span 1: m1 lane 1 → m0, chased once.
        ev(3_200, ClientSend, m1w1, 0, (1, 2, 1), 2, 1, 30, "add"),
        ev(3_300, ClientForward, m1w1, 0, (1, 2, 1), 2, 1, 30, "add"),
        ev(3_400, ServerAdmitNew, m0, 1, (1, 2, 0), 2, 0, 0, "add"),
        ev(3_450, ServerAdmitInFlight, m0, 1, (1, 2, 0), 2, 0, 0, "add"),
        ev(3_500, ServerDispatch, m0w1, 1, (1, 2, 0), 2, 0, 0, "add"),
        ev(3_900, ServerReply, m0w1, 1, (1, 2, 0), 2, 0, 16, "add"),
        ev(4_000, ClientRecv, m1w1, 0, (1, 2, 1), 2, 1, 16, "add"),
        ev(5_000, ServerReply, m1w1, 0, (1, 1, 0), 1, 0, 24, "get"),
        // Supervision of machine 0, from machine 1.
        marker(5_100, SuspectRaised, m1, 0, 12, 8_000, "supervise"),
        marker(5_200, MachineDeclaredDead, m1, 0, 13, 0, "supervise"),
        marker(5_300, ObjectReactivated, m1, 1, 14, 1_500, "supervise"),
        marker(5_400, FalseSuspicion, m1, 0, 15, 0, "supervise"),
        // Span 3, `put`: m0 lane 1 → m1, refused by a stale replica, then
        // sent on to the primary, never answered.
        ev(6_000, ClientSend, m0w1, 1, (3, 3, 0), 5, 1, 48, "put"),
        ev(6_200, ReplicaStale, m1, 0, (3, 3, 0), 5, 0, 3, "put"),
        ev(6_300, ServerDeadlineDrop, m1, 0, (3, 3, 0), 5, 0, 12, "put"),
        ev(7_000, ReplicaFallback, m0w1, 1, (3, 3, 0), 5, 2, 48, "put"),
        // The replication family's other markers, a primary's sync among
        // them (labelled with its kind) beside the manager's.
        marker(7_100, ReplicaSync, m0w1, 1, 16, 4, "replica_sync"),
        marker(7_200, ReplicaSync, m1, 0, 17, 0, "replicate"),
        marker(7_300, ReplicaPromote, m1, 0, 18, 0, "replicate"),
        marker(7_400, ReplicaScale, m1, 0, 19, 2, "replicate"),
        // Span 5, `scan`: m1 lane 0 → m0, shed at admission; the refusal
        // never reaches the caller.
        ev(8_000, ClientSend, m1, 0, (5, 5, 0), 9, 1, 20, "scan"),
        ev(9_000, ClientRecv, m0, 1, (1, 1, 0), 1, 2, 24, "get"),
        ev(9_100, ServerShed, m0, 1, (5, 5, 0), 9, 0, 64, "scan"),
        // The overload family's markers.
        marker(9_300, BreakerOpen, m0, 1, 22, 5, "overload"),
        marker(9_400, BreakerHalfOpen, m0, 1, 23, 0, "overload"),
        marker(9_500, BreakerClose, m0, 1, 24, 0, "overload"),
        marker(9_600, ClientFastFail, m0w1, 1, 25, 0, "overload"),
        // Orphans: an execution with no send, and an unanswered send that
        // names a parent nobody recorded.
        ev(
            9_700,
            ServerDispatch,
            m1w1,
            0,
            (30, 30, 0),
            11,
            0,
            0,
            "ghost",
        ),
        ev(9_800, ClientSend, m0, 1, (31, 31, 99), 12, 1, 8, "child"),
        // ...which m1 lane 1 drops after a long wait in its mailbox.
        ev(
            9_900,
            ServerSojournDrop,
            m1w1,
            0,
            (31, 31, 0),
            12,
            0,
            900,
            "child",
        ),
    ];
    Trace { events, dropped: 3 }
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn the_synthetic_trace_holds_every_kind() {
    let trace = every_kind();
    use EventKind::*;
    for kind in [
        ClientSend,
        ClientRetransmit,
        ClientRecv,
        ServerAdmitNew,
        ServerAdmitInFlight,
        ServerAdmitDone,
        ServerDefer,
        ServerDispatch,
        ServerReply,
        ClientForward,
        MigrateBegin,
        MigrateTransfer,
        MigrateCommit,
        MigrateRollback,
        SuspectRaised,
        MachineDeclaredDead,
        ObjectReactivated,
        FalseSuspicion,
        ReplicaHit,
        ReplicaStale,
        ReplicaSync,
        ReplicaFallback,
        ReplicaPromote,
        ReplicaScale,
        ServerShed,
        ServerSojournDrop,
        ServerDeadlineDrop,
        BreakerOpen,
        BreakerHalfOpen,
        BreakerClose,
        ClientFastFail,
    ] {
        assert!(trace.count(kind) > 0, "{kind:?} missing");
    }
}

#[test]
fn chrome_export_is_pinned() {
    let json = every_kind().to_chrome_json();
    assert_eq!(
        (json.len(), fnv1a(&json)),
        PIN_EXPORT,
        "the export moved — length {}, digest 0x{:016X}:\n{json}",
        json.len(),
        fnv1a(&json)
    );
}

/// Every `(pid, tid)` the export draws a track for is a `(machine, lane)`
/// that recorded an event: an unanswered send lands on the lane that sent
/// it, not on a thread named after its machine.
#[test]
fn every_exported_track_is_a_recording_lane() {
    let mut trace = every_kind();
    // The driver beside the two machines: machine 2, one lane.
    let late = ev(
        9_900,
        EventKind::ClientSend,
        (2, 0),
        0,
        (40, 40, 0),
        13,
        1,
        8,
        "late",
    );
    trace.events.push(late);
    let lanes: BTreeSet<(u64, u64)> = trace
        .events
        .iter()
        .map(|e| (e.machine as u64, e.worker as u64))
        .collect();
    let field = |event: &str, key: &str| -> u64 {
        let rest = &event[event.find(key).expect("every event has the field") + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().unwrap()
    };
    let json = trace.to_chrome_json();
    let tracks: BTreeSet<(u64, u64)> = json
        .split("\"ph\":")
        .skip(1)
        .map(|event| (field(event, "\"pid\":"), field(event, "\"tid\":")))
        .collect();
    assert_eq!(tracks, lanes);
}

#[test]
fn method_stats_are_pinned() {
    let rows: Vec<_> = every_kind()
        .method_stats()
        .into_iter()
        .map(|s| {
            (
                s.method,
                [
                    s.calls,
                    s.attempts,
                    s.retransmits,
                    s.dups,
                    s.p50_micros,
                    s.p99_micros,
                    s.queue_micros,
                    s.service_micros,
                    s.bytes_out,
                    s.bytes_in,
                ],
            )
        })
        .collect();
    let rows: Vec<_> = rows.iter().map(|(m, r)| (m.as_str(), *r)).collect();
    // calls, attempts, retransmits, dups, p50, p99, queue, service (µs),
    // bytes out, bytes in.
    assert_eq!(
        rows,
        [
            ("add", [1, 2, 0, 1, 0, 0, 0, 0, 60, 16]),
            ("child", [0, 1, 0, 0, 0, 0, 0, 0, 8, 0]),
            ("get", [1, 2, 1, 1, 8, 8, 1, 2, 80, 24]),
            ("ghost", [0; 10]),
            ("put", [0, 1, 0, 0, 0, 0, 0, 0, 48, 0]),
            ("scan", [0, 1, 0, 0, 0, 0, 0, 0, 20, 0]),
        ]
    );
}

/// The audit of the synthetic trace: today's two causality lines (the
/// orphan execution and the unknown parent) and the incomplete line its
/// dropped events earn. Span 1's retransmit repeats its send, span 3's
/// deadline drop is answered and never run, and no request runs twice.
#[test]
fn the_audit_is_pinned() {
    assert_eq!(
        audit_lines(&every_kind()),
        [
            "Causality: dispatch for span 0x1e (ghost) has no originating send [m1/1 @ 9700 ns]",
            "Causality: span 0x1f (child) names unknown parent 0x63 [m0/0 @ 9800 ns]",
            "Incomplete: 3 events lost to ring wrap-around",
        ]
    );
}

/// The audit of `trace`, a line per violation.
fn audit_lines(trace: &Trace) -> Vec<String> {
    trace.audit().iter().map(|v| v.to_string()).collect()
}

/// The audit of a one-rule trace: `events` and nothing dropped.
fn audit_of(events: Vec<SpanEvent>) -> Vec<String> {
    audit_lines(&Trace { events, dropped: 0 })
}

/// A call from the driver (machine 2) to machine 1: its send, admission,
/// run and reply.
fn served_call(at: u64, span: u64, req: u64) -> Vec<SpanEvent> {
    use EventKind::*;
    let id = (span, span, 0);
    vec![
        ev(at, ClientSend, (2, 0), 1, id, req, 1, 30, "add"),
        ev(at + 100, ServerAdmitNew, (1, 0), 2, id, req, 0, 0, "add"),
        ev(at + 200, ServerDispatch, (1, 1), 2, id, req, 0, 0, "add"),
        ev(at + 300, ServerReply, (1, 1), 2, id, req, 0, 16, "add"),
    ]
}

#[test]
fn the_audit_names_a_request_that_ran_twice() {
    let mut events = served_call(1_000, 7, 40);
    // The window forgot the first run: the retransmit is admitted anew.
    events.extend([
        ev(
            1_400,
            EventKind::ClientRetransmit,
            (2, 0),
            1,
            (7, 7, 0),
            40,
            2,
            30,
            "add",
        ),
        ev(
            1_500,
            EventKind::ServerAdmitNew,
            (1, 0),
            2,
            (7, 7, 0),
            40,
            0,
            0,
            "add",
        ),
        ev(
            1_600,
            EventKind::ServerDispatch,
            (1, 0),
            2,
            (7, 7, 0),
            40,
            0,
            0,
            "add",
        ),
    ]);
    assert_eq!(
        audit_of(events),
        [
            "AtMostOnce: request 40 from m2 (add) ran 2 times; the dedup window keeps 1024 keys \
          (DESIGN §6) and m1 admitted 0 others between its first and last runs \
          [m1/1 @ 1200 ns, m1/0 @ 1600 ns]"
        ]
    );
}

/// A daemon verb that waits for its object is refused `Busy`, deferred
/// and tried again: only the attempt that runs records a dispatch, so its
/// attempts are one run. A dispatch per attempt, or a second admission
/// that runs, is more than one.
#[test]
fn the_audit_counts_a_deferred_verbs_attempts_as_one_run() {
    use EventKind::*;
    let id = (12, 12, 0);
    let ran = |at| ev(at, ServerDispatch, (1, 0), 2, id, 45, 0, 0, "destroy");
    let events = vec![
        ev(1_000, ClientSend, (2, 0), 1, id, 45, 1, 30, "destroy"),
        ev(1_100, ServerAdmitNew, (1, 0), 2, id, 45, 0, 0, "destroy"),
        ev(1_100, ServerDefer, (1, 0), 2, id, 45, 0, 0, "destroy"),
        ran(1_300),
        ev(1_300, ServerReply, (1, 0), 2, id, 45, 0, 8, "destroy"),
    ];
    assert_eq!(audit_of(events.clone()), Vec::<String>::new());
    let mut per_attempt = events.clone();
    per_attempt.extend([ran(1_100), ran(1_200)]);
    per_attempt.sort_by_key(|e| e.at_nanos);
    assert_eq!(
        audit_of(per_attempt),
        [
            "AtMostOnce: request 45 from m2 (destroy) ran 3 times; the dedup window keeps 1024 \
          keys (DESIGN §6) and m1 admitted 0 others between its first and last runs \
          [m1/0 @ 1100 ns, m1/0 @ 1200 ns, m1/0 @ 1300 ns]"
        ]
    );
    let mut readmitted = events;
    readmitted.extend([
        ev(1_400, ServerAdmitNew, (1, 0), 2, id, 45, 0, 0, "destroy"),
        ran(1_500),
    ]);
    assert_eq!(audit_of(readmitted).len(), 1);
}

/// A drop rides the span of the request it refused: a run of that
/// request on that machine at or after the drop is late work, and a
/// sibling's run at the drop's instant is not.
#[test]
fn the_audit_names_work_run_after_its_deadline_drop() {
    use EventKind::*;
    let id = (8, 8, 0);
    let mut events = vec![
        ev(1_000, ClientSend, (2, 0), 1, id, 41, 1, 30, "add"),
        ev(1_100, ServerAdmitNew, (1, 0), 2, id, 41, 0, 0, "add"),
        // Dropped at execution time on lane 1 — and run there anyway.
        ev(2_000, ServerDeadlineDrop, (1, 1), 2, id, 41, 0, 5, "add"),
        ev(2_000, ServerDispatch, (1, 1), 2, id, 41, 0, 0, "add"),
        ev(2_100, ServerReply, (1, 1), 2, id, 41, 0, 16, "add"),
    ];
    assert_eq!(
        audit_of(events.clone()),
        [
            "NoLateWork: m1 ran request 41 from m2 (add) after a deadline_drop \
          [m1/1 @ 2000 ns, m1/1 @ 2000 ns]"
        ]
    );
    // Answered with the error instead, at the same instant as a sibling
    // call the lane ran: clean.
    events.remove(3);
    events.extend(served_call(1_800, 9, 42));
    events.sort_by_key(|e| e.at_nanos);
    assert_eq!(audit_of(events), Vec::<String>::new());
}

/// Request A is dropped and runs anyway; later the same lane refuses
/// request B of the same caller with an error reply. That reply answers
/// B, not A: judged by request key, the audit names A's run.
#[test]
fn the_audit_names_a_dropped_request_that_ran_beside_a_later_refusal() {
    use EventKind::*;
    let (a, b) = ((8, 8, 0), (9, 9, 0));
    let lane = (1, 1);
    let events = vec![
        ev(1_000, ClientSend, (2, 0), 1, a, 41, 1, 30, "add"),
        ev(1_100, ServerAdmitNew, (1, 0), 2, a, 41, 0, 0, "add"),
        ev(1_500, ClientSend, (2, 0), 1, b, 42, 1, 30, "add"),
        ev(1_600, ServerAdmitNew, (1, 0), 2, b, 42, 0, 0, "add"),
        ev(2_000, ServerDeadlineDrop, lane, 2, a, 41, 0, 5, "add"),
        ev(2_100, ServerDispatch, lane, 2, a, 41, 0, 0, "add"),
        ev(2_200, ServerReply, lane, 2, a, 41, 0, 16, "add"),
        ev(3_000, ServerDeadlineDrop, lane, 2, b, 42, 0, 7, "add"),
        ev(3_000, ServerReply, lane, 2, b, 42, 0, 12, "add"),
    ];
    assert_eq!(
        audit_of(events),
        [
            "NoLateWork: m1 ran request 41 from m2 (add) after a deadline_drop \
          [m1/1 @ 2000 ns, m1/1 @ 2100 ns]"
        ]
    );
}

#[test]
fn the_audit_allows_one_run_on_the_replica_a_fallback_left() {
    use EventKind::*;
    let id = (10, 10, 0);
    let mut events = vec![
        ev(1_000, ClientSend, (2, 0), 0, id, 43, 1, 30, "count"),
        // The replica on machine 0 runs the read, its reply is lost...
        ev(1_100, ServerAdmitNew, (0, 0), 2, id, 43, 0, 0, "count"),
        ev(1_200, ServerDispatch, (0, 0), 2, id, 43, 0, 0, "count"),
        ev(1_300, ServerReply, (0, 0), 2, id, 43, 0, 16, "count"),
        // ...and the caller falls back to the primary on machine 1.
        ev(5_000, ReplicaFallback, (2, 0), 1, id, 43, 2, 30, "count"),
        ev(5_100, ServerAdmitNew, (1, 0), 2, id, 43, 0, 0, "count"),
        ev(5_200, ServerDispatch, (1, 0), 2, id, 43, 0, 0, "count"),
        ev(5_300, ServerReply, (1, 0), 2, id, 43, 0, 16, "count"),
        ev(5_400, ClientRecv, (2, 0), 1, id, 43, 2, 16, "count"),
    ];
    assert_eq!(audit_of(events.clone()), Vec::<String>::new());
    // Without the fallback, the second run is one too many.
    events.remove(4);
    assert_eq!(audit_of(events).len(), 1);
}

#[test]
fn the_audit_names_a_retransmit_with_no_send() {
    let events = vec![ev(
        1_000,
        EventKind::ClientRetransmit,
        (2, 0),
        1,
        (11, 11, 0),
        44,
        2,
        30,
        "add",
    )];
    assert_eq!(
        audit_of(events),
        ["Causality: retransmit for span 0xb (add) has no originating send [m2/0 @ 1000 ns]"]
    );
}

#[test]
fn structure_is_pinned() {
    let shape = every_kind().structure();
    let shape: Vec<_> = shape
        .iter()
        .map(|(span, label, method, nested)| (*span, *label, method.as_str(), *nested))
        .collect();
    assert_eq!(
        shape,
        [
            (1, "admit_done", "get", false),
            (1, "admit_new", "get", false),
            (1, "defer", "get", false),
            (1, "dispatch", "get", false),
            (1, "recv", "get", false),
            (1, "replica_hit", "get", false),
            (1, "reply", "get", false),
            (1, "retransmit", "get", false),
            (1, "send", "get", false),
            (2, "admit_in_flight", "add", false),
            (2, "admit_new", "add", false),
            (2, "dispatch", "add", false),
            (2, "forward", "add", true),
            (2, "recv", "add", true),
            (2, "reply", "add", false),
            (2, "send", "add", true),
            (3, "deadline_drop", "put", false),
            (3, "replica_fallback", "put", false),
            (3, "replica_stale", "put", false),
            (3, "send", "put", false),
            (5, "send", "scan", false),
            (5, "shed", "scan", false),
            (10, "migrate_begin", "migrate", false),
            (10, "migrate_commit", "migrate", false),
            (10, "migrate_transfer", "migrate", false),
            (11, "migrate_rollback", "migrate", false),
            (12, "suspect_raised", "supervise", false),
            (13, "machine_dead", "supervise", false),
            (14, "object_reactivated", "supervise", false),
            (15, "false_suspicion", "supervise", false),
            (16, "replica_sync", "replica_sync", false),
            (17, "replica_sync", "replicate", false),
            (18, "replica_promote", "replicate", false),
            (19, "replica_scale", "replicate", false),
            (22, "breaker_open", "overload", false),
            (23, "breaker_half_open", "overload", false),
            (24, "breaker_close", "overload", false),
            (25, "fast_fail", "overload", false),
            (30, "dispatch", "ghost", false),
            (31, "send", "child", true),
            (31, "sojourn_drop", "child", false),
        ]
    );
}

/// A slow, persistent, replicable object: `work` parks the executing lane
/// on the cluster clock; `count` is a read verb a replica may serve.
#[derive(Debug, Default)]
pub struct Slow {
    done: u64,
}

oopp_repro::oopp::remote_class! {
    class Slow {
        persistent;
        reads(count);
        ctor();
        /// Sleep `nanos` of cluster time, then count one unit of work.
        fn work(&mut self, nanos: u64) -> u64;
        /// Units of work done.
        fn count(&mut self) -> u64;
    }
}

impl Slow {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Slow::default())
    }

    fn work(&mut self, ctx: &mut NodeCtx, nanos: u64) -> RemoteResult<u64> {
        ctx.clock().sleep(Duration::from_nanos(nanos));
        self.done += 1;
        Ok(self.done)
    }

    fn count(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.done)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.done)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        Ok(Slow {
            done: wire::from_bytes(state)?,
        })
    }
}

/// Every `NodeStats` row that names an event equals, summed over the
/// machines and the driver, the trace's count of that event — in one
/// traced virtual-time run with duplicates replayed and suppressed,
/// retransmits, a breaker fast-fail, deferrals, admission sheds, a
/// deadline drop, a sojourn drop, and replica hits and a stale replica
/// read. Each shed and drop names the request it refused.
#[test]
fn the_counters_and_the_recorder_agree() {
    let reliable = CallPolicy::reliable(Duration::from_millis(20));
    let plan = FaultPlan::seeded(0xC0_0417).with_drop(0.15).with_dup(0.25);
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .sched_workers(1)
        .register::<Slow>()
        .overload(OverloadConfig {
            mailbox_cap: 2,
            sojourn_target: Duration::from_millis(20),
            ..OverloadConfig::new()
        })
        .sim_config(
            ClusterConfig::zero_cost(0)
                .with_faults(plan)
                .with_virtual_time(0xC0_0417),
        )
        .call_policy(reliable)
        .tracing(true)
        .build();
    let recorder = cluster.recorder().expect("tracing enabled");
    let faults = cluster.sim().faults();
    faults.calm();

    let s = SlowClient::new_on(&mut driver, 1).unwrap();
    let far = SlowClient::new_on(&mut driver, 3).unwrap();
    // A replicated counter: primary on machine 0, one replica on 2, whose
    // 20 ms lease nothing renews.
    let dir = driver.directory();
    let r = SlowClient::new_on(&mut driver, 0).unwrap();
    let name = symbolic_addr(&["recorder", "Slow", "0"]);
    dir.bind(&mut driver, name.clone(), r.obj_ref()).unwrap();
    let cfg = ReplicaConfig {
        mode: CoherenceMode::BoundedStaleness,
        lease: Duration::from_millis(20),
    };
    let mut mgr = ReplicaManager::new(cfg, dir);
    mgr.replicate(&mut driver, &name, &r, &[2]).unwrap();

    // Replica hits, then a read the lapsed replica refuses.
    for _ in 0..3 {
        assert_eq!(r.count(&mut driver).unwrap(), 0);
    }
    driver.serve_for(Duration::from_millis(40));
    assert_eq!(r.count(&mut driver).unwrap(), 0);

    // A lossy, duplicating fabric: retransmits, replays, suppressions.
    faults.resume();
    for _ in 0..40 {
        s.count(&mut driver).unwrap();
    }
    faults.calm();

    // The worker busy for 50 ms: the calls behind it are deferred, a 10 ms
    // budget expires in the mailbox, a full mailbox (cap 2) sheds two more
    // at admission, and the one it kept waits past the 20 ms sojourn
    // target.
    let busy = s.work_async(&mut driver, 50_000_000).unwrap();
    driver.serve_for(Duration::from_millis(2));
    driver.set_call_policy(reliable.with_deadline(Duration::from_millis(10)));
    let late = s.work_async(&mut driver, 1_000_000).unwrap();
    driver.set_call_policy(reliable);
    let queued: Vec<_> = (0..3)
        .map(|_| s.work_async(&mut driver, 1_000_000).unwrap())
        .collect();
    busy.wait(&mut driver).unwrap();
    assert!(late.wait(&mut driver).is_err());
    let shed = queued
        .into_iter()
        .filter_map(|p| p.wait(&mut driver).err())
        .count();
    assert_eq!(shed, 3);

    // Two timeouts against a dark machine trip the breaker; the third
    // call fails fast.
    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_millis(10))
            .with_max_retries(0)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
            }),
    );
    faults.crash(3);
    for _ in 0..3 {
        assert!(far.count(&mut driver).is_err());
    }
    faults.restart(3);
    driver.set_call_policy(reliable);

    let mut totals = driver.local_stats().mirrored();
    for m in 0..4 {
        let rows = driver.stats_of(m).unwrap().mirrored();
        for (total, (_, _, count)) in totals.iter_mut().zip(rows) {
            total.2 += count;
        }
    }
    cluster.shutdown(driver);
    let trace = recorder.merge();
    assert_eq!(trace.dropped, 0);
    assert_eq!(audit_lines(&trace), Vec::<String>::new());

    use EventKind::*;
    assert_eq!(totals.len(), 10, "the rows that name an event");
    for (counter, kind, count) in totals {
        println!("{counter:>22} = {count:>3}  {}", kind.label());
        assert!(count > 0, "the run never bumped {counter}");
        assert_eq!(
            count,
            trace.count(kind) as u64,
            "{counter} against {kind:?}"
        );
    }
    // A refusal rides the span of the request it refused: each names a
    // send of this trace by span and request id.
    let sent: BTreeSet<(u64, u64)> = trace
        .events
        .iter()
        .filter(|e| e.kind == ClientSend)
        .map(|e| (e.span_id, e.req_id))
        .collect();
    for refusal in trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, ServerShed | ServerDeadlineDrop | ServerSojournDrop))
    {
        let key = (refusal.span_id, refusal.req_id);
        assert!(sent.contains(&key), "{refusal:?} names no send");
    }
}

/// `(bytes, FNV-1a digest)` of [`every_kind`]'s Chrome export.
const PIN_EXPORT: (usize, u64) = (4_702, 0x42C4_9522_A9EC_4C68);

/// Calls that expire while they wait behind a slow one are dropped, at
/// admission (no pool: the dispatcher is busy running the slow call) or in
/// the mailbox (a pool), and never run: in every case the drops happen, the
/// object counts the slow call alone, and the traced run keeps every rule
/// of the audit.
#[test]
fn calls_that_expire_while_they_wait_are_dropped_not_run() {
    let name = "calls_that_expire_while_they_wait_are_dropped_not_run";
    oopp_repro::simnet::sweep::cases(name, 8, |c| {
        let (cluster, mut driver) = ClusterBuilder::new(1)
            .sched_workers(c.range(0usize..3))
            .register::<Slow>()
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(c.next_u64()))
            .tracing(true)
            .build();
        let recorder = cluster.recorder().expect("tracing enabled");
        let s = SlowClient::new_on(&mut driver, 0).unwrap();
        let busy_ms = c.range(5u64..40);
        let busy = s.work_async(&mut driver, busy_ms * 1_000_000).unwrap();
        let budget = Duration::from_millis(c.range(1..busy_ms));
        let policy = driver.call_policy();
        driver.set_call_policy(policy.with_deadline(budget));
        let late: Vec<_> = (0..c.range(1usize..5))
            .map(|_| s.work_async(&mut driver, 1_000).unwrap())
            .collect();
        driver.set_call_policy(policy);
        busy.wait(&mut driver).unwrap();
        for call in late {
            assert!(call.wait(&mut driver).is_err());
        }
        let ran = s.count(&mut driver).unwrap();
        cluster.shutdown(driver);
        let trace = recorder.merge();
        assert_eq!(audit_lines(&trace), Vec::<String>::new());
        assert!(trace.count(EventKind::ServerDeadlineDrop) > 0);
        assert_eq!(ran, 1, "only the slow call ran");
    });
}
