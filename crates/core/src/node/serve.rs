//! The server role: receiving packets, admitting requests into object
//! mailboxes, judging the execution-time gates, running objects (inline or
//! on the worker lanes), and answering.

use std::sync::atomic::Ordering;
use std::time::Duration;

use simnet::{MachineId, Packet, PacketBytes};
use wire::Reader;

use super::judge::{judge, queue_gated, reads_clock, Verdict};
use super::{payload_method, CallInfo, LaneRole, NodeCtx};
use crate::dedup::DedupVerdict;
use crate::error::{RemoteError, RemoteResult};
use crate::frame::{encode_response, Body, FrameView};
use crate::ids::{ObjectId, DAEMON};
use crate::process::{DispatchResult, ServerObject};
use crate::shared::{
    bump, raise_epoch, take_live, Ask, CallTrace, IncomingReq, ObjRecord, Role, Sched, WorkerMsg,
};
use crate::trace::EventKind;

pub(super) enum ServeOutcome {
    Served,
    Defer(IncomingReq),
}

/// How many mailbox entries one task token executes before re-parking the
/// object on the worker's own deque. Bounds how long a hot object
/// monopolizes a worker, and is what puts continuations where siblings can
/// steal them.
const MAILBOX_BATCH: usize = 16;

/// What `next_step` decided for the head of an object's mailbox.
enum Step {
    /// Mailbox empty (token retired) or object gone (a lifecycle verb
    /// retired it and answered its queue).
    Done,
    /// A gate rejected the request without touching the object.
    Reject { req: IncomingReq, err: RemoteError },
    /// This incarnation just learned it was superseded and is gone: answer
    /// the triggering request and everything queued behind it with `err`.
    Quarantine {
        reqs: Vec<IncomingReq>,
        err: RemoteError,
    },
    /// Gates passed: the object is checked out, dispatch the request.
    Dispatch {
        req: IncomingReq,
        obj: Box<dyn ServerObject>,
        replica_hit: Option<u64>,
    },
}

impl NodeCtx {
    // ------------------------------------------------------------------
    // Serving (server role)
    // ------------------------------------------------------------------

    /// The request currently being dispatched, if any. Objects that defer
    /// their replies capture this to answer later via [`send_reply`].
    ///
    /// [`send_reply`]: NodeCtx::send_reply
    pub fn current_call(&self) -> Option<CallInfo> {
        self.current_call
    }

    /// Keep part of the request being dispatched alive where it arrived:
    /// the bytes `range` of it, offsets as the argument reader's
    /// [`position`](Reader::position) reports them. For an object that
    /// stores or relays a bulk argument without decoding (copying) it.
    /// `None` outside a dispatch, or for a range not inside the request.
    pub fn request_bytes(&self, range: std::ops::Range<usize>) -> Option<PacketBytes> {
        self.current_args.as_ref()?.slice(range)
    }

    /// Send a response for a call whose dispatch returned
    /// [`DispatchResult::NoReply`].
    pub fn send_reply(&mut self, call: CallInfo, result: RemoteResult<Body>) {
        self.send_response(call.reply_to, call.req_id, result);
    }

    /// Serve incoming requests until `dur` elapses. Lets a driver thread
    /// that hosts objects make them reachable while it has nothing else to
    /// do. Machines never need this — their serve loop runs continuously.
    pub fn serve_for(&mut self, dur: Duration) {
        let deadline = simnet::time::after(self.clock.now_nanos(), dur);
        // Re-read the clock before every receive: handling a packet can
        // advance time (draining a batch under virtual time, a costed
        // dispatch under real time) past the deadline, and under a steady
        // inbound stream the receive below would otherwise keep returning
        // packets — and this loop keep serving them — long after the
        // window closed.
        while self.clock.now_nanos() < deadline {
            if self.pump_until(deadline).is_err() {
                break;
            }
        }
    }

    /// Drain whatever is already in the inbox without blocking. The
    /// supervisor's step loop interleaves this with its own bookkeeping:
    /// heartbeat replies land in the reply table for
    /// [`try_take_reply`](NodeCtx::try_take_reply) while any requests
    /// aimed at this node still get served.
    pub fn poll(&mut self) {
        while let LaneRole::Dispatcher(inbox) = &self.role {
            match inbox.try_recv() {
                Ok(p) => self.handle_packet(p),
                Err(_) => break,
            }
        }
        self.drain_deferred();
    }

    /// Make one unit of blocked-wait progress, or report the deadline
    /// passed. On a dispatcher/driver lane that means receiving and
    /// handling one packet then retrying deferred work; on a worker lane
    /// it means taking one control message — a routed response, or a nudge
    /// that lets this lane run one scheduler task **re-entrantly** while
    /// its own call is still in flight (the M:N analogue of the classic
    /// engine serving other objects while blocked).
    pub(super) fn pump_until(&mut self, deadline: u64) -> Result<(), ()> {
        let lane = match &self.role {
            LaneRole::Dispatcher(inbox) => {
                let pkt = self
                    .clock
                    .recv_deadline_nanos(inbox, self.machine, deadline)
                    .map_err(|_| ())?;
                self.handle_packet(pkt);
                self.drain_deferred();
                return Ok(());
            }
            LaneRole::Worker(lane) => lane,
        };
        // Routed responses and control first; when the channel is dry,
        // serve the machine's queues before parking. The scan is what
        // makes nudges race-free: a task admitted while this lane was
        // draining control messages may have had its Nudge consumed as
        // a no-op above (worker_loop runs one task per wakeup), and a
        // task admitted *after* this scan sends a fresh channel message
        // the park below sees immediately — so no token ever strands
        // in the injector behind a blocked lane.
        let recvd = match lane.rx.try_recv() {
            Ok(msg) => Ok(msg),
            Err(_) => {
                if let Some(obj) = self.find_task() {
                    self.run_object(obj);
                    return Ok(());
                }
                self.clock
                    .recv_any_deadline_nanos(&lane.rx, lane.label, deadline)
            }
        };
        match recvd {
            Ok(WorkerMsg::Packet(pkt)) => self.handle_packet(pkt),
            Ok(WorkerMsg::Nudge) => {
                if let Some(obj) = self.find_task() {
                    self.run_object(obj);
                }
            }
            Ok(WorkerMsg::Shutdown) => self.alive = false,
            Err(_) => return Err(()),
        }
        Ok(())
    }

    pub(crate) fn serve_loop(&mut self) {
        while self.alive {
            let LaneRole::Dispatcher(inbox) = &self.role else {
                break;
            };
            let Ok(pkt) = self.clock.recv(inbox, self.machine) else {
                break;
            };
            self.handle_packet(pkt);
            self.drain_deferred();
        }
        // Dispatcher exit stops the machine's worker pool. Workers drain
        // their channel before parking, so the message is seen even if one
        // is currently blocked inside a wait.
        if let Sched::Pool(pool) = &self.shared.sched {
            for i in 0..pool.workers() {
                pool.wake(i, WorkerMsg::Shutdown, &self.clock);
            }
        }
    }

    /// A worker lane's main loop: drain control messages, then scan the
    /// queues (own deque → machine injector → seeded steal sweep over
    /// siblings); park idle when everything is dry.
    pub(crate) fn worker_loop(&mut self) {
        loop {
            let LaneRole::Worker(lane) = &self.role else {
                return;
            };
            // Control first: routed responses and shutdown must not sit
            // behind queue scans.
            match lane.rx.try_recv() {
                Ok(WorkerMsg::Packet(pkt)) => {
                    self.handle_packet(pkt);
                    continue;
                }
                Ok(WorkerMsg::Nudge) => continue,
                Ok(WorkerMsg::Shutdown) => return,
                Err(_) => {}
            }
            if !self.alive {
                return;
            }
            if let Some(obj) = self.find_task() {
                self.run_object(obj);
                continue;
            }
            // Nothing runnable: advertise idleness, then re-scan — a task
            // injected between the scan above and the flag below saw no
            // idle workers and nudged everyone, but one injected *after*
            // the flag nudges us specifically, so this second scan is what
            // closes the lost-wakeup window — and only then park.
            if let Sched::Pool(pool) = &self.shared.sched {
                pool.set_idle(lane.index, true);
            }
            if let Some(obj) = self.find_task() {
                if let Sched::Pool(pool) = &self.shared.sched {
                    pool.set_idle(lane.index, false);
                }
                self.run_object(obj);
                continue;
            }
            let msg = self.clock.recv_any(&lane.rx, lane.label);
            if let Sched::Pool(pool) = &self.shared.sched {
                pool.set_idle(lane.index, false);
            }
            match msg {
                Ok(WorkerMsg::Packet(pkt)) => self.handle_packet(pkt),
                Ok(WorkerMsg::Nudge) => {}
                Ok(WorkerMsg::Shutdown) | Err(_) => return,
            }
        }
    }

    /// Pop the next runnable object: own deque first (locality), then the
    /// machine's injector (fresh admissions), then steal from siblings in
    /// the seed-determined order for this `(worker, round)`.
    fn find_task(&self) -> Option<ObjectId> {
        let LaneRole::Worker(lane) = &self.role else {
            return None;
        };
        if let Some(obj) = lane.deque.pop() {
            return Some(obj);
        }
        let Sched::Pool(pool) = &self.shared.sched else {
            return None;
        };
        if let Some(obj) = pool.injector.pop() {
            return Some(obj);
        }
        let round = self.steal_round.get();
        self.steal_round.set(round.wrapping_add(1));
        pool.steal_order
            .victims(lane.index, round, pool.stealers.len())
            .into_iter()
            .find_map(|victim| pool.stealers[victim].steal().success())
    }

    /// Hand an object with fresh mailbox work to the execution layer: the
    /// worker pool's injector when one is attached, an immediate inline
    /// run otherwise (the classic single-threaded profile, where this call
    /// happens at the same point the old engine dispatched the request).
    fn submit_task(&mut self, target: ObjectId) {
        if let Sched::Pool(pool) = &self.shared.sched {
            pool.injector.push(target);
            pool.nudge(&self.clock);
            return;
        }
        self.run_object(target);
    }

    fn handle_packet(&mut self, pkt: Packet) {
        // Parsed where it lies: the payload stays in the packet's buffer,
        // which then travels on as the request's arguments or the reply's
        // return value.
        let view = match FrameView::parse(&pkt.payload) {
            Ok(v) => v,
            Err(_) => return, // malformed; nothing to reply to
        };
        match view {
            FrameView::Request { header, payload } => {
                // Requests arriving at a worker lane would mean the fabric
                // delivered to a non-endpoint; drop defensively.
                if let LaneRole::Worker(_) = self.role {
                    debug_assert!(false, "request frame delivered to a worker lane");
                    return;
                }
                let (req_id, reply_to) = (header.req_id, header.reply_to);
                let mut ask = Ask {
                    epoch: header.epoch,
                    rs_epoch: header.rs_epoch.0,
                    deadline: header.deadline,
                    admitted_at: 0,
                };
                if queue_gated(&ask, &self.shared.overload) {
                    ask.admitted_at = self.clock.now_nanos();
                }
                let req = IncomingReq {
                    req_id,
                    reply_to,
                    target: header.target,
                    // The flight recorder's events all want the method
                    // name; parse it from the payload head only when
                    // tracing is on.
                    method: self
                        .tracer
                        .as_ref()
                        .map(|_| payload_method(&pkt.payload[payload.clone()])),
                    payload: pkt
                        .payload
                        .narrow(payload)
                        .expect("a parsed range lies inside its packet"),
                    trace_id: header.trace.trace_id.0,
                    span: header.trace.span.0,
                    ask,
                };
                // At-most-once execution: a retransmitted request either
                // replays its cached response or is dropped. Only genuinely
                // new requests reach dispatch.
                let verdict = self.shared.dedup.lock().admit((reply_to, req_id));
                match verdict {
                    DedupVerdict::Done(frame) => {
                        bump!(self.shared.stats, dup_replayed);
                        self.trace_req(EventKind::ServerAdmitDone, &req, 0);
                        let _ = self.net.send(self.machine, reply_to, frame);
                        return;
                    }
                    // The original is still being served (or parked) and
                    // will answer — or it answered so long ago that the
                    // window gave the reply's bytes back (DESIGN.md §6):
                    // the request is not executed again, and this copy
                    // goes unanswered.
                    DedupVerdict::InFlight => {
                        bump!(self.shared.stats, dup_suppressed);
                        self.trace_req(EventKind::ServerAdmitInFlight, &req, 0);
                        return;
                    }
                    DedupVerdict::New => {
                        self.trace_req(EventKind::ServerAdmitNew, &req, 0);
                        if let Some(method) = &req.method {
                            // Bound the table against requests that never
                            // get a reply (abandoned deferred calls): a
                            // flight-recorder table may drop stale entries,
                            // never grow without limit.
                            let mut spans = self.shared.serving_spans.lock();
                            if spans.len() >= 65_536 {
                                spans.clear();
                            }
                            spans.insert(
                                (reply_to, req_id),
                                CallTrace {
                                    trace_id: req.trace_id,
                                    span: req.span,
                                    parent_span: 0,
                                    method: method.clone(),
                                },
                            );
                        }
                    }
                }
                match self.try_serve(req) {
                    ServeOutcome::Served => {}
                    ServeOutcome::Defer(req) => {
                        bump!(self.shared.stats, calls_deferred);
                        self.trace_req(EventKind::ServerDefer, &req, 0);
                        self.push_deferred(req);
                    }
                }
            }
            FrameView::Response { req_id, result } => {
                // Responses for calls issued by another lane of this
                // machine (workers allocate req_ids on their own residue
                // class mod `stride`) are routed there raw; the lane
                // parses and files them itself.
                let lane = req_id % self.stride;
                if lane != self.lane_no {
                    if let Sched::Pool(pool) = &self.shared.sched {
                        let w = lane as usize;
                        if w >= 1 && w <= pool.workers() {
                            pool.wake(w - 1, WorkerMsg::Packet(pkt), &self.clock);
                        }
                        // Lane-0 responses reaching a worker (or an
                        // out-of-range lane) have nobody waiting: drop.
                    }
                    return;
                }
                // Replies for calls nobody is waiting on anymore (timed
                // out, abandoned) are dropped, not hoarded: the reply
                // table only ever holds answers someone can still take.
                if self.outstanding.contains_key(&req_id) {
                    let result = result.map(|range| {
                        let reply = pkt.payload.narrow(range);
                        reply.expect("a parsed range lies inside its packet")
                    });
                    self.replies.insert(req_id, result);
                }
            }
        }
    }

    /// Park a request in this lane's deferred queue, keeping the shared
    /// count of parked daemon verbs exact — workers read it to know when
    /// the dispatcher needs a retry kick (see `run_object`).
    pub(super) fn push_deferred(&mut self, req: IncomingReq) {
        if req.target == DAEMON {
            self.shared.daemon_parked.fetch_add(1, Ordering::Relaxed);
        }
        self.deferred.push_back(req);
    }

    fn drain_deferred(&mut self) {
        loop {
            let mut progressed = false;
            for _ in 0..self.deferred.len() {
                let Some(req) = self.deferred.pop_front() else {
                    break;
                };
                if req.target == DAEMON {
                    self.shared.daemon_parked.fetch_sub(1, Ordering::Relaxed);
                }
                match self.try_serve(req) {
                    ServeOutcome::Served => progressed = true,
                    ServeOutcome::Defer(req) => self.push_deferred(req),
                }
            }
            if !progressed || self.deferred.is_empty() {
                break;
            }
        }
    }

    fn try_serve(&mut self, req: IncomingReq) -> ServeOutcome {
        if req.target == DAEMON {
            self.serve_daemon(req)
        } else {
            self.serve_object(req)
        }
    }

    /// Admission (dispatcher lane): park the request in its target's
    /// mailbox and mint a task token if the object does not already have
    /// one. A live object's gates — fences, leases, replica coherence —
    /// are judged at **execution** time in `next_step`, under the same
    /// shard lock, so a gate change landing between admission and
    /// execution still wins; an id with no live object is judged right
    /// here.
    pub(super) fn serve_object(&mut self, req: IncomingReq) -> ServeOutcome {
        let (target, ask) = (req.target, req.ask);
        // Admission-time deadline check: work whose caller has already
        // given up is dropped *before* it costs a mailbox slot. Checked
        // again at execution time by `judge` — time queued counts.
        if ask.deadline != 0 && ask.admitted_at >= ask.deadline {
            let elapsed_nanos = ask.admitted_at - ask.deadline;
            self.reject(&req, RemoteError::DeadlineExceeded { elapsed_nanos });
            return ServeOutcome::Served;
        }
        let mut shard = self.shared.shard(target);
        let live = match shard.get_mut(&target) {
            Some(ObjRecord::Live(live)) => live,
            mut record => {
                let verdict = judge(
                    record.as_deref(),
                    self.here(target),
                    &ask,
                    &req.payload,
                    ask.admitted_at,
                    self.shared.lease.load(Ordering::Relaxed),
                    &self.shared.overload,
                );
                let err = match verdict {
                    Verdict::Reject(err) => err,
                    Verdict::Quarantine { epoch, err } => {
                        if let Some(record) = &mut record {
                            raise_epoch(record.epoch_mut(), epoch);
                        }
                        err
                    }
                    // (`Serve` is for live records only.)
                    Verdict::Defer | Verdict::Serve { .. } => return ServeOutcome::Defer(req),
                };
                drop(shard);
                self.reject(&req, err);
                return ServeOutcome::Served;
            }
        };
        // Admission control (DESIGN.md §15): a full per-object mailbox or
        // a spent machine-wide in-flight budget rejects the request right
        // here — a cheap typed `Overloaded` reply instead of a queue slot
        // the node cannot afford. Rejected requests are never queued.
        let full = if live.mailbox.len() >= self.shared.overload.mailbox_cap {
            Some(live.mailbox.len() as u64)
        } else {
            let cap = self.shared.overload.inflight_cap as u64;
            self.shared.queued.try_acquire(cap).err()
        };
        if let Some(queue_depth) = full {
            // An overload rejection is itself a load signal: count it
            // against the target so the placement heat map sees the
            // pressure even though the call never ran.
            live.calls += 1;
            drop(shard);
            bump!(self.shared.stats, calls_shed_overload);
            self.record_overload_marker(
                EventKind::ServerShed,
                req.reply_to,
                queue_depth.min(u32::MAX as u64) as u32,
            );
            self.send_response(
                req.reply_to,
                req.req_id,
                Err(RemoteError::Overloaded {
                    queue_depth,
                    retry_after_nanos: self.shared.overload.retry_after.as_nanos() as u64,
                }),
            );
            return ServeOutcome::Served;
        }
        // Kept aside for the `ServerDefer` event: the request itself moves
        // into the mailbox.
        let (reply_to, req_id) = (req.reply_to, req.req_id);
        let deferred = req
            .method
            .clone()
            .filter(|_| req.span != 0)
            .map(|method| CallTrace {
                trace_id: req.trace_id,
                span: req.span,
                parent_span: 0,
                method,
            });
        live.mailbox.push_back(req);
        let submit = !std::mem::replace(&mut live.scheduled, true);
        drop(shard);
        if submit {
            self.submit_task(target);
        } else {
            // Parked behind a token that already exists: the request waits
            // its mailbox turn — the M:N engine's form of a deferral.
            bump!(self.shared.stats, calls_deferred);
            self.trace_call(
                EventKind::ServerDefer,
                reply_to,
                deferred.as_ref(),
                req_id,
                0,
                0,
            );
        }
        ServeOutcome::Served
    }

    /// Answer `req` with the rejection a gate decided; the error says which
    /// gate, and so what to count and trace.
    fn reject(&mut self, req: &IncomingReq, err: RemoteError) {
        let micros = |nanos: u64| (nanos / 1_000).min(u32::MAX as u64) as u32;
        match &err {
            RemoteError::Fenced { .. } => {
                bump!(self.shared.stats, calls_fenced);
            }
            RemoteError::Moved { .. } => {
                bump!(self.shared.stats, calls_forwarded);
            }
            RemoteError::StaleReplica { rs_epoch, .. } => {
                bump!(self.shared.stats, replica_reads_stale);
                self.trace_req(EventKind::ReplicaStale, req, *rs_epoch as u32);
            }
            // The propagated deadline passed (at admission, or while the
            // request sat queued): dropped without executing.
            RemoteError::DeadlineExceeded { elapsed_nanos } => {
                bump!(self.shared.stats, calls_deadline_expired);
                let over = micros(*elapsed_nanos);
                self.record_overload_marker(EventKind::ServerDeadlineDrop, req.reply_to, over);
            }
            // CoDel-style shed: the request's queue sojourn exceeded the
            // configured target.
            RemoteError::Overloaded { .. } => {
                bump!(self.shared.stats, calls_shed_sojourn);
                let sojourn = self.clock.now_nanos().saturating_sub(req.ask.admitted_at);
                let waited = micros(sojourn);
                self.record_overload_marker(EventKind::ServerSojournDrop, req.reply_to, waited);
            }
            _ => {}
        }
        self.send_response(req.reply_to, req.req_id, Err(err));
    }

    /// Claim the next unit of work for `target` under its shard lock and
    /// judge it **at execution time** (DESIGN.md §13) — at the moment the
    /// call would run, never at enqueue, so a fence bump that lands while
    /// a request sits in the mailbox still rejects it.
    fn next_step(&mut self, target: ObjectId) -> Step {
        let mut shard = self.shared.shard(target);
        let Some(record) = shard.get_mut(&target) else {
            return Step::Done;
        };
        let ObjRecord::Live(live) = record else {
            return Step::Done;
        };
        let Some(req) = live.mailbox.pop_front() else {
            // Mailbox dry: retire the task token.
            live.scheduled = false;
            return Step::Done;
        };
        // The request left its mailbox: give its slot back to the
        // machine-wide in-flight budget whatever happens next.
        self.shared.queued.release(1);
        // The clock only when a gate reads it (a virtual clock's lock is a
        // leaf, so taking it under the shard lock nests nothing).
        let now = if reads_clock(live, &req.ask, &self.shared.overload) {
            self.clock.now_nanos()
        } else {
            0
        };
        let verdict = judge(
            Some(&*record),
            self.here(target),
            &req.ask,
            &req.payload,
            now,
            self.shared.lease.load(Ordering::Relaxed),
            &self.shared.overload,
        );
        match (verdict, record) {
            // Check the object out for the duration of the call: the task
            // token is exclusive, so the slot must be occupied.
            (Verdict::Serve { replica_hit }, ObjRecord::Live(live)) => Step::Dispatch {
                req,
                obj: live
                    .slot
                    .take()
                    .expect("task token is exclusive: nobody else checks this object out"),
                replica_hit,
            },
            (Verdict::Reject(err), _) => Step::Reject { req, err },
            (Verdict::Quarantine { epoch, err }, _) => {
                // Defense in depth on top of the lease: the superseded
                // incarnation goes, a bare fence stays.
                let fence = ObjRecord::gone(Some(epoch), None);
                let mut reqs = vec![req];
                if let Some(live) = take_live(&mut shard, target, fence) {
                    // Quarantined requests leave their mailbox for good.
                    self.shared.queued.release(live.mailbox.len() as u64);
                    reqs.extend(live.mailbox);
                }
                Step::Quarantine { reqs, err }
            }
            (Verdict::Serve { .. } | Verdict::Defer, _) => {
                unreachable!("judge serves live records only and defers only migrating ones")
            }
        }
    }

    /// Execute `target`'s mailbox: the body of one scheduler task. Runs
    /// up to `MAILBOX_BATCH` requests, then re-parks the object on this
    /// worker's own deque (stealable by idle siblings) — or keeps going
    /// inline when there is no pool. Run-to-completion per request; the
    /// object is owned by exactly one lane for the duration.
    pub(crate) fn run_object(&mut self, target: ObjectId) {
        let mut batch = 0usize;
        loop {
            if batch >= MAILBOX_BATCH {
                if let LaneRole::Worker(lane) = &self.role {
                    // Yield the rest of the mailbox: the token moves to this
                    // worker's deque, where a sibling can steal it.
                    // `scheduled` stays true — the token still exists.
                    lane.deque.push(target);
                    if let Sched::Pool(pool) = &self.shared.sched {
                        pool.nudge(&self.clock);
                    }
                    return;
                }
            }
            match self.next_step(target) {
                Step::Done => break,
                Step::Reject { req, err } => {
                    self.reject(&req, err);
                    batch += 1;
                }
                Step::Quarantine { reqs, err } => {
                    for req in reqs {
                        self.reject(&req, err.clone());
                    }
                    break; // the object is gone; the token dies with it
                }
                Step::Dispatch {
                    req,
                    mut obj,
                    replica_hit,
                } => {
                    if let Some(rs_now) = replica_hit {
                        bump!(self.shared.stats, replica_reads_served);
                        self.trace_req(EventKind::ReplicaHit, &req, rs_now as u32);
                    }
                    let saved = self.current_call.replace(CallInfo {
                        req_id: req.req_id,
                        reply_to: req.reply_to,
                    });
                    let saved_args = self.current_args.replace(req.payload.clone());
                    // Calls the method issues while running inherit this
                    // request's trace identity (nested spans).
                    let saved_trace = std::mem::replace(
                        &mut self.current_trace,
                        (req.span != 0).then_some((req.trace_id, req.span)),
                    );
                    // Downstream calls the method issues inherit the
                    // request's remaining deadline budget (propagation).
                    let saved_deadline = std::mem::replace(
                        &mut self.current_deadline,
                        (req.ask.deadline != 0).then_some(req.ask.deadline),
                    );
                    let mut reader = Reader::new(&req.payload);
                    // Set when the call was a served write verb.
                    let mut wrote = false;
                    let outcome = match reader.take_str() {
                        Ok(method) => {
                            self.trace_req(EventKind::ServerDispatch, &req, 0);
                            let out = obj.dispatch_named(self, method, &mut reader);
                            wrote = out.is_ok() && !obj.read_verbs().contains(&method);
                            out
                        }
                        Err(e) => Err(e.into()),
                    };
                    self.current_call = saved;
                    self.current_args = saved_args;
                    self.current_trace = saved_trace;
                    self.current_deadline = saved_deadline;
                    // Done with the request before the reply leaves: unless
                    // the object kept part of it, the caller is then the
                    // buffer's last holder and can reuse it.
                    let (reply_to, req_id) = (req.reply_to, req.req_id);
                    drop(req);

                    // The call is over: one critical section counts it (the
                    // placement subsystem's load signal) and checks the object
                    // back in. The record is still live — lifecycle verbs
                    // report Busy (never retire an object) while its slot is
                    // checked out. Only a replicated primary that just served
                    // a write stays out a little longer: propagation happens
                    // while this lane still owns the object.
                    let mut owned = Some(obj);
                    if let Some(ObjRecord::Live(live)) = self.shared.shard(target).get_mut(&target)
                    {
                        live.calls += 1;
                        if !(wrote && matches!(live.role, Role::Primary(_))) {
                            live.slot = owned.take();
                        }
                    }
                    if let Some(obj) = owned {
                        self.propagate_write(target, obj.as_ref());
                        if let Some(ObjRecord::Live(live)) =
                            self.shared.shard(target).get_mut(&target)
                        {
                            live.slot = Some(obj);
                        }
                    }

                    match outcome {
                        Ok(DispatchResult::Reply(body)) => {
                            self.send_response(reply_to, req_id, Ok(body))
                        }
                        Ok(DispatchResult::NoReply) => {}
                        Err(e) => self.send_response(reply_to, req_id, Err(e)),
                    }
                    bump!(self.shared.stats, calls_served);
                    batch += 1;
                }
            }
        }
        // A lifecycle verb may be parked in the dispatcher's deferred
        // queue waiting for this object to go idle. The dispatcher blocks
        // on its network inbox, so wake it with an empty loopback packet
        // (decode fails harmlessly; the serve loop retries its deferred
        // queue after every receive).
        if matches!(self.role, LaneRole::Worker(_))
            && self.shared.daemon_parked.load(Ordering::Relaxed) > 0
        {
            let _ = self.net.send(self.machine, self.machine, Vec::new());
        }
    }

    /// Bump the replica-set epoch after a served write and propagate per
    /// the attached mode. Write-through pushes `replica_sync` to every
    /// live replica before returning (the write is acked only after, so
    /// the writer — and everyone else — reads it from any replica still
    /// holding a live coherence lease); a replica that cannot be reached
    /// is dropped from the live set and its outstanding coherence lease is
    /// **waited out**, so once the ack goes, no replica holding a live
    /// lease can be missing the write. Bounded-staleness mode returns
    /// immediately — the replica manager re-syncs on its cadence and
    /// staleness stays bounded by the lease.
    ///
    /// `obj` is the primary itself, still checked out by this lane:
    /// snapshotting the *owned* box (not the checked-in slot) is what keeps
    /// the snapshot race-free under multiple workers.
    fn propagate_write(&mut self, object: ObjectId, obj: &dyn ServerObject) {
        let (rs_epoch, write_through, lease_millis, replicas) = {
            let mut shard = self.shared.shard(object);
            let Some(pm) = shard.get_mut(&object).and_then(ObjRecord::primary_mut) else {
                return;
            };
            pm.rs_epoch += 1;
            (
                pm.rs_epoch,
                pm.write_through,
                pm.lease_millis,
                pm.replicas.clone(),
            )
        };
        if !write_through || replicas.is_empty() {
            return;
        }
        let state = match obj.snapshot_state() {
            Ok(s) => s,
            Err(_) => return,
        };
        let mut lost = false;
        for r in replicas {
            match self.replica_sync_to(r, state.clone(), rs_epoch, lease_millis) {
                Ok(()) => {
                    bump!(self.shared.stats, replica_syncs_sent);
                    let kind = EventKind::ReplicaSync;
                    self.trace_marker(kind, r.machine, rs_epoch as u32, kind.label());
                }
                Err(_) => {
                    lost = true;
                    let mut shard = self.shared.shard(object);
                    if let Some(pm) = shard.get_mut(&object).and_then(ObjRecord::primary_mut) {
                        pm.replicas.retain(|x| *x != r);
                    }
                }
            }
        }
        if lost {
            // The unreachable replica may still be answering reads under
            // its last lease. Wait out the lease window before acking, so
            // the write is never acknowledged while a replica that missed
            // it could pass the coherence gate. The dispatcher keeps
            // serving while it waits; a worker lane just sleeps (its
            // siblings keep the machine live).
            let window = Duration::from_millis(lease_millis);
            if let LaneRole::Worker(_) = self.role {
                self.clock.sleep(window);
            } else {
                self.serve_for(window);
            }
        }
    }

    pub(super) fn send_response(
        &mut self,
        reply_to: MachineId,
        req_id: u64,
        result: RemoteResult<Body>,
    ) {
        // The return value's own buffer becomes the frame.
        let (frame, weight) = encode_response(req_id, result);
        // Cache the response — the frame itself, shared with the packet —
        // so a retransmitted copy of this request is answered without
        // re-executing (at-most-once).
        self.shared
            .dedup
            .lock()
            .complete((reply_to, req_id), PacketBytes::clone(&frame), weight);
        if self.tracer.is_some() {
            let t = self.shared.serving_spans.lock().remove(&(reply_to, req_id));
            self.trace_call(
                EventKind::ServerReply,
                reply_to,
                t.as_ref(),
                req_id,
                0,
                frame.len(),
            );
        }
        // A dead caller is not an error for the server.
        let _ = self.net.send(self.machine, reply_to, frame);
    }
}
