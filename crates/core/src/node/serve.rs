//! The server role: receiving packets, admitting requests into object
//! mailboxes, judging the execution-time gates, running objects (inline or
//! on the worker lanes), and answering.

use std::sync::atomic::Ordering;
use std::time::Duration;

use simnet::{ClockRecvError, MachineId, Packet, PacketBytes};
use wire::collections::Bytes;
use wire::{EncodesAs, Reader, Wire};

use super::judge::{judge, queue_gated, reads_clock, Verdict};
use super::{CallInfo, LaneRole, NodeCtx};
use crate::dedup::DedupVerdict;
use crate::error::{RemoteError, RemoteResult};
use crate::frame::{encode_response, Body, FrameView};
use crate::ids::{ObjectId, DAEMON};
use crate::policy::RETRY_AFTER_NANOS;
use crate::process::{DispatchResult, ServerObject};
use crate::shared::{
    raise_epoch, swap_record, Ask, CallTrace, IncomingReq, ObjRecord, Role, WorkerMsg,
};
use crate::trace::EventKind;

/// How many mailbox entries one task token executes before its lane puts
/// the token back at the front of the machine's run queue. An idle lane
/// may then take the rest of the mailbox; otherwise the yielding lane takes
/// it straight back. It bounds nothing on a one-lane pool: calls admitted
/// to other objects meanwhile wait for the whole mailbox.
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
    /// A daemon verb parked behind the call that had the object checked
    /// out: no gate judges it, and it holds no slot of the in-flight gauge.
    Verb(IncomingReq),
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
        self.current_call.clone()
    }

    /// Keep part of the request being dispatched alive where it arrived:
    /// the bytes `range` of it, offsets as the argument reader's
    /// [`position`](Reader::position) reports them. For an object that
    /// stores or relays a bulk argument without decoding (copying) it.
    /// `None` outside a dispatch, or for a range not inside the request.
    pub fn request_bytes(&self, range: std::ops::Range<usize>) -> Option<PacketBytes> {
        self.current_args.as_ref()?.slice(range)
    }

    /// `value` as the body of a reply this lane sends: in one of its spare
    /// frames when the reply is light (see [`FramePool`](crate::frame::FramePool)).
    pub(crate) fn reply_body<T: Wire, V: EncodesAs<T>>(&mut self, value: &V) -> Body {
        self.frames.reply::<T, V>(value)
    }

    /// Send a response for a call whose dispatch returned
    /// [`DispatchResult::NoReply`].
    pub fn send_reply(&mut self, call: CallInfo, result: RemoteResult<Body>) {
        self.send_response(call.reply_to, call.req_id, call.trace.as_ref(), result);
    }

    /// Serve incoming requests until `dur` elapses. Lets a driver thread
    /// that hosts objects make them reachable while it has nothing else to
    /// do. Machines never need this — their serve loop runs continuously.
    pub fn serve_for(&mut self, dur: Duration) {
        let deadline = simnet::time::after(self.clock.now_nanos(), dur);
        // Re-read the clock before every step: handling a packet can
        // advance time (draining a batch under virtual time, a costed
        // dispatch under real time) past the deadline, and under a steady
        // inbound stream the receive would otherwise keep returning
        // packets — and this loop keep serving them — long after the
        // window closed.
        while self.clock.now_nanos() < deadline && self.step(Some(deadline)).is_ok() {}
    }

    /// Drain whatever is already in the inbox without blocking. The
    /// supervisor's step loop interleaves this with its own bookkeeping:
    /// heartbeat replies land in their calls' slots for
    /// [`try_take_reply`](NodeCtx::try_take_reply) while any requests
    /// aimed at this node still get served.
    pub fn poll(&mut self) {
        while let LaneRole::Dispatcher(inbox) = &self.role {
            let Ok(p) = inbox.try_recv() else { break };
            self.handle_packet(p);
        }
    }

    /// The progress engine, one turn of it: receive one thing on this
    /// lane, then handle it — every wait of a lane, at the top of its
    /// thread or inside a call, is a loop of these. `deadline` bounds the
    /// receive (clock nanos); `None` waits for ever, and only a lane with
    /// nothing on its stack does that. `Err` when the deadline passed, or
    /// the lane's channel closed, with nothing received.
    ///
    /// A dispatcher (the driver included) receives a packet from the
    /// machine's inbox. A worker takes a control message — a routed
    /// response, a nudge, the stop order — and when its channel is dry it
    /// runs one scheduler task instead, **re-entrantly** if it is inside a
    /// call (the M:N analogue of the classic engine serving other objects
    /// while blocked). The scan before the park is what makes nudges
    /// race-free: a task whose nudge a busier step took still sits in the
    /// run queue the scan reads, and a task admitted *after* the scan sends
    /// a fresh message the park sees at once — so no token strands in the
    /// run queue behind a blocked lane.
    pub(super) fn step(&mut self, deadline: Option<u64>) -> Result<(), ClockRecvError> {
        let msg = match &self.role {
            LaneRole::Dispatcher(inbox) => {
                let pkt = self
                    .clock
                    .recv_until(inbox, self.machine as u64, deadline)?;
                WorkerMsg::Packet(pkt)
            }
            LaneRole::Worker(lane) => match lane.rx.try_recv() {
                Ok(msg) => msg,
                Err(_) => {
                    if let Some(obj) = self.find_task() {
                        self.run_object(obj);
                        return Ok(());
                    }
                    // A lane about to wait for ever is idle: it says so,
                    // then scans again — a task injected before the flag
                    // saw no idle worker and nudged everyone, one injected
                    // after it nudges this lane, so the second scan closes
                    // the lost-wakeup window. A lane waiting inside a call
                    // stays "busy": a nudge then reaches every worker.
                    let pool = &self.shared.pool;
                    let idle = deadline.is_none();
                    if idle {
                        pool.set_idle(lane.index, true);
                        if let Some(obj) = self.find_task() {
                            pool.set_idle(lane.index, false);
                            self.run_object(obj);
                            return Ok(());
                        }
                    }
                    let msg = self.clock.recv_until(&lane.rx, lane.label, deadline);
                    if idle {
                        pool.set_idle(lane.index, false);
                    }
                    msg?
                }
            },
        };
        match msg {
            WorkerMsg::Packet(pkt) => self.handle_packet(pkt),
            // "The queues may have work": run one task now, re-entrantly
            // inside a call (the wait that follows still sees whatever
            // else is in the channel first).
            WorkerMsg::Nudge => {
                if let Some(obj) = self.find_task() {
                    self.run_object(obj);
                }
            }
            WorkerMsg::Shutdown => self.alive = false,
        }
        Ok(())
    }

    /// A dispatcher's thread: step until the daemon's `shutdown` verb
    /// clears `alive`, then stop the machine's workers. They drain their
    /// channel before parking, so the stop order is seen even by a worker
    /// blocked inside a wait.
    pub(crate) fn serve_loop(&mut self) {
        while self.alive && self.step(None).is_ok() {}
        let pool = &self.shared.pool;
        for i in 0..pool.workers() {
            pool.wake(i, WorkerMsg::Shutdown, &self.clock);
        }
    }

    /// A worker lane's thread: step until the dispatcher's stop order.
    pub(crate) fn worker_loop(&mut self) {
        while self.alive && self.step(None).is_ok() {}
    }

    /// Pop the next runnable object off the front of the machine's run
    /// queue: a yielded token before the admissions behind it.
    fn find_task(&self) -> Option<ObjectId> {
        self.shared.pool.run_queue.pop()
    }

    /// Hand an object with fresh mailbox work to the execution layer: the
    /// back of the pool's run queue, or — on a machine with no workers — an
    /// immediate inline run (the classic single-threaded profile, where this
    /// call happens at the same point the old engine dispatched the request).
    fn submit_task(&mut self, target: ObjectId) {
        let pool = &self.shared.pool;
        if pool.workers() == 0 {
            self.run_object(target);
            return;
        }
        pool.run_queue.push(target);
        pool.nudge(&self.clock);
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
                if self.lane_no != 0 {
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
                // The flight recorder's events all want the method name:
                // parse it from the payload head only when tracing is on.
                let trace = self.tracer.is_some().then(|| CallTrace {
                    trace_id: header.trace.trace_id.0,
                    span: header.trace.span.0,
                    parent_span: 0,
                    method: self.names.of_payload(&pkt.payload[payload.clone()]),
                });
                let req = IncomingReq {
                    req_id,
                    reply_to,
                    target: header.target,
                    payload: pkt
                        .payload
                        .narrow(payload)
                        .expect("a parsed range lies inside its packet"),
                    trace,
                    ask,
                    waited: false,
                };
                // At-most-once execution: a retransmitted request either
                // replays its cached response or is dropped. Only genuinely
                // new requests reach dispatch; the window learns whether
                // anyone may ask for their reply again.
                let key = (reply_to, req_id);
                let verdict = self.shared.dedup.lock().admit(key, header.resend);
                let admitted = match verdict {
                    DedupVerdict::Done(_) => EventKind::ServerAdmitDone,
                    DedupVerdict::InFlight => EventKind::ServerAdmitInFlight,
                    DedupVerdict::New => EventKind::ServerAdmitNew,
                };
                self.trace_request(admitted, &req, 0);
                match verdict {
                    DedupVerdict::Done(frame) => {
                        let _ = self.net.send(self.machine, reply_to, frame);
                        return;
                    }
                    // The original is still being served (or waiting) and
                    // will answer — or it answered so long ago that the
                    // window gave the reply's bytes back (DESIGN.md §6):
                    // the request is not executed again, and this copy
                    // goes unanswered.
                    DedupVerdict::InFlight => return,
                    DedupVerdict::New => {}
                }
                self.admit(req);
            }
            FrameView::Response { req_id, result } => {
                // Responses for calls issued by another lane of this
                // machine (workers allocate req_ids on their own residue
                // class mod `stride`) are routed there raw; the lane
                // parses and files them itself.
                let lane = req_id % self.stride;
                if lane != self.lane_no {
                    // Lane-0 responses reaching a worker have nobody
                    // waiting: drop.
                    if let Some(w) = (lane as usize).checked_sub(1) {
                        let pool = &self.shared.pool;
                        pool.wake(w, WorkerMsg::Packet(pkt), &self.clock);
                    }
                    return;
                }
                // A reply is filed in its call's own slot. One for a call
                // nobody is waiting on any more (timed out, abandoned) is
                // dropped, not hoarded.
                if let Some(call) = self.outstanding.get_mut(&req_id) {
                    call.file(pkt.payload, result);
                }
            }
        }
    }

    /// Admit a new request — or re-admit one whose object's record was
    /// swapped while it waited there: a daemon verb runs (or parks on its
    /// object), a call joins its object's mailbox or gets its answer.
    pub(super) fn admit(&mut self, req: IncomingReq) {
        if req.target == DAEMON {
            self.serve_daemon(req)
        } else {
            self.serve_object(req)
        }
    }

    /// Count and trace `req`'s wait for its object, once per request.
    pub(super) fn park(&self, req: &mut IncomingReq) {
        if !std::mem::replace(&mut req.waited, true) {
            self.trace_request(EventKind::ServerDefer, req, 0);
        }
    }

    /// Admission: queue the request in its target's mailbox and mint a
    /// task token if the object does not already have one. A live
    /// object's gates — fences, leases, replica coherence — are judged at
    /// **execution** time in `next_step`, under the same shard lock, so a
    /// gate change landing between admission and execution still wins; an
    /// id with no live object is judged right here, and a migrating one
    /// keeps the request until its move ends.
    fn serve_object(&mut self, mut req: IncomingReq) {
        let (target, ask) = (req.target, req.ask);
        // Admission-time deadline check: work whose caller has already
        // given up is dropped *before* it costs a mailbox slot. Checked
        // again at execution time by `judge` — time queued counts.
        if ask.deadline != 0 && ask.admitted_at >= ask.deadline {
            let elapsed_nanos = ask.admitted_at - ask.deadline;
            self.reject(&req, RemoteError::DeadlineExceeded { elapsed_nanos });
            return;
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
                    Verdict::Defer | Verdict::Serve { .. } => {
                        let Some(ObjRecord::Migrating { waiting, .. }) = record else {
                            unreachable!("judge defers only migrating records");
                        };
                        self.park(&mut req);
                        waiting.push_back(req);
                        return;
                    }
                };
                drop(shard);
                self.reject(&req, err);
                return;
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
            let depth = queue_depth.min(u32::MAX as u64) as u32;
            self.trace_request(EventKind::ServerShed, &req, depth);
            self.send_response(
                req.reply_to,
                req.req_id,
                req.trace.as_ref(),
                Err(RemoteError::Overloaded {
                    queue_depth,
                    retry_after_nanos: RETRY_AFTER_NANOS,
                }),
            );
            return;
        }
        // Queued behind a token that already exists, the request waits its
        // mailbox turn: a deferral.
        let waits = std::mem::replace(&mut live.scheduled, true);
        if waits {
            self.park(&mut req);
        }
        live.mailbox.push_back(req);
        drop(shard);
        if !waits {
            self.submit_task(target);
        }
    }

    /// Answer `req` with the rejection a gate decided; the error says which
    /// gate, and so what to count and trace.
    fn reject(&mut self, req: &IncomingReq, err: RemoteError) {
        let micros = |nanos: u64| (nanos / 1_000).min(u32::MAX as u64) as u32;
        match &err {
            RemoteError::Fenced { .. } => self.shared.stats.calls_fenced.bump(),
            RemoteError::Moved { .. } => self.shared.stats.calls_forwarded.bump(),
            RemoteError::StaleReplica { rs_epoch, .. } => {
                self.trace_request(EventKind::ReplicaStale, req, *rs_epoch as u32);
            }
            // The propagated deadline passed (at admission, or while the
            // request sat queued): dropped without executing.
            RemoteError::DeadlineExceeded { elapsed_nanos } => {
                self.trace_request(EventKind::ServerDeadlineDrop, req, micros(*elapsed_nanos));
            }
            // CoDel-style shed: the request's queue sojourn exceeded the
            // configured target.
            RemoteError::Overloaded { .. } => {
                let sojourn = self.clock.now_nanos().saturating_sub(req.ask.admitted_at);
                self.trace_request(EventKind::ServerSojournDrop, req, micros(sojourn));
            }
            _ => {}
        }
        self.send_response(req.reply_to, req.req_id, req.trace.as_ref(), Err(err));
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
        if req.target == DAEMON {
            return Step::Verb(req);
        }
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
                let mut old = swap_record(&mut shard, target, fence);
                // Quarantined requests leave their mailbox for good.
                let mut reqs = vec![req];
                reqs.extend(self.shared.drain(&mut old));
                Step::Quarantine { reqs, err }
            }
            (Verdict::Serve { .. } | Verdict::Defer, _) => {
                unreachable!("judge serves live records only and defers only migrating ones")
            }
        }
    }

    /// Execute `target`'s mailbox: the body of one scheduler task. Runs
    /// up to `MAILBOX_BATCH` requests, then puts the token back at the
    /// front of the run queue — or keeps going inline when there is no
    /// pool. Run-to-completion per request; the object is owned by exactly
    /// one lane for the duration.
    pub(crate) fn run_object(&mut self, target: ObjectId) {
        let mut batch = 0usize;
        loop {
            if batch >= MAILBOX_BATCH && matches!(self.role, LaneRole::Worker(_)) {
                // Yield the rest of the mailbox ahead of later admissions.
                // `scheduled` stays true — the token still exists.
                self.shared.pool.run_queue.push_front(target);
                self.shared.pool.nudge(&self.clock);
                return;
            }
            match self.next_step(target) {
                Step::Done => break,
                Step::Reject { req, err } => self.reject(&req, err),
                Step::Verb(req) => self.serve_daemon(req),
                Step::Quarantine { reqs, err } => {
                    for req in reqs {
                        self.reject(&req, err.clone());
                    }
                    break; // the object is gone; the token dies with it
                }
                Step::Dispatch {
                    mut req,
                    mut obj,
                    replica_hit,
                } => {
                    let (reply_to, req_id) = (req.reply_to, req.req_id);
                    if let Some(rs_now) = replica_hit {
                        self.trace_request(EventKind::ReplicaHit, &req, rs_now as u32);
                    }
                    // Calls the method issues while running inherit this
                    // request's trace identity (nested spans).
                    let saved = self.current_call.replace(CallInfo {
                        req_id,
                        reply_to,
                        trace: req.trace.take(),
                    });
                    let saved_args = self.current_args.replace(req.payload.clone());
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
                            let trace = self.current_call.as_ref().and_then(|c| c.trace.as_ref());
                            self.trace_call(
                                EventKind::ServerDispatch,
                                reply_to,
                                trace,
                                req_id,
                                0,
                                0,
                            );
                            let out = obj.dispatch_named(self, method, &mut reader);
                            wrote = out.is_ok() && !obj.read_verbs().contains(&method);
                            out
                        }
                        Err(e) => Err(e.into()),
                    };
                    let call = std::mem::replace(&mut self.current_call, saved);
                    self.current_args = saved_args;
                    self.current_deadline = saved_deadline;
                    // Done with the request before the reply leaves: unless
                    // the object kept part of it, the caller is then the
                    // buffer's last holder and can reuse it.
                    drop(req);

                    // The call is over: one critical section counts it (the
                    // placement subsystem's load signal) and checks the object
                    // back in. The record is still live — lifecycle verbs
                    // park behind the call (never retire an object) while
                    // its slot is checked out. Only a replicated primary
                    // that just served a write stays out a little longer:
                    // propagation happens while this lane still owns the
                    // object.
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

                    let trace = call.and_then(|c| c.trace);
                    match outcome {
                        Ok(DispatchResult::Reply(body)) => {
                            self.send_response(reply_to, req_id, trace.as_ref(), Ok(body))
                        }
                        Ok(DispatchResult::NoReply) => {}
                        Err(e) => self.send_response(reply_to, req_id, trace.as_ref(), Err(e)),
                    }
                    self.shared.stats.calls_served.bump();
                }
            }
            batch += 1;
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
            Ok(s) => Bytes(s),
            Err(_) => return,
        };
        let mut lost = false;
        for r in replicas {
            match self.replica_sync_to(r, state.clone(), rs_epoch, lease_millis) {
                Ok(()) => {
                    self.shared.stats.replica_syncs_sent.bump();
                    self.trace_marker(EventKind::ReplicaSync, r.machine, rs_epoch as u32);
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
            if self.lane_no != 0 {
                self.clock.sleep(window);
            } else {
                self.serve_for(window);
            }
        }
    }

    /// Answer request `req_id` of `reply_to`, whose trace identity is
    /// `trace`.
    pub(super) fn send_response(
        &mut self,
        reply_to: MachineId,
        req_id: u64,
        trace: Option<&CallTrace>,
        result: RemoteResult<Body>,
    ) {
        // The return value's own buffer becomes the frame.
        let (frame, weight) = encode_response(req_id, result);
        // Cache the response — the frame itself, shared with the packet —
        // so a retransmitted copy of this request is answered without
        // re-executing (at-most-once). A heavy reply to a caller that will
        // not retransmit is not kept: the packet is its last holder. The
        // frames the window lets go of come back to this lane, to build
        // its next replies in.
        let frames = &mut self.frames;
        let key = (reply_to, req_id);
        self.shared
            .dedup
            .lock()
            .complete(key, PacketBytes::clone(&frame), weight, |f| {
                frames.evicted(f)
            });
        let len = frame.len() as u32;
        self.trace_call(EventKind::ServerReply, reply_to, trace, req_id, 0, len);
        // A dead caller is not an error for the server.
        let _ = self.net.send(self.machine, reply_to, frame);
    }
}
