//! The server role: receiving packets, admitting requests into object
//! mailboxes, judging the execution-time gates, running objects (inline or
//! on the worker lanes), and answering.

use std::sync::atomic::Ordering;
use std::time::Duration;

use simnet::{MachineId, Packet};
use wire::collections::Bytes;
use wire::{Reader, Wire};

use super::{payload_method, CallInfo, NodeCtx};
use crate::dedup::DedupVerdict;
use crate::error::{RemoteError, RemoteResult};
use crate::frame::Frame;
use crate::ids::{ObjRef, ObjectId, DAEMON};
use crate::process::{DispatchResult, ServerObject};
use crate::shared::{bump, shard_of, CallTrace, IncomingReq, Sched, WorkerMsg};
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
    /// Mailbox empty (token retired) or entry gone (a lifecycle verb
    /// removed the object and answered its queue).
    Done,
    /// An execution-time gate rejected the request without touching the
    /// object.
    Reject {
        req: IncomingReq,
        err: RemoteError,
        kind: RejectKind,
    },
    /// Stale-server: this incarnation just learned it was superseded. The
    /// whole entry is gone; answer the triggering request and everything
    /// queued behind it with the fence.
    Quarantine { reqs: Vec<IncomingReq>, epoch: u64 },
    /// Gates passed: the object is checked out, dispatch the request.
    Dispatch {
        req: IncomingReq,
        obj: Box<dyn ServerObject>,
        /// `Some(rs_epoch)` when this is a replica-served read (for the
        /// coherence-hit stat and trace event).
        replica_hit: Option<u64>,
    },
}

enum RejectKind {
    Fenced,
    Forwarded,
    StaleReplica {
        rs_epoch: u64,
    },
    /// The request's propagated deadline passed while it sat queued; it
    /// is dropped without executing (`overshoot` = nanos past deadline).
    DeadlineExpired {
        overshoot: u64,
    },
    /// CoDel-style shed: the request's queue sojourn exceeded the
    /// configured target, so the node is persistently behind and sheds
    /// admitted work rather than serve it ever later.
    Shed {
        sojourn: u64,
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

    /// Send a response for a call whose dispatch returned
    /// [`DispatchResult::NoReply`].
    pub fn send_reply(&mut self, call: CallInfo, result: RemoteResult<Vec<u8>>) {
        self.send_response(call.reply_to, call.req_id, result);
    }

    /// Serve incoming requests until `dur` elapses. Lets a driver thread
    /// that hosts objects make them reachable while it has nothing else to
    /// do. Machines never need this — their serve loop runs continuously.
    pub fn serve_for(&mut self, dur: Duration) {
        let deadline = self.clock.now_nanos() + dur.as_nanos() as u64;
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
        loop {
            let pkt = match &self.inbox {
                Some(rx) => rx.try_recv().ok(),
                None => None,
            };
            match pkt {
                Some(p) => self.handle_packet(p),
                None => break,
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
        if self.inbox.is_some() {
            let recvd = {
                let rx = self.inbox.as_ref().expect("checked above");
                self.clock.recv_deadline_nanos(rx, self.machine, deadline)
            };
            match recvd {
                Ok(pkt) => {
                    self.handle_packet(pkt);
                    self.drain_deferred();
                    Ok(())
                }
                Err(_) => Err(()),
            }
        } else {
            // Routed responses and control first; when the channel is dry,
            // serve the machine's queues before parking. The scan is what
            // makes nudges race-free: a task admitted while this lane was
            // draining control messages may have had its Nudge consumed as
            // a no-op above (worker_loop runs one task per wakeup), and a
            // task admitted *after* this scan sends a fresh channel message
            // the park below sees immediately — so no token ever strands
            // in the injector behind a blocked lane.
            let early = {
                let lane = self.lane.as_ref().expect("lane-less NodeCtx");
                lane.rx.try_recv().ok()
            };
            let recvd = match early {
                Some(msg) => Ok(msg),
                None => {
                    if let Some(obj) = self.find_task() {
                        self.run_object(obj);
                        return Ok(());
                    }
                    let lane = self.lane.as_ref().expect("lane-less NodeCtx");
                    self.clock
                        .recv_any_deadline_nanos(&lane.rx, lane.label, deadline)
                }
            };
            match recvd {
                Ok(WorkerMsg::Packet(pkt)) => {
                    self.handle_packet(pkt);
                    Ok(())
                }
                Ok(WorkerMsg::Nudge) => {
                    if let Some(obj) = self.find_task() {
                        self.run_object(obj);
                    }
                    Ok(())
                }
                Ok(WorkerMsg::Shutdown) => {
                    self.alive = false;
                    Ok(())
                }
                Err(_) => Err(()),
            }
        }
    }

    pub(crate) fn serve_loop(&mut self) {
        while self.alive {
            let recvd = {
                let rx = self
                    .inbox
                    .as_ref()
                    .expect("serve_loop runs on the dispatcher lane");
                self.clock.recv(rx, self.machine)
            };
            match recvd {
                Ok(pkt) => {
                    self.handle_packet(pkt);
                    self.drain_deferred();
                }
                Err(_) => break,
            }
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
            // Control first: routed responses and shutdown must not sit
            // behind queue scans.
            loop {
                let msg = match &self.lane {
                    Some(l) => l.rx.try_recv().ok(),
                    None => return,
                };
                match msg {
                    Some(WorkerMsg::Packet(pkt)) => self.handle_packet(pkt),
                    Some(WorkerMsg::Nudge) => {}
                    Some(WorkerMsg::Shutdown) => return,
                    None => break,
                }
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
            let (index, label) = {
                let l = self.lane.as_ref().expect("worker lane");
                (l.index, l.label)
            };
            if let Sched::Pool(pool) = &self.shared.sched {
                pool.set_idle(index, true);
            }
            if let Some(obj) = self.find_task() {
                if let Sched::Pool(pool) = &self.shared.sched {
                    pool.set_idle(index, false);
                }
                self.run_object(obj);
                continue;
            }
            let msg = {
                let l = self.lane.as_ref().expect("worker lane");
                self.clock.recv_any(&l.rx, label)
            };
            if let Sched::Pool(pool) = &self.shared.sched {
                pool.set_idle(index, false);
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
    fn find_task(&mut self) -> Option<ObjectId> {
        let index = self.lane.as_ref()?.index;
        if let Some(obj) = self.lane.as_ref().expect("just checked").deque.pop() {
            return Some(obj);
        }
        let Sched::Pool(pool) = &self.shared.sched else {
            return None;
        };
        if let Some(obj) = pool.injector.pop() {
            return Some(obj);
        }
        let round = self.steal_round;
        self.steal_round = round.wrapping_add(1);
        for victim in pool.steal_order.victims(index, round, pool.stealers.len()) {
            if victim == index {
                continue;
            }
            loop {
                match pool.stealers[victim].steal() {
                    sched::Steal::Success(obj) => return Some(obj),
                    sched::Steal::Empty => break,
                    sched::Steal::Retry => continue,
                }
            }
        }
        None
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
        let frame = match wire::from_bytes::<Frame>(&pkt.payload) {
            Ok(f) => f,
            Err(_) => return, // malformed; nothing to reply to
        };
        match frame {
            Frame::Request {
                req_id,
                reply_to,
                target,
                payload,
                trace,
                epoch,
                rs_epoch,
                deadline,
            } => {
                // Requests arriving at a worker lane would mean the fabric
                // delivered to a non-endpoint; drop defensively.
                if self.inbox.is_none() && self.lane.is_some() {
                    debug_assert!(false, "request frame delivered to a worker lane");
                    return;
                }
                let req = IncomingReq {
                    req_id,
                    reply_to,
                    target,
                    // The flight recorder's events all want the method
                    // name; parse it from the payload head only when
                    // tracing is on.
                    method: self.tracer.as_ref().map(|_| payload_method(&payload.0)),
                    payload: payload.0,
                    trace_id: trace.trace_id.0,
                    span: trace.span.0,
                    epoch,
                    rs_epoch: rs_epoch.0,
                    deadline,
                    admitted_at: self.clock.now_nanos(),
                };
                // At-most-once execution: a retransmitted request either
                // replays its cached response or is dropped while the
                // original is still in flight. Only genuinely new requests
                // reach dispatch.
                match self.shared.dedup.lock().admit((reply_to, req_id)) {
                    DedupVerdict::Done(result) => {
                        bump!(self.shared.stats, dup_replayed);
                        self.trace_req(EventKind::ServerAdmitDone, &req, 0);
                        let frame = Frame::Response {
                            req_id,
                            result: result.map(Bytes),
                        };
                        let _ = self
                            .net
                            .send(self.machine, reply_to, wire::to_bytes(&frame));
                        return;
                    }
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
                                    trace_id: trace.trace_id.0,
                                    span: trace.span.0,
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
            Frame::Response { req_id, result } => {
                // Responses for calls issued by another lane of this
                // machine (workers allocate req_ids on their own residue
                // class mod `stride`) are routed there raw; the lane
                // decodes and files them itself.
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
                    self.replies.insert(req_id, result.map(|b| b.0));
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
    /// one. All gate checking — fences, leases, replica coherence — now
    /// happens at **execution** time in `next_step`, under the mailbox's
    /// shard lock, so a gate change landing between admission and
    /// execution still wins.
    fn serve_object(&mut self, req: IncomingReq) -> ServeOutcome {
        let target = req.target;
        // Admission-time deadline check: work whose caller has already
        // given up is dropped *before* it costs a mailbox slot. Checked
        // again at execution time in `next_step` — time queued counts.
        if req.deadline != 0 && req.admitted_at >= req.deadline {
            let overshoot = req.admitted_at - req.deadline;
            bump!(self.shared.stats, calls_deadline_expired);
            self.record_overload_marker(
                EventKind::ServerDeadlineDrop,
                req.reply_to,
                (overshoot / 1_000).min(u32::MAX as u64) as u32,
            );
            self.send_response(
                req.reply_to,
                req.req_id,
                Err(RemoteError::DeadlineExceeded {
                    elapsed_nanos: overshoot,
                }),
            );
            return ServeOutcome::Served;
        }
        // Kept aside for the `ServerDefer` event: the request itself moves
        // into the mailbox below.
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
        // Admission control (DESIGN.md §15): a full per-object mailbox or
        // a spent machine-wide in-flight budget rejects the request right
        // here — a cheap typed `Overloaded` reply instead of a queue slot
        // the node cannot afford. Rejected requests are never queued.
        let mut slot = Some(req);
        let admitted = {
            let mut guard = self.shared.shards[shard_of(target)].lock();
            match guard.get_mut(&target) {
                Some(entry) => {
                    if entry.mailbox.len() >= self.shared.overload.mailbox_cap {
                        Err(entry.mailbox.len() as u64)
                    } else {
                        match self
                            .shared
                            .queued
                            .try_acquire(self.shared.overload.inflight_cap as u64)
                        {
                            Err(depth) => Err(depth),
                            Ok(_) => {
                                entry
                                    .mailbox
                                    .push_back(slot.take().expect("request unqueued"));
                                if entry.scheduled {
                                    Ok(false)
                                } else {
                                    entry.scheduled = true;
                                    Ok(true)
                                }
                            }
                        }
                    }
                }
                None => {
                    drop(guard);
                    return self.reject_absent(slot.take().expect("request unqueued"));
                }
            }
        };
        let submit = match admitted {
            Ok(submit) => submit,
            Err(queue_depth) => {
                let req = slot.take().expect("rejected request was queued");
                bump!(self.shared.stats, calls_shed_overload);
                self.record_overload_marker(
                    EventKind::ServerShed,
                    req.reply_to,
                    queue_depth.min(u32::MAX as u64) as u32,
                );
                // An overload rejection is itself a load signal: count it
                // against the target so the placement heat map sees the
                // pressure even though the call never ran.
                *self
                    .shared
                    .gates
                    .lock()
                    .object_calls
                    .entry(target)
                    .or_insert(0) += 1;
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
        };
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

    /// Disposition of a request whose target has no live entry, mirroring
    /// the classic engine's gate order: epoch fences first (a stale caller
    /// is fenced even mid-migration; a caller carrying proof of a missed
    /// takeover bumps the quarantine epoch), then mid-migration quiesce,
    /// then forwarding stubs, then the bare fence, then `NoSuchObject`.
    pub(super) fn reject_absent(&mut self, req: IncomingReq) -> ServeOutcome {
        enum Verdict {
            Defer,
            Fenced(u64),
            Moved(ObjRef),
            NoSuch,
        }
        let verdict = {
            let mut gates = self.shared.gates.lock();
            if let Some(&current) = gates.epochs.get(&req.target) {
                if req.epoch != 0 && req.epoch < current {
                    Verdict::Fenced(current)
                } else if req.epoch > current {
                    // Proof of a takeover this node never saw: move the
                    // quarantine epoch forward.
                    gates.epochs.insert(req.target, req.epoch);
                    gates.object_calls.remove(&req.target);
                    Verdict::Fenced(req.epoch)
                } else if gates.migrating.contains_key(&req.target) {
                    Verdict::Defer
                } else if let Some(&to) = gates.forwards.get(&req.target) {
                    Verdict::Moved(to)
                } else {
                    Verdict::Fenced(current)
                }
            } else if gates.migrating.contains_key(&req.target) {
                Verdict::Defer
            } else if let Some(&to) = gates.forwards.get(&req.target) {
                Verdict::Moved(to)
            } else {
                Verdict::NoSuch
            }
        };
        match verdict {
            Verdict::Defer => ServeOutcome::Defer(req),
            Verdict::Fenced(current_epoch) => {
                bump!(self.shared.stats, calls_fenced);
                self.send_response(
                    req.reply_to,
                    req.req_id,
                    Err(RemoteError::Fenced { current_epoch }),
                );
                ServeOutcome::Served
            }
            Verdict::Moved(to) => {
                bump!(self.shared.stats, calls_forwarded);
                self.send_response(req.reply_to, req.req_id, Err(RemoteError::Moved { to }));
                ServeOutcome::Served
            }
            Verdict::NoSuch => {
                self.send_response(
                    req.reply_to,
                    req.req_id,
                    Err(RemoteError::NoSuchObject {
                        machine: self.machine,
                        object: req.target,
                    }),
                );
                ServeOutcome::Served
            }
        }
    }

    /// Claim the next unit of work for `target` under its shard lock and
    /// run the **execution-time** admission gates (DESIGN.md §13): epoch
    /// fences, the supervisor lease, and the replica coherence gate are
    /// all evaluated here — at the moment the call would run — never at
    /// enqueue, so a fence bump that lands while a request sits in the
    /// mailbox still rejects it.
    fn next_step(&mut self, target: ObjectId) -> Step {
        let now = self.clock.now_nanos();
        let mut guard = self.shared.shards[shard_of(target)].lock();
        let req = match guard.get_mut(&target) {
            None => return Step::Done, // a lifecycle verb removed the entry (and drained its queue)
            Some(entry) => match entry.mailbox.pop_front() {
                None => {
                    // Mailbox dry: retire the task token.
                    entry.scheduled = false;
                    return Step::Done;
                }
                Some(req) => req,
            },
        };
        // The request left its mailbox: give its slot back to the
        // machine-wide in-flight budget whatever happens next.
        self.shared.queued.release(1);
        // Execution-time overload gates (DESIGN.md §15), judged at the
        // moment the call would run so time spent queued counts: a
        // request whose propagated deadline passed is dropped unexecuted,
        // and when a sojourn target is configured, a request that waited
        // longer than the target is shed — the node is persistently
        // behind, and serving ever-later work helps nobody.
        if req.deadline != 0 && now >= req.deadline {
            return Step::Reject {
                err: RemoteError::DeadlineExceeded {
                    elapsed_nanos: now - req.deadline,
                },
                kind: RejectKind::DeadlineExpired {
                    overshoot: now - req.deadline,
                },
                req,
            };
        }
        let sojourn_target = self.shared.overload.sojourn_target.as_nanos() as u64;
        if sojourn_target != 0 {
            let sojourn = now.saturating_sub(req.admitted_at);
            if sojourn > sojourn_target {
                // Depth includes this request: a zero depth is reserved
                // for client-side breaker fast-fails.
                let queue_depth = guard.get(&target).map_or(0, |e| e.mailbox.len() as u64) + 1;
                return Step::Reject {
                    err: RemoteError::Overloaded {
                        queue_depth,
                        retry_after_nanos: self.shared.overload.retry_after.as_nanos() as u64,
                    },
                    kind: RejectKind::Shed { sojourn },
                    req,
                };
            }
        }
        // Lock order: shard, then gates. Gates are never taken first.
        let mut gates = self.shared.gates.lock();
        if let Some(&current) = gates.epochs.get(&target) {
            if req.epoch != 0 && req.epoch < current {
                // Stale caller: its pointer names a superseded
                // incarnation. Never execute; teach it the live epoch.
                return Step::Reject {
                    req,
                    err: RemoteError::Fenced {
                        current_epoch: current,
                    },
                    kind: RejectKind::Fenced,
                };
            }
            if req.epoch > current {
                // Stale *server*: the caller carries proof of a takeover
                // this node never saw (it was partitioned through the
                // recovery). Quarantine the superseded incarnation —
                // defense in depth on top of the lease — and make every
                // queued caller re-resolve.
                let epoch = req.epoch;
                gates.epochs.insert(target, epoch);
                gates.object_calls.remove(&target);
                drop(gates);
                let entry = guard.remove(&target).expect("entry present above");
                // Quarantined requests leave their mailbox for good.
                self.shared.queued.release(entry.mailbox.len() as u64);
                let mut reqs = vec![req];
                reqs.extend(entry.mailbox);
                return Step::Quarantine { reqs, epoch };
            }
            // Lease self-fence: a supervised object is only served while
            // the supervisor's lease is live. An isolated machine stops
            // serving these *itself*, which is what makes takeover safe
            // even when the suspicion was false (DESIGN.md §10).
            if matches!(gates.lease_deadline, Some(d) if now > d) {
                return Step::Reject {
                    req,
                    err: RemoteError::Fenced {
                        current_epoch: current,
                    },
                    kind: RejectKind::Fenced,
                };
            }
        }
        // Replica-side coherence gate (replica-hosted ids only). A write
        // verb redirects to the primary through the standard `Moved`
        // chase; a read is served only while the replica can prove
        // coherence — its lease is live and it has synced at least as far
        // as the caller's replica-set epoch — and otherwise answers
        // `StaleReplica` so the caller falls back to the primary.
        let mut replica_hit = None;
        if let Some(meta) = gates.replica_meta.get(&target) {
            let primary = meta.primary;
            let rs_now = meta.rs_epoch;
            let lease_live = now <= meta.lease_until;
            let method = payload_method(&req.payload);
            if !meta.read_verbs.iter().any(|v| *v == &*method) {
                return Step::Reject {
                    req,
                    err: RemoteError::Moved { to: primary },
                    kind: RejectKind::Forwarded,
                };
            }
            if !lease_live || req.rs_epoch > rs_now {
                return Step::Reject {
                    req,
                    err: RemoteError::StaleReplica {
                        primary,
                        rs_epoch: rs_now,
                    },
                    kind: RejectKind::StaleReplica { rs_epoch: rs_now },
                };
            }
            replica_hit = Some(rs_now);
        }
        drop(gates);
        // Check the object out for the duration of the call: the task
        // token is exclusive, so the slot must be occupied.
        let entry = guard.get_mut(&target).expect("entry present above");
        let obj = entry
            .slot
            .take()
            .expect("task token is exclusive: nobody else checks this object out");
        Step::Dispatch {
            req,
            obj,
            replica_hit,
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
                if let Some(lane) = &self.lane {
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
                Step::Reject { req, err, kind } => {
                    match kind {
                        RejectKind::Fenced => {
                            bump!(self.shared.stats, calls_fenced);
                        }
                        RejectKind::Forwarded => {
                            bump!(self.shared.stats, calls_forwarded);
                        }
                        RejectKind::StaleReplica { rs_epoch } => {
                            bump!(self.shared.stats, replica_reads_stale);
                            self.trace_req(EventKind::ReplicaStale, &req, rs_epoch as u32);
                        }
                        RejectKind::DeadlineExpired { overshoot } => {
                            bump!(self.shared.stats, calls_deadline_expired);
                            self.record_overload_marker(
                                EventKind::ServerDeadlineDrop,
                                req.reply_to,
                                (overshoot / 1_000).min(u32::MAX as u64) as u32,
                            );
                        }
                        RejectKind::Shed { sojourn } => {
                            bump!(self.shared.stats, calls_shed_sojourn);
                            self.record_overload_marker(
                                EventKind::ServerSojournDrop,
                                req.reply_to,
                                (sojourn / 1_000).min(u32::MAX as u64) as u32,
                            );
                        }
                    }
                    self.send_response(req.reply_to, req.req_id, Err(err));
                    batch += 1;
                }
                Step::Quarantine { reqs, epoch } => {
                    for req in reqs {
                        bump!(self.shared.stats, calls_fenced);
                        self.send_response(
                            req.reply_to,
                            req.req_id,
                            Err(RemoteError::Fenced {
                                current_epoch: epoch,
                            }),
                        );
                    }
                    break; // the entry is gone; the token dies with it
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
                        (req.deadline != 0).then_some(req.deadline),
                    );
                    let mut reader = Reader::new(&req.payload);
                    // Set when the call was a served write verb. Decided while
                    // the method name is at hand, so the name is released
                    // here and the reply below is built into the allocation
                    // it frees, rather than held until the reply is sent.
                    let mut wrote = false;
                    let outcome = match String::decode(&mut reader) {
                        Ok(method) => {
                            self.trace_req(EventKind::ServerDispatch, &req, 0);
                            let out = obj.dispatch_named(self, &method, &mut reader);
                            wrote = out.is_ok() && !obj.read_verbs().contains(&method.as_str());
                            out
                        }
                        Err(e) => Err(e.into()),
                    };
                    self.current_call = saved;
                    self.current_trace = saved_trace;
                    self.current_deadline = saved_deadline;

                    // Primary-side write propagation, while this lane still
                    // owns the object: a successful write verb served by a
                    // replicated primary bumps the replica-set epoch and,
                    // in write-through mode, re-syncs every live replica
                    // BEFORE the ack below — the writer (and everyone else)
                    // reads its write from any replica that still holds a
                    // live coherence lease. Snapshotting the *owned* box
                    // (not the checked-in slot) is what keeps the snapshot
                    // race-free under multiple workers.
                    if wrote && self.shared.gates.lock().primaries.contains_key(&target) {
                        self.propagate_write(target, obj.as_ref());
                    }

                    // Check the object back in. The entry still exists:
                    // lifecycle verbs report Busy (never remove) while the
                    // slot is checked out.
                    {
                        let mut guard = self.shared.shards[shard_of(target)].lock();
                        if let Some(entry) = guard.get_mut(&target) {
                            entry.slot = Some(obj);
                        }
                    }

                    match outcome {
                        Ok(DispatchResult::Reply(bytes)) => {
                            self.send_response(req.reply_to, req.req_id, Ok(bytes))
                        }
                        Ok(DispatchResult::NoReply) => {}
                        Err(e) => self.send_response(req.reply_to, req.req_id, Err(e)),
                    }
                    bump!(self.shared.stats, calls_served);
                    // Per-object load signal for the placement subsystem.
                    *self
                        .shared
                        .gates
                        .lock()
                        .object_calls
                        .entry(target)
                        .or_insert(0) += 1;
                    batch += 1;
                }
            }
        }
        // A lifecycle verb may be parked in the dispatcher's deferred
        // queue waiting for this object to go idle. The dispatcher blocks
        // on its network inbox, so wake it with an empty loopback packet
        // (decode fails harmlessly; the serve loop retries its deferred
        // queue after every receive).
        if self.lane.is_some() && self.shared.daemon_parked.load(Ordering::Relaxed) > 0 {
            let _ = self.net.send(self.machine, self.machine, Vec::new());
        }
    }

    /// Bump the replica-set epoch after a served write and propagate per
    /// the attached mode. Write-through pushes `replica_sync` to every
    /// live replica before returning (the write is acked only after); a
    /// replica that cannot be reached is dropped from the live set and its
    /// outstanding coherence lease is **waited out**, so once the ack
    /// goes, no replica holding a live lease can be missing the write.
    /// Bounded-staleness mode returns immediately — the replica manager
    /// re-syncs on its cadence and staleness stays bounded by the lease.
    ///
    /// `obj` is the primary itself, still checked out by this lane, so the
    /// snapshot is taken before any other call can touch it.
    fn propagate_write(&mut self, object: ObjectId, obj: &dyn ServerObject) {
        let (rs_epoch, write_through, lease_millis, replicas) = {
            let mut gates = self.shared.gates.lock();
            let Some(pm) = gates.primaries.get_mut(&object) else {
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
                    let mut gates = self.shared.gates.lock();
                    if let Some(pm) = gates.primaries.get_mut(&object) {
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
            if self.lane.is_some() {
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
        result: RemoteResult<Vec<u8>>,
    ) {
        // Cache the response so a retransmitted copy of this request is
        // answered without re-executing (at-most-once).
        self.shared
            .dedup
            .lock()
            .complete((reply_to, req_id), &result);
        let frame = Frame::Response {
            req_id,
            result: result.map(Bytes),
        };
        let bytes = wire::to_bytes(&frame);
        if self.tracer.is_some() {
            let t = self.shared.serving_spans.lock().remove(&(reply_to, req_id));
            self.trace_call(
                EventKind::ServerReply,
                reply_to,
                t.as_ref(),
                req_id,
                0,
                bytes.len(),
            );
        }
        // A dead caller is not an error for the server.
        let _ = self.net.send(self.machine, reply_to, bytes);
    }
}
