//! The client role: issuing requests, waiting for replies with the
//! reliability policy (retransmission, backoff, deadlines, breakers, retry
//! budgets), and re-issuing redirected calls. What the lane believes about
//! its targets lives in `beliefs`; this module decides what a reply means
//! for the call it answers ([`verdict`]) and acts on it.

use std::ops::Range;

use simnet::network::NetError;
use simnet::time::after;
use simnet::{MachineId, PacketBytes};
use wire::{Wire, Writer};

use super::beliefs::{Breaker, Gate, Transition};
use super::NodeCtx;
use crate::error::{RemoteError, RemoteResult};
use crate::frame::{Body, RequestHeader};
use crate::future::Pending;
use crate::ids::{ObjRef, DAEMON};
use crate::policy::{BreakerConfig, CallPolicy};
use crate::process::RemoteClient;
use crate::shared::{bump, CallTrace};
use crate::trace::{EventKind, TraceCtx};

/// An issued request kept around for retransmission: the encoded frame is
/// resent verbatim (same `req_id`) when a reply window lapses, so the
/// server's dedup window can recognize the copy.
pub(super) struct OutboundCall {
    target: ObjRef,
    /// The frame as sent: the buffer the packet carries, shared, not a
    /// copy of it. A retransmission sends it again.
    frame: PacketBytes,
    /// The header `frame` was encoded from and where the payload sits in
    /// it: a redirect patches the header and re-encodes around the same
    /// payload (see `reissue`) — the node never decodes its own frames.
    /// `header.deadline` is the absolute cluster-clock deadline stamped on
    /// the frame (0 = none): `wait_raw` stops waiting — and stops
    /// retransmitting — the moment it passes, surfacing
    /// [`RemoteError::DeadlineExceeded`].
    header: RequestHeader,
    payload: Range<usize>,
    /// Present only while tracing is on.
    trace: Option<CallTrace>,
    /// Forward chases performed for this call (at most one: a second
    /// redirect surfaces to the caller as [`RemoteError::Moved`]).
    hops: u8,
    /// `Some(primary)` while this call is a read routed at a replica: the
    /// address to fall back to on [`RemoteError::StaleReplica`] or when
    /// the replica stops answering. `None` once redirected (or for every
    /// non-replica-routed call).
    read_primary: Option<ObjRef>,
}

/// How an outstanding call is re-issued after a redirecting verdict (see
/// `NodeCtx::reissue`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub(super) enum Reroute {
    /// A `Moved` forwarding stub: the same request (same `req_id`, so the
    /// new home's dedup window still recognizes retransmits), at the
    /// object's new home.
    Moved { to: ObjRef },
    /// A `Fenced` rejection teaching a newer incarnation epoch: the same
    /// call at that epoch — the pointer was stale, not the call. Safe for
    /// at-most-once: a fence is a rejection, the call never executed.
    Refence { taught: u64 },
    /// A replica that is stale (`answered`: it said so) or stopped
    /// answering: the same read at the primary, which is always coherent.
    /// Safe to re-execute — read verbs are side-effect-free by the
    /// `reads(...)` contract.
    ToPrimary { primary: ObjRef, answered: bool },
}

/// What happened to an outstanding call that [`verdict`] must rule on.
#[derive(Clone, Copy)]
pub(super) enum Event<'a> {
    /// A reply arrived carrying this error.
    Reply(&'a RemoteError),
    /// A reply window lapsed with the retransmission budget spent.
    Exhausted,
}

#[derive(Debug, PartialEq)]
pub(super) enum Verdict {
    /// The event is the call's outcome and goes to the caller. A redirect
    /// the call may not follow is still learned from: `Some(how)` names it.
    Surface(Option<Reroute>),
    /// A replayed verdict from the address the call already left (a
    /// retransmit raced the redirect): the real reply is still coming.
    Ignore,
    /// Not an answer: re-issue the call along this route and keep waiting.
    Reissue(Reroute),
}

/// Rule on `event` for the outstanding `call`, in a cluster of `machines`
/// endpoints. A pure function — the only place a reply is classified;
/// `reissue` and `learn` are the only places the rulings take effect.
pub(super) fn verdict(call: &OutboundCall, event: Event<'_>, machines: usize) -> Verdict {
    // Daemon addresses are never forwarded, fenced or routed: whatever a
    // daemon verb is told is its answer.
    if call.target.object == DAEMON {
        return Verdict::Surface(None);
    }
    match event {
        Event::Reply(&RemoteError::Moved { to }) => {
            let how = Reroute::Moved { to };
            if to == call.target {
                Verdict::Ignore
            } else if call.hops == 0 && to.machine < machines {
                // At most one forward chase per call; a *second* redirect
                // surfaces: the signal to re-resolve through the naming
                // directory.
                Verdict::Reissue(how)
            } else {
                Verdict::Surface(Some(how))
            }
        }
        Event::Reply(&RemoteError::Fenced { current_epoch }) => {
            let how = Reroute::Refence {
                taught: current_epoch,
            };
            // Each refence strictly raises the frame's epoch, so the
            // upgrade loop terminates. A fence at the frame's own epoch
            // names the *current* incarnation (a lapsed lease, a poisoned
            // home): the caller has to re-resolve.
            if call.header.epoch < current_epoch {
                Verdict::Reissue(how)
            } else {
                Verdict::Surface(Some(how))
            }
        }
        Event::Reply(&RemoteError::StaleReplica { primary, .. }) => match call.read_primary {
            Some(_) if primary.machine < machines => Verdict::Reissue(Reroute::ToPrimary {
                primary,
                answered: true,
            }),
            None if call.target == primary => Verdict::Ignore,
            // A directly addressed call (`start_method_direct`) named this
            // replica itself: the verdict is its answer.
            _ => Verdict::Surface(None),
        },
        // A replica-routed read that exhausted its budget presumes the
        // replica dead and falls back to the primary with a fresh budget.
        Event::Exhausted => match call.read_primary {
            Some(primary) if primary.machine < machines => Verdict::Reissue(Reroute::ToPrimary {
                primary,
                answered: false,
            }),
            _ => Verdict::Surface(None),
        },
        Event::Reply(_) => Verdict::Surface(None),
    }
}

impl NodeCtx {
    // ------------------------------------------------------------------
    // Overload protection: circuit breakers and retry budgets
    // ------------------------------------------------------------------

    /// The breaker guarding `dest`, its configuration and the clock's
    /// reading — or `None` when this lane's calls bypass it: no breaker
    /// policy, loopback, or a `breaker_exempt` policy (a supervision probe
    /// must be able to observe a machine the breaker has written off).
    fn breaker(&mut self, dest: MachineId) -> Option<(&mut Breaker, BreakerConfig, u64)> {
        let cfg = self.policy.breaker?;
        if self.policy.breaker_exempt || dest == self.machine {
            return None;
        }
        let now = self.clock.now_nanos();
        Some((&mut self.beliefs.peer(dest).breaker, cfg, now))
    }

    /// Tell `dest`'s breaker how a call to it ended (see
    /// [`Breaker::note`]) and record the transition, if any.
    fn breaker_note(&mut self, dest: MachineId, failed: Option<bool>) {
        let Some((breaker, cfg, now)) = self.breaker(dest) else {
            return;
        };
        match breaker.note(failed, now, &cfg) {
            Some(Transition::Opened(failures)) => {
                self.record_overload_marker(EventKind::BreakerOpen, dest, failures)
            }
            Some(Transition::Closed) => {
                self.record_overload_marker(EventKind::BreakerClose, dest, 0)
            }
            None => {}
        }
    }

    /// True when `err` should trip the destination's breaker: the class of
    /// failures that signal an overloaded or unreachable machine.
    fn is_overload_failure(err: &RemoteError) -> bool {
        matches!(
            err,
            RemoteError::Timeout { .. }
                | RemoteError::Overloaded { .. }
                | RemoteError::DeadlineExceeded { .. }
                | RemoteError::Disconnected { .. }
        )
    }

    /// Spend one retry token (1000 millitokens) for a retransmission to
    /// `dest`. Returns `false` — and counts a suppressed retry — when the
    /// bucket is dry, in which case the caller must not retransmit.
    fn spend_retry_token(&mut self, dest: MachineId) -> bool {
        if self.policy.retry_budget.is_none() {
            return true;
        }
        let tokens = &mut self.beliefs.peer(dest).retry_millitokens;
        if *tokens >= 1000 {
            *tokens -= 1000;
            true
        } else {
            bump!(self.shared.stats, retries_suppressed);
            false
        }
    }

    // ------------------------------------------------------------------
    // Issuing calls (client role)
    // ------------------------------------------------------------------

    /// Start a method call: encode `method` + arguments, send the request,
    /// return the correlation id without waiting.
    pub fn start_method_raw(
        &mut self,
        target: ObjRef,
        method: &str,
        encode_args: impl FnOnce(&mut Writer),
    ) -> RemoteResult<u64> {
        self.start_call(target, method, encode_args, true)
    }

    /// Typed async call: returns a [`Pending`] decodable as `Ret`.
    pub fn start_method<Ret: Wire>(
        &mut self,
        target: ObjRef,
        method: &str,
        encode_args: impl FnOnce(&mut Writer),
    ) -> RemoteResult<Pending<Ret>> {
        Ok(Pending::new(self.start_method_raw(
            target,
            method,
            encode_args,
        )?))
    }

    /// Typed synchronous call — the paper's default sequential semantics:
    /// the instruction, and all communication associated with it, completes
    /// before this function returns.
    pub fn call_method<Ret: Wire>(
        &mut self,
        target: ObjRef,
        method: &str,
        encode_args: impl FnOnce(&mut Writer),
    ) -> RemoteResult<Ret> {
        let req_id = self.start_method_raw(target, method, encode_args)?;
        let bytes = self.wait_raw(req_id)?;
        Ok(wire::from_bytes(&bytes)?)
    }

    /// [`start_method`](NodeCtx::start_method) minus replica routing: the
    /// call goes to `target` itself even when a replica route is
    /// registered for it. This is how a caller addresses *a specific
    /// copy* — e.g. [`ProcessGroup::of_replica_set`](crate::ProcessGroup)
    /// broadcasting to the primary and every replica individually.
    pub fn start_method_direct<Ret: Wire>(
        &mut self,
        target: ObjRef,
        method: &str,
        encode_args: impl FnOnce(&mut Writer),
    ) -> RemoteResult<Pending<Ret>> {
        Ok(Pending::new(self.start_call(
            target,
            method,
            encode_args,
            false,
        )?))
    }

    /// Issue one request. The frame is built once, in one buffer — method
    /// name and arguments encoded where the frame will hold them, header
    /// fields placed around them — and that buffer is what the fabric
    /// carries and what the retransmission slot keeps.
    fn start_call(
        &mut self,
        target: ObjRef,
        method: &str,
        encode_args: impl FnOnce(&mut Writer),
        route: bool,
    ) -> RemoteResult<u64> {
        // Start at the object's last known address — a pointer this node
        // has already learned is stale is rewritten before the send, so
        // only the *first* call through it pays the forward chase — or,
        // for a read verb of a routed primary, at one of its replicas.
        let at = self.beliefs.address(target, method, route, self.machine);
        let target = at.target;
        if target.machine >= self.machines() {
            return Err(RemoteError::BadMachine {
                machine: target.machine,
                machines: self.machines(),
            });
        }
        // Deadline stamp: the tighter of this policy's own budget and the
        // budget inherited from the request currently being served, so a
        // caller's deadline propagates across every downstream hop. The
        // clock is read only when one of the two applies.
        let deadline = match (self.policy.deadline, self.current_deadline) {
            (own, None) if own.is_zero() => 0,
            (own, inherited) => {
                let now = self.clock.now_nanos();
                let own = if own.is_zero() {
                    u64::MAX
                } else {
                    after(now, own)
                };
                let deadline = own.min(inherited.unwrap_or(u64::MAX));
                if now >= deadline {
                    // The budget is already spent: fail before touching the
                    // network.
                    return Err(RemoteError::DeadlineExceeded {
                        elapsed_nanos: now - deadline,
                    });
                }
                deadline
            }
        };
        if let Some((breaker, cfg, now)) = self.breaker(target.machine) {
            match breaker.admit(now, &cfg) {
                Gate::Fail(retry_after_nanos) => {
                    bump!(self.shared.stats, breaker_fast_fails);
                    self.record_overload_marker(EventKind::ClientFastFail, target.machine, 0);
                    return Err(RemoteError::Overloaded {
                        queue_depth: 0,
                        retry_after_nanos,
                    });
                }
                Gate::Trial => {
                    self.record_overload_marker(EventKind::BreakerHalfOpen, target.machine, 0);
                }
                Gate::Pass => {}
            }
        }
        // Each admitted first attempt earns the destination's retry bucket
        // a deposit; retransmissions later spend from it (see `wait_raw`).
        if let Some(rb) = self.policy.retry_budget {
            let tokens = &mut self.beliefs.peer(target.machine).retry_millitokens;
            *tokens = (*tokens + rb.deposit_millitokens as u64).min(rb.max_millitokens as u64);
        }
        let req_id = self.alloc_req_id();
        let call_trace = if self.tracer.is_some() {
            let span = self.alloc_span();
            // A call issued mid-dispatch belongs to the serving request's
            // trace; a root call (driver code) opens a trace named after
            // its own span.
            let (trace_id, parent_span) = match self.current_trace {
                Some((tid, serving)) => (tid, serving),
                None => (span, 0),
            };
            Some(CallTrace {
                trace_id,
                span,
                parent_span,
                method: method.into(),
            })
        } else {
            None
        };
        let trace = call_trace
            .as_ref()
            .map(|t| TraceCtx {
                trace_id: t.trace_id.into(),
                span: t.span.into(),
            })
            .unwrap_or_default();
        let header = RequestHeader {
            req_id,
            reply_to: self.machine,
            target: target.object,
            trace,
            epoch: at.epoch,
            rs_epoch: at.rs_epoch.into(),
            deadline,
        };
        let mut body = Body::reusing(std::mem::take(&mut self.spare_frame));
        body.writer().put_len_prefixed(method.as_bytes());
        encode_args(body.writer());
        let (frame, payload) = header.seal(body);
        let call = OutboundCall {
            target,
            frame,
            header,
            payload,
            trace: call_trace,
            hops: 0,
            read_primary: at.read_primary,
        };
        if self.transmit(&call, EventKind::ClientSend, 1).is_err() {
            self.breaker_note(target.machine, Some(true));
            return Err(RemoteError::Disconnected {
                machine: target.machine,
            });
        }
        // Kept for retransmission until the reply is consumed (or retries
        // are exhausted). On a lossy fabric the send above may silently
        // vanish; the stored frame is what wait_raw resends.
        self.outstanding.insert(req_id, call);
        Ok(req_id)
    }

    /// Put `call`'s frame on the wire — the one it keeps, by reference
    /// count — towards wherever the call is currently addressed, recording
    /// `kind` for it.
    fn transmit(&self, call: &OutboundCall, kind: EventKind, attempt: u32) -> Result<(), NetError> {
        let (dst, frame) = (call.target.machine, PacketBytes::clone(&call.frame));
        let req_id = call.header.req_id;
        self.trace_call(kind, dst, call.trace.as_ref(), req_id, attempt, frame.len());
        self.net.send(self.machine, dst, frame)
    }

    /// Drop a learned forwarding fact so the next call to `old` pays the
    /// redirect again. Benchmarks and tests use this to measure the
    /// stale-pointer path; production code never needs it.
    pub fn forget_move(&mut self, old: ObjRef) {
        self.beliefs.forget_move(old);
    }

    /// Drop a learned epoch belief so the next call to `target` can be
    /// stamped stale again. Benchmarks and tests use this to measure the
    /// fence-bounce path (epochs are otherwise forward-only, see
    /// [`note_epoch`](NodeCtx::note_epoch)); production code never needs
    /// it.
    pub fn forget_epoch(&mut self, target: ObjRef) {
        self.beliefs.forget_epoch(target);
    }

    /// Drop every client-side fact that points **at** `machine`: learned
    /// forwards whose replacement lives there, cached symbolic resolutions
    /// to it, replica routes of primaries on it and its replicas in the
    /// surviving routes. Called when a machine is declared dead, so a
    /// chase never hops *through* a corpse — the next call re-resolves and
    /// finds the reactivated incarnation instead of timing out on the old
    /// one.
    pub fn forget_machine(&mut self, machine: MachineId) {
        self.beliefs.forget_machine(machine);
    }

    /// Record the incarnation epoch this node believes `target` is at.
    /// Epochs only move forward; outgoing frames to `target` are stamped
    /// with the recorded value (0 = never supervised, no fencing).
    pub fn note_epoch(&mut self, target: ObjRef, epoch: u64) {
        self.beliefs.note_epoch(target, epoch);
    }

    /// The epoch this node last learned for `target` (0 = none).
    pub fn believed_epoch(&self, target: ObjRef) -> u64 {
        self.beliefs.epoch_of(target)
    }

    /// The reliability policy applied by [`wait_raw`](NodeCtx::wait_raw).
    pub fn call_policy(&self) -> CallPolicy {
        self.policy
    }

    /// Replace the reliability policy. Takes effect for the next wait; a
    /// driver can tighten or relax it mid-program.
    pub fn set_call_policy(&mut self, policy: CallPolicy) {
        self.policy = policy;
    }

    /// Block until the reply for `req_id` arrives, serving incoming
    /// requests in the meantime (the re-entrant progress engine).
    ///
    /// Each attempt gets the policy's reply window. When one lapses and
    /// retries remain, the engine waits out the backoff delay — still
    /// serving — and retransmits the identical frame (same `req_id`; the
    /// server's dedup window guarantees at-most-once execution). When the
    /// budget is exhausted the call fails with an enriched
    /// [`RemoteError::Timeout`] naming the target and attempt count.
    ///
    /// A reply that redirects the call (a forwarding stub, a fence teaching
    /// a newer epoch, a stale replica) is followed transparently, and so is
    /// an exhausted budget on a replica; `verdict` rules which is which.
    pub fn wait_raw(&mut self, mut req_id: u64) -> RemoteResult<PacketBytes> {
        let timeout = self.policy.timeout;
        // A zero reply window can never be satisfied: surface a typed
        // error instead of busy-looping through instant timeouts.
        if timeout.is_zero() {
            self.retire_call(req_id, None);
            return Err(RemoteError::DeadlineExceeded { elapsed_nanos: 0 });
        }
        // Absolute budget stamped at issue time; redirects and refences
        // preserve it, so one read up front is enough.
        let deadline_at = self
            .outstanding
            .get(&req_id)
            .map_or(0, |call| call.header.deadline);
        let mut attempts: u32 = 1;
        // The clock is read once the wait has to block: a reply already
        // filed is taken on the loop's first pass without it. `started` is
        // when it first blocked; `window` closes the current attempt's
        // reply window, opened at the first block after each (re)send.
        let mut started = None;
        let mut window = None;
        loop {
            if let Some(result) = self.replies.remove(&req_id) {
                // Only an error can be anything but the call's answer.
                let ruling = match &result {
                    Err(err) => self.rule(req_id, Event::Reply(err)),
                    Ok(_) => Verdict::Surface(None),
                };
                match ruling {
                    Verdict::Ignore => continue,
                    Verdict::Reissue(how) => {
                        req_id = self.reissue(req_id, how, &mut attempts);
                        window = None;
                        continue;
                    }
                    Verdict::Surface(lesson) => {
                        // The common answer — nothing to trace, nothing to
                        // learn — goes straight to `retire_call`.
                        if self.tracer.is_some() || lesson.is_some() {
                            self.note_answer(req_id, attempts, &result, lesson);
                        }
                        let failed = result.as_ref().err().is_some_and(Self::is_overload_failure);
                        self.retire_call(req_id, Some(failed));
                        return result;
                    }
                }
            }
            // Deadline enforcement on the waiting side: once the stamped
            // budget passes, stop waiting *and* stop retransmitting — the
            // server will drop the work too, so no answer is coming that
            // anyone still wants.
            if deadline_at != 0 {
                let now = self.clock.now_nanos();
                if now >= deadline_at {
                    self.retire_call(req_id, Some(true));
                    return Err(RemoteError::DeadlineExceeded {
                        elapsed_nanos: now - deadline_at,
                    });
                }
            }
            let window_end = *window.get_or_insert_with(|| {
                let now = self.clock.now_nanos();
                started.get_or_insert(now);
                after(now, timeout)
            });
            let pump_to = if deadline_at == 0 {
                window_end
            } else {
                window_end.min(deadline_at)
            };
            match self.pump_until(pump_to) {
                Ok(()) => {}
                Err(()) => {
                    // Re-enter the loop on deadline expiry (handled above)
                    // rather than treating it as an attempt timeout.
                    if deadline_at != 0 && self.clock.now_nanos() >= deadline_at {
                        continue;
                    }
                    // Retry-budget gate: a retransmission spends a token;
                    // a dry bucket converts the remaining retries into an
                    // immediate timeout so retries cannot amplify an
                    // overload (DESIGN.md §15).
                    let exhausted = attempts > self.policy.max_retries;
                    let suppressed = !exhausted && {
                        let dest = self.outstanding.get(&req_id).map(|c| c.target.machine);
                        dest.is_some_and(|d| !self.spend_retry_token(d))
                    };
                    if exhausted || suppressed {
                        if let Verdict::Reissue(how) = self.rule(req_id, Event::Exhausted) {
                            req_id = self.reissue(req_id, how, &mut attempts);
                            window = None;
                            continue;
                        }
                        let target = self.retire_call(req_id, Some(true)).unwrap_or(ObjRef {
                            machine: self.machine,
                            object: DAEMON,
                        });
                        return Err(RemoteError::Timeout {
                            machine: target.machine,
                            object: target.object,
                            attempts,
                            millis: started.map_or(0, |at| self.clock.now_nanos() - at) / 1_000_000,
                        });
                    }
                    let pause = self.policy.backoff.delay(attempts);
                    if !pause.is_zero() {
                        let mut pause_deadline = after(self.clock.now_nanos(), pause);
                        if deadline_at != 0 {
                            pause_deadline = pause_deadline.min(deadline_at);
                        }
                        while !self.replies.contains_key(&req_id) {
                            if self.pump_until(pause_deadline).is_err() {
                                break;
                            }
                        }
                        if self.replies.contains_key(&req_id) {
                            continue; // answered during the backoff
                        }
                    }
                    if let Some(call) = self.outstanding.get(&req_id) {
                        let _ = self.transmit(call, EventKind::ClientRetransmit, attempts + 1);
                        bump!(self.shared.stats, calls_retried);
                    }
                    attempts += 1;
                    window = None;
                }
            }
        }
    }

    /// [`verdict`] on `event` for the outstanding call `req_id` (an event
    /// for a call nobody is waiting on surfaces).
    fn rule(&self, req_id: u64, event: Event<'_>) -> Verdict {
        let call = self.outstanding.get(&req_id);
        call.map_or(Verdict::Surface(None), |c| {
            verdict(c, event, self.machines())
        })
    }

    /// Before the outstanding call `req_id` retires with `result` as its
    /// answer: record the receipt, and learn what a redirect it may not
    /// follow still teaches.
    fn note_answer(
        &mut self,
        req_id: u64,
        attempts: u32,
        result: &RemoteResult<PacketBytes>,
        lesson: Option<Reroute>,
    ) {
        let Some(call) = self.outstanding.get(&req_id) else {
            return;
        };
        let (from, routed) = (call.target, call.read_primary.is_some());
        let (kind, len) = (
            EventKind::ClientRecv,
            result.as_ref().map_or(0, |b| b.len()),
        );
        self.trace_call(
            kind,
            from.machine,
            call.trace.as_ref(),
            req_id,
            attempts,
            len,
        );
        if let Some(how) = lesson {
            self.learn(from, routed, how, false);
        }
    }

    /// What a redirect teaches this lane about `from`, the address that
    /// issued it, whether the call goes on to follow it (`followed`) or
    /// surfaces. `routed`: the call was a read routed at the replica
    /// `from`.
    fn learn(&mut self, from: ObjRef, routed: bool, how: Reroute, followed: bool) {
        match how {
            Reroute::Moved { to } => {
                self.beliefs.learn_move(from, to);
                // A routed read that bounced off a dropped replica's
                // forwarding stub (the chase lands at the primary).
                if routed {
                    self.beliefs.distrust(from);
                }
            }
            Reroute::Refence { taught } => {
                self.beliefs.note_epoch(from, taught);
                // A fence that surfaces names a dead incarnation: names
                // resolving to it must re-resolve. One that is followed
                // only corrects the pointer's epoch — the address stands.
                if !followed {
                    self.beliefs.distrust(from);
                }
            }
            Reroute::ToPrimary { .. } => self.beliefs.distrust(from),
        }
    }

    /// Re-issue the outstanding call `req_id` along `how`: learn what the
    /// redirect teaches, patch the stored request's header, re-encode,
    /// record the event and send — every side effect of a redirect, once.
    /// Everything the caller chose — payload, trace identity, deadline
    /// budget — is untouched, so a re-issue is the same logical call.
    /// Returns the id the call now waits under; `attempts` restarts at 1
    /// unless the call merely chased its object to a new home.
    fn reissue(&mut self, req_id: u64, how: Reroute, attempts: &mut u32) -> u64 {
        let Some(mut call) = self.outstanding.remove(&req_id) else {
            return req_id;
        };
        self.learn(call.target, call.read_primary.is_some(), how, true);
        // A fence rejection is cached in the server's dedup window under
        // the old id, so a refence needs a **fresh** one; a move or a
        // fallback reaches a different server and keeps its id (the new
        // home's dedup window treats retransmits normally).
        let (dest, new_id, kind, attempt) = match how {
            Reroute::Moved { to } => {
                call.hops += 1;
                (to, req_id, EventKind::ClientForward, *attempts)
            }
            Reroute::Refence { taught } => {
                call.header.epoch = taught;
                let fresh = self.alloc_req_id();
                (call.target, fresh, EventKind::ClientForward, 1)
            }
            Reroute::ToPrimary { primary, .. } => {
                (primary, req_id, EventKind::ReplicaFallback, *attempts)
            }
        };
        if dest.machine != call.target.machine {
            // The call leaves that machine for good, so its breaker hears
            // how the call ended *there*, as it would from `retire_call`: a
            // redirect is an answer — the machine is alive and serving — a
            // replica gone silent is a failure. Without this a half-open
            // trial that is re-addressed would strand its breaker.
            let failed = matches!(
                how,
                Reroute::ToPrimary {
                    answered: false,
                    ..
                }
            );
            self.breaker_note(call.target.machine, Some(failed));
        }
        if !matches!(how, Reroute::Refence { .. }) {
            // A redirect may cross a takeover: carry the freshest epoch
            // this node knows for the new address so the frame is not
            // fenced for being stale. It always ends at a real object (a
            // migrated home or a replica's primary), never at a replica,
            // so the replica-set epoch is cleared — and so is the
            // fallback, so a late replayed verdict from the replica is
            // ignored.
            call.header.epoch = call.header.epoch.max(self.beliefs.epoch_of(dest));
            call.header.rs_epoch = 0.into();
            call.read_primary = None;
        }
        if !matches!(how, Reroute::Moved { .. }) {
            *attempts = 1;
        }
        call.target = dest;
        call.header.req_id = new_id;
        call.header.target = dest.object;
        // The patched header may differ in length, and the old frame may
        // still be held by whoever received it: the payload moves to a
        // fresh buffer, once.
        let body = Body::copying(&call.frame[call.payload.clone()]);
        (call.frame, call.payload) = call.header.seal(body);
        let _ = self.transmit(&call, kind, attempt);
        self.outstanding.insert(new_id, call);
        new_id
    }

    /// The encoded request frame of the in-flight call `req_id`, exactly
    /// as a (re)transmission puts it on the wire. Lets tests pin the wire
    /// format of what this node sends.
    pub fn outstanding_frame(&self, req_id: u64) -> Option<&[u8]> {
        Some(&self.outstanding.get(&req_id)?.frame)
    }

    // ------------------------------------------------------------------
    // Replica routes (client role; see crates/replica and DESIGN.md §11)
    // ------------------------------------------------------------------

    /// Install (or replace) the replica route for `primary`: subsequent
    /// calls through the primary's address whose method is in `reads` are
    /// served by the replica set instead. Typed callers prefer
    /// [`register_replica_route`](NodeCtx::register_replica_route).
    pub fn register_replica_route_raw(
        &mut self,
        primary: ObjRef,
        replicas: Vec<ObjRef>,
        rs_epoch: u64,
        reads: &'static [&'static str],
    ) {
        self.beliefs
            .install_route(primary, replicas, rs_epoch, reads);
    }

    /// Typed [`register_replica_route_raw`](NodeCtx::register_replica_route_raw):
    /// the read-verb set comes from the client type's `reads(...)`
    /// declaration.
    pub fn register_replica_route<C: RemoteClient>(
        &mut self,
        client: &C,
        replicas: Vec<ObjRef>,
        rs_epoch: u64,
    ) {
        self.register_replica_route_raw(client.obj_ref(), replicas, rs_epoch, C::READ_VERBS);
    }

    /// The replicas and replica-set epoch this node routes reads of
    /// `primary` to, if a route is installed.
    pub fn replica_route_of(&self, primary: ObjRef) -> Option<(Vec<ObjRef>, u64)> {
        self.beliefs.route_of(primary)
    }

    /// Remove the replica route for `primary`; reads go back to the
    /// primary itself.
    pub fn drop_replica_route(&mut self, primary: ObjRef) {
        self.beliefs.drop_route(primary);
    }

    // ------------------------------------------------------------------
    // Resolution cache (used by crate::naming's supervised resolution)
    // ------------------------------------------------------------------

    /// Cached result of a previous symbolic-address resolution, if any.
    /// Callers must treat a hit as a hint and verify liveness — see
    /// [`resolve_or_activate_supervised`](crate::naming::resolve_or_activate_supervised).
    /// Hits and misses feed the `dir_cache_hits` / `dir_cache_misses`
    /// counters in [`NodeStats`](crate::NodeStats) — the measure of how
    /// much resolution traffic the cache keeps off the control plane.
    pub fn cached_resolve(&self, addr: &str) -> Option<ObjRef> {
        let hit = self.beliefs.name(addr);
        if hit.is_some() {
            bump!(self.shared.stats, dir_cache_hits);
        } else {
            bump!(self.shared.stats, dir_cache_misses);
        }
        hit
    }

    /// Remember a verified resolution for `addr`.
    pub fn cache_resolve(&mut self, addr: &str, r: ObjRef) {
        self.beliefs.learn_name(addr, r);
    }

    /// Drop a cached resolution that turned out stale (its machine
    /// crashed, or the pointer double-forwarded).
    pub fn invalidate_resolve(&mut self, addr: &str) {
        self.beliefs.forget_name(addr);
    }

    /// Take the reply for `req_id` if it has arrived — the non-blocking
    /// sibling of [`wait_raw`](NodeCtx::wait_raw), for calls issued with
    /// [`start_method_raw`](NodeCtx::start_method_raw) whose latency the
    /// caller measures itself (heartbeats). No retransmission, no `Moved`
    /// chase: absent replies are simply not there yet.
    pub fn try_take_reply(&mut self, req_id: u64) -> Option<RemoteResult<PacketBytes>> {
        let result = self.replies.remove(&req_id)?;
        let failed = result.as_ref().err().is_some_and(Self::is_overload_failure);
        self.retire_call(req_id, Some(failed));
        Some(result)
    }

    /// Abandon an in-flight call: its reply, if it ever arrives, is
    /// dropped on the floor instead of accumulating. Heartbeats to a dead
    /// machine are abandoned once the detector has made up its mind.
    pub fn abandon_call(&mut self, req_id: u64) {
        self.retire_call(req_id, None);
        self.replies.remove(&req_id);
    }

    /// The one way an issued call leaves `outstanding` for good: drop its
    /// retransmission slot and tell the destination's breaker how it ended
    /// (see [`breaker_note`](Self::breaker_note)) — so no exit, however
    /// unusual, can strand a half-open trial (`reissue` does the same for
    /// a machine the call leaves on the way). Returns where the call was
    /// last addressed. The frame's buffer, when this slot was its last
    /// holder (the receiver is done with it and kept no part), becomes the
    /// node's spare for the next call: a node that sends requests of a
    /// size keeps reusing one allocation of that size.
    fn retire_call(&mut self, req_id: u64, failed: Option<bool>) -> Option<ObjRef> {
        let call = self.outstanding.remove(&req_id)?;
        self.breaker_note(call.target.machine, failed);
        if let Some(buf) = call.frame.into_unshared() {
            self.spare_frame = buf;
        }
        Some(call.target)
    }
}

#[cfg(test)]
mod tests {
    use super::Event::{Exhausted, Reply};
    use super::Verdict::{Ignore, Reissue, Surface};
    use super::*;

    const MACHINES: usize = 4;
    /// The epoch every call's frame carries.
    const EPOCH: u64 = 5;
    const PRIMARY: ObjRef = ObjRef {
        machine: 2,
        object: 4,
    };
    const ELSEWHERE: ObjRef = ObjRef {
        machine: 3,
        object: 7,
    };
    /// An address no machine of the cluster has.
    const NOWHERE: ObjRef = ObjRef {
        machine: MACHINES,
        object: 7,
    };

    fn call(target: ObjRef, hops: u8, read_primary: Option<ObjRef>) -> OutboundCall {
        OutboundCall {
            target,
            frame: Vec::new().into(),
            header: RequestHeader {
                req_id: 1,
                reply_to: 0,
                target: target.object,
                trace: TraceCtx::default(),
                epoch: EPOCH,
                rs_epoch: 0.into(),
                deadline: 0,
            },
            payload: 0..0,
            trace: None,
            hops,
            read_primary,
        }
    }

    /// Every event × forward chases so far × replica-routed or not ×
    /// daemon or object target gets exactly one verdict, and the rules
    /// DESIGN.md states hold by name.
    #[test]
    fn every_event_gets_one_verdict() {
        let moved = |to| RemoteError::Moved { to };
        let fenced = |current_epoch| RemoteError::Fenced { current_epoch };
        let stale = |primary| RemoteError::StaleReplica {
            primary,
            rs_epoch: 1,
        };
        let others = [
            RemoteError::app("no"),
            RemoteError::Disconnected { machine: 1 },
            RemoteError::DeadlineExceeded { elapsed_nanos: 1 },
        ];
        let mut ruled = 0;
        for bits in 0..8u8 {
            let object = if bits & 1 == 0 { 9 } else { DAEMON };
            let (hops, routed) = ((bits >> 1) & 1, bits & 4 != 0);
            let target = ObjRef { machine: 1, object };
            let call = call(target, hops, routed.then_some(PRIMARY));
            let mut rule = |event: Event<'_>| {
                ruled += 1;
                verdict(&call, event, MACHINES)
            };
            if object == DAEMON {
                // Daemon addresses are never forwarded, fenced or routed.
                let redirects = [moved(ELSEWHERE), fenced(EPOCH + 1), stale(PRIMARY)];
                for err in redirects.iter().chain(&others) {
                    assert_eq!(rule(Reply(err)), Surface(None), "daemon: {err}");
                }
                assert_eq!(rule(Exhausted), Surface(None));
                continue;
            }

            let chase = Reroute::Moved { to: ELSEWHERE };
            let one_chase = if hops == 0 {
                Reissue(chase)
            } else {
                Surface(Some(chase))
            };
            assert_eq!(
                rule(Reply(&moved(ELSEWHERE))),
                one_chase,
                "at most one forward chase per call"
            );
            assert_eq!(
                rule(Reply(&moved(target))),
                Ignore,
                "a replayed verdict from the address already left is ignored"
            );
            assert_eq!(
                rule(Reply(&moved(NOWHERE))),
                Surface(Some(Reroute::Moved { to: NOWHERE })),
                "a forward off the cluster is learned (the next call through \
                 it is `BadMachine`), never followed"
            );

            for taught in [0, EPOCH - 1, EPOCH, EPOCH + 1] {
                let how = Reroute::Refence { taught };
                let raises = if taught > EPOCH {
                    Reissue(how)
                } else {
                    Surface(Some(how))
                };
                assert_eq!(
                    rule(Reply(&fenced(taught))),
                    raises,
                    "a refence strictly raises the frame's epoch"
                );
            }

            let fallback = |answered| {
                Reissue(Reroute::ToPrimary {
                    primary: PRIMARY,
                    answered,
                })
            };
            if routed {
                assert_eq!(rule(Reply(&stale(PRIMARY))), fallback(true));
                assert_eq!(rule(Reply(&stale(NOWHERE))), Surface(None));
                assert_eq!(rule(Exhausted), fallback(false), "a silent replica");
            } else {
                assert_eq!(
                    rule(Reply(&stale(target))),
                    Ignore,
                    "a replayed verdict from the address already left is ignored"
                );
                assert_eq!(
                    rule(Reply(&stale(PRIMARY))),
                    Surface(None),
                    "a directly addressed replica's `StaleReplica` surfaces"
                );
                assert_eq!(rule(Exhausted), Surface(None));
            }
            for err in &others {
                assert_eq!(rule(Reply(err)), Surface(None), "{err}");
            }
        }
        assert_eq!(ruled, 4 * 7 + 4 * 13);

        // A route installed for a primary off the cluster has no fallback.
        let lost = call(ELSEWHERE, 0, Some(NOWHERE));
        assert_eq!(verdict(&lost, Exhausted, MACHINES), Surface(None));
    }
}
