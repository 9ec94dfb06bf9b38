//! The client role: issuing requests, waiting for replies with the
//! reliability policy (retransmission, backoff, deadlines, breakers, retry
//! budgets), re-issuing redirected calls, and the client-side caches
//! (forwards, epoch beliefs, replica routes, name resolutions).

use std::ops::Range;

use simnet::network::NetError;
use simnet::{MachineId, PacketBytes};
use wire::{Wire, Writer};

use super::NodeCtx;
use crate::error::{RemoteError, RemoteResult};
use crate::frame::{Body, RequestHeader};
use crate::future::Pending;
use crate::ids::{ObjRef, DAEMON};
use crate::policy::CallPolicy;
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

/// Client-side circuit breaker for one destination machine (DESIGN.md
/// §15). All transitions are measured on the cluster clock, so a
/// virtual-time run replays them bit-for-bit.
pub(super) struct Breaker {
    /// Consecutive overload-class failures observed while closed.
    failures: u32,
    state: BreakerState,
}

#[derive(Clone, Copy, PartialEq)]
enum BreakerState {
    /// Calls flow; failures are counted.
    Closed,
    /// Fail fast until the cluster clock reads `until`.
    Open { until: u64 },
    /// Cooldown lapsed: the next call is the single trial. Success
    /// closes the breaker; an overload-class failure — or a trial that
    /// ends without any outcome — re-opens it.
    HalfOpen,
}

/// What the breaker decided for an outbound call (computed under the
/// borrow of the breaker table, acted on after it is released).
enum BreakerGate {
    /// Closed (or no breaker state yet): send normally.
    Pass,
    /// Half-open trial: send, and the outcome decides the breaker.
    PassTrial,
    /// Open: fail fast, suggesting the caller wait this many nanos.
    Fail(u64),
}

/// Client-side route for a replicated object: read verbs fan out over the
/// replica set, everything else goes to the primary key.
pub(super) struct ReplicaRoute {
    replicas: Vec<ObjRef>,
    rs_epoch: u64,
    reads: &'static [&'static str],
    /// Round-robin cursor over `replicas`.
    next: usize,
}

/// How an outstanding call is re-issued after a redirecting verdict (see
/// `NodeCtx::reissue`).
#[derive(Clone, Copy)]
enum Reroute {
    /// A `Moved` forwarding stub: the same request, at the object's new
    /// home.
    Moved { to: ObjRef },
    /// A `Fenced` rejection teaching a newer incarnation epoch: the same
    /// call at that epoch. Safe for at-most-once — a fence is a rejection,
    /// the call never executed.
    Refence { taught: u64 },
    /// A replica that is stale or stopped answering: the same read at the
    /// primary, which is always coherent. Safe to re-execute — read verbs
    /// are side-effect-free by the `reads(...)` contract.
    ToPrimary { primary: ObjRef },
}

/// Bound on the client-side forwarding cache; clearing it on overflow only
/// costs the next call through each stale pointer one extra chase.
const MOVED_CACHE_CAPACITY: usize = 4096;

/// Bound on the per-node symbolic-address resolution cache.
const RESOLVE_CACHE_CAPACITY: usize = 1024;

impl NodeCtx {
    // ------------------------------------------------------------------
    // Overload protection: circuit breakers and retry budgets
    // ------------------------------------------------------------------

    /// Consult (and advance) the breaker guarding `dest` before a send.
    /// Loopback and `breaker_exempt` policies (supervision probes) bypass
    /// the breaker entirely — a probe must be able to observe a machine
    /// the breaker has written off.
    fn breaker_admit(&mut self, dest: MachineId, now: u64) -> BreakerGate {
        let Some(bc) = self.policy.breaker else {
            return BreakerGate::Pass;
        };
        if self.policy.breaker_exempt || dest == self.machine {
            return BreakerGate::Pass;
        }
        match self.breakers.get_mut(&dest) {
            None => BreakerGate::Pass,
            Some(b) => match b.state {
                BreakerState::Closed => BreakerGate::Pass,
                BreakerState::Open { until } if now < until => BreakerGate::Fail(until - now),
                BreakerState::Open { .. } => {
                    // Cooldown lapsed: this call is the half-open trial.
                    b.state = BreakerState::HalfOpen;
                    BreakerGate::PassTrial
                }
                // A trial is already in flight on this lane; hold further
                // calls back for one more cooldown.
                BreakerState::HalfOpen => BreakerGate::Fail(bc.cooldown.as_nanos() as u64),
            },
        }
    }

    /// Feed a finished call's outcome into the destination's breaker. Any
    /// reply — even an application error — counts as success (the machine
    /// is alive and serving); only overload-class outcomes (timeout,
    /// overload, deadline, disconnect) count as failures. `None` is a call
    /// that ended without an outcome (abandoned, never waited for): no
    /// evidence about the machine, except that a half-open breaker must
    /// not go on waiting for a trial that will never report — it re-opens
    /// for another cooldown, as after a failed trial.
    fn breaker_note(&mut self, dest: MachineId, failed: Option<bool>) {
        let Some(bc) = self.policy.breaker else {
            return;
        };
        if self.policy.breaker_exempt || dest == self.machine {
            return;
        }
        let half_open =
            matches!(self.breakers.get(&dest), Some(b) if b.state == BreakerState::HalfOpen);
        let Some(failed) = failed.or(half_open.then_some(true)) else {
            return;
        };
        let now = self.clock.now_nanos();
        let cooldown = bc.cooldown.as_nanos() as u64;
        enum Transition {
            None,
            Opened(u32),
            Closed,
        }
        let transition = {
            let b = self.breakers.entry(dest).or_insert(Breaker {
                failures: 0,
                state: BreakerState::Closed,
            });
            if failed {
                b.failures = b.failures.saturating_add(1);
                match b.state {
                    BreakerState::Closed if b.failures >= bc.failure_threshold => {
                        b.state = BreakerState::Open {
                            until: now.saturating_add(cooldown),
                        };
                        Transition::Opened(b.failures)
                    }
                    // A failed half-open trial re-opens for another cooldown.
                    BreakerState::HalfOpen => {
                        b.state = BreakerState::Open {
                            until: now.saturating_add(cooldown),
                        };
                        Transition::Opened(b.failures)
                    }
                    _ => Transition::None,
                }
            } else {
                let was_closed = b.state == BreakerState::Closed;
                b.failures = 0;
                b.state = BreakerState::Closed;
                if was_closed {
                    Transition::None
                } else {
                    Transition::Closed
                }
            }
        };
        match transition {
            Transition::Opened(failures) => {
                self.record_overload_marker(EventKind::BreakerOpen, dest, failures)
            }
            Transition::Closed => self.record_overload_marker(EventKind::BreakerClose, dest, 0),
            Transition::None => {}
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
        let tokens = self.retry_tokens.entry(dest).or_insert(0);
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
        // Start at the object's last known address: a pointer this node
        // has already learned is stale is rewritten before the send, so
        // only the *first* call through it pays the forward chase.
        let mut target = self.forwarded_target(target);
        // Replica routing: a read verb aimed at a registered primary is
        // redirected to a replica — a local one when the set has one,
        // round-robin otherwise. The frame carries the route's replica-set
        // epoch so a lagging replica rejects itself; the primary stays
        // recorded for the stale/dead fallback.
        let mut read_primary = None;
        let mut rs_epoch = 0u64;
        if route && target.object != DAEMON {
            if let Some(route) = self.replica_routes.get_mut(&target) {
                if !route.replicas.is_empty() && route.reads.contains(&method) {
                    let machine = self.machine;
                    let pick = route
                        .replicas
                        .iter()
                        .position(|r| r.machine == machine)
                        .unwrap_or_else(|| {
                            let i = route.next % route.replicas.len();
                            route.next = route.next.wrapping_add(1);
                            i
                        });
                    read_primary = Some(target);
                    rs_epoch = route.rs_epoch;
                    target = route.replicas[pick];
                }
            }
        }
        if target.machine >= self.machines() {
            return Err(RemoteError::BadMachine {
                machine: target.machine,
                machines: self.machines(),
            });
        }
        // Deadline stamp: the tighter of this policy's own budget and the
        // budget inherited from the request currently being served, so a
        // caller's deadline propagates across every downstream hop.
        let now = self.clock.now_nanos();
        let own = if self.policy.deadline.is_zero() {
            0
        } else {
            now.saturating_add(self.policy.deadline.as_nanos() as u64)
        };
        let deadline = match (own, self.current_deadline) {
            (0, None) => 0,
            (0, Some(inherited)) => inherited,
            (own, None) => own,
            (own, Some(inherited)) => own.min(inherited),
        };
        if deadline != 0 && now >= deadline {
            // The budget is already spent: fail before touching the network.
            return Err(RemoteError::DeadlineExceeded {
                elapsed_nanos: now - deadline,
            });
        }
        match self.breaker_admit(target.machine, now) {
            BreakerGate::Fail(retry_after_nanos) => {
                bump!(self.shared.stats, breaker_fast_fails);
                self.record_overload_marker(EventKind::ClientFastFail, target.machine, 0);
                return Err(RemoteError::Overloaded {
                    queue_depth: 0,
                    retry_after_nanos,
                });
            }
            BreakerGate::PassTrial => {
                self.record_overload_marker(EventKind::BreakerHalfOpen, target.machine, 0);
            }
            BreakerGate::Pass => {}
        }
        // Each admitted first attempt earns the destination's retry bucket
        // a deposit; retransmissions later spend from it (see `wait_raw`).
        if let Some(rb) = self.policy.retry_budget {
            let tokens = self.retry_tokens.entry(target.machine).or_insert(0);
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
            // Fence stamp: 0 (no check) unless this node has learned an
            // incarnation epoch for the target address.
            epoch: self.believed_epochs.get(&target).copied().unwrap_or(0),
            rs_epoch: rs_epoch.into(),
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
            read_primary,
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

    /// Record a client-side event of the in-flight call `req_id` (peer =
    /// the machine it is currently addressed to).
    fn trace_client(&self, kind: EventKind, req_id: u64, attempt: u32, bytes: usize) {
        if self.tracer.is_none() {
            return;
        }
        if let Some(call) = self.outstanding.get(&req_id) {
            let peer = call.target.machine;
            self.trace_call(kind, peer, call.trace.as_ref(), req_id, attempt, bytes);
        }
    }

    /// Resolve `target` through the client-side forwarding cache (with
    /// path compression, so a chain learned over several migrations costs
    /// one lookup next time). Daemon addresses never forward.
    pub(super) fn forwarded_target(&mut self, start: ObjRef) -> ObjRef {
        if start.object == DAEMON || self.moved_cache.is_empty() {
            return start;
        }
        let mut target = start;
        // Bounded walk: the cache is only ever appended with commit-time
        // facts, but a bound keeps even a corrupted chain finite.
        for _ in 0..8 {
            match self.moved_cache.get(&target) {
                Some(&next) if next != target => target = next,
                _ => break,
            }
        }
        if target != start {
            self.moved_cache.insert(start, target);
        }
        target
    }

    /// Learn a forwarding fact (from a `Moved` reply or a migration this
    /// node coordinated).
    pub(super) fn note_move(&mut self, old: ObjRef, new: ObjRef) {
        if old == new || old.object == DAEMON || new.object == DAEMON {
            return;
        }
        if self.moved_cache.len() >= MOVED_CACHE_CAPACITY {
            self.moved_cache.clear();
        }
        self.moved_cache.insert(old, new);
    }

    /// Drop a learned forwarding fact so the next call to `old` pays the
    /// redirect again. Benchmarks and tests use this to measure the
    /// stale-pointer path; production code never needs it.
    pub fn forget_move(&mut self, old: ObjRef) {
        self.moved_cache.remove(&old);
    }

    /// Drop a learned epoch belief so the next call to `target` can be
    /// stamped stale again. Benchmarks and tests use this to measure the
    /// fence-bounce path (epochs are otherwise forward-only, see
    /// [`note_epoch`](NodeCtx::note_epoch)); production code never needs
    /// it.
    pub fn forget_epoch(&mut self, target: ObjRef) {
        self.believed_epochs.remove(&target);
    }

    /// Drop every client-side fact that points **at** `machine`: learned
    /// forwards whose replacement lives there and cached symbolic
    /// resolutions. Called when a machine is declared dead, so a chase
    /// never hops *through* a corpse — the next call re-resolves and finds
    /// the reactivated incarnation instead of timing out on the old one.
    pub fn purge_moves_to(&mut self, machine: MachineId) {
        self.moved_cache.retain(|_, to| to.machine != machine);
        self.resolve_cache.retain(|_, r| r.machine != machine);
        // Replica routes: the whole route dies with its primary (the
        // failover promotes a replica at a new address and the manager
        // re-registers); a dead machine's replicas are just dropped from
        // the surviving sets.
        self.replica_routes.retain(|p, _| p.machine != machine);
        for route in self.replica_routes.values_mut() {
            route.replicas.retain(|r| r.machine != machine);
        }
    }

    /// Record the incarnation epoch this node believes `target` is at.
    /// Epochs only move forward; outgoing frames to `target` are stamped
    /// with the recorded value (0 = never supervised, no fencing).
    pub fn note_epoch(&mut self, target: ObjRef, epoch: u64) {
        if epoch == 0 || target.object == DAEMON {
            return;
        }
        if self.believed_epochs.len() >= MOVED_CACHE_CAPACITY
            && !self.believed_epochs.contains_key(&target)
        {
            // Losing a belief is safe: an unstamped (epoch-0) frame skips
            // the staleness check but an old incarnation is still fenced
            // server-side by its lease and its own epoch table.
            self.believed_epochs.clear();
        }
        let e = self.believed_epochs.entry(target).or_insert(0);
        if epoch > *e {
            *e = epoch;
        }
    }

    /// The epoch this node last learned for `target` (0 = none).
    pub fn believed_epoch(&self, target: ObjRef) -> u64 {
        self.believed_epochs.get(&target).copied().unwrap_or(0)
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
    pub fn wait_raw(&mut self, mut req_id: u64) -> RemoteResult<PacketBytes> {
        let started = self.clock.now_nanos();
        let timeout = self.policy.timeout.as_nanos() as u64;
        // A zero reply window can never be satisfied: surface a typed
        // error instead of busy-looping through instant timeouts.
        if timeout == 0 {
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
        let mut deadline = started + timeout;
        loop {
            if let Some(result) = self.replies.remove(&req_id) {
                // A `Moved` reply is a forwarding stub redirecting us, not
                // an answer. Chase exactly one hop — re-issue the same
                // frame (same `req_id`) at the new address — and keep
                // waiting. A *second* redirect surfaces to the caller: the
                // signal to re-resolve through the naming directory.
                if let Err(RemoteError::Moved { to }) = &result {
                    let to = *to;
                    let learned = match self.outstanding.get(&req_id) {
                        Some(c) if c.target.object != DAEMON => Some((c.target, c.hops)),
                        _ => None,
                    };
                    if let Some((old, hops)) = learned {
                        if old == to {
                            // Stale replay: a retransmit that raced the
                            // chase bounced off the old address again.
                            // The real reply is still coming from `to`.
                            continue;
                        }
                        // A replica-routed read that bounced off a dropped
                        // replica's forwarding stub: scrub the replica
                        // from the route — the chase lands at the primary.
                        let stale_route = self
                            .outstanding
                            .get_mut(&req_id)
                            .and_then(|c| c.read_primary.take());
                        if let Some(primary) = stale_route {
                            self.drop_replica_from_route(primary, old);
                        }
                        self.note_move(old, to);
                        self.rebind_resolutions(old, to);
                        if hops == 0
                            && to.machine < self.machines()
                            && self
                                .reissue(req_id, Reroute::Moved { to }, attempts)
                                .is_some()
                        {
                            deadline = self.clock.now_nanos() + timeout;
                            continue;
                        }
                    }
                }
                // A fence rejection that teaches a *newer* epoch than the
                // frame carried means the pointer was stale, not the
                // call: retry transparently at the taught epoch, under a
                // fresh request id (the server's dedup window cached the
                // Fenced verdict for the old one). Safe for at-most-once:
                // a fence is a rejection — the call never executed.
                if let Err(RemoteError::Fenced { current_epoch }) = &result {
                    let taught = *current_epoch;
                    if let Some(fresh) = self.reissue(req_id, Reroute::Refence { taught }, 1) {
                        req_id = fresh;
                        attempts = 1;
                        deadline = self.clock.now_nanos() + timeout;
                        continue;
                    }
                }
                // A stale replica cannot prove it has every acknowledged
                // write: drop it from the local route and redirect the
                // same request (same `req_id` — a different server, so
                // dedup is unaffected) to the primary, which is always
                // coherent. Read verbs are side-effect-free, so this
                // re-execution is safe by the `reads(...)` contract.
                if let Err(RemoteError::StaleReplica { primary, .. }) = &result {
                    let primary = *primary;
                    match self.outstanding.get(&req_id) {
                        Some(c) if c.read_primary.is_some() => {
                            let replica = c.target;
                            self.drop_replica_from_route(primary, replica);
                            self.purge_resolutions_to(replica);
                            let rerouted =
                                self.reissue(req_id, Reroute::ToPrimary { primary }, attempts);
                            if rerouted.is_some() {
                                attempts = 1;
                                deadline = self.clock.now_nanos() + timeout;
                                continue;
                            }
                        }
                        // Already redirected: a retransmit's replayed
                        // verdict from the replica. The primary's answer
                        // is still coming.
                        Some(c) if c.target == primary => continue,
                        // A directly addressed call (`start_method_direct`)
                        // named this replica itself: the verdict is its
                        // answer and surfaces to the caller.
                        _ => {}
                    }
                }
                let reply_len = result.as_ref().map_or(0, |b| b.len());
                self.trace_client(EventKind::ClientRecv, req_id, attempts, reply_len);
                let failed = result.as_ref().err().is_some_and(Self::is_overload_failure);
                let target = self.retire_call(req_id, Some(failed));
                // A fence at the frame's own epoch (lapsed lease,
                // poisoned home) surfaces to the caller; still remember
                // the incarnation epoch so the caller's next attempt
                // (after re-resolving) is stamped correctly.
                if let (Err(RemoteError::Fenced { current_epoch }), Some(target)) =
                    (&result, target)
                {
                    self.note_epoch(target, *current_epoch);
                    // The fence surfaced (not transparently upgraded): the
                    // pointer names a dead incarnation. Any cached name
                    // resolution to it must re-resolve.
                    self.purge_resolutions_to(target);
                }
                return result;
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
            let pump_to = if deadline_at == 0 {
                deadline
            } else {
                deadline.min(deadline_at)
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
                        // A replica-routed read that exhausted its budget
                        // presumes the replica dead: drop it from the
                        // route and fall back to the primary with a fresh
                        // budget (safe to re-execute — reads are
                        // side-effect-free by contract).
                        let fallback = self
                            .outstanding
                            .get(&req_id)
                            .and_then(|c| c.read_primary.map(|p| (p, c.target)));
                        if let Some((primary, replica)) = fallback {
                            self.drop_replica_from_route(primary, replica);
                            let rerouted =
                                self.reissue(req_id, Reroute::ToPrimary { primary }, attempts);
                            if rerouted.is_some() {
                                attempts = 1;
                                deadline = self.clock.now_nanos() + timeout;
                                continue;
                            }
                        }
                        let target = self.retire_call(req_id, Some(true)).unwrap_or(ObjRef {
                            machine: self.machine,
                            object: DAEMON,
                        });
                        return Err(RemoteError::Timeout {
                            machine: target.machine,
                            object: target.object,
                            attempts,
                            millis: (self.clock.now_nanos() - started) / 1_000_000,
                        });
                    }
                    let pause = self.policy.backoff.delay(attempts);
                    if !pause.is_zero() {
                        let mut pause_deadline = self.clock.now_nanos() + pause.as_nanos() as u64;
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
                    deadline = self.clock.now_nanos() + timeout;
                }
            }
        }
    }

    /// Re-issue the outstanding call `req_id` along `how`: patch the stored
    /// request's header, re-encode, record the event and send. Everything
    /// the caller chose — payload, trace identity, deadline budget — is
    /// untouched, so a re-issue is the same logical call. Returns the id
    /// the call now waits under, or `None` when it must not be re-issued
    /// and the triggering verdict surfaces to the caller instead.
    fn reissue(&mut self, req_id: u64, how: Reroute, attempt: u32) -> Option<u64> {
        let call = self.outstanding.get(&req_id)?;
        let (dest, kind) = match how {
            Reroute::Moved { to } => (to, EventKind::ClientForward),
            Reroute::ToPrimary { primary } if primary.machine < self.machines() => {
                (primary, EventKind::ReplicaFallback)
            }
            // The frame already carried `taught` or newer: the fence names
            // the *current* incarnation (a lapsed lease, a poisoned home)
            // and the caller has to re-resolve. Each retry strictly raises
            // the frame's epoch, so the upgrade loop terminates.
            Reroute::Refence { taught }
                if call.target.object != DAEMON && taught != 0 && call.header.epoch < taught =>
            {
                (call.target, EventKind::ClientForward)
            }
            _ => return None,
        };
        // A fence rejection is cached in the server's dedup window under
        // the old id, so a refence needs a **fresh** one; a move or a
        // fallback reaches a different server and keeps its id (the new
        // home's dedup window treats retransmits normally).
        let new_id = match how {
            Reroute::Refence { taught } => {
                self.note_epoch(dest, taught);
                self.alloc_req_id()
            }
            _ => req_id,
        };
        let believed = self.believed_epoch(dest);
        let mut call = self.outstanding.remove(&req_id)?;
        call.target = dest;
        call.header.req_id = new_id;
        call.header.target = dest.object;
        if let Reroute::Refence { taught } = how {
            call.header.epoch = taught;
        } else {
            // A redirect may cross a takeover: carry the freshest epoch
            // this node knows for the new address so the frame is not
            // fenced for being stale. It always ends at a real object (a
            // migrated home or a replica's primary), never at a replica,
            // so the replica-set epoch is cleared.
            call.header.epoch = call.header.epoch.max(believed);
            call.header.rs_epoch = 0.into();
        }
        match how {
            Reroute::Moved { .. } => call.hops += 1,
            // Clears the fallback so a late replayed verdict from the
            // replica is ignored.
            Reroute::ToPrimary { .. } => call.read_primary = None,
            Reroute::Refence { .. } => {}
        }
        // The patched header may differ in length, and the old frame may
        // still be held by whoever received it: the payload moves to a
        // fresh buffer, once.
        let mut body = Body::with_capacity(call.payload.len());
        body.writer().put_bytes(&call.frame[call.payload.clone()]);
        (call.frame, call.payload) = call.header.seal(body);
        let _ = self.transmit(&call, kind, attempt);
        self.outstanding.insert(new_id, call);
        Some(new_id)
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
        if reads.is_empty() || primary.object == DAEMON {
            return;
        }
        self.replica_routes.insert(
            primary,
            ReplicaRoute {
                replicas,
                rs_epoch,
                reads,
                next: 0,
            },
        );
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
        self.replica_routes
            .get(&primary)
            .map(|r| (r.replicas.clone(), r.rs_epoch))
    }

    /// Remove the replica route for `primary`; reads go back to the
    /// primary itself.
    pub fn drop_replica_route(&mut self, primary: ObjRef) {
        self.replica_routes.remove(&primary);
    }

    fn drop_replica_from_route(&mut self, primary: ObjRef, replica: ObjRef) {
        if let Some(route) = self.replica_routes.get_mut(&primary) {
            route.replicas.retain(|r| *r != replica);
        }
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
        let hit = self.resolve_cache.get(addr).copied();
        if hit.is_some() {
            bump!(self.shared.stats, dir_cache_hits);
        } else {
            bump!(self.shared.stats, dir_cache_misses);
        }
        hit
    }

    /// Remember a verified resolution for `addr`.
    pub fn cache_resolve(&mut self, addr: &str, r: ObjRef) {
        if self.resolve_cache.len() >= RESOLVE_CACHE_CAPACITY
            && !self.resolve_cache.contains_key(addr)
        {
            self.resolve_cache.clear();
        }
        self.resolve_cache.insert(addr.to_string(), r);
    }

    /// Drop a cached resolution that turned out stale (its machine
    /// crashed, or the pointer double-forwarded).
    pub fn invalidate_resolve(&mut self, addr: &str) {
        self.resolve_cache.remove(addr);
    }

    /// Re-point every cached resolution at `old` to `new` — called when a
    /// `Moved` redirect teaches this node that the object migrated, so
    /// names resolving to it keep hitting the cache at the new home.
    fn rebind_resolutions(&mut self, old: ObjRef, new: ObjRef) {
        for v in self.resolve_cache.values_mut() {
            if *v == old {
                *v = new;
            }
        }
    }

    /// Drop every cached resolution pointing at `stale` — called when a
    /// surfaced `Fenced` or `StaleReplica` verdict proves the pointer no
    /// longer names the object's current incarnation.
    fn purge_resolutions_to(&mut self, stale: ObjRef) {
        self.resolve_cache.retain(|_, v| *v != stale);
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
    /// unusual, can strand a half-open trial. Returns where the call was
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
