//! The cluster clock: real time or deterministic virtual time.
//!
//! Every layer that waits — link delivery, disk delay charging, RMI
//! timeout/backoff, supervision heartbeats, coherence leases — reads time
//! and parks through a [`Clock`] instead of touching `Instant::now()` or
//! `thread::sleep` directly. The clock has two backends:
//!
//! * **Real** (the default): nanoseconds since a shared epoch, plain OS
//!   sleeps. For fabrics with nothing to charge: the wall-clock benchmark
//!   and the real-clock soak.
//! * **Virtual**: a discrete-event simulation in the FoundationDB style.
//!   Machines still run on OS threads, but every blocking wait parks the
//!   thread in the clock. When *all* registered actors are parked the
//!   clock is quiescent; it then pops the earliest pending event from a
//!   seeded total order, advances the shared logical `now`, and wakes
//!   exactly one actor — the thread it chose, through the handle that
//!   actor left in its waiter record. Execution is therefore fully serialized — one
//!   runnable thread at a time — which makes a chaos run a deterministic
//!   function of (program, fault plan, clock seed), replayable bit for
//!   bit from its [`SimSchedule`].
//!
//! Events are ordered by `(virtual time, seeded tiebreak, insertion seq)`.
//! Same-destination deliveries are serialized in send order (a link is
//! FIFO), but deliveries to *different* machines that fall on the same
//! virtual nanosecond are permuted by the seed — this is how different
//! seeds explore different interleavings of the same workload.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use crate::config::NetCost;
use crate::faults::mix;
use crate::message::{MachineId, Packet};
use crate::metrics::Metrics;
use crate::network::{hand_over, link_delivery};
use crate::time::{after, nanos, sleep_until};

/// Why a clock-mediated receive returned without a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockRecvError {
    /// The deadline passed with no delivery.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// The recorded identity of one virtual-time run: its seed plus a running
/// digest of every event the scheduler fired, in order. Two runs with equal
/// schedules executed the identical interleaving; printing the seed is a
/// complete repro recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSchedule {
    /// Seed that drives the event tiebreak order.
    pub seed: u64,
    /// Total events fired (timers + deliveries).
    pub events: u64,
    /// Order-sensitive digest over `(time, kind, target, seq)` of every
    /// fired event. The seed itself is *not* folded in, so equal digests
    /// across seeds mean the seeds genuinely produced the same order.
    pub digest: u64,
}

impl fmt::Display for SimSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed=0x{:016X} events={} digest=0x{:016X}",
            self.seed, self.events, self.digest
        )
    }
}

enum EventKind {
    /// A packet lands in `packet.dst`'s inbox.
    Deliver { packet: Packet },
    /// A parked actor's deadline expires. Stale once the waiter is gone.
    Timer { waiter: u64 },
}

struct Event {
    time: u64,
    tie: u64,
    seq: u64,
    kind: EventKind,
}

impl Event {
    fn key(&self) -> (u64, u64, u64) {
        (self.time, self.tie, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Labels below this are machine inboxes (packet deliveries wake them);
/// labels at or above it belong to scheduler workers and other non-machine
/// actors, woken only by [`Clock::notify_label`]. Machine ids comfortably
/// fit below `1 << 32`.
pub const WORKER_LABEL_BASE: u64 = 1 << 32;

struct Waiter {
    /// `Some(l)` while parked in a labeled receive: label `m <
    /// WORKER_LABEL_BASE` is machine `m`'s inbox (packet deliveries wake
    /// it); any label also wakes on a matching [`Clock::notify_label`].
    /// `None` for pure sleeps (woken only by their timer).
    label: Option<u64>,
    /// Set by the advancer when this waiter's wake event fired.
    woken: bool,
    /// The parked actor, unparked when `woken` is set: a wake costs one
    /// thread its sleep, not every parked actor theirs.
    thread: Thread,
}

impl Waiter {
    fn wake(&mut self) {
        self.woken = true;
        self.thread.unpark();
    }
}

/// The network endpoints, installed once by `Network::build` in virtual
/// mode: the clock itself pushes packets into machine inboxes when their
/// delivery events fire.
struct NetEndpoints {
    senders: Vec<Sender<Packet>>,
    metrics: Arc<Metrics>,
}

struct VState {
    now: u64,
    next_seq: u64,
    next_waiter: u64,
    /// Actors whose park/run state the quiescence rule tracks.
    registered: usize,
    /// Of those, how many are currently parked in the clock.
    parked: usize,
    /// 1 while a wake grant is outstanding: the advancer stops after waking
    /// one actor and may not fire further events until that actor has
    /// actually resumed (consumed the token). This is what serializes
    /// execution and makes the schedule deterministic.
    tokens: usize,
    waiters: HashMap<u64, Waiter>,
    /// Labels notified while their actor was running (or about to park):
    /// served by `advance` *before* the event heap, without moving time —
    /// a notified actor is runnable "now". Entries whose label has no
    /// parked waiter are dropped: every notify rides with a channel send,
    /// and actors drain their channel before parking, so a dropped entry
    /// is at worst a wake the sleeper's own timer will deliver anyway.
    ready: VecDeque<u64>,
    heap: BinaryHeap<Reverse<Event>>,
    /// Per-destination: virtual instant its link finished its last
    /// scheduled delivery. Strictly increasing, so same-destination
    /// deliveries keep send order (FIFO links).
    link_free: Vec<Option<u64>>,
    net: Option<NetEndpoints>,
    fired: u64,
    digest: u64,
}

/// Shared core of a virtual clock.
struct VirtualCore {
    seed: u64,
    state: Mutex<VState>,
}

impl fmt::Debug for VirtualCore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualCore")
            .field("seed", &self.seed)
            .finish()
    }
}

impl VirtualCore {
    fn new(seed: u64) -> Self {
        VirtualCore {
            seed,
            state: Mutex::new(VState {
                now: 0,
                next_seq: 0,
                next_waiter: 0,
                registered: 0,
                parked: 0,
                tokens: 0,
                waiters: HashMap::new(),
                ready: VecDeque::new(),
                heap: BinaryHeap::new(),
                link_free: Vec::new(),
                net: None,
                fired: 0,
                digest: 0,
            }),
        }
    }

    /// Lock the state, recovering from poisoning (a panicking test thread
    /// must not wedge every other actor's clock).
    fn lock(&self) -> MutexGuard<'_, VState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quiescent(s: &VState) -> bool {
        s.parked == s.registered && s.tokens == 0
    }

    /// Fire events until one actor has been granted a wake (or the heap
    /// runs dry). Caller must hold the lock and have verified quiescence.
    ///
    /// Notified labels (the ready queue) are served before the event heap:
    /// they represent work that became runnable at the current instant,
    /// while heap events live in the future.
    fn advance(s: &mut VState) {
        while let Some(label) = s.ready.pop_front() {
            let hit = s
                .waiters
                .iter_mut()
                .find(|(_, w)| w.label == Some(label) && !w.woken);
            if let Some((_, w)) = hit {
                w.wake();
                s.fired += 1;
                s.digest = mix(s.digest ^ s.now ^ (3 << 62) ^ label.rotate_left(32));
                s.tokens = 1;
                return;
            }
            // No parked waiter with that label (it deregistered, or is in a
            // pure timed sleep): drop the entry — see the field docs.
        }
        while let Some(Reverse(ev)) = s.heap.pop() {
            match ev.kind {
                EventKind::Timer { waiter } => {
                    let live = matches!(s.waiters.get(&waiter), Some(w) if !w.woken);
                    if !live {
                        // Stale timer (its park already ended): skip without
                        // advancing time — the deadline no longer exists.
                        continue;
                    }
                    s.now = s.now.max(ev.time);
                    s.fired += 1;
                    s.digest = mix(s.digest ^ ev.time ^ (1 << 62) ^ (waiter << 32) ^ ev.seq);
                    s.waiters.get_mut(&waiter).expect("live waiter").wake();
                    s.tokens = 1;
                    return;
                }
                EventKind::Deliver { packet } => {
                    s.now = s.now.max(ev.time);
                    s.fired += 1;
                    let dst = packet.dst;
                    s.digest = mix(s.digest ^ ev.time ^ (2 << 62) ^ ((dst as u64) << 32) ^ ev.seq);
                    let delivered = s
                        .net
                        .as_ref()
                        .is_some_and(|net| hand_over(&net.senders[dst], packet, &net.metrics));
                    if delivered {
                        // At most one actor can be parked receiving for a
                        // given machine, so this lookup is deterministic.
                        let hit = s
                            .waiters
                            .iter_mut()
                            .find(|(_, w)| w.label == Some(dst as u64) && !w.woken);
                        if let Some((_, w)) = hit {
                            w.wake();
                            s.tokens = 1;
                            return;
                        }
                    }
                    // Nobody was waiting on that inbox: keep firing.
                }
            }
        }
        // Heap empty: the system is idle until an external insert.
    }

    /// Park the calling actor until its wake event fires. Returns with the
    /// lock held. `label` makes the park notifiable (and, for labels below
    /// [`WORKER_LABEL_BASE`], receivable: deliveries to that machine wake
    /// it); `deadline` schedules a timer wake.
    fn park<'a>(
        &'a self,
        mut s: MutexGuard<'a, VState>,
        label: Option<u64>,
        deadline: Option<u64>,
    ) -> MutexGuard<'a, VState> {
        let id = s.next_waiter;
        s.next_waiter += 1;
        s.waiters.insert(
            id,
            Waiter {
                label,
                woken: false,
                thread: std::thread::current(),
            },
        );
        if let Some(d) = deadline {
            let seq = s.next_seq;
            s.next_seq += 1;
            let time = d.max(s.now);
            s.heap.push(Reverse(Event {
                time,
                tie: mix(self.seed ^ seq),
                seq,
                kind: EventKind::Timer { waiter: id },
            }));
        }
        s.parked += 1;
        if Self::quiescent(&s) {
            Self::advance(&mut s);
        }
        // `thread::park` may return early (a stale token, a spurious
        // wake): `woken`, read under the lock, is what ends the park.
        while !s.waiters.get(&id).map(|w| w.woken).unwrap_or(true) {
            drop(s);
            std::thread::park();
            s = self.lock();
        }
        s.waiters.remove(&id);
        s.parked -= 1;
        s.tokens -= 1; // consume the wake grant: the advancer may proceed
        s
    }

    fn insert_delivery(&self, packet: Packet, cost: &NetCost) {
        let mut s = self.lock();
        let dst = packet.dst;
        let seq = s.next_seq;
        s.next_seq += 1;
        let sent = s.now;
        let done = link_delivery(sent, packet.len(), cost, &mut s.link_free[dst]);
        s.heap.push(Reverse(Event {
            time: done,
            tie: mix(self.seed ^ seq),
            seq,
            kind: EventKind::Deliver { packet },
        }));
        // A send from a thread outside the actor set (driver teardown,
        // simnet-level tests with no registered actors) must advance the
        // simulation itself — every actor may already be parked.
        if Self::quiescent(&s) {
            Self::advance(&mut s);
        }
    }
}

#[derive(Debug, Clone)]
enum ClockInner {
    Real { epoch: Instant },
    Virtual(Arc<VirtualCore>),
}

/// A cluster-wide time source. Cheap to clone; all clones share the epoch
/// (real mode) or the event queue (virtual mode). See the module docs.
#[derive(Debug, Clone)]
pub struct Clock {
    inner: ClockInner,
}

impl Clock {
    /// Wall-clock mode.
    pub fn real() -> Self {
        Clock {
            inner: ClockInner::Real {
                epoch: Instant::now(),
            },
        }
    }

    /// Deterministic virtual-time mode driven by `seed`.
    pub fn virtual_time(seed: u64) -> Self {
        Clock {
            inner: ClockInner::Virtual(Arc::new(VirtualCore::new(seed))),
        }
    }

    /// True for the virtual backend.
    pub fn is_virtual(&self) -> bool {
        matches!(self.inner, ClockInner::Virtual(_))
    }

    /// The recorded schedule so far, if virtual.
    pub fn schedule(&self) -> Option<SimSchedule> {
        match &self.inner {
            ClockInner::Real { .. } => None,
            ClockInner::Virtual(core) => {
                let s = core.lock();
                Some(SimSchedule {
                    seed: core.seed,
                    events: s.fired,
                    digest: s.digest,
                })
            }
        }
    }

    /// Nanoseconds since the clock's epoch (virtual: the logical now).
    pub fn now_nanos(&self) -> u64 {
        match &self.inner {
            ClockInner::Real { epoch } => nanos(epoch.elapsed()),
            ClockInner::Virtual(core) => core.lock().now,
        }
    }

    /// Take a place among the clock's actors for the calling context:
    /// virtual time only advances while every seated actor is parked in the
    /// clock. A no-op on the real clock.
    pub fn seat(&self) -> ActorSeat {
        if let ClockInner::Virtual(core) = &self.inner {
            core.lock().registered += 1;
        }
        ActorSeat {
            clock: self.clone(),
            held: Arc::new(AtomicBool::new(true)),
        }
    }

    /// Sleep for `dur`.
    pub fn sleep(&self, dur: Duration) {
        if dur.is_zero() {
            return;
        }
        self.sleep_until_nanos(after(self.now_nanos(), dur));
    }

    /// Sleep until the clock reads at least `deadline` nanos.
    ///
    /// Virtual mode: from a registered actor this parks and lets the event
    /// loop run; from an unregistered thread it simply jumps `now` forward
    /// (single-threaded convenience for simnet-level tests).
    pub fn sleep_until_nanos(&self, deadline: u64) {
        match &self.inner {
            ClockInner::Real { epoch } => sleep_until(*epoch + Duration::from_nanos(deadline)),
            ClockInner::Virtual(core) => {
                let s = core.lock();
                if s.now >= deadline {
                    return;
                }
                if s.registered == 0 {
                    let mut s = s;
                    s.now = deadline;
                    return;
                }
                let _s = core.park(s, None, Some(deadline));
            }
        }
    }

    /// Blocking receive on machine `me`'s inbox: [`Clock::recv_until`]
    /// with no deadline.
    pub fn recv(&self, rx: &Receiver<Packet>, me: MachineId) -> Result<Packet, ClockRecvError> {
        self.recv_until(rx, me as u64, None)
    }

    /// Mark the actor parked under `label` runnable. No-op in real mode
    /// (real-mode actors block directly on their channel, so the paired
    /// channel send is the wake). Virtual mode enqueues the label on the
    /// ready queue, served ahead of the event heap at the next quiescence —
    /// the notified actor runs at the current virtual instant.
    ///
    /// Every notify must ride with a channel send the target will observe:
    /// an entry whose actor is not parked under the label when served is
    /// dropped, and the message then has to be picked up by the target's
    /// own pre-park drain or timer.
    pub fn notify_label(&self, label: u64) {
        if let ClockInner::Virtual(core) = &self.inner {
            let mut s = core.lock();
            s.ready.push_back(label);
            if VirtualCore::quiescent(&s) {
                VirtualCore::advance(&mut s);
            }
        }
    }

    /// A start gate: park the calling actor until a
    /// [`Clock::notify_label`]`(label)` is served (use a label at or above
    /// [`WORKER_LABEL_BASE`]). Actors that would otherwise all be running
    /// when they are spawned — SPMD ranks — enroll, have their notifies
    /// queued in the order they are to start, and open with this: the clock
    /// serves the queue at its first quiescence, so they run one at a time
    /// from their first instruction and the schedule owes nothing to the
    /// host's thread start-up order. Returns at once on the real clock,
    /// whose actors run concurrently anyway.
    pub fn wait_label(&self, label: u64) {
        if let ClockInner::Virtual(core) = &self.inner {
            let _s = core.park(core.lock(), Some(label), None);
        }
    }

    /// The one receive: every blocking wait on a channel, on either
    /// backend, parks here — until `deadline` in clock nanos, or for ever
    /// when it is `None` (which pushes no timer; `Some(u64::MAX)` would).
    /// Real time blocks on the channel itself. Virtual time drains the
    /// channel and, finding it empty, parks under `label` until a delivery
    /// to that machine (a label below [`WORKER_LABEL_BASE`] is machine
    /// `label`'s inbox), a [`Clock::notify_label`] or the deadline's timer
    /// wakes it — then drains again. A sender on any other channel must
    /// pair its send with `notify_label(label)`, or the park never wakes.
    pub fn recv_until<T>(
        &self,
        rx: &Receiver<T>,
        label: u64,
        deadline: Option<u64>,
    ) -> Result<T, ClockRecvError> {
        match &self.inner {
            ClockInner::Real { epoch } => match deadline {
                None => rx.recv().map_err(|_| ClockRecvError::Disconnected),
                Some(d) => {
                    rx.recv_deadline(*epoch + Duration::from_nanos(d))
                        .map_err(|e| match e {
                            RecvTimeoutError::Timeout => ClockRecvError::Timeout,
                            RecvTimeoutError::Disconnected => ClockRecvError::Disconnected,
                        })
                }
            },
            ClockInner::Virtual(core) => {
                let mut s = core.lock();
                loop {
                    match rx.try_recv() {
                        Ok(got) => return Ok(got),
                        Err(TryRecvError::Disconnected) => {
                            return Err(ClockRecvError::Disconnected)
                        }
                        Err(TryRecvError::Empty) => {}
                    }
                    if deadline.is_some_and(|d| s.now >= d) {
                        return Err(ClockRecvError::Timeout);
                    }
                    s = core.park(s, Some(label), deadline);
                }
            }
        }
    }

    /// Install the machine inboxes + metrics the virtual event loop pushes
    /// fired deliveries into. Called once by `Network::build`.
    pub(crate) fn install_network(&self, senders: Vec<Sender<Packet>>, metrics: Arc<Metrics>) {
        if let ClockInner::Virtual(core) = &self.inner {
            let mut s = core.lock();
            s.link_free = vec![None; senders.len()];
            s.net = Some(NetEndpoints { senders, metrics });
        }
    }

    /// Schedule a packet delivery at `now + latency (+ transfer)`, charging
    /// the destination link. Virtual mode only.
    pub(crate) fn schedule_delivery(&self, packet: Packet, cost: &NetCost) {
        match &self.inner {
            ClockInner::Real { .. } => unreachable!("schedule_delivery on a real clock"),
            ClockInner::Virtual(core) => core.insert_delivery(packet, cost),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

/// A place among the virtual clock's actors (see [`Clock::seat`]), given
/// up exactly once: by [`release`](ActorSeat::release) or by the drop of
/// a holder — also on unwind, so a panicking actor does not hold virtual
/// time still for the ones waiting on it. Clones share the place: whichever
/// holder lets go first gives it up for all of them. A no-op on the real
/// clock.
#[derive(Debug, Clone)]
pub struct ActorSeat {
    clock: Clock,
    held: Arc<AtomicBool>,
}

impl ActorSeat {
    /// Leave the clock's actors, unless this seat already has. If that
    /// leaves every remaining actor parked, the clock runs on before this
    /// returns — shutdown cascades rely on it.
    pub fn release(&self) {
        if !self.held.swap(false, Ordering::AcqRel) {
            return;
        }
        if let ClockInner::Virtual(core) = &self.clock.inner {
            let mut s = core.lock();
            s.registered = s.registered.saturating_sub(1);
            if VirtualCore::quiescent(&s) {
                VirtualCore::advance(&mut s);
            }
        }
    }
}

impl Drop for ActorSeat {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn endpoints(clock: &Clock, n: usize) -> Vec<Receiver<Packet>> {
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for _ in 0..n {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        clock.install_network(txs, Arc::new(Metrics::new(n)));
        rxs
    }

    #[test]
    fn virtual_clock_starts_at_zero_and_jumps_on_unregistered_sleep() {
        let clock = Clock::virtual_time(7);
        assert_eq!(clock.now_nanos(), 0);
        clock.sleep(Duration::from_millis(5));
        assert_eq!(clock.now_nanos(), 5_000_000);
        clock.sleep_until_nanos(1_000); // already past: no-op
        assert_eq!(clock.now_nanos(), 5_000_000);
        // "For ever" is the end of the clock, not a wrapped instant before now.
        clock.sleep(Duration::MAX);
        assert_eq!(clock.now_nanos(), u64::MAX);
    }

    #[test]
    fn unregistered_sends_drain_inline_and_charge_latency() {
        let clock = Clock::virtual_time(1);
        let rxs = endpoints(&clock, 2);
        let cost = NetCost {
            latency: Duration::from_millis(3),
            bytes_per_sec: f64::INFINITY,
        };
        clock.schedule_delivery(Packet::new(0, 1, vec![42]), &cost);
        // No registered actors: the insert itself ran the event loop.
        assert_eq!(rxs[1].try_recv().unwrap().payload, vec![42]);
        assert_eq!(clock.now_nanos(), 3_000_000);
        let sched = clock.schedule().unwrap();
        assert_eq!(sched.events, 1);
        assert_eq!(sched.seed, 1);
    }

    #[test]
    fn same_destination_deliveries_keep_send_order() {
        let clock = Clock::virtual_time(0xDEAD_BEEF);
        let rxs = endpoints(&clock, 2);
        for i in 0..20u8 {
            clock.schedule_delivery(Packet::new(0, 1, vec![i]), &NetCost::zero());
        }
        for i in 0..20u8 {
            assert_eq!(rxs[1].try_recv().unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn bandwidth_serializes_per_receiver_in_virtual_time() {
        let clock = Clock::virtual_time(2);
        let rxs = endpoints(&clock, 2);
        let cost = NetCost {
            latency: Duration::ZERO,
            bytes_per_sec: 1e6, // 1 MB/s
        };
        for _ in 0..4 {
            clock.schedule_delivery(Packet::new(0, 1, vec![0u8; 2000]), &cost);
        }
        let mut delivered = 0;
        while rxs[1].try_recv().is_ok() {
            delivered += 1;
        }
        assert_eq!(delivered, 4);
        // 4 × 2KB at 1MB/s = 8ms of serialized transfer, charged virtually.
        assert_eq!(clock.now_nanos(), 8_000_000);
    }

    #[test]
    fn registered_actor_wakes_on_delivery_then_timer() {
        let clock = Clock::virtual_time(3);
        let rxs = endpoints(&clock, 1);
        let seat = clock.seat();
        // Queue a delivery while running (no advancement yet: this actor is
        // not parked), then park. The event loop runs at the park and wakes
        // us with the packet at its virtual arrival time.
        clock.schedule_delivery(
            Packet::new(0, 0, vec![9]),
            &NetCost {
                latency: Duration::from_micros(500),
                bytes_per_sec: f64::INFINITY,
            },
        );
        assert_eq!(clock.now_nanos(), 0, "time must not advance while running");
        let got = clock.recv_until(&rxs[0], 0, Some(10_000_000)).unwrap();
        assert_eq!(got.payload, vec![9]);
        assert_eq!(clock.now_nanos(), 500_000);
        // Nothing else coming: the deadline timer fires next.
        let err = clock.recv_until(&rxs[0], 0, Some(2_000_000)).unwrap_err();
        assert_eq!(err, ClockRecvError::Timeout);
        assert_eq!(clock.now_nanos(), 2_000_000);
        drop(seat);
    }

    #[test]
    fn seeds_permute_same_time_events_but_same_seed_replays() {
        // One registered actor (this thread) queues three same-instant
        // deliveries to distinct machines, then parks. The seeded tiebreak
        // decides their firing order; the digest records it.
        let digest_for = |seed: u64| -> u64 {
            let clock = Clock::virtual_time(seed);
            let rxs = endpoints(&clock, 4);
            let seat = clock.seat();
            for dst in 1..4 {
                clock.schedule_delivery(Packet::new(0, dst, vec![dst as u8]), &NetCost::zero());
            }
            // Park until the deadline: all three deliveries fire first
            // (time 0/1), in seed order, then the timer.
            let err = clock.recv_until(&rxs[0], 0, Some(1_000_000)).unwrap_err();
            assert_eq!(err, ClockRecvError::Timeout);
            drop(seat);
            let sched = clock.schedule().unwrap();
            assert_eq!(sched.events, 4); // 3 deliveries + 1 timer
            sched.digest
        };
        let seeds: Vec<u64> = (0..8).collect();
        let digests: Vec<u64> = seeds.iter().map(|&s| digest_for(s)).collect();
        for (&s, &d) in seeds.iter().zip(&digests) {
            assert_eq!(digest_for(s), d, "seed {s} did not replay identically");
        }
        let distinct: std::collections::HashSet<u64> = digests.iter().copied().collect();
        assert!(
            distinct.len() >= 2,
            "8 seeds produced a single event order: {digests:?}"
        );
    }

    #[test]
    fn notify_label_wakes_a_labeled_park_at_the_current_instant() {
        // A worker-style actor parks under a high label; a machine-style
        // actor (this thread) notifies it. The wake must not advance time.
        let clock = Clock::virtual_time(11);
        let (tx, rx) = unbounded::<u32>();
        let label = WORKER_LABEL_BASE + 7;

        let worker = {
            let (clock, seat) = (clock.clone(), clock.seat());
            std::thread::spawn(move || {
                let got = clock.recv_until(&rx, label, None).unwrap();
                let at = clock.now_nanos();
                drop(seat);
                (got, at)
            })
        };

        let seat = clock.seat();
        clock.sleep(Duration::from_millis(2)); // let the worker park first
        tx.send(99).unwrap();
        clock.notify_label(label);
        // Park so the ready queue gets served.
        let (_tx2, rx2) = unbounded::<Packet>();
        let err = clock.recv_until(&rx2, 0, Some(5_000_000)).unwrap_err();
        assert_eq!(err, ClockRecvError::Timeout);
        drop(seat);

        let (got, at) = worker.join().unwrap();
        assert_eq!(got, 99);
        assert_eq!(at, 2_000_000, "notify wake must not advance virtual time");
    }

    #[test]
    fn start_gates_release_actors_one_at_a_time_in_notify_order() {
        // Three actors, enrolled and notified (2, 0, 1) before any runs.
        // Each appends its id, sleeps (parks), appends again: were two ever
        // running at once, or released in thread start-up order, the log
        // would differ from run to run.
        let clock = Clock::virtual_time(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        let seats: Vec<_> = (0..3).map(|_| clock.seat()).collect();
        let threads: Vec<_> = [2u64, 0, 1]
            .into_iter()
            .zip(seats)
            .map(|(id, seat)| {
                clock.notify_label(WORKER_LABEL_BASE + id);
                let (clock, log) = (clock.clone(), log.clone());
                std::thread::spawn(move || {
                    clock.wait_label(WORKER_LABEL_BASE + id);
                    log.lock().unwrap().push((id, clock.now_nanos()));
                    clock.sleep(Duration::from_nanos(10 + id));
                    log.lock().unwrap().push((id, clock.now_nanos()));
                    drop(seat);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let log = log.lock().unwrap().clone();
        assert_eq!(log, [(2, 0), (0, 0), (1, 0), (0, 10), (1, 11), (2, 12)]);
        assert_eq!(clock.schedule().unwrap().events, 6);
    }

    #[test]
    fn unmatched_notify_is_dropped_and_timer_still_fires() {
        // Notify a label nobody holds; a pure timed sleep must still wake
        // at its own deadline (the stale ready entry is discarded).
        let clock = Clock::virtual_time(5);
        let _seat = clock.seat();
        clock.notify_label(WORKER_LABEL_BASE + 1234);
        clock.sleep(Duration::from_millis(1));
        assert_eq!(clock.now_nanos(), 1_000_000);
    }

    #[test]
    fn recv_until_times_out_under_virtual_time() {
        let clock = Clock::virtual_time(9);
        let (_tx, rx) = unbounded::<u32>();
        let _seat = clock.seat();
        let err = clock
            .recv_until(&rx, WORKER_LABEL_BASE, Some(3_000_000))
            .unwrap_err();
        assert_eq!(err, ClockRecvError::Timeout);
        assert_eq!(clock.now_nanos(), 3_000_000);
    }

    #[test]
    fn real_clock_recv_deadline_times_out() {
        let clock = Clock::real();
        let (_tx, rx) = unbounded::<Packet>();
        let deadline = clock.now_nanos() + 2_000_000;
        let err = clock.recv_until(&rx, 0, Some(deadline)).unwrap_err();
        assert_eq!(err, ClockRecvError::Timeout);
        assert!(clock.now_nanos() >= deadline);
        assert!(clock.schedule().is_none());
        assert!(!clock.is_virtual());
    }
}
