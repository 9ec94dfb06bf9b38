//! Server-side request deduplication: at-most-once execution.
//!
//! A caller under a retrying [`CallPolicy`](crate::CallPolicy) retransmits
//! the same request frame (same `req_id`) when a reply window lapses. The
//! lapse proves nothing about the first copy: it may have been dropped, or
//! executed with only its *response* dropped, or it may still be waiting
//! in its object's record on the server — in the mailbox, or for a
//! migration to end. Executing a retransmitted copy again would
//! break non-idempotent methods (`create`, `activate`, accumulating
//! updates), so every server keeps a [`DedupWindow`] keyed on
//! `(reply_to, req_id)` — unique per caller, since each caller numbers its
//! requests from a private counter.
//!
//! Four states per key:
//! - **new** — never seen: execute it (and remember it is in flight).
//! - **in flight** — received but not yet answered (executing now, or
//!   waiting for its object): *suppress* the copy; the original will answer.
//! - **done** — answered already: *replay* the cached response without
//!   re-executing.
//! - **done, bytes dropped** — answered, but the reply's bytes were given
//!   back (see below): *suppress* the copy. It is never re-executed; it
//!   just cannot be answered a second time.
//!
//! The window has two bounds. It remembers [`DEFAULT_DEDUP_CAPACITY`]
//! completed **keys**, evicted FIFO: an evicted key makes a very late
//! duplicate executable again — the window trades unbounded memory for a
//! duplicate-suppression horizon, the standard at-most-once compromise. And
//! it holds at most [`DEDUP_BYTE_BUDGET`] of cached reply **bytes**: beyond
//! that the oldest replies are dropped (their keys stay), so a server
//! answering 2 MiB reads pins 64 MiB, not 1 024 × 2 MiB. Execution is at
//! most once per retained key; replay is per retained bytes, for callers
//! that may retransmit.
//!
//! A caller under a policy of zero retries never retransmits, and its frame
//! says so (tag `2`, [`Frame::SingleShot`](crate::frame::Frame)). Its key is
//! kept like any other — a copy the fabric duplicates is still suppressed —
//! but a reply heavier than its key's share of the byte budget
//! ([`KEY_SHARE`]) keeps no bytes: its buffer is freed once the caller has
//! read it. Lighter single-shot replies are kept, because the window is also
//! the server's recycler: [`complete`](DedupWindow::complete) hands back
//! every frame it lets go of, and the serving lane builds its next replies
//! in them (`frame::FramePool`) — by then the caller has long let go.
//!
//! In-flight keys are bounded the same way: a request admitted and never
//! completed (a deferred reply whose object is destroyed first) ages to the
//! front, and the oldest in-flight keys are evicted FIFO beyond `capacity`.
//!
//! One map holds every key, in flight or done: admitting a request is one
//! lookup, answering it one more, plus one per key it evicts.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use simnet::{MachineId, PacketBytes};

use crate::ids::IdMap;

/// Identity of a request as the server sees it.
pub(crate) type ReqKey = (MachineId, u64);

/// What to do with a just-received request.
#[derive(Debug, PartialEq)]
pub(crate) enum DedupVerdict {
    /// First sighting: execute.
    New,
    /// Nothing to do for this copy: drop it. Either the original is still
    /// being served (or parked) and will answer, or it was answered so long
    /// ago that the reply's bytes are gone — the caller's retry budget then
    /// ends in a timeout, as against an unreachable server.
    InFlight,
    /// Already executed: re-send this response frame — the very buffer the
    /// first answer went out in — do not re-execute.
    Done(PacketBytes),
}

/// Completed-call cache capacity. Old enough entries stop being protected
/// against duplicates; 1024 comfortably covers any plausible retry horizon
/// (a caller retransmits at most `max_retries` times, immediately or after
/// millisecond-scale backoff).
pub(crate) const DEFAULT_DEDUP_CAPACITY: usize = 1024;

/// Most reply bytes the window keeps for replay. What it bounds is the
/// *replay* horizon of large replies to callers that may retransmit (32 of
/// 2 MiB), never execution; it also keeps a bulk server's reply buffers
/// cycling through the same few pages instead of 1 024 fresh ones.
pub(crate) const DEDUP_BYTE_BUDGET: usize = 64 << 20;

/// One key's share of the byte budget, 64 KiB: the heaviest reply kept for
/// a caller that will not retransmit, and the heaviest frame a lane keeps
/// to build light frames in (`frame::FramePool`).
pub(crate) const KEY_SHARE: usize = DEDUP_BYTE_BUDGET / DEFAULT_DEDUP_CAPACITY;

#[derive(Debug)]
pub(crate) struct DedupWindow {
    /// Every key the window knows, in flight or done.
    keys: IdMap<ReqKey, Slot>,
    /// How many of `keys` are in flight.
    in_flight: usize,
    /// In-flight keys by admission stamp, oldest first, kept only once the
    /// in-flight count has passed capacity (see `evict_in_flight`); empty
    /// otherwise. Holds stale entries too: keys completed or evicted since.
    in_flight_order: VecDeque<(u64, ReqKey)>,
    next_seq: u64,
    /// Completed keys, oldest first.
    order: VecDeque<ReqKey>,
    /// How many keys at the front of `order` the byte bound has already
    /// passed over: none of them holds reply bytes any more.
    stripped: usize,
    /// Reply bytes held in `keys`.
    bytes: usize,
    capacity: usize,
    byte_budget: usize,
}

/// What the window knows of one key.
#[derive(Debug)]
enum Slot {
    /// Admitted, not answered: the admission stamp, which tells a live
    /// `in_flight_order` entry from a stale one, and whether the caller
    /// may retransmit the request.
    InFlight { seq: u64, resend: bool },
    /// Answered; `None` once the reply's bytes were dropped, or when nobody
    /// will ask for them.
    Done(Option<Reply>),
}

/// A cached reply: the response frame as it was sent, held by reference
/// count, and what it counts against the byte budget — its payload. An
/// error or an empty reply weighs nothing (and so is never dropped before
/// its key).
#[derive(Debug)]
struct Reply {
    frame: PacketBytes,
    weight: usize,
}

impl DedupWindow {
    pub(crate) fn new(capacity: usize, byte_budget: usize) -> Self {
        DedupWindow {
            keys: IdMap::default(),
            in_flight: 0,
            in_flight_order: VecDeque::new(),
            next_seq: 0,
            order: VecDeque::new(),
            stripped: 0,
            bytes: 0,
            capacity,
            byte_budget,
        }
    }

    /// Classify an incoming request and, if new, mark it in flight,
    /// remembering whether its caller may retransmit it (`resend`).
    pub(crate) fn admit(&mut self, key: ReqKey, resend: bool) -> DedupVerdict {
        let slot = match self.keys.entry(key) {
            Entry::Occupied(slot) => {
                return match slot.get() {
                    Slot::Done(Some(reply)) => DedupVerdict::Done(reply.frame.clone()),
                    Slot::Done(None) | Slot::InFlight { .. } => DedupVerdict::InFlight,
                }
            }
            Entry::Vacant(slot) => slot,
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        slot.insert(Slot::InFlight { seq, resend });
        self.in_flight += 1;
        if !self.in_flight_order.is_empty() {
            self.in_flight_order.push_back((seq, key));
            if self.in_flight_order.len() > 2 * self.in_flight + 64 {
                self.in_flight_order.clear();
            }
        }
        if self.in_flight > self.capacity {
            self.evict_in_flight();
        }
        DedupVerdict::New
    }

    /// Record the response `frame` sent for `key`, weighing `weight` bytes,
    /// making later duplicates replay it — unless nobody will ask: a reply
    /// to a caller that will not retransmit, heavier than one key's share
    /// of the byte budget, keeps its key and none of its bytes. Evicts the
    /// oldest completed keys beyond capacity, then drops the oldest reply
    /// bytes beyond the byte budget — never the newest entry's, so the
    /// reply just sent to a caller that may retransmit can always be
    /// replayed — and hands each frame it lets go of to `evicted`. A key no
    /// longer in flight (evicted) counts as one whose caller may
    /// retransmit.
    pub(crate) fn complete(
        &mut self,
        key: ReqKey,
        frame: PacketBytes,
        weight: usize,
        mut evicted: impl FnMut(PacketBytes),
    ) {
        let slot = self.keys.get_mut(&key);
        let resend = match slot.as_deref() {
            // Answered before (the request re-executed past a horizon):
            // the first answer stands, and stays where it is in `order`.
            Some(Slot::Done(_)) => return,
            Some(&Slot::InFlight { resend, .. }) => resend,
            None => true,
        };
        let kept = resend || weight <= self.byte_budget / self.capacity;
        self.bytes += if kept { weight } else { 0 };
        let done = Slot::Done(kept.then_some(Reply { frame, weight }));
        match slot {
            Some(slot) => {
                *slot = done;
                self.in_flight -= 1;
            }
            None => {
                self.keys.insert(key, done);
            }
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            let oldest = self.order.pop_front().expect("the window is over capacity");
            if let Some(Slot::Done(Some(reply))) = self.keys.remove(&oldest) {
                self.bytes -= reply.weight;
                evicted(reply.frame);
            }
            self.stripped = self.stripped.saturating_sub(1);
        }
        while self.bytes > self.byte_budget && self.stripped + 1 < self.order.len() {
            let key = self.order[self.stripped];
            self.stripped += 1;
            if let Some(Slot::Done(slot)) = self.keys.get_mut(&key) {
                if let Some(reply) = slot.take_if(|reply| reply.weight > 0) {
                    self.bytes -= reply.weight;
                    evicted(reply.frame);
                }
            }
        }
    }

    /// Bound the in-flight set: drop the oldest live keys beyond capacity
    /// (abandoned deferred calls are the ones that age to the front). Runs
    /// only past capacity: the first time, it orders the in-flight keys by
    /// admission; from then on every admission joins the queue, until
    /// stale entries dominate it and `admit` drops it, to be ordered afresh
    /// the next time the count passes capacity — amortized O(1) per call.
    fn evict_in_flight(&mut self) {
        if self.in_flight_order.is_empty() {
            let live = self.keys.iter().filter_map(|(&key, slot)| match *slot {
                Slot::InFlight { seq, .. } => Some((seq, key)),
                Slot::Done(_) => None,
            });
            self.in_flight_order.extend(live);
            self.in_flight_order.make_contiguous().sort_unstable();
        }
        while self.in_flight > self.capacity {
            let (seq, key) = self
                .in_flight_order
                .pop_front()
                .expect("live keys are queued");
            if matches!(self.keys.get(&key), Some(&Slot::InFlight { seq: s, .. }) if s == seq) {
                self.keys.remove(&key);
                self.in_flight -= 1;
            }
        }
    }
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow::new(DEFAULT_DEDUP_CAPACITY, DEDUP_BYTE_BUDGET)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::error::{RemoteError, RemoteResult};
    use crate::frame::{encode_response, Body, Frame};

    impl DedupWindow {
        /// Completed keys, protected against re-execution.
        fn done_len(&self) -> usize {
            self.order.len()
        }

        /// Reply bytes held for replay.
        fn held_bytes(&self) -> usize {
            self.bytes
        }

        /// Keys admitted but not yet completed.
        fn in_flight_len(&self) -> usize {
            self.in_flight
        }

        /// The in-flight admission queue's length, stale entries included.
        fn in_flight_order_len(&self) -> usize {
            self.in_flight_order.len()
        }
    }

    /// Answer `key` with `result` the way a node does: the reply encoded
    /// into a response frame, the frame handed to the window.
    fn complete(w: &mut DedupWindow, key: ReqKey, result: RemoteResult<Vec<u8>>) {
        let body = result.map(|bytes| {
            let mut body = Body::with_capacity(bytes.len());
            body.writer().put_bytes(&bytes);
            body
        });
        let (frame, weight) = encode_response(key.1, body);
        w.complete(key, frame, weight, |_| {});
    }

    /// Admit `key` as a duplicate and decode the reply its `Done` verdict
    /// carries back out of the frame.
    fn replay(w: &mut DedupWindow, key: ReqKey) -> RemoteResult<Vec<u8>> {
        let verdict = w.admit(key, true);
        let DedupVerdict::Done(frame) = verdict else {
            panic!("expected a replay, got {verdict:?}");
        };
        match wire::from_bytes::<Frame>(&frame).expect("a replay is a well-formed frame") {
            Frame::Response { req_id, result } => {
                assert_eq!(req_id, key.1);
                result.map(|b| b.0)
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
    }

    #[test]
    fn first_sighting_is_new_then_in_flight() {
        let mut w = DedupWindow::default();
        assert_eq!(w.admit((3, 7), true), DedupVerdict::New);
        assert_eq!(w.admit((3, 7), true), DedupVerdict::InFlight);
        // A different caller with the same req_id is a different request.
        assert_eq!(w.admit((4, 7), true), DedupVerdict::New);
    }

    #[test]
    fn completed_requests_replay_their_response() {
        let mut w = DedupWindow::default();
        assert_eq!(w.admit((0, 1), true), DedupVerdict::New);
        complete(&mut w, (0, 1), Ok(vec![9, 9]));
        assert_eq!(replay(&mut w, (0, 1)), Ok(vec![9, 9]));
        // Errors are cached too: a failed create must not re-run either.
        assert_eq!(w.admit((0, 2), true), DedupVerdict::New);
        complete(
            &mut w,
            (0, 2),
            Err(RemoteError::NoSuchClass { class: "X".into() }),
        );
        assert_eq!(
            replay(&mut w, (0, 2)),
            Err(RemoteError::NoSuchClass { class: "X".into() })
        );
    }

    #[test]
    fn forwarding_redirects_replay_like_any_response() {
        // After a migration the source answers forwarded requests with
        // `Moved`. The redirect enters the done cache like any result, so a
        // retransmitted copy of a forwarded request replays the redirect
        // instead of re-executing — the dedup window "survives the move".
        let mut w = DedupWindow::default();
        assert_eq!(w.admit((5, 1), true), DedupVerdict::New);
        let moved = Err(RemoteError::Moved {
            to: crate::ids::ObjRef {
                machine: 2,
                object: 9,
            },
        });
        complete(&mut w, (5, 1), moved.clone());
        assert_eq!(replay(&mut w, (5, 1)), moved);
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut w = DedupWindow::new(3, DEDUP_BYTE_BUDGET);
        for id in 0..5u64 {
            assert_eq!(w.admit((0, id), true), DedupVerdict::New);
            complete(&mut w, (0, id), Ok(vec![id as u8]));
        }
        assert_eq!(w.done_len(), 3);
        // The two oldest were evicted: their duplicates execute again.
        assert_eq!(w.admit((0, 0), true), DedupVerdict::New);
        assert_eq!(w.admit((0, 1), true), DedupVerdict::New);
        // The newest three still replay.
        assert_eq!(replay(&mut w, (0, 4)), Ok(vec![4]));
    }

    #[test]
    fn abandoned_in_flight_entries_are_bounded() {
        // Regression: keys admitted but never completed (e.g. a Barrier
        // destroyed with deferred waiters parked) used to accumulate in the
        // in-flight set forever. They must now be evicted FIFO at capacity.
        let mut w = DedupWindow::new(64, DEDUP_BYTE_BUDGET);
        for id in 0..5_000u64 {
            assert_eq!(w.admit((0, id), true), DedupVerdict::New);
        }
        assert!(
            w.in_flight_len() <= 64,
            "in_flight grew to {}",
            w.in_flight_len()
        );
        assert!(
            w.in_flight_order_len() <= 2 * 64 + 64,
            "order queue grew to {}",
            w.in_flight_order_len()
        );
        // Recent keys are still protected; ancient evicted ones re-execute
        // (the same horizon compromise the done-cache already makes).
        assert_eq!(w.admit((0, 4_999), true), DedupVerdict::InFlight);
        assert_eq!(w.admit((0, 0), true), DedupVerdict::New);
    }

    #[test]
    fn admit_complete_churn_keeps_order_queue_bounded() {
        // Every admission pushes a queue entry; completion leaves it stale
        // in place. Compaction must keep the queue proportional to the live
        // set, not to the total call count.
        let mut w = DedupWindow::new(32, DEDUP_BYTE_BUDGET);
        for id in 0..10_000u64 {
            assert_eq!(w.admit((1, id), true), DedupVerdict::New);
            complete(&mut w, (1, id), Ok(vec![]));
        }
        assert_eq!(w.in_flight_len(), 0);
        assert!(
            w.in_flight_order_len() <= 2 * 32 + 64,
            "order queue grew to {}",
            w.in_flight_order_len()
        );
    }

    #[test]
    fn completing_an_evicted_in_flight_key_still_caches_the_response() {
        // The original executes, gets evicted from in-flight by pressure,
        // then finishes: its response must still enter the done cache so
        // late duplicates replay instead of re-executing.
        let mut w = DedupWindow::new(4, DEDUP_BYTE_BUDGET);
        assert_eq!(w.admit((2, 0), true), DedupVerdict::New);
        for id in 1..=8u64 {
            assert_eq!(w.admit((2, id), true), DedupVerdict::New);
        }
        // (2,0) was evicted; completing it anyway records the response.
        complete(&mut w, (2, 0), Ok(vec![7]));
        assert_eq!(replay(&mut w, (2, 0)), Ok(vec![7]));
    }

    #[test]
    fn re_admitted_key_after_eviction_gets_a_fresh_stamp() {
        // Evict (3,0), re-admit it, then evict again: the stale first-stamp
        // queue entry must not cause the fresh admission to be dropped out
        // of order or double-removed.
        let mut w = DedupWindow::new(2, DEDUP_BYTE_BUDGET);
        assert_eq!(w.admit((3, 0), true), DedupVerdict::New);
        assert_eq!(w.admit((3, 1), true), DedupVerdict::New);
        assert_eq!(w.admit((3, 2), true), DedupVerdict::New); // evicts (3,0)
        assert_eq!(w.admit((3, 0), true), DedupVerdict::New); // fresh stamp, evicts (3,1)
        assert_eq!(w.admit((3, 0), true), DedupVerdict::InFlight);
        assert!(w.in_flight_len() <= 2);
    }

    #[test]
    fn completing_twice_keeps_the_first_answer_and_an_exact_byte_account() {
        let mut w = DedupWindow::new(2, DEDUP_BYTE_BUDGET);
        w.admit((1, 1), true);
        complete(&mut w, (1, 1), Ok(vec![1; 100]));
        complete(&mut w, (1, 1), Ok(vec![2; 50])); // re-executed past a horizon
        assert_eq!(w.held_bytes(), 100);
        w.admit((1, 2), true);
        complete(&mut w, (1, 2), Ok(vec![3]));
        assert_eq!((w.done_len(), w.held_bytes()), (2, 101));
        // (1,1) was not evicted by its own double-complete.
        assert_eq!(replay(&mut w, (1, 1)), Ok(vec![1; 100]));
        // Count eviction gives the bytes back exactly.
        w.admit((1, 3), true);
        complete(&mut w, (1, 3), Ok(vec![4; 7]));
        assert_eq!((w.done_len(), w.held_bytes()), (2, 8));
    }

    /// Complete `ids` of caller 0, each with a reply of `len` bytes of its id.
    fn complete_all(w: &mut DedupWindow, ids: std::ops::Range<u64>, len: usize) {
        for id in ids {
            assert_eq!(w.admit((0, id), true), DedupVerdict::New);
            complete(w, (0, id), Ok(vec![id as u8; len]));
        }
    }

    #[test]
    fn bytes_are_dropped_before_keys_and_keys_outlive_their_bytes() {
        // Room for 8 keys but only 3 replies of 100 bytes.
        let mut w = DedupWindow::new(8, 300);
        complete_all(&mut w, 0..6, 100);
        assert_eq!((w.done_len(), w.held_bytes()), (6, 300));
        // The three oldest lost their bytes, not their keys: a duplicate is
        // suppressed — never `New`, so never executed again.
        for id in 0..3 {
            assert_eq!(w.admit((0, id), true), DedupVerdict::InFlight);
        }
        for id in 3..6 {
            assert_eq!(replay(&mut w, (0, id)), Ok(vec![id as u8; 100]));
        }
        // Past the key horizon a duplicate executes again, as it always has.
        complete_all(&mut w, 6..10, 100);
        assert_eq!((w.done_len(), w.held_bytes()), (8, 300));
        assert_eq!(w.admit((0, 0), true), DedupVerdict::New);
        assert_eq!(w.admit((0, 1), true), DedupVerdict::New);
        assert_eq!(w.admit((0, 2), true), DedupVerdict::InFlight);
    }

    #[test]
    fn a_reply_larger_than_the_budget_replays_while_it_is_the_newest() {
        let mut w = DedupWindow::new(8, 300);
        complete_all(&mut w, 0..1, 1000);
        assert_eq!(w.held_bytes(), 1000);
        assert_eq!(replay(&mut w, (0, 0)), Ok(vec![0; 1000]));
        // The next reply makes it the oldest, and over budget: dropped.
        complete_all(&mut w, 1..2, 10);
        assert_eq!(w.held_bytes(), 10);
        assert_eq!(w.admit((0, 0), true), DedupVerdict::InFlight);
        assert_eq!(replay(&mut w, (0, 1)), Ok(vec![1; 10]));
    }

    #[test]
    fn errors_and_empty_replies_weigh_nothing_and_replay_to_the_key_horizon() {
        let mut w = DedupWindow::new(8, 300);
        let err = Err(RemoteError::NoSuchClass { class: "X".into() });
        assert_eq!(w.admit((1, 0), true), DedupVerdict::New);
        complete(&mut w, (1, 0), err.clone());
        assert_eq!(w.admit((1, 1), true), DedupVerdict::New);
        complete(&mut w, (1, 1), Ok(Vec::new()));
        assert_eq!(w.held_bytes(), 0);
        // Heavy replies push each other out by bytes; the weightless
        // entries in front of them stay replayable.
        complete_all(&mut w, 0..5, 200);
        assert_eq!(w.held_bytes(), 200);
        assert_eq!(replay(&mut w, (1, 0)), err);
        assert_eq!(replay(&mut w, (1, 1)), Ok(Vec::new()));
        assert_eq!(w.admit((0, 3), true), DedupVerdict::InFlight);
        assert_eq!(replay(&mut w, (0, 4)), Ok(vec![4; 200]));
    }

    #[test]
    fn a_heavy_reply_nobody_will_ask_for_keeps_its_key_and_none_of_its_bytes() {
        // Eight keys and 800 bytes: a share of 100 bytes per key.
        let mut w = DedupWindow::new(8, 800);
        let single_shot = |w: &mut DedupWindow, id: u64, len: usize| {
            assert_eq!(w.admit((0, id), false), DedupVerdict::New);
            complete(w, (0, id), Ok(vec![id as u8; len]));
        };
        single_shot(&mut w, 0, 101);
        assert_eq!((w.done_len(), w.held_bytes()), (1, 0));
        // A copy the fabric made is suppressed, never executed.
        assert_eq!(w.admit((0, 0), false), DedupVerdict::InFlight);
        // At its share or under it, a reply is kept as any other.
        single_shot(&mut w, 1, 100);
        assert_eq!(w.held_bytes(), 100);
        assert_eq!(replay(&mut w, (0, 1)), Ok(vec![1; 100]));
        // A caller that may retransmit keeps its heavy reply.
        complete_all(&mut w, 2..3, 500);
        assert_eq!((w.done_len(), w.held_bytes()), (3, 600));
        assert_eq!(replay(&mut w, (0, 2)), Ok(vec![2; 500]));
        // A key evicted from the in-flight set is one that may be resent.
        let mut tiny = DedupWindow::new(1, 100);
        assert_eq!(tiny.admit((1, 0), false), DedupVerdict::New);
        assert_eq!(tiny.admit((1, 1), false), DedupVerdict::New);
        complete(&mut tiny, (1, 0), Ok(vec![7; 300]));
        assert_eq!(replay(&mut tiny, (1, 0)), Ok(vec![7; 300]));
    }

    /// A verdict as the model states it: `Done` carries the reply its frame
    /// decodes to.
    #[derive(Debug, PartialEq)]
    enum Seen {
        New,
        InFlight,
        Done(RemoteResult<Vec<u8>>),
    }

    fn seen(verdict: DedupVerdict) -> Seen {
        match verdict {
            DedupVerdict::New => Seen::New,
            DedupVerdict::InFlight => Seen::InFlight,
            DedupVerdict::Done(frame) => match wire::from_bytes::<Frame>(&frame) {
                Ok(Frame::Response { result, .. }) => Seen::Done(result.map(|b| b.0)),
                other => panic!("a replay is a response frame, got {other:?}"),
            },
        }
    }

    /// A completed key's reply, and its weight.
    type Kept = (RemoteResult<Vec<u8>>, usize);

    /// The window's contract restated on ordered maps, none of its
    /// bookkeeping kept: in-flight keys by admission number with their
    /// caller's `resend` flag, completed keys by completion number, each
    /// with its reply and weight — `None` once the bytes were dropped, or
    /// when nobody will ask for them.
    #[derive(Default)]
    struct Model {
        capacity: usize,
        budget: usize,
        next: u64,
        in_flight: BTreeMap<ReqKey, (u64, bool)>,
        admitted: BTreeMap<u64, ReqKey>,
        done: BTreeMap<ReqKey, Option<Kept>>,
        completed: BTreeMap<u64, ReqKey>,
        evicted: usize,
        dropped: usize,
        shed: usize,
    }

    impl Model {
        fn admit(&mut self, key: ReqKey, resend: bool) -> Seen {
            match self.done.get(&key) {
                Some(Some((reply, _))) => return Seen::Done(reply.clone()),
                Some(None) => return Seen::InFlight,
                None if self.in_flight.contains_key(&key) => return Seen::InFlight,
                None => {}
            }
            self.next += 1;
            self.in_flight.insert(key, (self.next, resend));
            self.admitted.insert(self.next, key);
            while self.in_flight.len() > self.capacity {
                let (_, oldest) = self.admitted.pop_first().expect("over capacity");
                self.in_flight.remove(&oldest);
            }
            Seen::New
        }

        fn complete(&mut self, key: ReqKey, reply: RemoteResult<Vec<u8>>, weight: usize) {
            // A key evicted from the in-flight set may be retransmitted.
            let resend = match self.in_flight.remove(&key) {
                Some((n, resend)) => {
                    self.admitted.remove(&n);
                    resend
                }
                None => true,
            };
            if self.done.contains_key(&key) {
                return;
            }
            self.next += 1;
            // The share rule: a reply to a caller that will not retransmit,
            // heavier than one key's share of the budget, is not kept.
            let kept = if resend || weight <= self.budget / self.capacity {
                Some((reply, weight))
            } else {
                self.shed += 1;
                None
            };
            self.done.insert(key, kept);
            self.completed.insert(self.next, key);
            while self.done.len() > self.capacity {
                let (_, oldest) = self.completed.pop_first().expect("over capacity");
                self.done.remove(&oldest);
                self.evicted += 1;
            }
            // Oldest bytes first, the newest reply's never.
            let order: Vec<ReqKey> = self.completed.values().copied().collect();
            for key in &order[..order.len() - 1] {
                if self.held_bytes() <= self.budget {
                    break;
                }
                let slot = self.done.get_mut(key).expect("completed keys are done");
                if slot.as_ref().is_some_and(|(_, weight)| *weight > 0) {
                    *slot = None;
                    self.dropped += 1;
                }
            }
        }

        fn held_bytes(&self) -> usize {
            self.done.values().flatten().map(|(_, weight)| weight).sum()
        }
    }

    /// Seeded admit / complete / duplicate sequences from four callers
    /// numbering their requests with strides 1, 3, 8 and 1, each admission
    /// from a caller that may or may not retransmit, on windows small enough
    /// that key eviction, byte dropping and the share rule all run: every
    /// verdict, `done_len`, `held_bytes` and `in_flight_len` agree with the
    /// model.
    #[test]
    fn the_window_agrees_with_a_model_on_ordered_maps() {
        const STRIDES: [u64; 4] = [1, 3, 8, 1];
        let (mut evicted, mut dropped, mut shed) = (0, 0, 0);
        for seed in 1..=24u64 {
            let mut case = simnet::sweep::Case::new(seed);
            let mut rand = move |n: usize| case.below(n as u64) as usize;
            let (capacity, budget) = (2 + rand(14), 50 * (1 + rand(8)));
            let mut w = DedupWindow::new(capacity, budget);
            let mut model = Model {
                capacity,
                budget,
                ..Model::default()
            };
            let mut counters = [0u64; 4];
            let (mut issued, mut open) = (Vec::<ReqKey>::new(), Vec::<ReqKey>::new());
            for _ in 0..600 {
                let op = rand(10);
                let key = match op {
                    0..=3 => {
                        let caller = rand(4);
                        counters[caller] += STRIDES[caller];
                        issued.push((caller, counters[caller]));
                        issued[issued.len() - 1]
                    }
                    4..=6 if !open.is_empty() => open.swap_remove(rand(open.len())),
                    _ if !issued.is_empty() => issued[rand(issued.len())],
                    _ => continue,
                };
                if matches!(op, 0..=3 | 7 | 8) {
                    // A fresh request, or a duplicate of one issued before.
                    let resend = rand(2) == 0;
                    let got = seen(w.admit(key, resend));
                    let want = model.admit(key, resend);
                    assert_eq!(got, want, "seed {seed}: admit {key:?}");
                    if got == Seen::New {
                        open.push(key);
                    }
                } else {
                    // An answer: to an open request, or — a re-execution
                    // past a horizon — to any issued one.
                    let reply = match rand(6) {
                        0 => Err(RemoteError::app("refused")),
                        1 => Ok(Vec::new()),
                        n => Ok(vec![n as u8; rand(120)]),
                    };
                    let body = reply.clone().map(|bytes| {
                        let mut body = Body::with_capacity(bytes.len());
                        body.writer().put_bytes(&bytes);
                        body
                    });
                    let (frame, weight) = encode_response(key.1, body);
                    w.complete(key, frame, weight, |_| {});
                    model.complete(key, reply, weight);
                }
                assert_eq!(
                    (w.done_len(), w.held_bytes(), w.in_flight_len()),
                    (model.done.len(), model.held_bytes(), model.in_flight.len()),
                    "seed {seed}: after {key:?}"
                );
            }
            evicted += model.evicted;
            dropped += model.dropped;
            shed += model.shed;
        }
        assert!(
            evicted > 0 && dropped > 0 && shed > 0,
            "evicted {evicted}, dropped {dropped}, shed {shed}"
        );
    }

    /// Complete `id` of caller 0 with a reply of `len` bytes, and return
    /// the frame sent beside the frames the window handed back.
    fn complete_keeping(
        w: &mut DedupWindow,
        id: u64,
        len: usize,
    ) -> (PacketBytes, Vec<PacketBytes>) {
        w.admit((0, id), true);
        let mut body = Body::with_capacity(len);
        body.writer().put_bytes(&vec![id as u8; len]);
        let (frame, weight) = encode_response(id, Ok(body));
        let mut evicted = Vec::new();
        w.complete((0, id), frame.clone(), weight, |f| evicted.push(f));
        (frame, evicted)
    }

    /// Every frame the window lets go of — by the key bound or by the byte
    /// bound — is handed back, once, and only when it goes: the frames sent
    /// for evicted keys and for stripped bytes, and no other. A frame a
    /// replay still holds is handed back too, but cannot become a spare
    /// (`PacketBytes::into_spare`) while the replay's holder reads it.
    #[test]
    fn complete_hands_back_exactly_the_frames_it_lets_go_of() {
        // Three keys, and bytes for two replies of 100.
        let mut w = DedupWindow::new(3, 200);
        let mut sent = Vec::new();
        let mut handed = Vec::new();
        for (id, len) in [(0, 100), (1, 0), (2, 100), (3, 100), (4, 10), (5, 10)] {
            let (frame, evicted) = complete_keeping(&mut w, id, len);
            sent.push(frame);
            handed.push(evicted);
        }
        let which = |evicted: &[PacketBytes]| -> Vec<usize> {
            evicted
                .iter()
                .map(|f| sent.iter().position(|s| s.shares_buffer_with(f)).unwrap())
                .collect()
        };
        let handed: Vec<Vec<usize>> = handed.iter().map(|e| which(e)).collect();
        // 3 evicts key 0 by count; 4 evicts key 1 by count (an empty reply
        // is a frame too), then 2's bytes by the byte bound (210 > 200); 5
        // evicts key 2, whose frame went already.
        assert_eq!(
            handed,
            [vec![], vec![], vec![], vec![0], vec![1, 2], vec![]]
        );
        assert_eq!((w.done_len(), w.held_bytes()), (3, 120));

        // A replay holds the frame of 3; the window lets it go past the key
        // bound and hands it back, but the replay's holder still reads it.
        let DedupVerdict::Done(replayed) = w.admit((0, 3), true) else {
            panic!("3 replays");
        };
        drop(std::mem::take(&mut sent));
        let (_, evicted) = complete_keeping(&mut w, 6, 10);
        assert_eq!(evicted.len(), 1);
        assert!(evicted[0].shares_buffer_with(&replayed));
        let evicted = evicted.into_iter().next().unwrap();
        let evicted = evicted.into_spare().expect_err("a replay still holds it");
        drop(replayed);
        assert!(evicted.into_spare().is_ok(), "its last holder may reuse it");
    }

    #[test]
    fn small_replies_fill_the_whole_key_window() {
        // The byte bound is out of reach of ordinary replies: the default
        // window still replays its 1 024 most recent calls, and only those.
        let mut w = DedupWindow::default();
        complete_all(&mut w, 0..1030, 64);
        assert_eq!(w.done_len(), DEFAULT_DEDUP_CAPACITY);
        assert_eq!(w.held_bytes(), DEFAULT_DEDUP_CAPACITY * 64);
        assert_eq!(w.admit((0, 5), true), DedupVerdict::New);
        for id in [6, 500, 1029] {
            assert_eq!(replay(&mut w, (0, id)), Ok(vec![id as u8; 64]));
        }
    }
}
