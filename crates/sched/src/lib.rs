//! Scheduler primitives for the M:N object scheduler.
//!
//! The paper's machine model is thousands of live objects, each a sequential
//! server. One OS thread per machine serializes them; this crate supplies the
//! pieces that let a small pool of workers serve them concurrently while each
//! object still runs one call at a time:
//!
//! * [`Injector`] — a machine's one run queue of task tokens: admission
//!   pushes at the back, a token that yields its worker goes back at the
//!   front ([`Injector::push_front`]), and a worker takes the front.
//! * [`DepthGauge`] — an admitted-minus-drained counter for bounded queueing.
//! * [`Worker`] / [`Stealer`] / [`Steal`] — a work-stealing deque (two
//!   handles on one locked `VecDeque`). The runtime no longer uses it; it
//!   stays only for the `sched.*` probes of the wall-clock benchmark.
//!
//! Tasks carry no locking themselves: a queue hands out each pushed value
//! exactly once, which is the scheduler-side half of the run-to-completion
//! guarantee. The object-side half (an object is owned by at most one worker
//! at a time) lives in `oopp::node`: each object has one task token, queued
//! once, so the queue only has to hand a token out once — which a lock does
//! without any `unsafe` code.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// SplitMix64 finalizer: `simnet::faults::mix`, duplicated because
/// `benchmark/` calls it and a `sched → simnet` edge would change the graph
/// `benchmark/Cargo.lock` records.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Outcome of a [`Stealer::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was empty.
    Empty,
    /// One task was stolen.
    Success(T),
}

impl<T> Steal<T> {
    /// The stolen value, if any.
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            Steal::Empty => None,
        }
    }
}

/// Lock a queue. No task runs under the lock, so a panic elsewhere leaves
/// it consistent and a poisoned lock is taken as is.
fn lock<T>(q: &Mutex<VecDeque<T>>) -> MutexGuard<'_, VecDeque<T>> {
    q.lock().unwrap_or_else(|e| e.into_inner())
}

/// The owning side of a work-stealing deque: its worker pushes and pops at
/// the back.
pub struct Worker<T> {
    q: Arc<Mutex<VecDeque<T>>>,
}

/// The stealing side: clone freely, one per peer worker.
pub struct Stealer<T> {
    q: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer { q: self.q.clone() }
    }
}

impl<T> Worker<T> {
    /// A fresh, empty deque.
    pub fn new() -> Self {
        Worker { q: Arc::default() }
    }

    /// A handle thieves steal through.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer { q: self.q.clone() }
    }

    /// Number of queued tasks (racy; for heuristics and tests only).
    pub fn len(&self) -> usize {
        lock(&self.q).len()
    }

    /// True when no tasks are queued (racy; heuristics only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a task at the back (owner side).
    pub fn push(&self, v: T) {
        lock(&self.q).push_back(v);
    }

    /// Pop a task from the back, LIFO (owner side).
    pub fn pop(&self) -> Option<T> {
        lock(&self.q).pop_back()
    }
}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Worker::new()
    }
}

impl<T> Stealer<T> {
    /// Steal one task from the front, FIFO.
    pub fn steal(&self) -> Steal<T> {
        match lock(&self.q).pop_front() {
            Some(v) => Steal::Success(v),
            None => Steal::Empty,
        }
    }
}

/// A shared FIFO run queue: the machine dispatcher pushes admitted tasks at
/// the back, workers pop the front.
pub struct Injector<T> {
    q: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    pub fn new() -> Self {
        Injector {
            q: Mutex::new(VecDeque::new()),
        }
    }

    /// Enqueue at the back.
    pub fn push(&self, v: T) {
        lock(&self.q).push_back(v);
    }

    /// Enqueue at the front: the next [`pop`](Injector::pop) takes it.
    pub fn push_front(&self, v: T) {
        lock(&self.q).push_front(v);
    }

    /// Dequeue from the front.
    pub fn pop(&self) -> Option<T> {
        lock(&self.q).pop_front()
    }

    /// Racy emptiness check (heuristics only).
    pub fn is_empty(&self) -> bool {
        lock(&self.q).is_empty()
    }

    /// Racy length (heuristics and stats).
    pub fn len(&self) -> usize {
        lock(&self.q).len()
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

/// A depth gauge for bounded queues: a lock-free admitted-minus-drained
/// counter with a compare-and-swap admission check. The scheduler's run
/// queue is unbounded (`Injector`); when a consumer wants *bounded*
/// queueing — oopp's per-machine in-flight budget — it pairs it with a
/// `DepthGauge` so admission can reject before pushing rather than
/// discover overload after the queue has already grown.
#[derive(Debug, Default)]
pub struct DepthGauge {
    depth: AtomicU64,
}

impl DepthGauge {
    pub const fn new() -> Self {
        DepthGauge {
            depth: AtomicU64::new(0),
        }
    }

    /// Reserve one slot if the current depth is below `cap`.
    /// `Ok(depth_after)` on success; `Err(current_depth)` without side
    /// effects when the queue is full. CAS loop, not fetch_add-then-undo:
    /// a rejected admission must never transiently inflate the gauge other
    /// admissions are reading.
    pub fn try_acquire(&self, cap: u64) -> Result<u64, u64> {
        let mut cur = self.depth.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return Err(cur);
            }
            match self.depth.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(cur + 1),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Release `n` slots (items left the queue).
    pub fn release(&self, n: u64) {
        self.depth.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current depth (racy; admission hints and stats).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    #[test]
    fn owner_pops_lifo() {
        let w: Worker<u32> = Worker::new();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
        assert_eq!(w.pop(), None); // empty pop is idempotent
    }

    #[test]
    fn thief_steals_fifo() {
        let w: Worker<u32> = Worker::new();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(s.steal(), Steal::Success(2));
        // Owner takes the newest, thief took the oldest.
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn grow_preserves_all_elements() {
        let w: Worker<usize> = Worker::new();
        let s = w.stealer();
        let n = 10_000; // well past the initial 64-slot buffer
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        let mut seen = vec![false; n];
        // Interleave pops and steals to cross buffer generations.
        while let Steal::Success(i) = s.steal() {
            seen[i] = true;
            if let Some(i) = w.pop() {
                seen[i] = true;
            }
        }
        while let Some(i) = w.pop() {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b), "an element was lost across grow");
    }

    #[test]
    fn dropping_a_nonempty_deque_drops_queued_values() {
        struct Counted(Arc<AtomicU64>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let w: Worker<Counted> = Worker::new();
        for _ in 0..100 {
            w.push(Counted(drops.clone()));
        }
        // Take a few out so top > 0 and both paths are exercised.
        let s = w.stealer();
        drop(s.steal().success());
        drop(w.pop());
        drop(s); // the Arc'd inner lives until every handle is gone
        drop(w);
        assert_eq!(drops.load(Ordering::SeqCst), 100);
    }

    /// Every pushed value is handed out exactly once across the owner and
    /// several concurrent thieves. On a single-core host this still
    /// exercises the racy paths via preemption; with more cores it runs
    /// truly parallel.
    #[test]
    fn stress_each_task_claimed_exactly_once() {
        const ITEMS: u64 = 40_000;
        const THIEVES: usize = 3;
        let w: Worker<u64> = Worker::new();
        let sum = Arc::new(AtomicU64::new(0));
        let claimed = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicU64::new(0));

        let handles: Vec<_> = (0..THIEVES)
            .map(|_| {
                let s = w.stealer();
                let sum = sum.clone();
                let claimed = claimed.clone();
                let done = done.clone();
                thread::spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            claimed.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) == 1 {
                                break;
                            }
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();

        // Owner interleaves pushes with occasional pops.
        for v in 1..=ITEMS {
            w.push(v);
            if v % 7 == 0 {
                if let Some(x) = w.pop() {
                    sum.fetch_add(x, Ordering::Relaxed);
                    claimed.fetch_add(1, Ordering::Relaxed);
                }
            }
            if v % 1024 == 0 {
                thread::yield_now();
            }
        }
        while let Some(x) = w.pop() {
            sum.fetch_add(x, Ordering::Relaxed);
            claimed.fetch_add(1, Ordering::Relaxed);
        }
        done.store(1, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        // Thieves may drain stragglers between our last pop and `done`.
        assert_eq!(claimed.load(Ordering::SeqCst), ITEMS);
        assert_eq!(sum.load(Ordering::SeqCst), ITEMS * (ITEMS + 1) / 2);
    }

    #[test]
    fn injector_is_fifo() {
        let inj: Injector<u32> = Injector::new();
        assert!(inj.is_empty());
        inj.push(1);
        inj.push(2);
        assert_eq!(inj.len(), 2);
        assert_eq!(inj.pop(), Some(1));
        assert_eq!(inj.pop(), Some(2));
        assert_eq!(inj.pop(), None);
    }

    #[test]
    fn injector_push_front_is_popped_next() {
        let inj: Injector<u32> = Injector::new();
        inj.push(1);
        inj.push(2);
        inj.push_front(3);
        assert_eq!(inj.pop(), Some(3));
        assert_eq!(inj.pop(), Some(1));
        assert_eq!(inj.pop(), Some(2));
    }

    #[test]
    fn depth_gauge_admits_up_to_cap_and_rejects_without_inflating() {
        let g = DepthGauge::new();
        assert_eq!(g.try_acquire(2), Ok(1));
        assert_eq!(g.try_acquire(2), Ok(2));
        // Full: rejected, and the rejection leaves no trace in the gauge.
        assert_eq!(g.try_acquire(2), Err(2));
        assert_eq!(g.depth(), 2);
        g.release(1);
        assert_eq!(g.try_acquire(2), Ok(2));
        g.release(2);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn depth_gauge_is_exact_under_contention() {
        let g = Arc::new(DepthGauge::new());
        let admitted = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                let admitted = Arc::clone(&admitted);
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        if g.try_acquire(64).is_ok() {
                            admitted.fetch_add(1, Ordering::Relaxed);
                            g.release(1);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Every admission was released: the gauge must read exactly zero.
        assert_eq!(g.depth(), 0);
        assert!(admitted.load(Ordering::Relaxed) > 0);
    }
}
