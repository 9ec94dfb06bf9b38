//! The channel contract every real-time handoff rests on: the machine
//! inboxes, the worker lanes and `Clock::recv_until` on the real clock all
//! block in `crossbeam::channel`, which is the workspace's own inbox. Each
//! test names one rule and fails on a channel that breaks it. Upper bounds
//! on wall-clock time are only there to turn a hang (a lost wakeup) into a
//! failure, so they are generous.

use crossbeam::channel::{unbounded, RecvError, RecvTimeoutError, SendError, TryRecvError};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Run `f` on its own thread and fail if it has not finished within
/// `bound`. The watchdog is `std`'s channel, not the one under test.
fn within<R: Send + 'static>(
    bound: Duration,
    what: &str,
    f: impl FnOnce() -> R + Send + 'static,
) -> R {
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    match done_rx.recv_timeout(bound) {
        Ok(r) => r,
        Err(e) => panic!("{what}: not done within {bound:?} ({e:?}): a lost wakeup?"),
    }
}

#[test]
fn every_message_arrives_once_in_each_senders_order() {
    const PRODUCERS: usize = 4;
    const PER: u32 = 20_000;
    let (tx, rx) = unbounded::<(usize, u32)>();
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            thread::spawn(move || {
                for i in 0..PER {
                    tx.send((p, i)).unwrap();
                }
            })
        })
        .collect();
    drop(tx);
    let next = within(Duration::from_secs(60), "4 x 20 000 messages", move || {
        let mut next = [0u32; PRODUCERS];
        for (p, i) in rx.iter() {
            assert_eq!(i, next[p], "producer {p}: got {i}, expected {}", next[p]);
            next[p] += 1;
        }
        next
    });
    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(next, [PER; PRODUCERS], "a message was lost or duplicated");
}

#[test]
fn send_after_the_receiver_is_dropped_returns_the_message() {
    let (tx, rx) = unbounded::<String>();
    drop(rx);
    assert_eq!(
        tx.send("kept".to_string()),
        Err(SendError("kept".to_string()))
    );
}

#[test]
fn dropping_the_receiver_drops_what_is_queued() {
    let live = Arc::new(AtomicUsize::new(0));
    struct Counted(Arc<AtomicUsize>);
    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let (tx, rx) = unbounded();
    for _ in 0..5 {
        live.fetch_add(1, Ordering::SeqCst);
        tx.send(Counted(Arc::clone(&live))).unwrap();
    }
    assert_eq!(live.load(Ordering::SeqCst), 5);
    // The sender stays alive: the receiver's drop alone must free them.
    drop(rx);
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "queued messages outlived the receiver"
    );
    drop(tx);
}

#[test]
fn recv_drains_the_queue_before_reporting_disconnect() {
    let (tx, rx) = unbounded();
    let tx2 = tx.clone();
    tx.send(1).unwrap();
    tx2.send(2).unwrap();
    drop(tx);
    drop(tx2);
    assert_eq!(rx.recv(), Ok(1));
    assert_eq!(rx.try_recv(), Ok(2));
    assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    assert_eq!(rx.recv(), Err(RecvError));
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(1)),
        Err(RecvTimeoutError::Disconnected)
    );
}

#[test]
fn a_parked_receiver_wakes_when_the_last_sender_drops() {
    let (tx, rx) = unbounded::<u8>();
    let tx2 = tx.clone();
    let dropper = thread::spawn(move || {
        thread::sleep(Duration::from_millis(50));
        drop(tx);
        thread::sleep(Duration::from_millis(20));
        drop(tx2);
    });
    let got = within(Duration::from_secs(10), "wake on disconnect", move || {
        rx.recv()
    });
    assert_eq!(got, Err(RecvError));
    dropper.join().unwrap();
}

#[test]
fn recv_deadline_returns_what_is_queued_and_never_times_out_early() {
    let (tx, rx) = unbounded();
    tx.send(7).unwrap();
    let past = Instant::now() - Duration::from_millis(1);
    assert_eq!(
        rx.recv_deadline(past),
        Ok(7),
        "a queued message is returned after the deadline"
    );
    assert_eq!(rx.recv_deadline(past), Err(RecvTimeoutError::Timeout));
    let deadline = Instant::now() + Duration::from_millis(30);
    assert_eq!(rx.recv_deadline(deadline), Err(RecvTimeoutError::Timeout));
    assert!(Instant::now() >= deadline, "timed out before the deadline");
    drop(tx);
}

#[test]
fn recv_timeout_of_duration_max_waits_for_the_message() {
    let (tx, rx) = unbounded();
    let sender = thread::spawn(move || {
        thread::sleep(Duration::from_millis(10));
        tx.send(42u32).unwrap();
        tx
    });
    let got = within(Duration::from_secs(10), "recv_timeout(MAX)", move || {
        rx.recv_timeout(Duration::MAX)
    });
    assert_eq!(got, Ok(42));
    drop(sender.join().unwrap());
}

/// Four pairs of threads bounce a message 25 000 times each, 100 000
/// round trips in all, so every receiver parks and is woken over and over,
/// and with more threads than CPUs one is often preempted between its
/// empty check and its park. A wakeup lost once hangs its pair. The bound
/// is on a stall, not on the whole run: beside CPU-bound threads each
/// receive's yield can cost a scheduler slice (DESIGN §12.1), so the run
/// may be slow, but no round trip takes 10 s. CI also runs it pinned to
/// one CPU, the case the receive's single yield is for.
#[test]
fn ping_pong_never_loses_a_wakeup() {
    const PAIRS: u32 = 4;
    const ROUNDS: u32 = 25_000;
    const STALL: Duration = Duration::from_secs(10);
    let rounds = Arc::new(AtomicU32::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    for _ in 0..PAIRS {
        let (ping_tx, ping_rx) = unbounded::<u32>();
        let (pong_tx, pong_rx) = unbounded::<u32>();
        thread::spawn(move || {
            for n in ping_rx.iter() {
                pong_tx.send(n + 1).unwrap();
            }
        });
        let (rounds, done_tx) = (Arc::clone(&rounds), done_tx.clone());
        thread::spawn(move || {
            let mut n = 0;
            for _ in 0..ROUNDS {
                ping_tx.send(n).unwrap();
                n = pong_rx.recv().unwrap();
                rounds.fetch_add(1, Ordering::Relaxed);
            }
            let _ = done_tx.send(n);
        });
    }
    drop(done_tx);
    let (mut finished, mut seen) = (0, 0);
    while finished < PAIRS {
        match done_rx.recv_timeout(STALL) {
            Ok(n) => {
                assert_eq!(n, ROUNDS);
                finished += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let now = rounds.load(Ordering::Relaxed);
                assert!(
                    now > seen,
                    "no round trip for {STALL:?} after {now}: a lost wakeup"
                );
                seen = now;
            }
            Err(e) => panic!("a pinging thread died: {e:?}"),
        }
    }
    assert_eq!(rounds.load(Ordering::Relaxed), PAIRS * ROUNDS);
}
