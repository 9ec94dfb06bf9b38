//! Time arithmetic and precise sleeping for the cost model.
//!
//! The network and disk models charge microsecond-scale delays. A bare
//! `thread::sleep` has ~50µs–1ms of jitter depending on the OS timer slack,
//! which would swamp the quantities the benchmarks measure, so
//! [`sleep_until`] can end a coarse sleep with a short spin tail.

use std::time::{Duration, Instant};

/// Spin tail length: sleep coarsely until this close to the deadline, then
/// spin. 120µs covers typical Linux timer slack without burning real CPU.
const SPIN_TAIL: Duration = Duration::from_micros(120);

/// Sleep until `deadline`, spinning the final `SPIN_TAIL` only if `spin`.
/// Deadlines already in the past return immediately.
///
/// Without the spin tail the sleep still never *undershoots* (it keeps
/// sleeping until `Instant::now() >= deadline`), it just tolerates the OS
/// timer slack as overshoot — the right trade when nothing in the cluster
/// is costed and a sleeper is only waiting out a timeout.
pub fn sleep_until(deadline: Instant, spin: bool) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if !spin {
            std::thread::sleep(remaining);
        } else if remaining > SPIN_TAIL {
            std::thread::sleep(remaining - SPIN_TAIL);
        } else {
            // Short tail: spin. `spin_loop` hints the CPU to relax.
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            return;
        }
    }
}

/// Sleep for `dur` with sub-timer-slack precision: host-side work of a
/// modeled length, outside any cluster clock.
pub fn precise_sleep(dur: Duration) {
    sleep_until(Instant::now() + dur, true);
}

/// Time to push `bytes` through a link or device of `bytes_per_sec`.
///
/// An infinite (or non-positive — treated as "uncosted") rate yields zero.
pub fn transfer_time(bytes: usize, bytes_per_sec: f64) -> Duration {
    if bytes == 0 || !bytes_per_sec.is_finite() || bytes_per_sec <= 0.0 {
        return Duration::ZERO;
    }
    Duration::from_secs_f64(bytes as f64 / bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_linear_in_bytes() {
        let bw = 1_000_000.0; // 1 MB/s
        assert_eq!(transfer_time(0, bw), Duration::ZERO);
        assert_eq!(transfer_time(1_000_000, bw), Duration::from_secs(1));
        assert_eq!(transfer_time(500_000, bw), Duration::from_millis(500));
    }

    #[test]
    fn infinite_bandwidth_is_free() {
        assert_eq!(transfer_time(1 << 30, f64::INFINITY), Duration::ZERO);
        assert_eq!(transfer_time(1 << 30, 0.0), Duration::ZERO);
        assert_eq!(transfer_time(1 << 30, -5.0), Duration::ZERO);
    }

    #[test]
    fn precise_sleep_zero_returns_immediately() {
        let t0 = Instant::now();
        precise_sleep(Duration::ZERO);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn precise_sleep_hits_target_within_tolerance() {
        // Only the lower bound is the sleep's to keep: how late a busy
        // host wakes the thread is not.
        let target = Duration::from_micros(300);
        let t0 = Instant::now();
        precise_sleep(target);
        let elapsed = t0.elapsed();
        assert!(elapsed >= target, "slept {elapsed:?} < {target:?}");
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let t0 = Instant::now();
        sleep_until(t0, true); // already-elapsed deadline
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sleep_until_with_no_spin_never_undershoots() {
        let target = Duration::from_micros(300);
        let t0 = Instant::now();
        sleep_until(t0 + target, false);
        assert!(t0.elapsed() >= target, "undershot without spin tail");
    }
}
