//! Time arithmetic for the cost model, and the real clock's sleep.

use std::time::{Duration, Instant};

/// Sleep until `deadline`; one already in the past returns immediately.
/// Never undershoots (it keeps sleeping until `Instant::now() >= deadline`)
/// and tolerates the OS timer slack as overshoot: whatever sleeps on the
/// real clock is waiting out a timeout or a disk's delay, and every
/// modeled link time is charged on the virtual clock instead.
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep(deadline - now);
    }
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

/// `dur` in clock nanoseconds, saturating: a `Duration` reaches 2^64
/// *seconds*, a clock reading is 2^64 nanoseconds (584 years), and "as
/// long as a `Duration` can say" means "for ever", not a wrapped-around
/// instant in the past.
pub fn nanos(dur: Duration) -> u64 {
    u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX)
}

/// The clock instant `dur` after `now`, saturating at `u64::MAX` ("never").
/// Every deadline in the tree is built here, so none overflows.
pub fn after(now: u64, dur: Duration) -> u64 {
    now.saturating_add(nanos(dur))
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
    fn a_duration_too_long_for_the_clock_saturates() {
        assert_eq!(nanos(Duration::from_micros(3)), 3_000);
        assert_eq!(nanos(Duration::from_nanos(u64::MAX)), u64::MAX);
        assert_eq!(nanos(Duration::MAX), u64::MAX);
        assert_eq!(after(7, Duration::from_nanos(5)), 12);
        assert_eq!(after(7, Duration::from_nanos(u64::MAX - 7)), u64::MAX);
        assert_eq!(after(7, Duration::MAX), u64::MAX);
    }

    #[test]
    fn sleep_until_past_deadline_is_noop() {
        let t0 = Instant::now();
        sleep_until(t0); // already-elapsed deadline
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sleep_until_with_no_spin_never_undershoots() {
        let target = Duration::from_micros(300);
        let t0 = Instant::now();
        sleep_until(t0 + target);
        assert!(t0.elapsed() >= target, "undershot");
    }
}
