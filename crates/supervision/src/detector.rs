//! Phi-accrual failure detection over heartbeat arrivals.
//!
//! A boolean timeout detector answers "is the machine dead?" with a yes/no
//! whose error rate is invisible: pick the timeout too short and a slow
//! fabric produces false positives, too long and real crashes go unnoticed
//! for seconds. The phi-accrual detector (Hayashibara et al., SRDS 2004)
//! answers with a *suspicion level* instead: `phi(t)` is `-log10` of the
//! probability that a heartbeat would still be outstanding at time `t`
//! given the empirical inter-arrival distribution. `phi = 1` means the
//! silence would be this long in ~10% of healthy windows, `phi = 3` in
//! ~0.1%. The thresholds are fixed at those two levels: `phi >= 1`
//! reads [`Verdict::Suspect`], `phi >= 3` reads [`Verdict::Dead`].
//!
//! The implementation is **pure**: time enters only as explicit `Duration`
//! offsets from an origin the caller picks, so unit tests drive the clock
//! without sleeping and a seeded simulation replays bit-identically.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use crate::HEARTBEAT_INTERVAL;

/// Inter-arrival samples kept per machine (the sliding window).
const WINDOW: usize = 64;
/// Suspicion level at which a machine becomes [`Verdict::Suspect`].
const SUSPECT_PHI: f64 = 1.0;
/// Suspicion level at which a machine becomes [`Verdict::Dead`].
const DEAD_PHI: f64 = 3.0;
/// Floor on the interval standard deviation, as a fraction of the mean. A
/// perfectly regular simulated fabric would otherwise drive the std toward
/// zero and make phi explode on the first late beat.
const MIN_STD_FRACTION: f64 = 0.25;

/// Three-state liveness assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Heartbeats arriving within the learned distribution.
    Alive,
    /// Unusually silent (`phi >= 1`): stop trusting, start watching. Not
    /// yet grounds for takeover.
    Suspect,
    /// Silent beyond plausibility (`phi >= 3`).
    Dead,
}

#[derive(Debug, Default)]
struct History {
    /// Offset of the most recent heartbeat from the detector origin.
    last: Option<Duration>,
    /// Recent inter-arrival times, seconds.
    intervals: VecDeque<f64>,
}

/// Suspicion accumulator over a set of machines. The default has no
/// observations yet.
#[derive(Debug, Default)]
pub struct FailureDetector {
    histories: HashMap<usize, History>,
}

impl FailureDetector {
    /// Record a heartbeat from `machine` observed at offset `now`.
    pub fn heartbeat(&mut self, machine: usize, now: Duration) {
        let h = self.histories.entry(machine).or_default();
        if let Some(last) = h.last {
            if now > last {
                if h.intervals.len() >= WINDOW {
                    h.intervals.pop_front();
                }
                h.intervals.push_back((now - last).as_secs_f64());
            }
        }
        h.last = Some(now);
    }

    /// Drop everything known about `machine` — used when a machine
    /// declared dead turns out to be alive (restart or healed partition):
    /// its pre-failure rhythm says nothing about the new incarnation.
    pub fn forget(&mut self, machine: usize) {
        self.histories.remove(&machine);
    }

    /// Suspicion level for `machine` at offset `now`.
    ///
    /// `0.0` until the first heartbeat: a machine that has never spoken
    /// is booting, not dying, and suspecting it would make every cluster
    /// start-up a mass false positive. After the first heartbeat the
    /// supervisor's [`HEARTBEAT_INTERVAL`] serves as the distribution's
    /// prior mean until the first real interval arrives.
    pub fn phi(&self, machine: usize, now: Duration) -> f64 {
        let Some(h) = self.histories.get(&machine) else {
            return 0.0;
        };
        let Some(last) = h.last else { return 0.0 };
        let elapsed = now.saturating_sub(last).as_secs_f64();
        let (mean, std) = if h.intervals.is_empty() {
            let prior = HEARTBEAT_INTERVAL.as_secs_f64();
            (prior, prior * MIN_STD_FRACTION)
        } else {
            let n = h.intervals.len() as f64;
            let mean = h.intervals.iter().sum::<f64>() / n;
            let var = h
                .intervals
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n;
            let floor = mean * MIN_STD_FRACTION;
            (mean, var.sqrt().max(floor).max(1e-9))
        };
        // Tail probability of a normal N(mean, std) at `elapsed`, via the
        // logistic approximation used by production phi detectors: cheap,
        // smooth, and monotone in `elapsed` — which is all a threshold
        // comparison needs.
        let y = (elapsed - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p = if y > 0.0 {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        if p < 1e-300 {
            300.0 // silence beyond f64 tail resolution: saturate
        } else {
            -p.log10()
        }
    }

    /// Threshold [`phi`](FailureDetector::phi) into a [`Verdict`].
    pub fn verdict(&self, machine: usize, now: Duration) -> Verdict {
        let phi = self.phi(machine, now);
        if phi >= DEAD_PHI {
            Verdict::Dead
        } else if phi >= SUSPECT_PHI {
            Verdict::Suspect
        } else {
            Verdict::Alive
        }
    }

    /// Offset of the last heartbeat from `machine`, if any arrived.
    pub fn last_heartbeat(&self, machine: usize) -> Option<Duration> {
        self.histories.get(&machine).and_then(|h| h.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn fed_detector(beats: u64, period: u64) -> FailureDetector {
        let mut d = FailureDetector::default();
        for i in 0..beats {
            d.heartbeat(7, ms(i * period));
        }
        d
    }

    #[test]
    fn silent_from_birth_is_not_suspected() {
        let d = FailureDetector::default();
        assert_eq!(d.phi(3, ms(10_000)), 0.0);
        assert_eq!(d.verdict(3, ms(10_000)), Verdict::Alive);
    }

    #[test]
    fn regular_heartbeats_keep_phi_low() {
        let d = fed_detector(50, 20);
        // Right on schedule: negligible suspicion.
        assert_eq!(d.verdict(7, ms(50 * 20)), Verdict::Alive);
        assert!(d.phi(7, ms(50 * 20)) < 1.0);
    }

    #[test]
    fn suspicion_grows_monotonically_with_silence() {
        let d = fed_detector(50, 20);
        let t0 = 49 * 20;
        let mut prev = 0.0;
        for extra in [10u64, 40, 80, 200, 1000, 10_000] {
            let phi = d.phi(7, ms(t0 + extra));
            assert!(phi >= prev, "phi must not shrink as silence grows");
            prev = phi;
        }
        // A silence 500x the period is beyond any plausible jitter.
        assert_eq!(d.verdict(7, ms(t0 + 10_000)), Verdict::Dead);
    }

    #[test]
    fn suspect_precedes_dead() {
        let d = fed_detector(50, 20);
        let t0 = 49 * 20;
        let mut seen_suspect_before_dead = false;
        let mut died = false;
        for extra in (0..5000).step_by(5) {
            match d.verdict(7, ms(t0 + extra)) {
                Verdict::Alive => assert!(!died),
                Verdict::Suspect => seen_suspect_before_dead = !died,
                Verdict::Dead => died = true,
            }
        }
        assert!(died, "sustained silence must eventually read as dead");
        assert!(seen_suspect_before_dead, "dead must be preceded by suspect");
    }

    #[test]
    fn jittery_fabric_earns_more_patience_than_a_steady_one() {
        let mut steady = FailureDetector::default();
        let mut jittery = FailureDetector::default();
        let mut t_s = 0u64;
        let mut t_j = 0u64;
        for i in 0..60u64 {
            t_s += 20;
            steady.heartbeat(0, ms(t_s));
            // Same mean period, high variance (alternating 5ms / 35ms).
            t_j += if i % 2 == 0 { 5 } else { 35 };
            jittery.heartbeat(0, ms(t_j));
        }
        // After the same absolute silence, the steady stream is more
        // suspicious: its distribution says the beat is overdue.
        let silence = 60;
        assert!(steady.phi(0, ms(t_s + silence)) > jittery.phi(0, ms(t_j + silence)));
    }

    #[test]
    fn forget_resets_suspicion() {
        let mut d = fed_detector(50, 20);
        assert_eq!(d.verdict(7, ms(49 * 20 + 10_000)), Verdict::Dead);
        d.forget(7);
        assert_eq!(d.verdict(7, ms(49 * 20 + 10_000)), Verdict::Alive);
        // And the next heartbeat starts a fresh history.
        d.heartbeat(7, ms(20_000));
        assert_eq!(d.verdict(7, ms(20_010)), Verdict::Alive);
    }

    #[test]
    fn phi_saturates_instead_of_overflowing() {
        let d = fed_detector(50, 20);
        let phi = d.phi(7, Duration::from_secs(3600));
        assert!(phi.is_finite());
        assert!(phi >= 300.0 - f64::EPSILON);
    }

    mod properties {
        use super::*;
        use oopp::simnet::sweep::cases;

        /// Monotonicity is the detector's core contract: more silence never
        /// lowers suspicion, for any heartbeat history.
        #[test]
        fn phi_is_monotone_in_silence() {
            cases("properties::phi_is_monotone_in_silence", 64, |c| {
                let periods = c.vec(2..80, |c| c.range(1u64..200));
                let (probe_a, probe_b) = (c.range(0u64..50_000), c.range(0u64..50_000));
                let mut d = FailureDetector::default();
                let mut t = 0u64;
                for p in &periods {
                    t += p;
                    d.heartbeat(0, ms(t));
                }
                let (lo, hi) = (probe_a.min(probe_b), probe_a.max(probe_b));
                let phi_lo = d.phi(0, ms(t + lo));
                let phi_hi = d.phi(0, ms(t + hi));
                assert!(phi_hi >= phi_lo - 1e-12);
                assert!(phi_lo.is_finite() && phi_hi.is_finite());
            });
        }

        /// Verdicts escalate in threshold order: every phi reads the
        /// verdict its band of the two thresholds names.
        #[test]
        fn verdict_ordering_respects_thresholds() {
            cases(
                "properties::verdict_ordering_respects_thresholds",
                64,
                |c| {
                    let probe = c.range(0u64..30_000);
                    let mut d = FailureDetector::default();
                    for i in 0..40u64 {
                        d.heartbeat(0, ms(i * 20));
                    }
                    let now = ms(39 * 20 + probe);
                    let phi = d.phi(0, now);
                    match d.verdict(0, now) {
                        Verdict::Dead => assert!(phi >= DEAD_PHI),
                        Verdict::Suspect => assert!((SUSPECT_PHI..DEAD_PHI).contains(&phi)),
                        Verdict::Alive => assert!(phi < SUSPECT_PHI),
                    }
                },
            );
        }
    }
}
