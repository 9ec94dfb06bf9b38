//! Call reliability policy: timeout, retries, backoff.
//!
//! The paper's sequential RMI semantics say nothing about lost messages —
//! on a faulty fabric (see `simnet::FaultPlan`) a request or its response
//! can vanish, and the caller's only recourse is to resend. A [`CallPolicy`]
//! makes that recourse explicit: each attempt gets a reply window of
//! `timeout`; when it lapses the caller waits out a [`Backoff`] delay
//! (still serving incoming requests — the progress engine never stalls)
//! and retransmits the *same* frame, same `req_id`. The server side holds
//! up the other half of the contract: a dedup window keyed on
//! `(reply_to, req_id)` ensures retransmitted requests are executed at
//! most once (see the `dedup` module).

use std::time::Duration;

/// Delay schedule between retransmissions.
///
/// Retry `n` (1-based) sleeps `initial * factor^(n-1)`, capped at `cap`.
/// The schedule is a pure function of `n` — no jitter — so a run under a
/// seeded fault plan is byte-identical on replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retransmission.
    pub initial: Duration,
    /// Multiplier applied per subsequent retry (>= 1.0).
    pub factor: f64,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Backoff {
    /// The same delay before every retransmission.
    pub const fn fixed(delay: Duration) -> Self {
        Backoff {
            initial: delay,
            factor: 1.0,
            cap: delay,
        }
    }

    /// Exponential schedule: `initial, initial*factor, ...` capped at `cap`.
    ///
    /// `factor` is clamped to `>= 1.0`: a shrinking or negative multiplier
    /// would make the schedule non-monotone (and a negative one would drive
    /// the computed delay below zero, which `Duration` cannot represent).
    /// NaN also clamps to `1.0`.
    pub const fn exponential(initial: Duration, factor: f64, cap: Duration) -> Self {
        Backoff {
            initial,
            factor: Self::clamp_factor(factor),
            cap,
        }
    }

    /// `factor >= 1.0`, with NaN mapped to `1.0`. (`f64::max` keeps the
    /// non-NaN operand, but spell the comparison out so the NaN case is
    /// visible: `NaN >= 1.0` is false.)
    const fn clamp_factor(factor: f64) -> f64 {
        if factor >= 1.0 {
            factor
        } else {
            1.0
        }
    }

    /// Delay before retry `retry` (1-based). `delay(0)` is defined as zero:
    /// the first attempt is never delayed.
    ///
    /// Total for every input: the fields are public, so a hand-built
    /// `Backoff` can carry a junk factor the constructors would have
    /// clamped — re-clamp here rather than let a negative or NaN product
    /// reach `Duration::from_secs_f64`, which panics on both.
    pub fn delay(&self, retry: u32) -> Duration {
        if retry == 0 {
            return Duration::ZERO;
        }
        let factor = Self::clamp_factor(self.factor);
        // retry can exceed i32::MAX; saturate the exponent instead of
        // letting `as i32` wrap negative (which would shrink the delay).
        let exp = (retry - 1).min(i32::MAX as u32) as i32;
        let scale = factor.powi(exp);
        let secs = self.initial.as_secs_f64() * scale;
        if !secs.is_finite() || secs >= self.cap.as_secs_f64() {
            // Overflow to +inf, 0 * inf = NaN, or simply past the ceiling.
            // Return `cap` itself rather than round-tripping it through f64:
            // `as_secs_f64` rounds up near `Duration::MAX`, and feeding the
            // rounded value back to `from_secs_f64` panics on overflow.
            return self.cap;
        }
        Duration::from_secs_f64(secs).min(self.cap)
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::exponential(Duration::from_millis(10), 2.0, Duration::from_millis(200))
    }
}

/// Circuit-breaker configuration for outbound calls (DESIGN.md §15).
///
/// The breaker is per-destination-machine state on the *calling* node:
/// `failure_threshold` consecutive overload-class failures (timeouts,
/// `Overloaded` rejections, disconnects, deadline expiries) trip it open;
/// while open, calls to that machine fail fast with
/// [`Overloaded`](crate::RemoteError::Overloaded) (`queue_depth == 0`)
/// without touching the network. After `cooldown` (measured on the cluster
/// clock, so virtual-time replay is deterministic) the breaker goes
/// half-open and admits a single trial call; success closes it, failure
/// re-opens it for another cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open trial.
    pub cooldown: Duration,
}

/// Millitokens a first attempt deposits in its destination's retry bucket
/// when [`CallPolicy::retry_budget`] is on (DESIGN.md §15). Every
/// retransmission spends 1000; when the bucket cannot cover one the retry
/// is suppressed and the call surfaces its timeout at once, so sustained
/// retry volume is capped at ~10% of call volume.
pub(crate) const RETRY_DEPOSIT_MILLITOKENS: u64 = 100;

/// Capacity of a destination's retry bucket: bounds the burst of retries
/// after an idle period to ten.
pub(crate) const RETRY_BUCKET_MILLITOKENS: u64 = 10_000;

/// Backoff hint stamped into server-side
/// [`Overloaded`](crate::RemoteError::Overloaded) rejections
/// (`retry_after_nanos`): 1 ms.
pub(crate) const RETRY_AFTER_NANOS: u64 = 1_000_000;

/// Server-side admission-control knobs (DESIGN.md §15), set cluster-wide
/// via `ClusterBuilder::overload`. The defaults are deliberately generous
/// — tier-1 workloads never hit them — so classic behavior is preserved
/// unless a deployment opts into tighter budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Per-object mailbox cap: a request that would make the target's
    /// mailbox longer than this is rejected at admission with
    /// [`Overloaded`](crate::RemoteError::Overloaded) (never queued).
    pub mailbox_cap: usize,
    /// Per-machine budget on admitted-but-unexecuted requests, summed
    /// across all objects. The cheap machine-wide backstop when load is
    /// spread over many objects.
    pub inflight_cap: usize,
    /// CoDel-style sojourn target: admitted work whose queue wait exceeds
    /// this is shed at execution time instead of running late.
    /// `Duration::ZERO` (the default) disables sojourn shedding.
    pub sojourn_target: Duration,
}

impl OverloadConfig {
    /// Generous defaults: 4096-deep mailboxes, 65 536 in-flight, sojourn
    /// shedding off.
    pub const fn new() -> Self {
        OverloadConfig {
            mailbox_cap: 4096,
            inflight_cap: 65_536,
            sojourn_target: Duration::ZERO,
        }
    }
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::new()
    }
}

/// Reliability contract for outbound calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPolicy {
    /// Reply window per attempt.
    pub timeout: Duration,
    /// Retransmissions after the first attempt (0 = classic single-shot,
    /// fixed when the call is sent; see [`CallPolicy::no_retry`]).
    pub max_retries: u32,
    /// Delay schedule between attempts.
    pub backoff: Backoff,
    /// End-to-end deadline budget, stamped on the request frame as an
    /// absolute cluster-clock time and propagated (decremented) across
    /// nested hops. `Duration::ZERO` (the default) means "no deadline" —
    /// the classic contract, byte-identical on the wire. Nested calls made
    /// while serving a deadlined request inherit the *remaining* budget if
    /// it is tighter than their own policy's.
    pub deadline: Duration,
    /// Per-destination circuit breaker; `None` (the default) disables it.
    pub breaker: Option<BreakerConfig>,
    /// Token-bucket retry budget: each first attempt deposits
    /// 0.1 retry in its destination's bucket (capped at 10) and each
    /// retransmission spends one. `false` (the default) disables it.
    pub retry_budget: bool,
    /// Exempt this call from circuit breakers. Set by
    /// [`CallPolicy::probe`]: supervision probes *are* the evidence that
    /// decides whether a machine is dead — a breaker that swallows them
    /// would turn every brownout into a conviction.
    pub breaker_exempt: bool,
}

impl CallPolicy {
    /// Single-shot semantics: one attempt, fail with
    /// [`Timeout`](crate::RemoteError::Timeout) when the window lapses.
    /// This is the default, and exactly the pre-fault-injection behavior.
    /// Zero retries is fixed when a call is sent: its frame tells the server
    /// it will never be retransmitted (so the server keeps no heavy reply
    /// for a replay, DESIGN.md §6), and a later
    /// [`set_call_policy`](crate::NodeCtx::set_call_policy) that raises the
    /// budget before the wait does not make it retransmit.
    pub const fn no_retry(timeout: Duration) -> Self {
        CallPolicy {
            timeout,
            max_retries: 0,
            backoff: Backoff::fixed(Duration::ZERO),
            deadline: Duration::ZERO,
            breaker: None,
            retry_budget: false,
            breaker_exempt: false,
        }
    }

    /// A policy suited to lossy fabrics: per-attempt window `timeout`,
    /// four retransmissions, default exponential backoff.
    pub fn reliable(timeout: Duration) -> Self {
        CallPolicy {
            max_retries: 4,
            backoff: Backoff::default(),
            ..CallPolicy::no_retry(timeout)
        }
    }

    /// Override the retry budget (builder style).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Override the backoff schedule (builder style).
    pub fn with_backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Raise the retry budget to at least `retries`, keeping everything
    /// else. Control-plane sequences that must survive a lossy fabric —
    /// migration's quiesce/transfer/commit RMIs — use this to guarantee a
    /// retransmission floor even under a caller's single-shot policy.
    pub fn with_min_retries(mut self, retries: u32) -> Self {
        self.max_retries = self.max_retries.max(retries);
        self
    }

    /// Set the end-to-end deadline budget (builder style).
    /// `Duration::ZERO` clears it.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Enable the per-destination circuit breaker (builder style).
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Enable the token-bucket retry budget (builder style).
    pub fn with_retry_budget(mut self) -> Self {
        self.retry_budget = true;
        self
    }

    /// A probe policy: one attempt, short window, no backoff. Liveness
    /// checks against possibly-dead machines (supervision pings, the
    /// supervisor's bookkeeping calls) must fail *fast* — a probe that
    /// inherits a chaos-hardened retry budget turns every dead-machine
    /// touch into seconds of retransmission. Derived from the per-attempt
    /// window so cost scales with the caller's latency expectations.
    /// Probes are also **breaker-exempt**: the probe result is the
    /// evidence that opens or closes the breaker and convicts or acquits
    /// the machine — gating it on the breaker would be circular.
    pub fn probe(timeout: Duration) -> Self {
        CallPolicy {
            breaker_exempt: true,
            ..CallPolicy::no_retry(timeout)
        }
    }
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy::no_retry(crate::node::DEFAULT_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_backoff_sequence_is_deterministic() {
        let b = Backoff::exponential(Duration::from_millis(10), 2.0, Duration::from_millis(200));
        let seq: Vec<u64> = (1..=7).map(|n| b.delay(n).as_millis() as u64).collect();
        assert_eq!(seq, vec![10, 20, 40, 80, 160, 200, 200]);
        // Re-evaluating gives the identical sequence: no hidden state.
        let again: Vec<u64> = (1..=7).map(|n| b.delay(n).as_millis() as u64).collect();
        assert_eq!(seq, again);
    }

    #[test]
    fn fixed_backoff_never_grows() {
        let b = Backoff::fixed(Duration::from_millis(25));
        for n in 1..10 {
            assert_eq!(b.delay(n), Duration::from_millis(25));
        }
    }

    #[test]
    fn attempt_zero_is_never_delayed() {
        assert_eq!(Backoff::default().delay(0), Duration::ZERO);
    }

    #[test]
    fn cap_bounds_every_delay() {
        let b = Backoff::exponential(Duration::from_millis(1), 10.0, Duration::from_millis(50));
        assert_eq!(b.delay(1), Duration::from_millis(1));
        assert_eq!(b.delay(2), Duration::from_millis(10));
        assert_eq!(b.delay(3), Duration::from_millis(50)); // 100 capped
        assert_eq!(b.delay(30), Duration::from_millis(50)); // overflow-safe
    }

    #[test]
    fn constructor_clamps_shrinking_and_junk_factors() {
        // Anything below 1.0 — including negatives and NaN — clamps to 1.0,
        // i.e. degrades to a fixed schedule instead of a shrinking (or
        // panicking) one.
        for junk in [0.5, 0.0, -3.0, f64::NEG_INFINITY, f64::NAN] {
            let b =
                Backoff::exponential(Duration::from_millis(10), junk, Duration::from_millis(200));
            assert_eq!(b.factor, 1.0);
            assert_eq!(b.delay(5), Duration::from_millis(10));
        }
        // Legitimate factors pass through untouched.
        assert_eq!(
            Backoff::exponential(Duration::from_millis(1), 3.0, Duration::from_secs(1)).factor,
            3.0
        );
    }

    #[test]
    fn delay_is_total_for_hand_built_backoff() {
        // Fields are public: `delay` must not panic even when the factor
        // bypassed the constructor clamp.
        let b = Backoff {
            initial: Duration::from_millis(10),
            factor: -2.0,
            cap: Duration::from_millis(100),
        };
        for n in 0..10 {
            assert!(b.delay(n) <= b.cap);
        }
        // NaN factor, zero initial with infinite scale, huge retry counts.
        let weird = Backoff {
            initial: Duration::ZERO,
            factor: f64::INFINITY,
            cap: Duration::from_millis(50),
        };
        assert!(weird.delay(3) <= weird.cap);
        assert!(weird.delay(u32::MAX) <= weird.cap);
        let near_max = Backoff {
            initial: Duration::from_secs(1),
            factor: 10.0,
            cap: Duration::MAX,
        };
        let _ = near_max.delay(u32::MAX); // must not panic on f64 rounding
    }

    #[test]
    fn no_retry_matches_classic_semantics() {
        let p = CallPolicy::no_retry(Duration::from_secs(30));
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.timeout, Duration::from_secs(30));
    }

    #[test]
    fn min_retries_is_a_floor_not_an_override() {
        let single = CallPolicy::no_retry(Duration::from_millis(100));
        assert_eq!(single.with_min_retries(3).max_retries, 3);
        let generous = CallPolicy::reliable(Duration::from_millis(100)).with_max_retries(8);
        assert_eq!(generous.with_min_retries(3).max_retries, 8);
    }

    #[test]
    fn probe_is_single_shot_and_cheap() {
        let p = CallPolicy::probe(Duration::from_millis(40));
        assert_eq!(p.max_retries, 0);
        assert_eq!(p.timeout, Duration::from_millis(40));
        // No hidden backoff: a probe that fails, fails now.
        assert_eq!(p.backoff.delay(1), Duration::ZERO);
        // Probes bypass circuit breakers — they are the breaker's evidence.
        assert!(p.breaker_exempt);
    }

    #[test]
    fn overload_knobs_default_off_and_compose() {
        let p = CallPolicy::default();
        assert_eq!(p.deadline, Duration::ZERO);
        assert!(p.breaker.is_none());
        assert!(!p.retry_budget);
        assert!(!p.breaker_exempt);

        let p = CallPolicy::reliable(Duration::from_millis(100))
            .with_deadline(Duration::from_millis(250))
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(50),
            })
            .with_retry_budget();
        assert_eq!(p.deadline, Duration::from_millis(250));
        assert_eq!(p.breaker.unwrap().failure_threshold, 3);
        assert!(p.retry_budget);
        // The overload knobs ride along without disturbing retry basics.
        assert_eq!(p.max_retries, 4);
    }

    #[test]
    fn reliable_policy_retries() {
        let p = CallPolicy::reliable(Duration::from_millis(100))
            .with_max_retries(7)
            .with_backoff(Backoff::fixed(Duration::from_millis(5)));
        assert_eq!(p.max_retries, 7);
        assert_eq!(p.backoff.delay(3), Duration::from_millis(5));
    }

    mod properties {
        use super::*;
        use simnet::sweep::cases;

        /// The schedule contract, for *any* bit pattern in `factor` (NaN,
        /// infinities, negatives included): `delay` is total (never
        /// panics), non-decreasing in the retry number, and never exceeds
        /// `cap`.
        #[test]
        fn delay_is_total_monotone_and_capped() {
            cases("properties::delay_is_total_monotone_and_capped", 64, |c| {
                let b = Backoff {
                    initial: Duration::from_nanos(c.range(0u64..5_000_000_000)),
                    factor: c.any_f64(),
                    cap: Duration::from_nanos(c.range(0u64..5_000_000_000)),
                };
                // Total, including extreme retry counts.
                let _ = b.delay(0);
                let _ = b.delay(u32::MAX);
                // Capped and monotone over a representative prefix.
                let mut prev = Duration::ZERO;
                for n in 1..64u32 {
                    let d = b.delay(n);
                    assert!(d <= b.cap);
                    assert!(d >= prev);
                    prev = d;
                }
            });
        }

        /// Constructor clamping means the constructed schedule always
        /// starts at `min(initial, cap)` — a shrinking factor can't push
        /// later delays below the first.
        #[test]
        fn constructed_schedule_floor_is_first_delay() {
            cases(
                "properties::constructed_schedule_floor_is_first_delay",
                64,
                |c| {
                    let initial = Duration::from_nanos(c.range(0u64..1_000_000_000));
                    let factor = c.any_f64();
                    let cap = Duration::from_nanos(c.range(0u64..1_000_000_000));
                    let b = Backoff::exponential(initial, factor, cap);
                    let first = b.delay(1);
                    for n in 2..32u32 {
                        assert!(b.delay(n) >= first);
                    }
                },
            );
        }
    }
}
