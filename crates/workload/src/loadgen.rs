//! The closed-loop load generator: N virtual clients on one driver.
//!
//! [`ClosedLoop`] is the one sliding-window loop over async calls in the
//! tree: `runner::run` drives it, re-shaping the in-flight window (the
//! "number of virtual clients") every turn by an [`ArrivalCurve`], and so
//! does E15 to find the goodput plateau. All timing comes from the cluster
//! clock (`driver.now_nanos()`), so under `with_virtual_time(seed)` the
//! whole load schedule, including the diurnal sine, is deterministic.
//!
//! The request mix is one seeded [`Case`] stream: feed reads follow a Zipf
//! popularity (feed 0 is the hot head), session validations are
//! uniform, and `write_permille` of requests are writes split across
//! feed posts, user follows, and session touches.

use std::collections::VecDeque;
use std::time::Duration;

use oopp::wire::Wire;
use oopp::{NodeCtx, Pending, RemoteError, RemoteResult};
use simnet::sweep::Case;
use simnet::time::after;

use crate::slo::Ledger;

/// How the closed-loop window (the live virtual clients) evolves over
/// the run.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalCurve {
    /// A constant window of `clients`.
    Steady,
    /// A sine between `trough * clients` and `clients`, starting at
    /// the trough: one full cycle every `period_ms` of virtual time.
    Diurnal { period_ms: u64, trough: f64 },
    /// Steady at `clients`, multiplied by `factor` during
    /// `[at_ms, at_ms + dur_ms)` — the flash-crowd shape.
    Spike {
        at_ms: u64,
        dur_ms: u64,
        factor: f64,
    },
}

impl ArrivalCurve {
    /// The window at `elapsed_nanos` into the run, for a peak of
    /// `clients`. Always at least 1 — a closed loop must keep looping.
    pub fn window_at(&self, elapsed_nanos: u64, clients: usize) -> usize {
        let w = match self {
            ArrivalCurve::Steady => clients as f64,
            ArrivalCurve::Diurnal { period_ms, trough } => {
                let period = (*period_ms as f64) * 1e6;
                let phase = (elapsed_nanos as f64 % period) / period;
                let swell = 0.5 - 0.5 * (2.0 * std::f64::consts::PI * phase).cos();
                clients as f64 * (trough + (1.0 - trough) * swell)
            }
            ArrivalCurve::Spike {
                at_ms,
                dur_ms,
                factor,
            } => {
                // Saturating: a spike too far off to reach never starts,
                // one too long to end never does.
                let at = after(0, Duration::from_millis(*at_ms));
                let until = after(at, Duration::from_millis(*dur_ms));
                if (at..until).contains(&elapsed_nanos) {
                    clients as f64 * factor
                } else {
                    clients as f64
                }
            }
        };
        (w.round() as usize).max(1)
    }
}

/// The two request classes the SLOs are written against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqClass {
    Read,
    Write,
}

impl ReqClass {
    pub fn label(self) -> &'static str {
        match self {
            ReqClass::Read => "read",
            ReqClass::Write => "write",
        }
    }
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a reply.
    Ok,
    /// Shed at admission (or fast-failed on an open breaker).
    Overloaded,
    /// Dropped because its propagated deadline expired.
    DeadlineExpired,
    /// The reply window lapsed through every retry.
    Timeout,
    /// Any other error class.
    Other,
}

impl Outcome {
    pub fn classify<T>(r: &Result<T, RemoteError>) -> Outcome {
        match r {
            Ok(_) => Outcome::Ok,
            Err(RemoteError::Overloaded { .. }) => Outcome::Overloaded,
            Err(RemoteError::DeadlineExceeded { .. }) => Outcome::DeadlineExpired,
            Err(RemoteError::Timeout { .. }) => Outcome::Timeout,
            Err(_) => Outcome::Other,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Overloaded => "overloaded",
            Outcome::DeadlineExpired => "deadline",
            Outcome::Timeout => "timeout",
            Outcome::Other => "other",
        }
    }

    pub fn from_label(s: &str) -> Option<Outcome> {
        Some(match s {
            "ok" => Outcome::Ok,
            "overloaded" => Outcome::Overloaded,
            "deadline" => Outcome::DeadlineExpired,
            "timeout" => Outcome::Timeout,
            "other" => Outcome::Other,
            _ => return None,
        })
    }
}

/// One completed request, as recorded by the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Issue time, nanoseconds on the cluster clock.
    pub issued_nanos: u64,
    /// Completion time (reply or final error), cluster clock.
    pub done_nanos: u64,
    pub class: ReqClass,
    pub outcome: Outcome,
}

impl Observation {
    /// Closed-loop latency in microseconds.
    pub fn lat_us(&self) -> f64 {
        self.done_nanos.saturating_sub(self.issued_nanos) as f64 / 1e3
    }
}

/// The closed loop's state: `total` requests, the calls in flight (oldest
/// first) and the [`Ledger`] they retire into. The caller turns it
/// `while running()`: with room under its current window it makes one call
/// and hands it to [`issue`](Self::issue), otherwise it
/// [`retire`](Self::retire)s the oldest — so a window that shrinks mid-run
/// only retires until the loop is under it again. What runs between two
/// turns (fault episodes, a control beat, a probe) is the caller's.
pub struct ClosedLoop<T> {
    total: usize,
    issued: usize,
    inflight: VecDeque<(Pending<T>, u64, ReqClass)>,
    ledger: Ledger,
}

impl<T: Wire> ClosedLoop<T> {
    /// A loop of `total` requests opening at `t0_nanos` on the cluster clock.
    pub fn new(total: usize, t0_nanos: u64) -> Self {
        ClosedLoop {
            total,
            issued: 0,
            inflight: VecDeque::new(),
            ledger: Ledger::new(t0_nanos),
        }
    }

    /// True until every request is issued and retired.
    pub fn running(&self) -> bool {
        self.issued < self.total || !self.inflight.is_empty()
    }

    /// Whether this turn issues: requests left, fewer than `window` in flight.
    pub fn has_room(&self, window: usize) -> bool {
        self.issued < self.total && self.inflight.len() < window
    }

    /// Count the request made at `at_nanos`. A `call` that went out is in
    /// flight; one that failed at issue (open breaker, local shed) is a
    /// completed observation that waited for nothing.
    pub fn issue(
        &mut self,
        ctx: &NodeCtx,
        class: ReqClass,
        at_nanos: u64,
        call: RemoteResult<Pending<T>>,
    ) {
        self.issued += 1;
        match call {
            Ok(p) => self.inflight.push_back((p, at_nanos, class)),
            Err(e) => self.observe(ctx, at_nanos, class, &Err(e)),
        }
    }

    /// Wait for the oldest call in flight, record how it ended, return it.
    pub fn retire(&mut self, ctx: &mut NodeCtx) -> RemoteResult<T> {
        let (p, at_nanos, class) = self.inflight.pop_front().expect("a call in flight");
        let r = p.wait(ctx);
        self.observe(ctx, at_nanos, class, &r);
        r
    }

    fn observe(&mut self, ctx: &NodeCtx, issued_nanos: u64, class: ReqClass, r: &RemoteResult<T>) {
        self.ledger.record(&Observation {
            issued_nanos,
            done_nanos: ctx.now_nanos(),
            class,
            outcome: Outcome::classify(r),
        });
    }

    /// The ledger of the run, sealed at `t1_nanos`.
    pub fn finish(mut self, t1_nanos: u64) -> Ledger {
        self.ledger.seal(t1_nanos);
        self.ledger
    }
}

/// The seeded request chooser: which verb the next virtual client
/// issues. Pure state machine — the runner owns the actual calls.
pub struct RequestMix {
    zipf: Zipf,
    write_permille: u32,
}

/// What the chooser picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Zipf-popular feed read.
    FeedRead { feed: usize },
    /// Uniform session validation (also a read).
    SessionValidate { session: usize },
    /// Write burst: post to a Zipf-popular feed.
    FeedPost { feed: usize },
    /// Write: gain a follower.
    UserFollow { user: usize },
    /// Write: session activity.
    SessionTouch { session: usize },
}

impl Request {
    pub fn class(self) -> ReqClass {
        match self {
            Request::FeedRead { .. } | Request::SessionValidate { .. } => ReqClass::Read,
            _ => ReqClass::Write,
        }
    }
}

/// A seeded Zipf(s) sampler over ranks `0..n` (rank 0 is the hot head):
/// one [`Case`] stream walked against the cumulative weights
/// `1 / (k + 1)^s`. The same seed draws the same ranks on every host —
/// the schedule every experiment table and `workload` run replays.
/// [`RequestMix`] interleaves its uniform draws with
/// [`sample`](Self::sample) on the same stream.
pub struct Zipf {
    rng: Case,
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(seed: u64, n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        Zipf {
            rng: Case::new(seed),
            cdf,
        }
    }

    /// The next rank.
    pub fn sample(&mut self) -> usize {
        let last = self.cdf.len() - 1;
        let u = self.rng.range(0.0..self.cdf[last]);
        self.cdf.iter().position(|&c| u < c).unwrap_or(last)
    }
}

impl RequestMix {
    pub fn new(seed: u64, feeds: usize, zipf_s: f64, write_permille: u32) -> Self {
        RequestMix {
            zipf: Zipf::new(seed ^ 0x10AD_4E4E, feeds, zipf_s),
            write_permille,
        }
    }

    /// The next request, given the population sizes.
    pub fn next(&mut self, users: usize, sessions: usize) -> Request {
        let rng = &mut self.zipf.rng;
        if rng.below(1000) < self.write_permille as u64 {
            match rng.below(4) {
                // Half the writes land on feeds — the write burst the
                // replica coherence has to absorb.
                0 | 1 => Request::FeedPost {
                    feed: self.zipf.sample(),
                },
                2 => Request::UserFollow {
                    user: rng.below(users as u64) as usize,
                },
                _ => Request::SessionTouch {
                    session: rng.below(sessions as u64) as usize,
                },
            }
        } else if rng.below(10) < 7 {
            // 70% of reads hit feeds (Zipf); 30% validate sessions.
            Request::FeedRead {
                feed: self.zipf.sample(),
            }
        } else {
            Request::SessionValidate {
                session: rng.below(sessions as u64) as usize,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn steady_is_flat_and_diurnal_swings_trough_to_peak() {
        let steady = ArrivalCurve::Steady;
        assert_eq!(steady.window_at(0, 24), 24);
        assert_eq!(steady.window_at(999 * MS, 24), 24);

        let diurnal = ArrivalCurve::Diurnal {
            period_ms: 400,
            trough: 0.5,
        };
        // Starts at the trough, peaks mid-cycle, returns to the trough.
        assert_eq!(diurnal.window_at(0, 24), 12);
        assert_eq!(diurnal.window_at(200 * MS, 24), 24);
        assert_eq!(diurnal.window_at(400 * MS, 24), 12);
        // Quarter cycle sits midway.
        let q = diurnal.window_at(100 * MS, 24);
        assert!((13..=23).contains(&q), "quarter-cycle window {q}");
    }

    #[test]
    fn spike_multiplies_exactly_inside_its_interval() {
        let spike = ArrivalCurve::Spike {
            at_ms: 100,
            dur_ms: 50,
            factor: 3.0,
        };
        assert_eq!(spike.window_at(99 * MS, 10), 10);
        assert_eq!(spike.window_at(100 * MS, 10), 30);
        assert_eq!(spike.window_at(149 * MS, 10), 30);
        assert_eq!(spike.window_at(150 * MS, 10), 10);
    }

    /// Regression: `at_ms * 1_000_000` and `dur_ms * 1_000_000` overflowed
    /// (a panic in a debug build, a wrapped interval in release). Both
    /// saturate now: a spike past the clock's end never starts, and one too
    /// long to end lasts to the end.
    #[test]
    fn a_spike_past_the_clocks_end_saturates() {
        let never = ArrivalCurve::Spike {
            at_ms: u64::MAX,
            dur_ms: 100,
            factor: 3.0,
        };
        for elapsed in [0, 100 * MS, u64::MAX - 1, u64::MAX] {
            assert_eq!(never.window_at(elapsed, 10), 10);
        }
        let endless = ArrivalCurve::Spike {
            at_ms: 1,
            dur_ms: u64::MAX,
            factor: 3.0,
        };
        assert_eq!(endless.window_at(0, 10), 10);
        assert_eq!(endless.window_at(MS, 10), 30);
        assert_eq!(endless.window_at(u64::MAX - 1, 10), 30);
    }

    #[test]
    fn window_never_reaches_zero() {
        let diurnal = ArrivalCurve::Diurnal {
            period_ms: 100,
            trough: 0.0,
        };
        assert_eq!(diurnal.window_at(0, 1), 1);
    }

    #[test]
    fn mix_is_deterministic_and_respects_the_write_fraction() {
        let draw = |seed: u64| -> (Vec<Request>, u64) {
            let mut mix = RequestMix::new(seed, 8, 1.1, 200);
            let reqs: Vec<Request> = (0..2000).map(|_| mix.next(16, 16)).collect();
            let writes = reqs.iter().filter(|r| r.class() == ReqClass::Write).count() as u64;
            (reqs, writes)
        };
        let (a, writes) = draw(7);
        let (b, _) = draw(7);
        assert_eq!(a, b, "same seed must draw the same mix");
        let (c, _) = draw(8);
        assert_ne!(a, c, "different seeds must diverge");
        // 200‰ nominal: allow generous sampling slack.
        assert!((300..=500).contains(&writes), "writes {writes} of 2000");
    }

    /// The loop's contract, on a one-machine virtual cluster: never a call
    /// issued with the window full — a window that shrinks mid-run only
    /// retires until the loop is under it again — calls retired in issue
    /// order, and a ledger that accounts for every request.
    #[test]
    fn closed_loop_keeps_under_its_window_and_retires_in_issue_order() {
        const TOTAL: usize = 48;
        let (cluster, mut driver) = oopp::ClusterBuilder::new(1)
            .sim_config(simnet::ClusterConfig::zero_cost(0).with_virtual_time(7))
            .build();
        let block = oopp::DoubleBlockClient::new_on(&mut driver, 0, TOTAL).unwrap();
        for i in 0..TOTAL {
            block.set(&mut driver, i, i as f64).unwrap();
        }
        let mut load = ClosedLoop::new(TOTAL, driver.now_nanos());
        let (mut retired, mut most_in_flight) = (0usize, 0usize);
        while load.running() {
            // Eight clients for the first half of the issues, then two.
            let window = if load.issued < TOTAL / 2 { 8 } else { 2 };
            if load.has_room(window) {
                assert!(load.inflight.len() < window, "issued with the window full");
                let call = block.get_async(&mut driver, load.issued);
                load.issue(&driver, ReqClass::Read, driver.now_nanos(), call);
                most_in_flight = most_in_flight.max(load.inflight.len());
                continue;
            }
            assert!(load.inflight.len() >= window || load.issued == TOTAL);
            let before = load.inflight.len();
            let oldest = load.retire(&mut driver).unwrap();
            assert_eq!(oldest, retired as f64, "retired out of issue order");
            assert_eq!(load.inflight.len(), before - 1);
            retired += 1;
        }
        assert_eq!((retired, most_in_flight), (TOTAL, 8));
        let ledger = load.finish(driver.now_nanos());
        assert_eq!(ledger.total_issued(), TOTAL as u64);
        assert_eq!((ledger.read.ok, ledger.write.issued), (TOTAL as u64, 0));
        assert_eq!(ledger.t1_nanos, driver.now_nanos());
        cluster.shutdown(driver);
    }

    /// A call that fails at issue never enters the queue: it is one
    /// observation, done the instant it was issued.
    #[test]
    fn closed_loop_records_an_error_at_issue_as_a_zero_wait_observation() {
        let (cluster, driver) = oopp::ClusterBuilder::new(1)
            .sim_config(simnet::ClusterConfig::zero_cost(0).with_virtual_time(7))
            .build();
        let now = driver.now_nanos();
        let mut load = ClosedLoop::<u64>::new(1, now);
        let shed = RemoteError::Disconnected { machine: 0 };
        load.issue(&driver, ReqClass::Write, now, Err(shed));
        assert!(!load.running() && load.inflight.is_empty());
        let ledger = load.finish(driver.now_nanos());
        assert_eq!((ledger.total_issued(), ledger.write.other), (1, 1));
        assert_eq!(
            ledger.to_csv().lines().nth(1),
            Some(format!("{now},{now},write,other").as_str())
        );
        cluster.shutdown(driver);
    }

    /// The first 32 draws of E13's and E12's schedules: the refactoring
    /// oracle for every experiment table that replays a Zipf stream.
    #[test]
    fn zipf_draws_the_experiments_schedules() {
        const E13: [usize; 32] = [
            155, 1418, 267, 70, 25, 302, 575, 498, 4, 429, 535, 140, 361, 141, 2, 103, 15, 60, 11,
            531, 478, 266, 90, 0, 0, 114, 1133, 147, 324, 12, 16, 789,
        ];
        const E12: [usize; 32] = [
            0, 0, 0, 1, 2, 0, 3, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 0, 1, 0, 0, 0,
            2, 1, 0,
        ];
        for (seed, n, s, golden) in [(0xE13_2026, 1600, 0.9, E13), (0xE12_2026, 4, 1.2, E12)] {
            let mut zipf = Zipf::new(seed, n, s);
            let got: Vec<usize> = (0..32).map(|_| zipf.sample()).collect();
            assert_eq!(got, golden, "Zipf({s}) over {n} ranks from seed {seed:#x}");
        }
    }

    #[test]
    fn zipf_head_dominates_feed_reads() {
        let mut mix = RequestMix::new(3, 12, 1.1, 0);
        let mut head = 0u64;
        let mut total = 0u64;
        for _ in 0..4000 {
            if let Request::FeedRead { feed } = mix.next(4, 4) {
                total += 1;
                head += (feed == 0) as u64;
            }
        }
        assert!(
            head * 4 > total,
            "hot feed must take >25% of feed reads ({head}/{total})"
        );
    }
}
