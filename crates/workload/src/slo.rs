//! SLO accounting: ledgers, verdicts, error-budget burn, and the
//! flight-recorder distillation.
//!
//! The [`Ledger`] is the client-side truth: every request the closed
//! loop issued, classified read/write, with its closed-loop latency on
//! the cluster clock. The [`ServerAccount`] is the flight recorder's
//! side of the story — sheds, deadline drops, breaker trips, replica
//! hits, promotions, migrations — and is what attributes *why* goodput
//! was lost to the subsystem that lost it. [`Ledger::from_trace`]
//! rebuilds a latency ledger from recorded client spans, which is how
//! the tests cross-check the client-side ledger against the recorder.

use std::collections::HashMap;

use oopp::{EventKind, Trace};

use crate::loadgen::{Observation, Outcome, ReqClass};

crate::config::spec_fields! {
    /// The thresholds `reproduce e16` gates on (the `[slo]` section of a
    /// scenario file).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SloTargets {
        [slo]
        /// Read-class p99 ceiling, milliseconds.
        read_p99_ms: f64 = 8.0;
        /// Read-class goodput floor, fraction of issued requests.
        read_goodput: f64 = 0.95;
        /// Write-class p99 ceiling, milliseconds.
        write_p99_ms: f64 = 12.0;
        /// Write-class goodput floor.
        write_goodput: f64 = 0.90;
    }
}

impl SloTargets {
    pub fn specs(&self) -> Vec<SloSpec> {
        vec![
            SloSpec {
                class: ReqClass::Read,
                p99_ms: self.read_p99_ms,
                goodput: self.read_goodput,
            },
            SloSpec {
                class: ReqClass::Write,
                p99_ms: self.write_p99_ms,
                goodput: self.write_goodput,
            },
        ]
    }
}

/// One request class's objective: p99 ceiling at a goodput floor.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub class: ReqClass,
    pub p99_ms: f64,
    pub goodput: f64,
}

/// One class's tally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassLedger {
    pub issued: u64,
    pub ok: u64,
    pub overloaded: u64,
    pub deadline: u64,
    pub timeout: u64,
    pub other: u64,
    /// Latencies of *completed* requests, microseconds, sorted.
    lat_us: Vec<f64>,
}

impl ClassLedger {
    /// A sealed tally of completed requests alone, from their latencies
    /// in microseconds (any order): for a caller that timed its own
    /// requests and wants the ledger's percentile.
    pub fn of_completed(lat_us: Vec<f64>) -> Self {
        let n = lat_us.len() as u64;
        let mut c = ClassLedger {
            issued: n,
            ok: n,
            lat_us,
            ..ClassLedger::default()
        };
        c.seal();
        c
    }

    fn record(&mut self, outcome: Outcome, lat_us: f64) {
        self.issued += 1;
        match outcome {
            Outcome::Ok => {
                self.ok += 1;
                self.lat_us.push(lat_us);
            }
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::DeadlineExpired => self.deadline += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Other => self.other += 1,
        }
    }

    fn seal(&mut self) {
        self.lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }

    /// `q`-quantile of ok latencies, microseconds (0 when empty).
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.lat_us.is_empty() {
            return 0.0;
        }
        let idx = ((self.lat_us.len() as f64 - 1.0) * q).round() as usize;
        self.lat_us[idx]
    }

    /// Completed fraction of issued (1.0 when nothing was issued, so
    /// an absent class never fails its gate vacuously).
    pub fn goodput(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.ok as f64 / self.issued as f64
        }
    }
}

/// One SLO gate's outcome, phrased for the report table.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub name: String,
    pub target: String,
    pub observed: String,
    pub pass: bool,
}

/// Per-window error-budget burn: how fast the run spent its allowance
/// of failed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnRow {
    /// Window start, ms into the run.
    pub from_ms: u64,
    /// Window end, ms into the run.
    pub to_ms: u64,
    pub class: ReqClass,
    pub issued: u64,
    pub failed: u64,
    /// Failure rate over the failure allowance (1.0 = burning exactly
    /// at budget; >1 = overspending).
    pub burn_rate: f64,
    /// Cumulative fraction of the whole run's budget consumed by the
    /// end of this window.
    pub budget_used: f64,
}

/// The full run ledger: both classes plus the raw observation stream
/// that windowed burn analysis and the CSV interchange need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    pub read: ClassLedger,
    pub write: ClassLedger,
    /// Every observation, in completion order.
    records: Vec<Observation>,
    /// Run span on the cluster clock.
    pub t0_nanos: u64,
    pub t1_nanos: u64,
}

impl Ledger {
    pub fn new(t0_nanos: u64) -> Self {
        Ledger {
            t0_nanos,
            ..Ledger::default()
        }
    }

    pub fn class(&self, c: ReqClass) -> &ClassLedger {
        match c {
            ReqClass::Read => &self.read,
            ReqClass::Write => &self.write,
        }
    }

    fn class_mut(&mut self, c: ReqClass) -> &mut ClassLedger {
        match c {
            ReqClass::Read => &mut self.read,
            ReqClass::Write => &mut self.write,
        }
    }

    pub fn record(&mut self, obs: &Observation) {
        self.class_mut(obs.class).record(obs.outcome, obs.lat_us());
        self.records.push(obs.clone());
    }

    /// Close the ledger: sort latency vectors, stamp the end time.
    pub fn seal(&mut self, t1_nanos: u64) {
        self.read.seal();
        self.write.seal();
        self.t1_nanos = t1_nanos;
    }

    pub fn total_issued(&self) -> u64 {
        self.read.issued + self.write.issued
    }

    /// Judge every SLO; p99 gates skip classes that completed nothing.
    pub fn evaluate(&self, slos: &[SloSpec]) -> Vec<Verdict> {
        let mut out = Vec::new();
        for s in slos {
            let c = self.class(s.class);
            let p99_ms = c.percentile_us(0.99) / 1e3;
            out.push(Verdict {
                name: format!("{} p99", s.class.label()),
                target: format!("<= {:.1} ms", s.p99_ms),
                observed: format!("{p99_ms:.2} ms"),
                pass: c.ok == 0 || p99_ms <= s.p99_ms,
            });
            out.push(Verdict {
                name: format!("{} goodput", s.class.label()),
                target: format!(">= {:.1}%", s.goodput * 100.0),
                observed: format!("{:.2}%", c.goodput() * 100.0),
                pass: c.goodput() >= s.goodput,
            });
        }
        out
    }

    /// Split the run into `windows` equal spans of completion time and
    /// compute each class's burn per window.
    pub fn burn_rows(&self, windows: usize, slos: &[SloSpec]) -> Vec<BurnRow> {
        let span = self.t1_nanos.saturating_sub(self.t0_nanos).max(1);
        let w = windows.max(1) as u64;
        let mut out = Vec::new();
        for s in slos {
            let allowance = (1.0 - s.goodput).max(1e-9);
            let budget_total = allowance * self.class(s.class).issued.max(1) as f64;
            let mut cum_failed = 0u64;
            for i in 0..w {
                let lo = self.t0_nanos + span * i / w;
                let hi = self.t0_nanos + span * (i + 1) / w;
                let (mut issued, mut failed) = (0u64, 0u64);
                for r in &self.records {
                    let at = r.done_nanos;
                    // Last window owns the closing endpoint.
                    let inside = at >= lo && (at < hi || (i == w - 1 && at == hi));
                    if r.class == s.class && inside {
                        issued += 1;
                        failed += (r.outcome != Outcome::Ok) as u64;
                    }
                }
                cum_failed += failed;
                let rate = if issued == 0 {
                    0.0
                } else {
                    (failed as f64 / issued as f64) / allowance
                };
                out.push(BurnRow {
                    from_ms: (lo - self.t0_nanos) / 1_000_000,
                    to_ms: (hi - self.t0_nanos) / 1_000_000,
                    class: s.class,
                    issued,
                    failed,
                    burn_rate: rate,
                    budget_used: cum_failed as f64 / budget_total,
                });
            }
        }
        out
    }

    /// Serialize every observation as CSV — the `workload analyze`
    /// interchange format (latency is derivable from the timestamps).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("issued_nanos,done_nanos,class,outcome\n");
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{}\n",
                r.issued_nanos,
                r.done_nanos,
                r.class.label(),
                r.outcome.label()
            ));
        }
        out
    }

    /// Rebuild a ledger from `to_csv` output.
    pub fn from_csv(text: &str) -> Result<Ledger, String> {
        let mut ledger = Ledger::default();
        let mut t0 = u64::MAX;
        let mut t1 = 0u64;
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let issued_nanos: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("csv line {}: bad issued_nanos", i + 1))?;
            let done_nanos: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("csv line {}: bad done_nanos", i + 1))?;
            let class = match parts.next() {
                Some("read") => ReqClass::Read,
                Some("write") => ReqClass::Write,
                _ => return Err(format!("csv line {}: bad class", i + 1)),
            };
            let outcome = parts
                .next()
                .and_then(Outcome::from_label)
                .ok_or_else(|| format!("csv line {}: bad outcome", i + 1))?;
            ledger.record(&Observation {
                issued_nanos,
                done_nanos,
                class,
                outcome,
            });
            t0 = t0.min(issued_nanos);
            t1 = t1.max(done_nanos);
        }
        ledger.t0_nanos = if t0 == u64::MAX { 0 } else { t0 };
        ledger.seal(t1);
        Ok(ledger)
    }

    /// Rebuild a latency ledger from recorded client spans: the first
    /// `ClientSend` and the `ClientRecv` of each span id, classified
    /// by method name. Spans with no recv (shed, timed out, or lost to
    /// ring wrap) are not counted — the recorder sees completions, the
    /// client-side ledger sees everything.
    pub fn from_trace(trace: &Trace, classify: impl Fn(&str) -> Option<ReqClass>) -> Ledger {
        let mut send: HashMap<u64, u64> = HashMap::new();
        let mut ledger = Ledger::default();
        let mut t0 = u64::MAX;
        let mut t1 = 0u64;
        for e in &trace.events {
            match e.kind {
                EventKind::ClientSend => {
                    send.entry(e.span_id).or_insert(e.at_nanos);
                }
                EventKind::ClientRecv => {
                    let Some(&at_send) = send.get(&e.span_id) else {
                        continue;
                    };
                    let Some(class) = classify(&e.method) else {
                        continue;
                    };
                    ledger.record(&Observation {
                        issued_nanos: at_send,
                        done_nanos: e.at_nanos,
                        class,
                        outcome: Outcome::Ok,
                    });
                    t0 = t0.min(at_send);
                    t1 = t1.max(e.at_nanos);
                }
                _ => {}
            }
        }
        ledger.t0_nanos = if t0 == u64::MAX { 0 } else { t0 };
        ledger.seal(t1);
        ledger
    }
}

/// What the [`ServerAccount`] counts, in report order: a row's label and
/// the flight-recorder event kind whose events it counts.
pub const ACCOUNT_ROWS: [(&str, EventKind); 14] = [
    ("admission sheds", EventKind::ServerShed),
    ("sojourn drops", EventKind::ServerSojournDrop),
    ("deadline drops", EventKind::ServerDeadlineDrop),
    ("breaker opens", EventKind::BreakerOpen),
    ("breaker closes", EventKind::BreakerClose),
    ("client fast-fails", EventKind::ClientFastFail),
    ("replica read hits", EventKind::ReplicaHit),
    ("replica stale refusals", EventKind::ReplicaStale),
    ("replica syncs", EventKind::ReplicaSync),
    ("replica promotions", EventKind::ReplicaPromote),
    ("migrations committed", EventKind::MigrateCommit),
    ("migrations rolled back", EventKind::MigrateRollback),
    ("machines declared dead", EventKind::MachineDeclaredDead),
    ("objects reactivated", EventKind::ObjectReactivated),
];

/// The label of the account's last row: events the recorder lost.
const DROPPED_LABEL: &str = "trace events dropped";

/// The server/fabric side of the run, distilled from the flight
/// recorder: what the overload, replication, placement, and failure
/// machinery actually did while the SLOs were being measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerAccount {
    /// Events of each row of [`ACCOUNT_ROWS`], in its order.
    pub counts: [u64; ACCOUNT_ROWS.len()],
    /// Events lost to ring wrap-around (0 = the account is complete).
    pub dropped_events: u64,
}

impl ServerAccount {
    pub fn from_trace(trace: &Trace) -> ServerAccount {
        ServerAccount {
            counts: ACCOUNT_ROWS.map(|(_, kind)| trace.count(kind) as u64),
            dropped_events: trace.dropped,
        }
    }

    /// `(label, count)` in report order, the dropped events last.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let counted = ACCOUNT_ROWS.iter().zip(self.counts);
        let counted = counted.map(|(&(label, _), n)| (label, n));
        counted.chain([(DROPPED_LABEL, self.dropped_events)])
    }

    /// The account as `label,count` lines: what a run directory keeps of
    /// the recorder for `workload analyze`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("event,count\n");
        for (label, n) in self.rows() {
            out.push_str(&format!("{label},{n}\n"));
        }
        out
    }

    /// Read back [`to_csv`](Self::to_csv), and nothing else.
    pub fn from_csv(text: &str) -> Result<ServerAccount, String> {
        let not_an_account = || "account.csv is not a server account".to_string();
        let counts = text
            .lines()
            .skip(1)
            .map(|line| line.rsplit_once(',')?.1.parse().ok());
        let counts: Vec<u64> = counts.collect::<Option<_>>().ok_or_else(not_an_account)?;
        let (&dropped_events, counts) = counts.split_last().ok_or_else(not_an_account)?;
        let counts = counts.try_into().map_err(|_| not_an_account())?;
        let account = ServerAccount {
            counts,
            dropped_events,
        };
        (account.to_csv() == text)
            .then_some(account)
            .ok_or_else(not_an_account)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use oopp::SpanEvent;

    use super::*;

    fn obs(issued_ms: u64, done_ms: u64, class: ReqClass, outcome: Outcome) -> Observation {
        Observation {
            issued_nanos: issued_ms * 1_000_000,
            done_nanos: done_ms * 1_000_000,
            class,
            outcome,
        }
    }

    fn sample_ledger() -> Ledger {
        let mut ledger = Ledger::new(0);
        // 8 reads: 6 ok at 1..6 ms, one shed, one timeout.
        for i in 1..=6u64 {
            ledger.record(&obs(0, i, ReqClass::Read, Outcome::Ok));
        }
        ledger.record(&obs(1, 2, ReqClass::Read, Outcome::Overloaded));
        ledger.record(&obs(5, 9, ReqClass::Read, Outcome::Timeout));
        // 2 writes, both ok.
        ledger.record(&obs(2, 5, ReqClass::Write, Outcome::Ok));
        ledger.record(&obs(6, 10, ReqClass::Write, Outcome::Ok));
        ledger.seal(10 * 1_000_000);
        ledger
    }

    #[test]
    fn percentiles_goodput_and_verdicts_add_up() {
        let ledger = sample_ledger();
        assert_eq!(ledger.read.issued, 8);
        assert_eq!(ledger.read.ok, 6);
        assert_eq!(ledger.read.overloaded, 1);
        assert_eq!(ledger.read.timeout, 1);
        assert_eq!(ledger.read.percentile_us(0.50), 4_000.0);
        assert_eq!(ledger.read.percentile_us(0.99), 6_000.0);
        assert_eq!(ledger.read.goodput(), 0.75);
        assert_eq!(ledger.write.goodput(), 1.0);
        // The same tally from bare latencies sorts them itself.
        let timed = ClassLedger::of_completed(vec![3e3, 1e3, 2e3]);
        assert_eq!((timed.ok, timed.percentile_us(0.5)), (3, 2e3));
        assert_eq!(timed.percentile_us(1.0), 3e3);
        assert_eq!(ClassLedger::of_completed(vec![]).percentile_us(0.99), 0.0);

        let verdicts = ledger.evaluate(&[
            SloSpec {
                class: ReqClass::Read,
                p99_ms: 6.5,
                goodput: 0.7,
            },
            SloSpec {
                class: ReqClass::Write,
                p99_ms: 1.0, // deliberately unattainable
                goodput: 0.9,
            },
        ]);
        assert_eq!(verdicts.len(), 4);
        assert!(verdicts[0].pass, "read p99 6ms <= 6.5ms");
        assert!(verdicts[1].pass, "read goodput 75% >= 70%");
        assert!(!verdicts[2].pass, "write p99 8ms > 1ms must fail");
        assert!(verdicts[3].pass);
    }

    #[test]
    fn burn_windows_localize_the_bad_minute() {
        let mut ledger = Ledger::new(0);
        // 10 reads in [0,5) ms all ok; 10 reads in [5,10] with 5 failures.
        for i in 0..10u64 {
            ledger.record(&obs(0, i / 2, ReqClass::Read, Outcome::Ok));
        }
        for i in 0..10u64 {
            let outcome = if i < 5 { Outcome::Timeout } else { Outcome::Ok };
            ledger.record(&obs(5, 5 + i / 2, ReqClass::Read, outcome));
        }
        ledger.seal(10 * 1_000_000);
        let slo = [SloSpec {
            class: ReqClass::Read,
            p99_ms: 100.0,
            goodput: 0.75, // 25% failure allowance
        }];
        let rows = ledger.burn_rows(2, &slo);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].failed, 0);
        assert_eq!(rows[0].burn_rate, 0.0);
        assert_eq!(rows[1].issued, 10);
        assert_eq!(rows[1].failed, 5);
        // 50% failure against a 25% allowance: burning 2x budget.
        assert!((rows[1].burn_rate - 2.0).abs() < 1e-9);
        // Whole-run budget: 25% of 20 = 5 failures; all 5 spent.
        assert!((rows[1].budget_used - 1.0).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trips_the_ledger_exactly() {
        let ledger = sample_ledger();
        let back = Ledger::from_csv(&ledger.to_csv()).unwrap();
        assert_eq!(back, ledger);
        assert!(
            Ledger::from_csv("issued_nanos,done_nanos,class,outcome\n1,2,neither,ok\n").is_err()
        );
    }

    fn client_span(span_id: u64, kind: EventKind, at_nanos: u64, method: &str) -> SpanEvent {
        SpanEvent {
            at_nanos,
            kind,
            machine: 0,
            worker: 0,
            peer: 1,
            trace_id: span_id,
            span_id,
            parent_span: 0,
            req_id: span_id,
            attempt: 1,
            bytes: 64,
            method: Arc::from(method),
        }
    }

    #[test]
    fn trace_fed_ledger_matches_recorded_spans() {
        let trace = Trace {
            events: vec![
                client_span(1, EventKind::ClientSend, 1_000_000, "Feed.read_page"),
                client_span(2, EventKind::ClientSend, 2_000_000, "Feed.post"),
                client_span(1, EventKind::ClientRecv, 4_000_000, "Feed.read_page"),
                client_span(2, EventKind::ClientRecv, 7_000_000, "Feed.post"),
                // A span with no recv (shed) must not be counted…
                client_span(3, EventKind::ClientSend, 8_000_000, "Feed.read_page"),
                // …nor one whose method the classifier rejects.
                client_span(4, EventKind::ClientSend, 8_000_000, "Directory.lookup"),
                client_span(4, EventKind::ClientRecv, 9_000_000, "Directory.lookup"),
            ],
            dropped: 0,
        };
        let ledger = Ledger::from_trace(&trace, |m| match m {
            "Feed.read_page" => Some(ReqClass::Read),
            "Feed.post" => Some(ReqClass::Write),
            _ => None,
        });
        assert_eq!(ledger.read.ok, 1);
        assert_eq!(ledger.write.ok, 1);
        assert_eq!(ledger.read.percentile_us(0.99), 3_000.0);
        assert_eq!(ledger.write.percentile_us(0.99), 5_000.0);
        assert_eq!(ledger.t0_nanos, 1_000_000);
        assert_eq!(ledger.t1_nanos, 7_000_000);
    }
}
