//! Rendering and the run-directory round trip.
//!
//! `workload run` writes a run directory — `scenario.toml` (the exact
//! spec), `report.txt` (the rendered tables + verdicts), `ledger.csv`
//! (every observation), and `trace.json` (the Perfetto/Chrome trace) —
//! and `workload analyze` recomputes the report from the directory
//! alone, so a run can be judged (or re-judged against new SLOs) long
//! after the cluster is gone.

use std::fs;
use std::io;
use std::path::Path;

use crate::config::ScenarioSpec;
use crate::slo::{BurnRow, Ledger, ServerAccount, Verdict};

/// A plain aligned-column table (right-aligned cells, dashed rule under
/// the header): the one renderer behind every `workload` report section
/// and every `reproduce` experiment table (`bench::Table` is this type).
#[derive(Debug, Clone, PartialEq)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let gaps = 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + gaps));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// The full judged output of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Titled sections in render order.
    pub sections: Vec<(String, TextTable)>,
    pub verdicts: Vec<Verdict>,
}

impl RunReport {
    /// All SLO gates green?
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.pass)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (title, table) in &self.sections {
            out.push_str(&format!("== {title} ==\n"));
            out.push_str(&table.render());
            out.push('\n');
        }
        out.push_str("== SLO verdicts ==\n");
        out.push_str(&verdict_table(&self.verdicts).render());
        out.push_str(&format!(
            "\nSLO: {}\n",
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// The SLO verdict table.
pub fn verdict_table(verdicts: &[Verdict]) -> TextTable {
    let mut t = TextTable::new(&["objective", "target", "observed", "verdict"]);
    for v in verdicts {
        t.row(&[
            v.name.clone(),
            v.target.clone(),
            v.observed.clone(),
            if v.pass { "pass" } else { "FAIL" }.into(),
        ]);
    }
    t
}

/// The per-class latency/goodput table.
pub fn ledger_table(ledger: &Ledger) -> TextTable {
    let mut t = TextTable::new(&[
        "class",
        "issued",
        "ok",
        "overloaded",
        "deadline",
        "timeout",
        "other",
        "goodput",
        "p50 ms",
        "p90 ms",
        "p99 ms",
    ]);
    for class in [crate::ReqClass::Read, crate::ReqClass::Write] {
        let c = ledger.class(class);
        t.row(&[
            class.label().into(),
            c.issued.to_string(),
            c.ok.to_string(),
            c.overloaded.to_string(),
            c.deadline.to_string(),
            c.timeout.to_string(),
            c.other.to_string(),
            format!("{:.2}%", c.goodput() * 100.0),
            format!("{:.2}", c.percentile_us(0.50) / 1e3),
            format!("{:.2}", c.percentile_us(0.90) / 1e3),
            format!("{:.2}", c.percentile_us(0.99) / 1e3),
        ]);
    }
    t
}

/// The error-budget burn table.
pub fn burn_table(rows: &[BurnRow]) -> TextTable {
    let mut t = TextTable::new(&[
        "window ms",
        "class",
        "issued",
        "failed",
        "burn rate",
        "budget used",
    ]);
    for r in rows {
        t.row(&[
            format!("{}..{}", r.from_ms, r.to_ms),
            r.class.label().into(),
            r.issued.to_string(),
            r.failed.to_string(),
            format!("{:.2}x", r.burn_rate),
            format!("{:.0}%", r.budget_used * 100.0),
        ]);
    }
    t
}

/// The flight-recorder account table: why goodput was lost, and what
/// the fabric did about it.
pub fn account_table(a: &ServerAccount) -> TextTable {
    let mut t = TextTable::new(&["server/fabric event", "count"]);
    for (label, n) in a.rows() {
        t.row(&[label.into(), n.to_string()]);
    }
    t
}

/// Assemble the standard report from run artifacts.
pub fn build_report(spec: &ScenarioSpec, ledger: &Ledger, account: &ServerAccount) -> RunReport {
    let slos = spec.slos();
    let mut sections = vec![
        ("request classes".to_string(), ledger_table(ledger)),
        (
            "error-budget burn (8 windows)".to_string(),
            burn_table(&ledger.burn_rows(8, &slos)),
        ),
        (
            "flight-recorder account".to_string(),
            account_table(account),
        ),
    ];
    let mut run = TextTable::new(&["requests", "span ms", "seed"]);
    run.row(&[
        ledger.total_issued().to_string(),
        format!(
            "{:.1}",
            ledger.t1_nanos.saturating_sub(ledger.t0_nanos) as f64 / 1e6
        ),
        format!("{:#x}", spec.effective_seed()),
    ]);
    sections.insert(0, ("run".to_string(), run));
    RunReport {
        sections,
        verdicts: ledger.evaluate(&slos),
    }
}

/// Write the run directory: `scenario.toml`, `report.txt`,
/// `ledger.csv`, `account.csv`, and (when tracing was on) `trace.json`.
pub fn write_run_dir(
    dir: &Path,
    spec: &ScenarioSpec,
    report: &RunReport,
    ledger: &Ledger,
    account: &ServerAccount,
    trace_json: Option<&str>,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join("scenario.toml"), spec.to_toml())?;
    fs::write(dir.join("report.txt"), report.render())?;
    fs::write(dir.join("ledger.csv"), ledger.to_csv())?;
    fs::write(dir.join("account.csv"), account.to_csv())?;
    if let Some(json) = trace_json {
        fs::write(dir.join("trace.json"), json)?;
    }
    Ok(())
}

/// Recompute the report from a run directory: parse `scenario.toml`
/// for the SLOs, rebuild the ledger from `ledger.csv`, and read the
/// server account back from `account.csv`.
pub fn analyze_run_dir(dir: &Path) -> Result<RunReport, String> {
    let read =
        |name: &str| fs::read_to_string(dir.join(name)).map_err(|e| format!("read {name}: {e}"));
    let spec = ScenarioSpec::from_toml(&read("scenario.toml")?)?;
    let ledger = Ledger::from_csv(&read("ledger.csv")?)?;
    let account = ServerAccount::from_csv(&read("account.csv")?)?;
    Ok(build_report(&spec, &ledger, &account))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{Observation, Outcome, ReqClass};

    fn tiny_ledger() -> Ledger {
        let mut ledger = Ledger::new(0);
        for i in 1..=4u64 {
            ledger.record(&Observation {
                issued_nanos: 0,
                done_nanos: i * 1_000_000,
                class: ReqClass::Read,
                outcome: Outcome::Ok,
            });
        }
        ledger.record(&Observation {
            issued_nanos: 0,
            done_nanos: 2_000_000,
            class: ReqClass::Write,
            outcome: Outcome::Timeout,
        });
        ledger.seal(4_000_000);
        ledger
    }

    #[test]
    fn table_renders_aligned_at_any_width() {
        let mut t = TextTable::new(&["n", "time"]);
        t.row(&["1".into(), "10.0".into()]);
        t.row(&["128".into(), "3.5".into()]);
        assert_eq!(t.render(), "  n  time\n---------\n  1  10.0\n128   3.5\n");
        // One column has no gap to rule over; none has nothing at all.
        assert_eq!(TextTable::new(&["only"]).render(), "only\n----\n");
        assert_eq!(TextTable::new(&[]).render(), "\n\n");
    }

    #[test]
    fn report_renders_all_sections_and_fails_on_a_red_gate() {
        let spec = ScenarioSpec::default();
        let ledger = tiny_ledger();
        let report = build_report(&spec, &ledger, &ServerAccount::default());
        let text = report.render();
        assert!(text.contains("== run =="));
        assert!(text.contains("== request classes =="));
        assert!(text.contains("== error-budget burn"));
        assert!(text.contains("== flight-recorder account =="));
        assert!(text.contains("== SLO verdicts =="));
        // The lone write timed out: write goodput 0% < 90% → FAIL.
        assert!(!report.passed());
        assert!(text.contains("SLO: FAIL"));
    }

    /// A real run, crash and spike included, written out and analyzed:
    /// the report comes back byte for byte, account and run span too.
    #[test]
    fn run_dir_round_trips_through_analyze() {
        let dir = std::env::temp_dir().join(format!("workload-report-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spec = ScenarioSpec {
            requests: 400,
            crash_at_ms: 6,
            spike_at_ms: 12,
            ..ScenarioSpec::default()
        };
        let run = crate::runner::run(&spec);
        assert!(run.account.counts.iter().any(|&n| n > 0));
        let trace = run.trace.to_chrome_json();
        write_run_dir(
            &dir,
            &spec,
            &run.report,
            &run.ledger,
            &run.account,
            Some(&trace),
        )
        .unwrap();

        let again = analyze_run_dir(&dir).unwrap();
        assert_eq!(again.render(), run.report.render());
        assert_eq!(again.verdicts, run.report.verdicts);
        assert!(dir.join("trace.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn account_csv_reads_back_only_what_it_wrote() {
        let mut account = ServerAccount {
            dropped_events: 7,
            ..ServerAccount::default()
        };
        for (row, n) in account.counts.iter_mut().enumerate() {
            *n = 10 * row as u64;
        }
        let csv = account.to_csv();
        assert_eq!(ServerAccount::from_csv(&csv), Ok(account));
        let lines: Vec<&str> = csv.lines().collect();
        for bad in [
            lines[..lines.len() - 1].join("\n"),
            [csv.as_str(), "extra,1"].concat(),
            csv.replacen("admission sheds", "sheds", 1),
            csv.replacen(",10\n", ",ten\n", 1),
        ] {
            assert!(ServerAccount::from_csv(&bad).is_err(), "{bad:?} was read");
        }
    }
}
