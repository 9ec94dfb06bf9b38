//! `workload run <scenario.toml> [--out DIR]` / `workload analyze <DIR>`.
//!
//! `run` executes a scenario end to end on the simulated cluster and
//! writes a run directory (scenario.toml, report.txt, ledger.csv,
//! account.csv, trace.json); `analyze` recomputes the judged report from a run
//! directory without re-running anything. `run -` uses the default
//! scenario, and `SIMNET_SEED` overrides the spec's seed for replay.
//! The process exits nonzero when an SLO gate fails, so both verbs
//! work as CI gates.

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{config::ScenarioSpec, report, runner};

fn usage() -> ExitCode {
    eprintln!("usage: workload run <scenario.toml | -> [--out DIR]");
    eprintln!("       workload analyze <RUN_DIR>");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let Some(spec_arg) = args.get(1) else {
                return usage();
            };
            let spec = if spec_arg == "-" {
                ScenarioSpec::default()
            } else {
                let text = match std::fs::read_to_string(spec_arg) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("workload: read {spec_arg}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                match ScenarioSpec::from_toml(&text) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("workload: parse {spec_arg}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            let out = match args.get(2).map(String::as_str) {
                Some("--out") => PathBuf::from(args.get(3).map_or("workload-run", String::as_str)),
                None => PathBuf::from("workload-run"),
                Some(_) => return usage(),
            };
            let artifacts = runner::run(&spec);
            if let Err(e) = report::write_run_dir(
                &out,
                &spec,
                &artifacts.report,
                &artifacts.ledger,
                &artifacts.account,
                Some(&artifacts.trace.to_chrome_json()),
            ) {
                eprintln!("workload: write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            print!("{}", artifacts.report.render());
            println!("run directory: {}", out.display());
            if artifacts.report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("analyze") => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            match report::analyze_run_dir(&PathBuf::from(dir)) {
                Ok(rep) => {
                    print!("{}", rep.render());
                    if rep.passed() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("workload: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
