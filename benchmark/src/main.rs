//! The repo's wall-clock benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! oopp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! oopp-benchmark all [--smoke] [--seed N] [--out FILE]           every workload, every metric
//! oopp-benchmark compare A.json B.json                           two `all` results, judged
//! oopp-benchmark manifest                                        print BENCHMARK.json
//! ```

mod json;
mod probes;
mod procfs;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Json;
use report::{per_layer, summarize, Summary};
use spans::SpanLog;
use spec::{unit_of, RUN_SECONDS};
use workloads::{run_trial, TrialCfg, Workload, SIM_REQUESTS, SIM_SMOKE_REQUESTS};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 20_260_927;
/// Nominal measured seconds of one trial.
const TRIAL_SECONDS: f64 = 2.0;
/// Where traces and results go, relative to the working directory.
const OUT_DIR: &str = "benchmark/out";

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trial") => trial_main(&args[1..], started),
        Some("all") => all_main(&args[1..]),
        Some("compare") => compare_main(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest_text());
            Ok(true)
        }
        _ => run_main(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("oopp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` options and bare `--flag`s, in any order.
struct Options<'a>(&'a [String]);

impl Options<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Workload::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

// ---------------------------------------------------------------------------
// One trial, in this process (the child side).

fn trace_path(w: Workload) -> PathBuf {
    Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name()))
}

fn trial_main(args: &[String], started: Instant) -> Result<bool, String> {
    let opts = Options(args);
    let w = opts.workload()?;
    let cfg = TrialCfg {
        seed: opts.parsed("--seed", DEFAULT_SEED)?,
        seconds: opts.parsed("--seconds", TRIAL_SECONDS)?,
        traced: opts.parsed("--trace", 0u8)? != 0,
        sim_requests: opts.parsed("--sim-requests", SIM_REQUESTS)?,
        started,
    };
    let mut spans = SpanLog::new();
    let record = run_trial(w, &cfg, &mut spans);
    if cfg.traced {
        spans
            .write_jsonl(&trace_path(w))
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    println!("{record}");
    Ok(true)
}

// ---------------------------------------------------------------------------
// Trials as child processes (the parent side).

/// How one pass over a workload is shaped.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    trial_seconds: f64,
    sim_requests: usize,
}

/// Run one trial in a fresh process, so every trial starts from the same
/// allocator, page-cache and thread state, and its peak memory is its own.
fn spawn_trial(w: Workload, shape: &Shape, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = Command::new(exe)
        .arg("trial")
        .args(["--workload", w.name()])
        .args(["--seed", &shape.seed.to_string()])
        .args(["--seconds", &shape.trial_seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--sim-requests", &shape.sim_requests.to_string()])
        // The scenario's seed comes from --seed alone.
        .env_remove("SIMNET_SEED")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a trial: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "trial of {} ended with {}",
            w.name(),
            output.status
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("trial printed nothing")?;
    Json::parse(line).map_err(|e| format!("trial record: {e}"))
}

/// Trials of `w` that together measure for `seconds`: as many as fit at
/// the shape's trial length, all of one length. A `sim_serving` trial ends
/// with the run that crosses its time.
fn run_trials(w: Workload, shape: &Shape, seconds: f64) -> Result<Vec<Json>, String> {
    let count = (seconds / shape.trial_seconds).round().max(1.0);
    let even = Shape {
        trial_seconds: seconds / count,
        ..*shape
    };
    (0..count as usize)
        .map(|_| spawn_trial(w, &even, false))
        .collect()
}

fn run_probes(seed: u64) -> Result<Vec<(&'static str, f64)>, String> {
    probes::run_all(seed, &Path::new(OUT_DIR).join("trace-probes.jsonl"))
        .map_err(|e| format!("writing the probe trace: {e}"))
}

fn metrics_json(values: impl IntoIterator<Item = (&'static str, f64)>) -> Json {
    values.into_iter().fold(Json::obj(), |o, (name, value)| {
        o.with(
            name,
            Json::obj().with("value", value).with("unit", unit_of(name)),
        )
    })
}

// ---------------------------------------------------------------------------
// Contract mode: one workload, one line of JSON.

fn run_main(args: &[String]) -> Result<bool, String> {
    let opts = Options(args);
    let w = opts.workload()?;
    let seconds: f64 = opts.parsed("--seconds", RUN_SECONDS as f64)?;
    let traced = opts.parsed("--trace", 0u8)? != 0;
    // A traced run spends half its time on untraced trials; one traced
    // trial and the layer probes follow.
    let measured = if traced { seconds / 2.0 } else { seconds };
    let shape = Shape {
        seed: opts.parsed("--seed", DEFAULT_SEED)?,
        trial_seconds: TRIAL_SECONDS.min(measured),
        sim_requests: SIM_REQUESTS,
    };
    let trials = run_trials(w, &shape, measured)?;
    let summary = summarize(w, &trials);
    let metrics = if traced {
        let traced_trial = spawn_trial(w, &shape, true)?;
        let probes = run_probes(shape.seed)?;
        metrics_json(per_layer(
            w,
            &trials,
            summary.tally,
            Some(&traced_trial),
            &probes,
        ))
    } else {
        metrics_json(summary.end_to_end.iter().map(|m| (m.0, m.1)))
    };

    let correct = summary.tally.failed == 0;
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", summary.tally.attempted)
            .with("failed", summary.tally.failed)
            .with("metrics", metrics)
    );
    Ok(correct)
}

// ---------------------------------------------------------------------------
// `all`: every workload, every metric, one result file.

fn first_line_of(mut cmd: Command) -> String {
    cmd.stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn file_or_unknown(path: &str) -> String {
    std::fs::read_to_string(path).map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// What the numbers depend on.
fn header(shape: &Shape, trials: usize, smoke: bool) -> Json {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    Json::obj()
        .with("git_commit", first_line_of(git))
        .with("rustc", first_line_of(rustc))
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .with("kernel", file_or_unknown("/proc/sys/kernel/osrelease"))
        .with(
            "transparent_hugepage",
            file_or_unknown("/sys/kernel/mm/transparent_hugepage/enabled"),
        )
        .with("seed", shape.seed)
        .with("trials", trials as u64)
        .with("trial_seconds", shape.trial_seconds)
        .with("sim_requests", shape.sim_requests as u64)
        .with("smoke", smoke)
        .with("sched_setaffinity", probes::affinity_available())
}

fn all_main(args: &[String]) -> Result<bool, String> {
    let opts = Options(args);
    let smoke = opts.flag("--smoke");
    let shape = Shape {
        seed: opts.parsed("--seed", DEFAULT_SEED)?,
        trial_seconds: if smoke { 0.5 } else { TRIAL_SECONDS },
        sim_requests: if smoke {
            SIM_SMOKE_REQUESTS
        } else {
            SIM_REQUESTS
        },
    };
    let rounds = if smoke { 1 } else { 5 };
    let head = header(&shape, rounds, smoke);
    println!("{head}");

    // Round-robin across workloads, so a noisy minute on a shared box does
    // not land on one workload.
    let mut trials: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for round in 0..rounds {
        for (w, slot) in Workload::ALL.iter().zip(&mut trials) {
            eprintln!("round {}/{rounds}: {}", round + 1, w.name());
            slot.push(spawn_trial(*w, &shape, false)?);
        }
    }
    // The traced pass: one trial of each workload with the recorder on
    // (`sim_serving` always runs with it on), then the probes, once.
    let mut traced = Vec::new();
    for w in Workload::ALL {
        eprintln!("traced: {}", w.name());
        traced.push(spawn_trial(w, &shape, true)?);
    }
    eprintln!("layer probes");
    let probes = run_probes(shape.seed)?;

    let mut rows = Vec::new();
    let mut all_correct = true;
    for ((w, trials), traced) in Workload::ALL.iter().zip(&trials).zip(&traced) {
        let summary = summarize(*w, trials);
        let layers = per_layer(*w, trials, summary.tally, Some(traced), &probes);
        all_correct &= summary.tally.failed == 0;
        print_workload(*w, &summary, &layers);
        rows.push(workload_json(*w, &summary, layers));
    }

    let out = opts.value("--out").map_or_else(
        || Path::new(OUT_DIR).join(format!("result-{}.json", shape.seed)),
        PathBuf::from,
    );
    let result = Json::obj().with("header", head).with("workloads", rows);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, format!("{result}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result written to {}", out.display());
    Ok(all_correct)
}

fn workload_json(w: Workload, summary: &Summary, layers: Vec<(&'static str, f64)>) -> Json {
    let end_to_end = summary
        .end_to_end
        .iter()
        .fold(Json::obj(), |o, (name, value, per_trial)| {
            o.with(
                name,
                Json::obj()
                    .with("value", *value)
                    .with("unit", unit_of(name))
                    .with(
                        "trials",
                        per_trial.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
                    ),
            )
        });
    Json::obj()
        .with("name", w.name())
        .with("correct", summary.tally.failed == 0)
        .with("attempted", summary.tally.attempted)
        .with("failed", summary.tally.failed)
        .with("end_to_end", end_to_end)
        .with("per_layer", metrics_json(layers))
}

fn print_workload(w: Workload, summary: &Summary, layers: &[(&'static str, f64)]) {
    println!(
        "\n== {} == attempted {} failed {} ({})",
        w.name(),
        summary.tally.attempted,
        summary.tally.failed,
        if summary.tally.failed == 0 {
            "all output checks pass"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    for (name, value, per_trial) in &summary.end_to_end {
        println!(
            "  {name:<34} {value:>16.4} {:<6} spread {:.1}% over {} trials",
            unit_of(name),
            stats::quartile_spread(per_trial) * 100.0,
            per_trial.len()
        );
    }
    for (name, value) in layers {
        println!("  {name:<34} {value:>16.4} {}", unit_of(name));
    }
    if w == Workload::NullRmi {
        let get = |n: &str| layers.iter().find(|l| l.0 == n).map_or(0.0, |l| l.1);
        println!(
            "  a null call costs {:.2} us end to end; its layers assembled by hand cost {:.2} us; \
             {:.2} us are unexplained",
            summary.end_to_end[1].1,
            get("core.sum_of_layers_us"),
            summary.end_to_end[1].1 - get("core.sum_of_layers_us"),
        );
    }
}

// ---------------------------------------------------------------------------

fn compare_main(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, bad) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!bad)
}
