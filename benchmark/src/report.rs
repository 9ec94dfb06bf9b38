//! From trial records to reported metrics: the median over trials of each
//! per-trial statistic, the per-layer numbers of a traced pass, and the
//! comparison of two result files under the committed bounds.

use crate::json::Json;
use crate::spec::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{best, median, quartile_spread, tail_quantile};
use crate::workloads::{Tally, Workload};

fn num(trial: &Json, key: &str) -> f64 {
    trial.num(key).unwrap_or(0.0)
}

/// `a / b`, or 0 where the layer saw no work.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median_of(trials: &[Json], f: impl Fn(&Json) -> f64) -> f64 {
    median(&trials.iter().map(f).collect::<Vec<_>>())
}

fn nums(trial: &Json, key: &str) -> Vec<f64> {
    trial
        .arr(key)
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// One trial's samples of one end-to-end metric: one per slice of the
/// trial, or the trial's one set-up time.
fn samples_of(w: Workload, trial: &Json, metric: &str) -> Vec<f64> {
    match metric {
        "setup_s" => vec![num(trial, "setup_s")],
        // No request has a wall-clock latency under virtual time, so the
        // simulator reports its mean wall time per simulated request.
        "op_p50_us" if w == Workload::SimServing => nums(trial, "slice_ops_per_s")
            .iter()
            .map(|&rate| ratio(1e6, rate))
            .collect(),
        "op_p50_us" => nums(trial, "slice_p50_us"),
        "ops_per_s" => nums(trial, "slice_ops_per_s"),
        "cpu_us_per_op" => nums(trial, "slice_cpu_us_per_op"),
        other => panic!("no definition for end-to-end metric {other}"),
    }
}

/// What the untraced trials of one workload add up to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub tally: Tally,
    /// Per end-to-end metric, in spec order: the best of the samples of all
    /// trials, and each trial's own best.
    pub end_to_end: Vec<(&'static str, f64, Vec<f64>)>,
}

/// Ops of `sim_serving` trials whose report or ledger differs from the
/// first trial's: a replay that is not byte-identical fails all its ops.
pub fn replay_failures(trials: &[Json]) -> u64 {
    let first = trials.first().and_then(|t| t.str("replay_digest"));
    trials
        .iter()
        .filter(|t| t.str("replay_digest") != first)
        .map(|t| num(t, "attempted") as u64)
        .sum()
}

pub fn summarize(w: Workload, trials: &[Json]) -> Summary {
    let attempted = trials.iter().map(|t| num(t, "attempted") as u64).sum();
    let failed: u64 = trials.iter().map(|t| num(t, "failed") as u64).sum();
    let tally = Tally {
        attempted,
        failed: (failed + replay_failures(trials)).min(attempted),
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let lower = m.better == Better::Lower;
            let samples: Vec<Vec<f64>> = trials.iter().map(|t| samples_of(w, t, m.name)).collect();
            let per_trial = samples.iter().map(|s| best(s, lower)).collect();
            (m.name, best(&samples.concat(), lower), per_trial)
        })
        .collect();
    Summary { tally, end_to_end }
}

/// Every per-layer metric, in spec order. `trials` are the untraced trials
/// of the workload, `traced` its trial with the flight recorder on, and
/// `probes` the layer probes' results. A metric of a layer the workload
/// does not exercise reads 0.
pub fn per_layer(
    w: Workload,
    trials: &[Json],
    tally: Tally,
    traced: Option<&Json>,
    probes: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let probe = |name: &str| probes.iter().find(|p| p.0 == name).map(|p| p.1);
    let per_op = |key: &str| median_of(trials, |t| ratio(num(t, key), num(t, "attempted")));
    let only = |on: Workload, v: f64| if w == on { v } else { 0.0 };
    let sim = |key: &str| only(Workload::SimServing, median_of(trials, |t| num(t, key)));
    let gap = |key: &str| traced.map_or(0.0, |t| num(t, key));
    // The op latency as the end-to-end metric has it, for the untraced
    // trials and for the traced one.
    let p50_of = |trials: &[Json]| {
        let samples: Vec<f64> = trials
            .iter()
            .flat_map(|t| nums(t, "slice_p50_us"))
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            best(&samples, true)
        }
    };
    let p50 = p50_of(trials);

    // One tail rung for all trials: the one the smallest trial supports.
    let samples = trials
        .iter()
        .map(|t| num(t, "samples") as usize)
        .min()
        .unwrap_or(0);
    let tail_q = if samples == 0 {
        0.0
    } else {
        tail_quantile(samples).unwrap_or(0.5)
    };
    let tail_key = format!("p{:.0}_us", tail_q * 100.0);

    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let value = match name {
                "core.req_transit_ns" => gap("req_transit_ns"),
                "core.queue_ns" => gap("queue_ns"),
                "core.service_ns" => gap("service_ns"),
                "core.reply_transit_ns" => gap("reply_transit_ns"),
                // `sim_serving` has no untraced mode to compare against.
                "core.trace_overhead_share" if w.is_real_time() => {
                    traced.map_or(0.0, |t| ratio(p50_of(std::slice::from_ref(t)) - p50, p50))
                }
                "core.trace_overhead_share" => 0.0,
                "core.deferred_share" => {
                    median_of(trials, |t| ratio(num(t, "deferred"), num(t, "served")))
                }
                "core.retried_share" => {
                    median_of(trials, |t| ratio(num(t, "retried"), num(t, "served")))
                }
                "simnet.msgs_per_op" => per_op("msgs"),
                "simnet.bytes_per_op" => per_op("bytes"),
                "simnet.wire_amplification" => {
                    median_of(trials, |t| ratio(num(t, "bytes"), num(t, "payload_bytes")))
                }
                "fft.msgs_per_op" => only(Workload::Fft3d, per_op("msgs")),
                "fft.bytes_per_op" => only(Workload::Fft3d, per_op("bytes")),
                // Two single-node transforms (an op is forward + inverse)
                // over two machines' worth of the distributed op.
                "fft.parallel_efficiency" => only(
                    Workload::Fft3d,
                    ratio(2.0 * probe("fft.local_ms").unwrap_or(0.0) * 1e3, 2.0 * p50),
                ),
                "replica.promotions" => sim("promotions"),
                "placement.moves" => sim("moves"),
                "placement.skips_replicated" => sim("skips_replicated"),
                "workload.trace_dropped_events" => sim("trace_dropped_events"),
                "workload.modeled_read_p50_us" => sim("modeled_read_p50_us"),
                "workload.wall_s_per_run" => only(
                    Workload::SimServing,
                    median_of(trials, |t| {
                        ratio(num(t, "wall_s"), nums(t, "slice_ops_per_s").len() as f64)
                    }),
                ),
                "workload.requests_not_ok" => sim("requests_not_ok"),
                "modeled_read_p99_us" => sim("modeled_read_p99_us"),
                "modeled_write_p99_us" => sim("modeled_write_p99_us"),
                "modeled_makespan_ms" => sim("modeled_makespan_ms"),
                "proc.sys_share" => median_of(trials, |t| {
                    let sys = num(t, "cpu_sys_s");
                    ratio(sys, sys + num(t, "cpu_user_s"))
                }),
                "proc.parks_per_op" => per_op("parks"),
                "proc.minor_faults_per_op" => per_op("minor_faults"),
                "proc.peak_rss_mib" => median_of(trials, |t| num(t, "peak_rss_mib")),
                "tail.op_p99_us" => median_of(trials, |t| num(t, &tail_key)),
                "tail.percentile" => tail_q * 100.0,
                "tail.samples" => samples as f64,
                "payload_mib_per_s" => median_of(trials, |t| {
                    ratio(
                        num(t, "payload_bytes") / (1u64 << 20) as f64,
                        num(t, "wall_s"),
                    )
                }),
                "failed_share" => ratio(tally.failed as f64, tally.attempted as f64),
                probed => probe(probed).unwrap_or(0.0),
            };
            (name, value)
        })
        .collect()
}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the pair can show
    /// neither a regression nor its absence.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative = better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => ratio(b - a, a),
        Better::Higher => ratio(a - b, a),
    }
}

/// Judge one (metric, workload) pair: `a` is the parent's median, `b` the
/// change's, `spread` the wider of the two sets' quartile spreads.
pub fn judge(m: &EndToEnd, a: f64, b: f64, spread: f64) -> Verdict {
    let worse = worsening(m, a, b);
    let under_floor = (b - a).abs() < m.floor;
    if spread > m.bound {
        Verdict::Unresolved
    } else if worse > m.bound && !under_floor {
        Verdict::Regressed
    } else if worse < -m.bound && !under_floor {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn trial_values(metric: &Json) -> Vec<f64> {
    metric
        .arr("trials")
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

/// Compare two result files of `all`. Returns the printed table and whether
/// any pair regressed or any workload failed more than before.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |j: &Json| {
        j.arr("workloads")
            .map(<[Json]>::to_vec)
            .ok_or("no workloads")
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = format!("{:<12}", "workload");
    for m in &END_TO_END {
        out += &format!(" {:>26}", format!("{} (±{:.0}%)", m.name, m.bound * 100.0));
    }
    out += &format!(" {:>14}\n", "failed_share");
    let mut bad = false;
    for ra in &wa {
        let name = ra.str("name").ok_or("workload without a name")?;
        let Some(rb) = wb.iter().find(|r| r.str("name") == Some(name)) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        out += &format!("{name:<12}");
        for m in &END_TO_END {
            let metric = |r: &Json| {
                r.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .cloned()
                    .ok_or(format!("{name}: no {}", m.name))
            };
            let (ma, mb) = (metric(ra)?, metric(rb)?);
            let (va, vb) = (num(&ma, "value"), num(&mb, "value"));
            let spread =
                quartile_spread(&trial_values(&ma)).max(quartile_spread(&trial_values(&mb)));
            let verdict = judge(m, va, vb, spread);
            bad |= verdict == Verdict::Regressed;
            out += &format!(
                " {:>26}",
                format!("{} {:+.1}%", verdict.label(), ratio(vb - va, va) * 100.0)
            );
        }
        let share = |r: &Json| ratio(num(r, "failed"), num(r, "attempted"));
        let (fa, fb) = (share(ra), share(rb));
        bad |= fb > fa;
        out += &format!(
            " {:>14}\n",
            if fb > fa {
                format!("HIGHER {fb:.2e}")
            } else {
                format!("{fb}")
            }
        );
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn bounds_apply_in_the_direction_that_is_worse() {
        let p50 = metric("op_p50_us"); // lower is better, 25 %
        assert_eq!(judge(p50, 100.0, 124.0, 0.05), Verdict::Unchanged);
        assert_eq!(judge(p50, 100.0, 126.0, 0.05), Verdict::Regressed);
        assert_eq!(judge(p50, 100.0, 70.0, 0.05), Verdict::Improved);
        let ops = metric("ops_per_s"); // higher is better
        assert_eq!(judge(ops, 100.0, 70.0, 0.05), Verdict::Regressed);
        assert_eq!(judge(ops, 100.0, 130.0, 0.05), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let p50 = metric("op_p50_us");
        assert_eq!(judge(p50, 100.0, 150.0, 0.30), Verdict::Unresolved);
        assert_eq!(judge(p50, 100.0, 100.0, 0.30), Verdict::Unresolved);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        let setup = metric("setup_s"); // 25 %, but never under 50 ms
        assert_eq!(judge(setup, 0.010, 0.030, 0.1), Verdict::Unchanged);
        assert_eq!(judge(setup, 0.100, 0.140, 0.1), Verdict::Unchanged);
        assert_eq!(judge(setup, 0.100, 0.160, 0.1), Verdict::Regressed);
        assert_eq!(judge(setup, 0.400, 0.460, 0.1), Verdict::Unchanged);
        assert_eq!(judge(setup, 0.400, 0.200, 0.1), Verdict::Improved);
    }

    fn slices(values: &[f64]) -> Vec<Json> {
        values.iter().map(|&v| Json::Num(v)).collect()
    }

    /// A trial of two slices at 50 ops/s and 10 000 us of CPU per op.
    fn trial(digest: &str, attempted: u64, failed: u64) -> Json {
        Json::obj()
            .with("replay_digest", digest)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("wall_s", 2.0)
            .with("setup_s", 0.1)
            .with("slice_ops_per_s", slices(&[50.0, 50.0]))
            .with("slice_cpu_us_per_op", slices(&[10_000.0, 10_000.0]))
            .with("slice_p50_us", slices(&[30.0, 30.0]))
            .with("cpu_user_s", 0.5)
            .with("cpu_sys_s", 1.5)
            .with("peak_rss_mib", 30.0)
    }

    #[test]
    fn a_differing_replay_raises_the_failed_share() {
        let same = [
            trial("aa", 100, 0),
            trial("aa", 100, 0),
            trial("aa", 100, 0),
        ];
        assert_eq!(summarize(Workload::SimServing, &same).tally.failed, 0);
        let differs = [
            trial("aa", 100, 0),
            trial("ab", 100, 0),
            trial("aa", 100, 0),
        ];
        let s = summarize(Workload::SimServing, &differs);
        assert_eq!((s.tally.attempted, s.tally.failed), (300, 100));
        let layers = per_layer(Workload::SimServing, &differs, s.tally, None, &[]);
        let share = layers.iter().find(|l| l.0 == "failed_share").unwrap().1;
        assert_eq!(share, 100.0 / 300.0);
    }

    #[test]
    fn end_to_end_values_are_the_best_of_all_slices() {
        // Two trials caught in the box's slow state, one mostly in its
        // fast one: the value comes from the fast slices, wherever they
        // are, and each trial keeps its own for `compare`.
        let mut trials = vec![
            trial("aa", 100, 0),
            trial("aa", 100, 0),
            trial("aa", 100, 0),
        ];
        trials[1].set("slice_ops_per_s", slices(&[52.0, 75.0, 76.0, 74.0]));
        trials[1].set("slice_p50_us", slices(&[29.0, 20.0, 20.5, 21.0]));
        trials[2].set("setup_s", 0.3);
        let s = summarize(Workload::NullRmi, &trials);
        let of = |name: &str| s.end_to_end.iter().find(|m| m.0 == name).unwrap();
        assert_eq!(of("ops_per_s").1, 76.0);
        assert_eq!(of("ops_per_s").2, vec![50.0, 76.0, 50.0]);
        assert_eq!(of("op_p50_us").1, 20.0);
        assert_eq!(of("cpu_us_per_op").1, 10_000.0);
        assert_eq!(of("setup_s").1, 0.1);
        assert_eq!(of("setup_s").2, vec![0.1, 0.1, 0.3]);
        // Under virtual time the latency is the wall time per request.
        let s = summarize(Workload::SimServing, &trials);
        let p50 = s.end_to_end.iter().find(|m| m.0 == "op_p50_us").unwrap();
        assert_eq!(p50.1, 1e6 / 76.0);
    }

    #[test]
    fn every_per_layer_metric_is_reported_once_in_spec_order() {
        let trials = [trial("aa", 100, 0)];
        let tally = summarize(Workload::NullRmi, &trials).tally;
        let layers = per_layer(
            Workload::NullRmi,
            &trials,
            tally,
            None,
            &[("fft.local_ms", 9.0)],
        );
        let names: Vec<&str> = layers.iter().map(|l| l.0).collect();
        let spec: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, spec);
        assert_eq!(
            layers.iter().find(|l| l.0 == "fft.local_ms").unwrap().1,
            9.0
        );
    }

    #[test]
    fn compare_flags_a_regression_and_a_higher_failed_share() {
        let file = |p50: f64, failed: u64| {
            let e2e = END_TO_END.iter().fold(Json::obj(), |o, m| {
                let v = if m.name == "op_p50_us" { p50 } else { 1.0 };
                o.with(
                    m.name,
                    Json::obj()
                        .with("value", v)
                        .with("trials", vec![Json::Num(v), Json::Num(v * 1.01)]),
                )
            });
            Json::obj().with(
                "workloads",
                vec![Json::obj()
                    .with("name", "null_rmi")
                    .with("attempted", 1000u64)
                    .with("failed", failed)
                    .with("end_to_end", e2e)],
            )
        };
        let (table, bad) = compare(&file(30.0, 0), &file(31.0, 0)).unwrap();
        assert!(!bad, "{table}");
        let (table, bad) = compare(&file(30.0, 0), &file(40.0, 0)).unwrap();
        assert!(bad && table.contains("REGRESSED"), "{table}");
        let (table, bad) = compare(&file(30.0, 0), &file(30.0, 2)).unwrap();
        assert!(bad && table.contains("HIGHER"), "{table}");
    }
}
