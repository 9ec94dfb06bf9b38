//! The benchmark's contract: every metric by name, unit, direction and
//! bound. `BENCHMARK.json` at the repo root is generated from this table
//! (`oopp-benchmark manifest`), and a test keeps the two identical.

use crate::json::Json;
use crate::workloads::Workload;

/// What one contract run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Absolute change, in the metric's unit, below which `compare` calls
    /// the metric neither regressed nor improved (the driver's gate has no
    /// such floor, and `BENCHMARK.json` no field for it).
    pub floor: f64,
}

use Better::{Higher, Lower};

/// Metrics a user of the runtime would feel, reported on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        // Set-up is tens of milliseconds on most workloads, where a quarter
        // is thread-spawn jitter.
        floor: 0.050,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Lower,
        bound: 0.25,
        floor: 0.0,
    },
];

/// Metrics of single layers (layer = crate name), plus the end-to-end
/// numbers that are exact, workload-specific or too noisy to gate.
pub const PER_LAYER: [(&str, &str, Better); 56] = [
    ("wire.small_encode_ns", "ns", Lower),
    ("wire.small_decode_ns", "ns", Lower),
    ("wire.bulk_encode_gib_s", "GiB/s", Higher),
    ("wire.bulk_decode_gib_s", "GiB/s", Higher),
    ("core.frame_small_encode_ns", "ns", Lower),
    ("core.frame_small_decode_ns", "ns", Lower),
    ("core.frame_bulk_encode_gib_s", "GiB/s", Higher),
    ("core.frame_bulk_decode_gib_s", "GiB/s", Higher),
    ("core.req_transit_ns", "ns", Lower),
    ("core.queue_ns", "ns", Lower),
    ("core.service_ns", "ns", Lower),
    ("core.reply_transit_ns", "ns", Lower),
    ("core.trace_overhead_share", "ratio", Lower),
    ("core.same_machine_call_us", "us", Lower),
    ("core.create_destroy_us", "us", Lower),
    ("core.deferred_share", "ratio", Lower),
    ("core.retried_share", "ratio", Lower),
    ("core.null_call_us", "us", Lower),
    ("core.sum_of_layers_us", "us", Lower),
    ("core.unexplained_us", "us", Lower),
    ("simnet.msgs_per_op", "count", Lower),
    ("simnet.bytes_per_op", "B", Lower),
    ("simnet.wire_amplification", "ratio", Lower),
    ("simnet.handoff_same_thread_ns", "ns", Lower),
    ("simnet.handoff_parked_ns", "ns", Lower),
    ("simnet.handoff_same_core_ns", "ns", Lower),
    ("simnet.handoff_cross_core_ns", "ns", Lower),
    ("simnet.vclock_event_ns", "ns", Lower),
    ("simnet.vclock_sys_share", "ratio", Lower),
    ("sched.push_pop_ns", "ns", Lower),
    ("sched.steal_ns", "ns", Lower),
    ("sched.injector_ns", "ns", Lower),
    ("sched.gauge_ns", "ns", Lower),
    ("fft.local_ms", "ms", Lower),
    ("fft.msgs_per_op", "count", Lower),
    ("fft.bytes_per_op", "B", Lower),
    ("fft.parallel_efficiency", "ratio", Higher),
    ("replica.promotions", "count", Lower),
    ("placement.moves", "count", Lower),
    ("placement.skips_replicated", "count", Lower),
    ("workload.trace_dropped_events", "count", Lower),
    ("workload.modeled_read_p50_us", "us", Lower),
    ("workload.wall_s_per_run", "s", Lower),
    ("workload.requests_not_ok", "count", Lower),
    ("proc.sys_share", "ratio", Lower),
    ("proc.parks_per_op", "count", Lower),
    ("proc.minor_faults_per_op", "count", Lower),
    ("proc.peak_rss_mib", "MiB", Lower),
    ("tail.op_p99_us", "us", Lower),
    ("tail.percentile", "%", Higher),
    ("tail.samples", "count", Higher),
    ("payload_mib_per_s", "MiB/s", Higher),
    ("failed_share", "ratio", Lower),
    ("modeled_read_p99_us", "us", Lower),
    ("modeled_write_p99_us", "us", Lower),
    ("modeled_makespan_ms", "ms", Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric {name} is not in the spec"))
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj()
        .with(
            "command",
            command.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
        .with("paths", vec![Json::from("benchmark")])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Workload::GATED
                .iter()
                .map(|w| Json::obj().with("name", w.name()).with("why", w.why()))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.label())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            PER_LAYER
                .iter()
                .map(|&(name, unit, better)| {
                    Json::obj()
                        .with("name", name)
                        .with("unit", unit)
                        .with("better", better.label())
                })
                .collect::<Vec<_>>(),
        )
}

/// `manifest()` laid out one entry per line, as committed.
pub fn manifest_text() -> String {
    let m = manifest();
    let mut out = String::from("{\n");
    let fields = m.fields();
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out += &format!("  \"{key}\": [\n");
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out += &format!("    {item}{c}\n");
                }
                out += &format!("  ]{comma}\n");
            }
            other => out += &format!("  \"{key}\": {other}{comma}\n"),
        }
    }
    out + "}\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_spec_is_inside_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.1)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_text().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_text(),
            "regenerate with `oopp-benchmark manifest`"
        );
        assert_eq!(Json::parse(&committed).unwrap(), manifest());
    }
}
