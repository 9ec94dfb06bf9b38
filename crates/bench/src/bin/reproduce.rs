//! Regenerate every experiment table of EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce            # all experiments
//! cargo run --release -p bench --bin reproduce e3 a2     # a subset
//! ```
//!
//! Every table is modeled time on the seeded virtual clock, so stdout is
//! the same bytes on every host and run: the full output is committed as
//! `crates/bench/golden/reproduce.txt` and CI `diff`s it. How long the
//! host took per experiment goes to stderr.
//!
//! Ids match case-insensitively; an argument that names no experiment is
//! an error (exit 2), so a typo cannot silently skip a table.

use bench::experiments as ex;
use bench::Table;

// Experiments return one or more tables (e.g. a main table plus a
// per-method flight-recorder account, or E16's report sections);
// single-table experiments are wrapped by capture-less closures so
// everything shares one signature.
type Experiment = (&'static str, &'static str, fn() -> Vec<Table>);

/// The experiments `args` ask for, in table order: all of them when
/// there are no arguments, otherwise those whose id an argument names
/// (case-insensitively). An argument naming none is the error.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let names = |arg: &String, e: &Experiment| arg.eq_ignore_ascii_case(e.0);
    if let Some(unknown) = args.iter().find(|a| !ALL.iter().any(|e| names(a, e))) {
        let ids: Vec<&str> = ALL.iter().map(|e| e.0).collect();
        return Err(format!(
            "unknown experiment id `{unknown}`; valid ids: {}",
            ids.join(" ")
        ));
    }
    Ok(ALL
        .iter()
        .filter(|e| args.is_empty() || args.iter().any(|a| names(a, e)))
        .collect())
}

const ALL: &[Experiment] = &[
    (
        "E1",
        "remote object semantics: creation, calls, element access (§2)",
        ex::e1_rmi_overhead,
    ),
    (
        "E2",
        "move data vs move computation: page sum (§3)",
        || vec![ex::e2_move_compute()],
    ),
    (
        "E3",
        "split-loop parallel I/O over N devices (§4)",
        ex::e3_parallel_io,
    ),
    ("E4", "distributed 3-D FFT scaling (§4)", || {
        vec![ex::e4_fft()]
    }),
    ("E5", "PageMap determines I/O parallelism (§5)", || {
        vec![ex::e5_pagemap()]
    }),
    (
        "E6",
        "parallel Array clients summing a distributed array (§5)",
        || vec![ex::e6_array_sum()],
    ),
    (
        "E7",
        "persistent processes: deactivate/activate, symbolic lookup (§5)",
        || vec![ex::e7_persistence()],
    ),
    (
        "E8",
        "N computing processes vs one shared object (§2/§4)",
        || vec![ex::e8_shared_memory()],
    ),
    (
        "E9",
        "fault injection: completion time vs drop rate under retrying RMI",
        ex::e9_faults,
    ),
    (
        "E10",
        "adaptive placement: live migration vs static placement on a Zipf workload",
        ex::e10_placement,
    ),
    (
        "E11",
        "self-healing: crash/partition mid-Zipf, supervised recovery with bounded MTTR",
        ex::e11_self_healing,
    ),
    (
        "E12",
        "coherent read replication: Zipf read throughput vs replica count, chaos exactly-once",
        ex::e12_replication,
    ),
    (
        "E13",
        "M:N work-stealing scheduler: Zipf throughput vs worker lanes at 100x objects",
        ex::e13_sched,
    ),
    (
        "E14",
        "sharded control plane: directory resolves/s vs shard count, p99 through a primary crash",
        ex::e14_dirsvc,
    ),
    (
        "E15",
        "graceful degradation: goodput plateau and bounded tail past capacity, breaker through a load spike",
        ex::e15_overload,
    ),
    (
        "E16",
        "macro-workload serving: SLO gates through crash + spike, byte-identical replay",
        ex::e16_workload,
    ),
    ("A2", "ablation: oopp barrier vs mplite collectives", || {
        vec![ex::a2_collectives()]
    }),
    (
        "A3",
        "ablation: deep-copy vs shallow SetGroup (§4)",
        || vec![ex::a3_deepcopy()],
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen = select(&args).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}");
        std::process::exit(2);
    });
    println!("oopp reproduction harness — experiment tables");
    println!("(substrate: simulated cluster on the seeded virtual clock; costs per DESIGN.md)");
    for (id, title, run) in chosen {
        println!("\n=== {id}: {title} ===");
        let t0 = std::time::Instant::now();
        let tables = run();
        for (i, table) in tables.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print!("{}", table.render());
        }
        eprintln!("[{id} took {:.1?}]", t0.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|chosen| chosen.iter().map(|e| e.0).collect())
    }

    #[test]
    fn select_matches_known_ids_and_refuses_unknown_ones() {
        assert_eq!(ids(&[]).unwrap().len(), 18, "no arguments = every table");
        // Case-insensitive, table order, duplicates run once.
        assert_eq!(ids(&["a2", "E9", "e9"]).unwrap(), ["E9", "A2"]);
        let err = ids(&["e9", "e99"]).unwrap_err();
        assert!(
            err.contains("`e99`") && err.contains("E16") && err.contains("A3"),
            "{err}"
        );
        // A prefix of an id is not the id, and A1 (host nanoseconds: now
        // `benchmark/`'s wire probes) is no longer one.
        assert!(ids(&["e1"]).unwrap() == ["E1"] && ids(&["e"]).is_err());
        assert!(ids(&["a1"])
            .unwrap_err()
            .contains("unknown experiment id `a1`"));
    }
}
