//! Flight recorder end to end (DESIGN §8): run a chaotic split-loop
//! workload with tracing enabled, export the merged trace as Chrome
//! `trace_event` JSON (loadable in Perfetto / `chrome://tracing`), and
//! print the per-method latency account.
//!
//! ```text
//! OOPP_TRACE=out.json cargo run --release --example trace_export
//! ```
//!
//! Without `OOPP_TRACE` the trace is written to `trace_out.json` in the
//! current directory.

use oopp::wire::collections::F64s;
use oopp::{join, Backoff, CallPolicy, ClusterBuilder, DoubleBlockClient, EventKind};
use simnet::{ClusterConfig, FaultPlan};

fn main() {
    let out_path = std::env::var("OOPP_TRACE").unwrap_or_else(|_| "trace_out.json".to_string());

    // A lossy, duplicating fabric with a seeded plan: every run of this
    // example records the identical span tree.
    let workers = 3;
    let n = 64;
    let plan = FaultPlan::seeded(0x7ACE).with_drop(0.08).with_dup(0.03);
    let policy = CallPolicy::reliable(std::time::Duration::from_millis(150))
        .with_max_retries(6)
        .with_backoff(Backoff::fixed(std::time::Duration::from_millis(8)));
    let (cluster, mut driver) = ClusterBuilder::new(workers)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(policy)
        .tracing(true)
        .build();

    // The E3 split loop: one block per worker, async axpy rounds, gather.
    let blocks: Vec<_> = (0..workers)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, n).unwrap())
        .collect();
    for (i, b) in blocks.iter().enumerate() {
        b.fill(&mut driver, i as f64).unwrap();
    }
    for round in 1..=4 {
        let addend = F64s((0..n).map(|j| (round * j) as f64).collect());
        let pending: Vec<_> = blocks
            .iter()
            .map(|b| {
                b.axpy_range_async(&mut driver, 0, 0.5, addend.clone())
                    .unwrap()
            })
            .collect();
        join(&mut driver, pending).unwrap();
    }
    let mut checksum = 0.0;
    for b in &blocks {
        checksum += b
            .read_range(&mut driver, 0, n)
            .unwrap()
            .0
            .iter()
            .sum::<f64>();
    }

    // Keep the recorder alive past shutdown, then merge all machine rings.
    let recorder = cluster.recorder().expect("tracing was enabled");
    let retried = driver.local_stats().calls_retried;
    let dropped = cluster.snapshot().total_fault_drops();
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    let trace = recorder.merge();
    let violations = trace.audit();

    println!("workload checksum {checksum:.1}; fabric dropped {dropped} frames, driver retried {retried} calls");
    println!(
        "{} span events ({} sends, {} retransmits, {} dedup replays); audit: {} violations",
        trace.events.len(),
        trace.count(EventKind::ClientSend),
        trace.retransmits(),
        trace.count(EventKind::ServerAdmitDone),
        violations.len(),
    );
    for v in &violations {
        println!("  {v}");
    }
    assert!(
        violations.is_empty(),
        "the run must keep every rule of the audit"
    );

    println!("\nper-method flight-recorder account:");
    println!(
        "{:<14} {:>6} {:>9} {:>5} {:>9} {:>9}",
        "method", "calls", "attempts", "retx", "p50 us", "p99 us"
    );
    for s in trace.method_stats() {
        println!(
            "{:<14} {:>6} {:>9} {:>5} {:>9} {:>9}",
            s.method, s.calls, s.attempts, s.retransmits, s.p50_micros, s.p99_micros
        );
    }

    std::fs::write(&out_path, trace.to_chrome_json()).expect("write trace JSON");
    println!(
        "\nwrote Chrome trace_event JSON to {out_path} — open it in Perfetto or chrome://tracing"
    );
}
