//! Integration tests for the macro-workload harness (`crates/workload`):
//! the E16 composition — sharded naming, replication, placement,
//! overload protection, and fault injection all running under one
//! closed-loop load generator — must survive its chaos schedule with
//! green SLO gates and replay byte-identically from one seed.

use oopp_repro::oopp::EventKind;
use oopp_repro::workload::{
    config::ScenarioSpec,
    loadgen::ArrivalCurve,
    runner::{self, RunArtifacts},
};

/// A small but fully-armed scenario: diurnal arrivals, a crash that
/// kills the hot feed's home mid-run, and a latency spike on the
/// replica that inherits its reads.
fn chaos_spec() -> ScenarioSpec {
    ScenarioSpec {
        users: 8,
        sessions: 8,
        feeds: 6,
        clients: 8,
        requests: 1200,
        curve: ArrivalCurve::Diurnal {
            period_ms: 200,
            trough: 0.5,
        },
        crash_at_ms: 6,
        spike_at_ms: 12,
        spike_dur_ms: 3,
        spike_extra_ms: 1,
        ..ScenarioSpec::default()
    }
}

#[test]
fn calm_run_meets_slos_with_replicas_serving_reads() {
    let spec = ScenarioSpec {
        users: 8,
        sessions: 8,
        feeds: 6,
        clients: 8,
        requests: 300,
        curve: ArrivalCurve::Steady,
        ..ScenarioSpec::default()
    };
    let a = runner::run(&spec);
    assert!(
        a.report.passed(),
        "calm run must meet every SLO gate:\n{}",
        a.report.render()
    );
    assert_eq!(a.ledger.total_issued(), 300);
    assert_eq!(a.promotions, 0, "nothing crashed, nothing promotes");
    assert!(
        a.trace.count(EventKind::ReplicaHit) > 0,
        "replicas must serve hot-feed reads"
    );
}

#[test]
fn chaos_run_promotes_survives_and_replays_byte_identically() {
    let spec = chaos_spec();
    let a: RunArtifacts = runner::run(&spec);
    let b: RunArtifacts = runner::run(&spec);

    // Same seed, same schedule: the judged report — tables, percentiles,
    // verdicts — replays byte for byte.
    assert_eq!(
        a.report.render(),
        b.report.render(),
        "same-seed runs must produce identical reports"
    );
    assert_eq!(a.ledger.to_csv(), b.ledger.to_csv());

    // The crash episode ran: the dead primary's replica was promoted,
    // and the run still met its objectives through the outage + spike.
    assert_eq!(a.promotions, 1, "dead hot-feed home must promote once");
    assert!(
        a.report.passed(),
        "SLO gates must hold through crash + spike:\n{}",
        a.report.render()
    );
    assert_eq!(a.ledger.total_issued(), spec.requests as u64);

    // Recorder cross-check: when no trace events were lost, the
    // span-derived ledger sees exactly the completions the client-side
    // ledger counted (it cannot see fast-fails or lost replies).
    if a.account.dropped_events == 0 {
        let ok_client = a.ledger.read.ok + a.ledger.write.ok;
        let ok_trace = a.trace_ledger.read.ok + a.trace_ledger.write.ok;
        assert_eq!(
            ok_trace, ok_client,
            "trace-derived completions must match the client ledger"
        );
    }
}

/// An overloaded run — a two-deep mailbox, a one-millisecond deadline and
/// six clients per feed against a slow service — sheds requests at
/// admission and drops others whose deadline passed while they queued,
/// and its trace still holds every event and passes the audit: no
/// request runs after its drop, none runs twice.
#[test]
fn overloaded_run_sheds_and_drops_and_audits_clean() {
    let spec = ScenarioSpec {
        users: 8,
        sessions: 8,
        feeds: 4,
        clients: 24,
        requests: 600,
        mailbox_cap: 2,
        deadline_ms: 1,
        service_us: 400,
        curve: ArrivalCurve::Steady,
        ..ScenarioSpec::default()
    };
    let a = runner::run(&spec);
    let trace = &a.trace;
    let count = |kind| trace.count(kind);
    eprintln!(
        "shed {} deadline drops {} sojourn drops {} dropped events {}",
        count(EventKind::ServerShed),
        count(EventKind::ServerDeadlineDrop),
        count(EventKind::ServerSojournDrop),
        trace.dropped
    );
    assert!(count(EventKind::ServerShed) > 0, "nothing was shed");
    assert!(
        count(EventKind::ServerDeadlineDrop) + count(EventKind::ServerSojournDrop) > 0,
        "nothing was dropped"
    );
    assert_eq!(trace.dropped, 0, "the recorder lost events");
    let violations = trace.audit();
    assert!(violations.is_empty(), "audit: {violations:?}");
}
