//! Macro-workload serving scenario + SLO harness (DESIGN.md §16).
//!
//! Every subsystem shipped so far — migration/placement, self-healing,
//! read replication, virtual time, M:N worker lanes, the sharded
//! directory, overload control — has only ever been exercised by its
//! own targeted experiment. This crate composes all of them into the
//! standing end-to-end scenario the ROADMAP calls E16: a
//! session/social-graph store serving a Zipf-popular, read-heavy
//! request mix with write bursts and diurnal load shifts, driven by a
//! closed-loop load generator and judged against explicit SLOs.
//!
//! The crate is layered exactly as the harness vocabulary suggests:
//!
//! - [`scenario`] — the application: `User`, `Session`, `Feed` remote
//!   objects (all `persistent`, all with `reads(...)` verbs) and a
//!   deployment that spreads them over the cluster, names the feeds in
//!   the sharded directory, and reserves one machine for the hot
//!   feed's primary so the crash episode has a well-defined victim.
//! - [`loadgen`] — N virtual clients in one closed loop driven off the
//!   cluster clock: arrival curves (steady / diurnal sine / spike), a
//!   Zipf key popularity, and a seeded request mix. Under
//!   `with_virtual_time(seed)` the whole run is deterministic.
//! - [`slo`] — per-request-class latency/goodput ledgers, SLO
//!   definitions with verdicts, error-budget burn windows, and a
//!   server-side account distilled from the flight recorder.
//! - [`report`] — text tables, the rendered run report, and the
//!   `workload run` / `workload analyze` run-directory round trip
//!   (scenario TOML in; tables, percentiles, verdicts, and a Perfetto
//!   trace out).
//! - [`runner`] — the composed engine: builds the cluster (sharded
//!   directory, worker lanes, admission control, breakers, deadlines),
//!   deploys the scenario, replicates the hot feed, runs the balancer
//!   control loop beside the load generator, injects the crash + spike
//!   episodes, and returns the artifacts.
//!
//! Determinism contract: a [`config::ScenarioSpec`] plus its `seed`
//! fully determine the run. Two runs of the same spec produce
//! byte-identical reports — including every latency percentile — which
//! is what lets `reproduce e16` gate on exact replay.

pub mod config;
pub mod loadgen;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod slo;

pub use config::ScenarioSpec;
pub use loadgen::{ArrivalCurve, Observation, Outcome, ReqClass};
pub use report::{RunReport, TextTable};
pub use runner::{run, RunArtifacts};
pub use scenario::{Deployment, Feed, FeedClient, Session, SessionClient, User, UserClient};
pub use slo::{Ledger, ServerAccount, SloSpec, Verdict};
