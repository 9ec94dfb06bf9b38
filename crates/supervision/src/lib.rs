//! Self-healing for oopp clusters.
//!
//! The paper's runtime keeps every object alive "as a persistent process"
//! — but says nothing about the machine under the process dying. This
//! crate closes that gap with three cooperating mechanisms:
//!
//! 1. **Failure detection** (in [`Supervisor`]): the supervisor
//!    heartbeats every machine over the ordinary RMI fabric. A heartbeat
//!    that goes a whole lease unanswered raises a suspicion; that, plus
//!    `lease_ttl` of silence since the last acknowledged heartbeat,
//!    convicts the machine.
//! 2. **Epoch-fenced leases** (in `oopp` core): every supervised object
//!    incarnation carries a monotonically increasing epoch recorded in
//!    the naming directory; request frames carry the caller's believed
//!    epoch, and stale frames bounce with
//!    [`Fenced`](oopp::RemoteError::Fenced). The heartbeats double as
//!    lease renewals — a machine that stops hearing the supervisor stops
//!    serving supervised objects, so a partitioned machine self-fences
//!    exactly when the supervisor becomes free to give its objects away.
//! 3. **Supervision** ([`Supervisor`]): on a conviction, every
//!    registered object of the lost machine is reactivated from its
//!    replicated snapshot on a live backup chosen by the placement load
//!    signals, rebound at a higher epoch won through a CAS in the
//!    directory, with per-recovery MTTR accounting; a takeover makes
//!    three attempts, one heartbeat interval apart, and then poisons the
//!    unrecoverable name.
//!
//! See `DESIGN.md` §10 for the full protocol walk-through, including why
//! a false suspicion (partition, stall) cannot produce split-brain
//! writes, and `EXPERIMENTS.md` E11 for measured MTTR under kill-one
//! workloads.

mod supervisor;

pub use supervisor::{Recovery, SupervisionStats, Supervisor, HEARTBEAT_INTERVAL};
