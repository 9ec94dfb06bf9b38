//! The composed engine: one call that builds the cluster, deploys the
//! scenario, arms every protection mechanism shipped so far, drives
//! the closed loop through the fault episodes, and returns the judged
//! artifacts.
//!
//! This is deliberately the first code path where all nine prior
//! subsystems run at once: the sharded directory resolves the feeds,
//! the replica manager scales the hot feed's reads, the balancer
//! rebalances around the replicated primary (fed the replica footprint
//! so it skips it without a wire call), admission control and breakers
//! shed overload, deadlines bound every request, and the fault
//! injector kills the hot feed's home machine and latency-spikes a
//! replica mid-run — all on virtual time, so the entire composition
//! replays byte-identically from one seed.

use std::time::Duration;

use oopp::{
    Backoff, BreakerConfig, CallPolicy, ClusterBuilder, OverloadConfig, RemoteClient,
    RetryBudgetConfig, Trace,
};
use placement::{Balancer, PlacementPolicy};
use replica::{CoherenceMode, ReplicaConfig, ReplicaManager};
use simnet::time::after;
use simnet::ClusterConfig;

use crate::config::ScenarioSpec;
use crate::loadgen::{ClosedLoop, ReqClass, Request, RequestMix};
use crate::report::{build_report, RunReport};
use crate::scenario::{self, Feed, FeedClient, Session, User};
use crate::slo::{Ledger, ServerAccount};

/// Control-loop beat: balancer + replica-manager step cadence.
const CONTROL_MS: u64 = 40;

/// Everything a run produces.
pub struct RunArtifacts {
    pub ledger: Ledger,
    pub account: ServerAccount,
    pub report: RunReport,
    /// The merged flight-recorder trace (Perfetto-exportable).
    pub trace: Trace,
    /// A second ledger rebuilt purely from recorded client spans — the
    /// recorder-fed cross-check of the client-side ledger.
    pub trace_ledger: Ledger,
    /// Moves the balancer executed during the run.
    pub balancer_moves: u64,
    /// Plans the balancer skipped because the object was replicated.
    pub balancer_skips_replicated: u64,
    /// Replica promotions (1 exactly when the crash episode ran).
    pub promotions: u64,
}

/// Classify a traced method name into a request class; `None` for
/// control-plane traffic (directory, migration, replication RMIs).
pub fn classify_method(method: &str) -> Option<ReqClass> {
    match method {
        "read_page" | "validate" | "profile" => Some(ReqClass::Read),
        "post" | "follow" | "touch" => Some(ReqClass::Write),
        _ => None,
    }
}

/// The per-request policy the virtual clients call under.
fn client_policy(spec: &ScenarioSpec) -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(100))
        .with_max_retries(1)
        .with_backoff(Backoff::fixed(Duration::from_millis(2)))
        .with_deadline(spec.deadline())
        .with_breaker(BreakerConfig {
            failure_threshold: 8,
            cooldown: Duration::from_millis(50),
        })
        .with_retry_budget(RetryBudgetConfig::default())
}

/// The wider policy for control work (deploy, replicate, migrate):
/// no deadline — a migration transfer must not inherit a 40 ms budget.
fn control_policy() -> CallPolicy {
    CallPolicy::reliable(Duration::from_millis(400))
        .with_max_retries(3)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)))
}

/// Run one scenario to completion and judge it.
pub fn run(spec: &ScenarioSpec) -> RunArtifacts {
    let seed = spec.effective_seed();
    let (cluster, mut driver) = ClusterBuilder::new(spec.machines)
        .sched_workers(spec.sched_workers)
        .dir_shards(spec.dir_shards)
        .register::<User>()
        .register::<Session>()
        .register::<Feed>()
        .overload(OverloadConfig {
            mailbox_cap: spec.mailbox_cap,
            ..OverloadConfig::new()
        })
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
        .call_policy(control_policy())
        .tracing(true)
        .build();
    let dir = driver.directory();

    // --- Deploy + replicate -------------------------------------------------
    let deployment = scenario::deploy(&mut driver, &dir, spec).expect("deploy scenario");
    let victim = deployment.victim;
    let hot_name = deployment.feed_names[0].clone();
    let mut mgr = ReplicaManager::new(
        ReplicaConfig {
            mode: CoherenceMode::WriteThrough,
            lease: Duration::from_secs(30),
        },
        dir,
    );
    if spec.hot_replicas > 0 {
        let replica_homes: Vec<usize> = (1..=spec.hot_replicas).collect();
        mgr.replicate(&mut driver, &hot_name, &deployment.feeds[0], &replica_homes)
            .expect("replicate hot feed");
    }

    // The balancer owns the *spread* machines only: the victim must
    // stay clear (so the crash kills exactly the replicated hot feed)
    // and machine 0 keeps the root directory + shard seats.
    let spread: Vec<usize> = (1..victim).collect();
    let mut balancer = Balancer::new(
        PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.3,
            max_moves_per_round: 2,
        },
        spread,
    )
    .with_cooldown(1);
    balancer.pin(driver.directory().obj_ref());
    // Shard seats are ordinary objects on worker machines; the control
    // plane must never be rebalanced out from under its own resolvers.
    for i in 0..spec.dir_shards {
        if let Ok(Some(seat)) = dir.root_client().lookup(&mut driver, oopp::shard_addr(i)) {
            balancer.pin(seat);
        }
    }

    // --- The closed loop ----------------------------------------------------
    let loadgen_policy = client_policy(spec);
    let mut mix = RequestMix::new(seed, spec.feeds, spec.zipf_s, spec.write_permille);
    let t0 = driver.now_nanos();
    let mut load = ClosedLoop::<u64>::new(spec.requests, t0);
    let mut next_control = t0 + CONTROL_MS * 1_000_000;
    let mut crash_pending = spec.crash_at_ms > 0;
    let mut spike_pending = spec.spike_at_ms > 0;
    let mut unspike_pending = false;
    // Spike the first replica's home (it serves hot reads), or the
    // first spread machine when nothing is replicated.
    let spike_machine = if spec.hot_replicas > 0 { 1 } else { victim - 1 };
    // Episode times off the spec, saturating: an episode too far off to
    // reach never starts.
    let at = |millis| after(0, Duration::from_millis(millis));
    let (crash_at, spike_at) = (at(spec.crash_at_ms), at(spec.spike_at_ms));
    let unspike_at = after(spike_at, Duration::from_millis(spec.spike_dur_ms));

    driver.set_call_policy(loadgen_policy);
    while load.running() {
        let now = driver.now_nanos();
        let elapsed = now - t0;

        // Fault episodes, on the virtual clock.
        if crash_pending && elapsed >= crash_at {
            crash_pending = false;
            driver.set_call_policy(control_policy());
            cluster.sim().faults().crash(victim);
            mgr.handle_dead_machine(&mut driver, victim)
                .expect("handle dead hot-feed home");
            driver.set_call_policy(loadgen_policy);
        }
        if spike_pending && elapsed >= spike_at {
            spike_pending = false;
            unspike_pending = true;
            cluster
                .sim()
                .faults()
                .spike(spike_machine, Duration::from_millis(spec.spike_extra_ms));
        }
        if unspike_pending && elapsed >= unspike_at {
            unspike_pending = false;
            cluster.sim().faults().unspike(spike_machine);
        }

        // Control-plane beat: feed the balancer the replica footprint,
        // rebalance, let the manager repair/refresh.
        if now >= next_control {
            next_control = now + CONTROL_MS * 1_000_000;
            driver.set_call_policy(control_policy());
            balancer.set_replicated(mgr.primary_of(&hot_name));
            balancer.step(&mut driver);
            driver.set_call_policy(loadgen_policy);
        }

        // Issue up to the arrival curve's current window.
        let window = spec.curve.window_at(elapsed, spec.clients);
        if load.has_room(window) {
            let req = mix.next(spec.users, spec.sessions);
            let class = req.class();
            let pending = match req {
                Request::FeedRead { feed } | Request::FeedPost { feed } => {
                    let client = if feed == 0 {
                        // Track the promoted primary across the crash.
                        FeedClient::from_ref(
                            mgr.primary_of(&hot_name)
                                .unwrap_or(deployment.feeds[0].obj_ref()),
                        )
                    } else {
                        deployment.feeds[feed]
                    };
                    if class == ReqClass::Read {
                        client.read_page_async(&mut driver)
                    } else {
                        client.post_async(&mut driver)
                    }
                }
                Request::SessionValidate { session } => {
                    deployment.sessions[session].validate_async(&mut driver)
                }
                Request::SessionTouch { session } => {
                    deployment.sessions[session].touch_async(&mut driver)
                }
                Request::UserFollow { user } => deployment.users[user].follow_async(&mut driver),
            };
            load.issue(&driver, class, now, pending);
            continue;
        }

        // Window full (or everything issued): retire the oldest call.
        let _ = load.retire(&mut driver);
    }
    let ledger = load.finish(driver.now_nanos());

    // --- Distill + shut down ------------------------------------------------
    let balancer_moves = balancer.moves_executed();
    let balancer_skips_replicated = balancer.moves_skipped_replicated();
    let promotions = mgr.stats().promotions;
    // Heal the fabric now rather than leave it to shutdown (the crashed
    // machine is dark, a spike may be live), and serve briefly: straggling
    // work on the readmitted machine drains while the driver still holds
    // the virtual clock.
    cluster.sim().faults().heal_all();
    driver.serve_for(Duration::from_millis(5));
    // Clone the recorder handle out before shutdown consumes the
    // cluster; the rings are only safe to merge once threads joined.
    let recorder = cluster.recorder().expect("tracing was enabled");
    cluster.shutdown(driver);
    let trace = recorder.merge();
    let account = ServerAccount::from_trace(&trace);
    let trace_ledger = Ledger::from_trace(&trace, classify_method);

    let report = build_report(spec, &ledger, &account);
    RunArtifacts {
        ledger,
        account,
        report,
        trace,
        trace_ledger,
        balancer_moves,
        balancer_skips_replicated,
        promotions,
    }
}
