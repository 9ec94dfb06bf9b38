//! Graceful-degradation suite (DESIGN.md §15): deadline propagation,
//! admission control, load shedding, circuit breakers, and retry budgets.
//!
//! Every scenario runs under virtual time so "the server is slow" is a
//! modeled fact, not a wall-clock race: a `Slow` object parks its worker
//! lane on the cluster clock, and the tests then pin the contracts — an
//! expired deadline is a typed error and the work *never executes*; a full
//! mailbox or exhausted in-flight budget rejects with `Overloaded` before
//! queueing (fail-fast, not fail-slow); a tripped breaker fast-fails on the
//! client without touching the network and re-closes after a half-open
//! trial; a dry retry budget suppresses retransmission storms; and the
//! whole overload pipeline replays deterministically from a seed.

use std::time::Duration;

use oopp_repro::oopp::{
    wire, Backoff, BreakerConfig, CallPolicy, ClusterBuilder, DoubleBlockClient, Driver, NodeCtx,
    OverloadConfig, RemoteClient, RemoteError, RemoteResult,
};
use oopp_repro::simnet::ClusterConfig;

/// A deliberately slow server: `work(nanos)` parks the executing lane on
/// the *cluster* clock for `nanos`, then bumps a counter. The counter makes
/// shed work observable: if a dropped request had secretly executed,
/// `count` exposes it. Persistent, with `count` a read verb, so one can
/// stand in as a replica that refuses reads (the breaker tests below).
#[derive(Debug, Default)]
pub struct Slow {
    done: u64,
}

oopp_repro::oopp::remote_class! {
    class Slow {
        persistent;
        reads(count);
        ctor();
        /// Sleep `nanos` of cluster time, then count one unit of work.
        fn work(&mut self, nanos: u64) -> u64;
        /// Units of work actually executed.
        fn count(&mut self) -> u64;
    }
}

impl Slow {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Slow::default())
    }

    fn work(&mut self, ctx: &mut NodeCtx, nanos: u64) -> RemoteResult<u64> {
        ctx.clock().sleep(Duration::from_nanos(nanos));
        self.done += 1;
        Ok(self.done)
    }

    fn count(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.done)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.done)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let done = wire::from_bytes(state)?;
        Ok(Slow { done })
    }
}

/// A one-hop relay that records how its *inner* call failed, so a test can
/// prove the deadline was inherited server-side (the relay's own policy
/// carries no deadline) rather than merely enforced at the originating
/// client.
#[derive(Debug, Default)]
pub struct Relay {
    saw: u64,
}

oopp_repro::oopp::remote_class! {
    class Relay {
        ctor();
        /// Call `w.work(nanos)` under whatever deadline this request
        /// carried; record the outcome class and propagate the error.
        fn relay(&mut self, w: SlowClient, nanos: u64) -> u64;
        /// 1 = inner call died of DeadlineExceeded, 2 = other error,
        /// 3 = inner call succeeded, 0 = never called.
        fn saw(&mut self) -> u64;
    }
}

impl Relay {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Relay::default())
    }

    fn relay(&mut self, ctx: &mut NodeCtx, w: SlowClient, nanos: u64) -> RemoteResult<u64> {
        match w.work(ctx, nanos) {
            Ok(v) => {
                self.saw = 3;
                Ok(v)
            }
            Err(e @ RemoteError::DeadlineExceeded { .. }) => {
                self.saw = 1;
                Err(e)
            }
            Err(e) => {
                self.saw = 2;
                Err(e)
            }
        }
    }

    fn saw(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.saw)
    }
}

/// Satellite: a zero `timeout` is a typed, immediate error — not a busy
/// loop and not an `unwrap` panic deep in the pump.
#[test]
fn zero_timeout_is_a_typed_error_not_a_busy_loop() {
    let (cluster, mut driver) = ClusterBuilder::new(2).register::<Slow>().build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();

    driver.set_call_policy(CallPolicy::reliable(Duration::ZERO));
    let started = std::time::Instant::now();
    let err = s.count(&mut driver).unwrap_err();
    assert!(
        matches!(err, RemoteError::DeadlineExceeded { elapsed_nanos: 0 }),
        "zero timeout must surface as DeadlineExceeded{{0}}, got: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "zero timeout must fail immediately, not spin"
    );

    driver.set_call_policy(CallPolicy::reliable(Duration::from_secs(5)));
    cluster.shutdown(driver);
}

/// The other end of the range: "wait for ever" (`Duration::MAX`) is a
/// deadline at the end of the clock — not an overflow panic (debug) or a
/// window that wrapped into the past and timed out at once (release), on
/// either clock.
#[test]
fn an_endless_timeout_waits_for_the_answer() {
    for sim in [
        ClusterConfig::zero_cost(0),
        ClusterConfig::lan(0, 50, 1.0).with_virtual_time(0xE7E2),
    ] {
        let (cluster, mut driver) = ClusterBuilder::new(2)
            .register::<Slow>()
            .sim_config(sim)
            .build();
        let s = SlowClient::new_on(&mut driver, 1).unwrap();
        driver.set_call_policy(CallPolicy::no_retry(Duration::MAX));
        assert_eq!(s.count(&mut driver).unwrap(), 0);
        driver.set_call_policy(CallPolicy::reliable(Duration::from_secs(5)));
        cluster.shutdown(driver);
    }
}

/// Tentpole: a request whose deadline expires while it waits behind a slow
/// call is dropped with a typed `DeadlineExceeded` — and the dropped work
/// is *never executed* (the server-side counter proves it).
#[test]
fn expired_deadline_is_typed_and_the_work_never_executes() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Slow>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x0DEAD11))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();

    // Occupy the only worker lane for 50 ms of virtual time.
    let a = s.work_async(&mut driver, 50_000_000).unwrap();
    driver.serve_for(Duration::from_millis(1));

    // This request's 10 ms budget expires while it sits in the mailbox.
    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_secs(5)).with_deadline(Duration::from_millis(10)),
    );
    let b = s.work_async(&mut driver, 1_000_000).unwrap();

    assert_eq!(a.wait(&mut driver).unwrap(), 1);
    let err = b.wait(&mut driver).unwrap_err();
    assert!(
        matches!(err, RemoteError::DeadlineExceeded { .. }),
        "expired queued work must die typed, got: {err}"
    );

    // The shed request must have left no side effect.
    driver.set_call_policy(CallPolicy::reliable(Duration::from_secs(5)));
    driver.serve_for(Duration::from_millis(20));
    assert_eq!(
        s.count(&mut driver).unwrap(),
        1,
        "a deadline-shed request must never execute"
    );
    assert!(
        driver.stats_of(1).unwrap().calls_deadline_expired >= 1,
        "the server must account the deadline drop"
    );
    cluster.shutdown(driver);
}

/// Tentpole: a full mailbox rejects at admission with a typed `Overloaded`
/// carrying the observed queue depth and the server's backoff hint — and
/// the rejection is *fail-fast*: the caller learns long before the queued
/// work would have drained.
#[test]
fn mailbox_cap_rejects_fail_fast_with_typed_overloaded() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Slow>()
        .overload(OverloadConfig {
            mailbox_cap: 2,
            ..OverloadConfig::new()
        })
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x0F0CC))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();

    // Park the worker for 50 ms, then overfill the 2-deep mailbox.
    let a = s.work_async(&mut driver, 50_000_000).unwrap();
    driver.serve_for(Duration::from_millis(2));
    let mut queued: Vec<_> = (0..4)
        .map(|_| s.work_async(&mut driver, 1_000_000).unwrap())
        .collect();

    // The last two sends overflowed the cap. Wait them *first*: their
    // rejections must already be here, long before the 50 ms queue drains.
    let t0 = driver.now_nanos();
    let mut shed = 0;
    for p in queued.split_off(2) {
        match p.wait(&mut driver) {
            Err(RemoteError::Overloaded {
                queue_depth,
                retry_after_nanos,
            }) => {
                shed += 1;
                assert!(
                    queue_depth >= 2,
                    "server-side shed must report the mailbox depth, got {queue_depth}"
                );
                assert_eq!(retry_after_nanos, 1_000_000, "backoff hint must be stamped");
                assert!(
                    driver.now_nanos() - t0 < 50_000_000,
                    "Overloaded must fail fast, not wait out the queue"
                );
            }
            r => panic!("expected Overloaded past the cap, got: {r:?}"),
        }
    }
    let mut oks = 0;
    for p in queued {
        oks += u64::from(p.wait(&mut driver).is_ok());
    }
    assert_eq!(a.wait(&mut driver).unwrap(), 1);
    assert_eq!((oks, shed), (2, 2), "cap 2: two queue, two are rejected");
    assert_eq!(driver.stats_of(1).unwrap().calls_shed_overload, 2);
    cluster.shutdown(driver);
}

/// Tentpole: the per-machine in-flight budget backstops admission when load
/// is spread across many objects — per-object mailboxes stay shallow, but
/// the machine-wide gauge still rejects with `Overloaded`.
#[test]
fn inflight_budget_sheds_across_objects() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Slow>()
        .overload(OverloadConfig {
            inflight_cap: 2,
            ..OverloadConfig::new()
        })
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x10F11))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let objects: Vec<_> = (0..5)
        .map(|_| SlowClient::new_on(&mut driver, 1).unwrap())
        .collect();

    // The first object occupies the worker; four more queue one call each
    // (four different mailboxes, so only the machine gauge can say no).
    let a = objects[0].work_async(&mut driver, 50_000_000).unwrap();
    driver.serve_for(Duration::from_millis(2));
    let queued: Vec<_> = objects[1..]
        .iter()
        .map(|o| o.work_async(&mut driver, 1_000_000).unwrap())
        .collect();

    let (mut oks, mut shed) = (0, 0);
    for p in queued {
        match p.wait(&mut driver) {
            Ok(_) => oks += 1,
            Err(RemoteError::Overloaded { queue_depth, .. }) => {
                shed += 1;
                assert_eq!(queue_depth, 2, "gauge depth at rejection");
            }
            Err(e) => panic!("expected Ok or Overloaded, got: {e}"),
        }
    }
    a.wait(&mut driver).unwrap();
    assert_eq!(
        (oks, shed),
        (2, 2),
        "in-flight cap 2: two admitted, two shed"
    );
    assert_eq!(driver.stats_of(1).unwrap().calls_shed_overload, 2);
    cluster.shutdown(driver);
}

/// Tentpole: CoDel-style sojourn shedding — admitted work that waited
/// longer than the sojourn target is dropped at execution time instead of
/// running hopelessly late.
#[test]
fn sojourn_target_sheds_stale_admitted_work() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(1)
        .register::<Slow>()
        .overload(OverloadConfig {
            sojourn_target: Duration::from_millis(5),
            ..OverloadConfig::new()
        })
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x5030))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();

    let a = s.work_async(&mut driver, 50_000_000).unwrap();
    driver.serve_for(Duration::from_millis(2));
    // Queued behind 50 ms of work with a 5 ms sojourn target: shed.
    let b = s.work_async(&mut driver, 1_000_000).unwrap();

    assert_eq!(a.wait(&mut driver).unwrap(), 1);
    let err = b.wait(&mut driver).unwrap_err();
    assert!(
        matches!(err, RemoteError::Overloaded { queue_depth, .. } if queue_depth >= 1),
        "stale admitted work must shed as Overloaded, got: {err}"
    );
    driver.serve_for(Duration::from_millis(10));
    assert_eq!(s.count(&mut driver).unwrap(), 1, "shed work must not run");
    assert!(driver.stats_of(1).unwrap().calls_shed_sojourn >= 1);
    cluster.shutdown(driver);
}

/// Tentpole: the per-destination circuit breaker. Consecutive timeouts
/// against a crashed machine trip it open; while open, calls fast-fail on
/// the client (`Overloaded` with `queue_depth == 0`, no network, no
/// timeout wait); after the cooldown a half-open trial against the
/// restarted machine re-closes it.
#[test]
fn breaker_opens_fast_fails_and_recloses_after_cooldown() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<Slow>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xB4EA))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();

    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_millis(10))
            .with_max_retries(0)
            .with_breaker(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
            }),
    );
    cluster.sim().faults().crash(1);

    for i in 0..2 {
        let err = s.count(&mut driver).unwrap_err();
        assert!(
            matches!(err, RemoteError::Timeout { .. }),
            "call {i} against a crashed machine must time out, got: {err}"
        );
    }

    // Breaker is open: the next call must fail without consuming the
    // 10 ms timeout (no packet is even sent).
    let t0 = driver.now_nanos();
    let err = s.count(&mut driver).unwrap_err();
    assert!(
        matches!(
            err,
            RemoteError::Overloaded {
                queue_depth: 0,
                retry_after_nanos
            } if retry_after_nanos > 0
        ),
        "an open breaker must fast-fail with Overloaded{{0}}, got: {err}"
    );
    assert!(
        driver.now_nanos() - t0 < 10_000_000,
        "a fast-fail must not wait out the call timeout"
    );
    assert!(driver.local_stats().breaker_fast_fails >= 1);

    // Recover the machine, let the cooldown lapse, and the half-open
    // trial re-closes the breaker.
    cluster.sim().faults().restart(1);
    driver.serve_for(Duration::from_millis(150));
    assert_eq!(s.count(&mut driver).unwrap(), 0, "half-open trial");
    assert_eq!(s.count(&mut driver).unwrap(), 0, "breaker closed again");

    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// Regression: a half-open trial that leaves the client's hands without
/// an answer must not wedge the breaker. Whichever way the trial exits —
/// abandoned, waited for with a zero window, collected by
/// `try_take_reply` — the breaker hears of it; a wedged breaker would
/// fast-fail every later call to a healthy machine for ever,
/// `shutdown_machine` included.
#[test]
fn unanswered_half_open_trials_do_not_wedge_the_breaker() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<Slow>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xB4EB))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();
    let policy = CallPolicy::reliable(Duration::from_millis(10))
        .with_max_retries(0)
        .with_breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
        });
    let cooldown = Duration::from_millis(150);

    // Open the breaker against a crashed machine, bring the machine
    // back, wait out the cooldown: the next call is the half-open trial.
    let half_open = |driver: &mut Driver| {
        driver.set_call_policy(policy);
        cluster.sim().faults().crash(1);
        for _ in 0..2 {
            let err = s.count(driver).unwrap_err();
            assert!(matches!(err, RemoteError::Timeout { .. }), "got: {err}");
        }
        cluster.sim().faults().restart(1);
        driver.serve_for(cooldown);
    };
    let start_trial = |driver: &mut Driver| {
        driver
            .start_method_raw(s.obj_ref(), "count", |_| {})
            .expect("the trial is admitted")
    };
    // Twenty calls, a cooldown apart, against the healthy machine.
    let admitted = |driver: &mut Driver| {
        (0..20)
            .filter(|_| {
                driver.serve_for(cooldown);
                s.count(driver).is_ok()
            })
            .count()
    };

    // The trial is abandoned.
    half_open(&mut driver);
    let trial = start_trial(&mut driver);
    driver.abandon_call(trial);
    assert!(
        matches!(s.count(&mut driver), Err(RemoteError::Overloaded { .. })),
        "an unresolved trial re-opens the breaker for one cooldown"
    );
    assert_eq!(admitted(&mut driver), 20, "abandoned trial");

    // The trial is waited for with a zero reply window.
    half_open(&mut driver);
    let trial = start_trial(&mut driver);
    driver.set_call_policy(CallPolicy {
        timeout: Duration::ZERO,
        ..policy
    });
    let err = driver.wait_raw(trial).unwrap_err();
    assert!(matches!(err, RemoteError::DeadlineExceeded { .. }), "{err}");
    driver.set_call_policy(policy);
    assert_eq!(admitted(&mut driver), 20, "zero-window trial");

    // The trial's reply is collected by `try_take_reply`: an answer, so
    // the breaker closes on the spot.
    half_open(&mut driver);
    let trial = start_trial(&mut driver);
    driver.serve_for(Duration::from_millis(1));
    driver
        .try_take_reply(trial)
        .expect("the healthy machine answered")
        .expect("count");
    assert_eq!(
        s.count(&mut driver).unwrap(),
        0,
        "closed without a cooldown"
    );

    // The trial is answered with `Moved` and chased to another machine
    // (a balancer moving objects off an overloaded machine is precisely
    // when breakers are open): machine 1 answered, so its breaker closes.
    let unguarded = CallPolicy::reliable(Duration::from_secs(5));
    let block = DoubleBlockClient::new_on(&mut driver, 1, 4).unwrap();
    half_open(&mut driver);
    driver.set_call_policy(unguarded);
    driver.migrate(block.obj_ref(), 0).unwrap();
    driver.forget_move(block.obj_ref());
    driver.set_call_policy(policy);
    assert_eq!(
        block.get(&mut driver, 0).unwrap(),
        0.0,
        "chased to machine 0"
    );
    assert_eq!(admitted(&mut driver), 20, "re-routed trial");

    // The trial is a read routed at a replica on machine 1 whose lease
    // has lapsed: `StaleReplica` is an answer too, and the read lands at
    // the primary on machine 0.
    driver.set_call_policy(unguarded);
    let primary = SlowClient::new_on(&mut driver, 0).unwrap();
    let state = driver.snapshot_of(primary.obj_ref()).unwrap();
    let replica = driver
        .replica_adopt(1, "Slow", state, primary.obj_ref(), 1, 1)
        .unwrap();
    driver.register_replica_route(&primary, vec![replica], 1);
    half_open(&mut driver);
    assert_eq!(
        primary.count(&mut driver).unwrap(),
        0,
        "fell back to machine 0"
    );
    assert_eq!(
        driver.replica_route_of(primary.obj_ref()),
        Some((vec![], 1)),
        "the trial did go to the replica, which refused it"
    );
    assert_eq!(admitted(&mut driver), 20, "trial redirected to the primary");

    // The same read at a replica that never answers: it falls back too,
    // but silence is a failed trial — machine 1's breaker re-opens for one
    // cooldown, then admits again.
    driver.register_replica_route(&primary, vec![replica], 1);
    half_open(&mut driver);
    cluster.sim().faults().crash(1);
    assert_eq!(
        primary.count(&mut driver).unwrap(),
        0,
        "fell back to machine 0"
    );
    cluster.sim().faults().restart(1);
    assert!(
        matches!(s.count(&mut driver), Err(RemoteError::Overloaded { .. })),
        "a silent trial re-opens the breaker for one cooldown"
    );
    assert_eq!(admitted(&mut driver), 20, "trial abandoned for the primary");

    // An open breaker must not swallow the stop order either.
    half_open(&mut driver);
    let trial = start_trial(&mut driver);
    driver.abandon_call(trial);
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// Tentpole: the token-bucket retry budget. With a 10% deposit the bucket
/// cannot cover a retransmission for the first call, so the timeout
/// surfaces after attempt 1 instead of amplifying into a retry storm; the
/// same call without a budget burns all six attempts.
#[test]
fn retry_budget_suppresses_retransmission_storms() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<Slow>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xB0D6E7))
        .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
        .build();
    let s = SlowClient::new_on(&mut driver, 1).unwrap();
    cluster.sim().faults().crash(1);

    let storm_policy = CallPolicy::reliable(Duration::from_millis(10))
        .with_max_retries(5)
        .with_backoff(Backoff::fixed(Duration::from_millis(1)));

    driver.set_call_policy(storm_policy.with_retry_budget());
    match s.count(&mut driver).unwrap_err() {
        RemoteError::Timeout { attempts, .. } => {
            assert_eq!(attempts, 1, "a dry budget must suppress every retransmit")
        }
        e => panic!("expected Timeout, got: {e}"),
    }
    assert!(driver.local_stats().retries_suppressed >= 1);

    // Control: the identical policy without a budget retries to exhaustion.
    driver.set_call_policy(storm_policy);
    match s.count(&mut driver).unwrap_err() {
        RemoteError::Timeout { attempts, .. } => {
            assert_eq!(attempts, 6, "without a budget all attempts are spent")
        }
        e => panic!("expected Timeout, got: {e}"),
    }

    cluster.sim().faults().restart(1);
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
}

/// Tentpole: deadline *propagation*. The driver stamps a 20 ms budget on a
/// call to a relay, whose own policy carries no deadline; the relay's
/// nested call to a 100 ms-slow object inherits the remaining budget and
/// dies `DeadlineExceeded` at ~20 ms — proven server-side by the relay's
/// record of its inner error, and client-side by the elapsed virtual time
/// (far less than the 100 ms sleep or the 1 s timeout).
#[test]
fn deadline_propagates_across_hops() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .sched_workers(1)
        .register::<Slow>()
        .register::<Relay>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xD11E))
        .call_policy(CallPolicy::reliable(Duration::from_secs(1)))
        .build();
    let slow = SlowClient::new_on(&mut driver, 2).unwrap();
    let relay = RelayClient::new_on(&mut driver, 1).unwrap();

    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_secs(1)).with_deadline(Duration::from_millis(20)),
    );
    let t0 = driver.now_nanos();
    let err = relay.relay(&mut driver, slow, 100_000_000).unwrap_err();
    let elapsed = driver.now_nanos() - t0;
    assert!(
        matches!(err, RemoteError::DeadlineExceeded { .. }),
        "the relayed call must die of its inherited deadline, got: {err}"
    );
    assert!(
        (20_000_000..100_000_000).contains(&elapsed),
        "the budget must cut the call at ~20 ms, not the 100 ms sleep \
         or the 1 s timeout (elapsed {elapsed} ns)"
    );

    // The relay observed its *inner* call fail DeadlineExceeded even
    // though the relay's own policy has no deadline: the budget traveled
    // in the frame.
    driver.set_call_policy(CallPolicy::reliable(Duration::from_secs(1)));
    driver.serve_for(Duration::from_millis(200));
    assert_eq!(
        relay.saw(&mut driver).unwrap(),
        1,
        "the inner hop must inherit the originator's deadline"
    );
    cluster.shutdown(driver);
}

/// Tentpole + satellite 4 (in miniature): the whole overload pipeline —
/// admission rejects, deadline drops, successful drains — is a pure
/// function of the seed under virtual time: same seed, same outcome
/// strings, same server counters, same schedule digest.
#[test]
fn overload_outcomes_replay_deterministically() {
    fn run(seed: u64) -> (Vec<String>, u64, u64, u64) {
        let (cluster, mut driver) = ClusterBuilder::new(2)
            .sched_workers(1)
            .register::<Slow>()
            .overload(OverloadConfig {
                mailbox_cap: 2,
                ..OverloadConfig::new()
            })
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(seed))
            .call_policy(CallPolicy::reliable(Duration::from_secs(5)))
            .build();
        let clock = cluster.sim().clock().clone();
        let s = SlowClient::new_on(&mut driver, 1).unwrap();

        let a = s.work_async(&mut driver, 30_000_000).unwrap();
        driver.serve_for(Duration::from_millis(2));
        driver.set_call_policy(
            CallPolicy::reliable(Duration::from_secs(5)).with_deadline(Duration::from_millis(10)),
        );
        let mut outcomes: Vec<String> = (0..4)
            .map(|_| s.work_async(&mut driver, 1_000_000).unwrap())
            .collect::<Vec<_>>()
            .into_iter()
            .map(|p| format!("{:?}", p.wait(&mut driver)))
            .collect();
        outcomes.push(format!("{:?}", a.wait(&mut driver)));

        driver.set_call_policy(CallPolicy::reliable(Duration::from_secs(5)));
        driver.serve_for(Duration::from_millis(50));
        let stats = driver.stats_of(1).unwrap();
        cluster.shutdown(driver);
        let digest = clock
            .schedule()
            .expect("virtual clock records a schedule")
            .digest;
        (
            outcomes,
            stats.calls_shed_overload,
            stats.calls_deadline_expired,
            digest,
        )
    }

    let a = run(0x0EED0E);
    let b = run(0x0EED0E);
    assert_eq!(a, b, "same seed must replay the same overload outcomes");
    assert!(
        a.1 >= 1,
        "the scenario must actually exercise admission shedding"
    );
}

/// Satellite 1: builder knobs are validated with clear errors.
mod builder_validation {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one worker machine")]
    fn zero_workers_is_rejected() {
        let _ = ClusterBuilder::new(0);
    }

    #[test]
    #[should_panic(expected = "capped at 1024 worker")]
    fn absurd_worker_count_is_rejected() {
        let _ = ClusterBuilder::new(1025);
    }

    #[test]
    #[should_panic(expected = "capped at 256 lanes")]
    fn absurd_sched_worker_count_is_rejected() {
        let _ = ClusterBuilder::new(1).sched_workers(257);
    }

    #[test]
    #[should_panic(expected = "capped at 1024 shards")]
    fn absurd_dir_shard_count_is_rejected() {
        let _ = ClusterBuilder::new(1).dir_shards(1025);
    }

    #[test]
    #[should_panic(expected = "mailbox_cap must be at least 1")]
    fn zero_mailbox_cap_is_rejected() {
        let _ = ClusterBuilder::new(1).overload(OverloadConfig {
            mailbox_cap: 0,
            ..OverloadConfig::new()
        });
    }

    #[test]
    #[should_panic(expected = "inflight_cap must be at least 1")]
    fn zero_inflight_cap_is_rejected() {
        let _ = ClusterBuilder::new(1).overload(OverloadConfig {
            inflight_cap: 0,
            ..OverloadConfig::new()
        });
    }
}
