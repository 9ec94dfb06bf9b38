//! Schedule pins: the exact virtual-time schedule of four small runs
//! (DESIGN.md §12.3).
//!
//! `tests/determinism.rs` proves that a seed replays *itself*. These tests
//! hold each run to literal `SimSchedule` values — the number of events the
//! virtual clock fired and the digest of their order — so a refactor of the
//! progress engine that moves a single wake, timer or delivery fails here by
//! name, even when every table and trace it prints still matches. A pin
//! moves only with a change that means to move the schedule; say why in the
//! commit that re-records it.
//!
//! Every scenario runs on the seeded virtual clock, so the pins hold in
//! debug and release builds alike.

use std::time::Duration;

use oopp_repro::mplite::MpiWorld;
use oopp_repro::oopp::{
    join, symbolic_addr, wire, Backoff, BarrierClient, CallPolicy, ClusterBuilder, NodeCtx,
    RemoteClient, RemoteResult,
};
use oopp_repro::simnet::{ClusterConfig, FaultPlan, SimCluster, SimSchedule};
use oopp_repro::workload::{config::ScenarioSpec, runner};
use replica::{CoherenceMode, ReplicaConfig, ReplicaManager};

/// A persistent counter: migratable, replicable, and non-idempotent, so a
/// call executed twice would show in the totals the tests assert.
#[derive(Debug, Default)]
pub struct Tally {
    total: u64,
}

oopp_repro::oopp::remote_class! {
    class Tally {
        persistent;
        reads(total);
        ctor();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
        /// Current total.
        fn total(&mut self) -> u64;
        /// Enter `gate` (a nested call that holds this object until the
        /// barrier releases), then return the total.
        fn park(&mut self, gate: BarrierClient) -> u64;
    }
}

impl Tally {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Tally::default())
    }

    fn add(&mut self, _ctx: &mut NodeCtx, n: u64) -> RemoteResult<u64> {
        self.total += n;
        Ok(self.total)
    }

    fn total(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<u64> {
        Ok(self.total)
    }

    fn park(&mut self, ctx: &mut NodeCtx, gate: BarrierClient) -> RemoteResult<u64> {
        gate.enter(ctx)?;
        Ok(self.total)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.total)
    }

    fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        Ok(Tally {
            total: wire::from_bytes(state)?,
        })
    }
}

/// An object whose one method is a nested call: it adds to another
/// object and answers with that object's reply.
#[derive(Debug, Default)]
pub struct Relay {
    hops: u64,
}

oopp_repro::oopp::remote_class! {
    class Relay {
        ctor();
        /// `to.add(n)`, from inside this method; returns its reply.
        fn forward(&mut self, to: TallyClient, n: u64) -> u64;
    }
}

impl Relay {
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Relay::default())
    }

    fn forward(&mut self, ctx: &mut NodeCtx, to: TallyClient, n: u64) -> RemoteResult<u64> {
        self.hops += 1;
        to.add(ctx, n)
    }
}

/// Assert `got` is the pinned schedule, printing the recorded one so a
/// deliberate re-pin is one copy.
fn assert_pinned(name: &str, got: SimSchedule, events: u64, digest: u64) {
    assert_eq!(
        (got.events, got.digest),
        (events, digest),
        "{name}: the schedule moved — recorded events: {}, digest: 0x{:016X} ({got})",
        got.events,
        got.digest
    );
}

/// The classic engine (no pool): a nested call from machine 1 reaches its
/// target on machine 0 while the driver is migrating that target to
/// machine 2. The nested request lands mid-migration, waits in the
/// target's `Migrating` record, is re-admitted and answered `Moved` at the
/// commit's swap, and the relay chases it to the new home — where it
/// executes once.
#[test]
fn classic_nested_call_deferred_mid_migration() {
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<Tally>()
        .register::<Relay>()
        .sim_config(ClusterConfig::lan(0, 50, 1.0).with_virtual_time(0x5C4E_D01E))
        .build();
    let clock = cluster.sim().clock().clone();
    let tally = TallyClient::new_on(&mut driver, 0).unwrap();
    let relay = RelayClient::new_on(&mut driver, 1).unwrap();
    assert_eq!(relay.forward(&mut driver, tally, 2).unwrap(), 2);

    let pending = relay.forward_async(&mut driver, tally, 3).unwrap();
    let moved = driver.migrate(tally.obj_ref(), 2).unwrap();
    assert_eq!(moved.machine, 2);
    assert_eq!(pending.wait(&mut driver).unwrap(), 5);
    assert_eq!(TallyClient::from_ref(moved).total(&mut driver).unwrap(), 5);
    assert!(
        driver.stats_of(0).unwrap().calls_deferred >= 1,
        "the nested call must have waited out the migration"
    );
    cluster.shutdown(driver);
    assert_pinned(
        "classic",
        clock.schedule().unwrap(),
        PIN_CLASSIC.0,
        PIN_CLASSIC.1,
    );
}

/// A 4-lane pool on a lossy fabric: relays and their targets share a
/// machine, so every nested call is admitted by the dispatcher and run by
/// a worker that may itself be waiting inside a call — and one tally sits
/// parked in a barrier the whole time, holding a lane.
#[test]
fn pooled_nested_same_machine_calls() {
    let plan = FaultPlan::seeded(0x9001_D20B).with_drop(0.05);
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sched_workers(4)
        .register::<Tally>()
        .register::<Relay>()
        .sim_config(
            ClusterConfig::zero_cost(0)
                .with_faults(plan)
                .with_virtual_time(0x9001_5EED),
        )
        .call_policy(
            CallPolicy::reliable(Duration::from_millis(150))
                .with_max_retries(6)
                .with_backoff(Backoff::fixed(Duration::from_millis(8))),
        )
        .build();
    let clock = cluster.sim().clock().clone();
    let gate = BarrierClient::new_on(&mut driver, 0, 2).unwrap();
    let tallies: Vec<_> = (0..3)
        .map(|_| TallyClient::new_on(&mut driver, 1).unwrap())
        .collect();
    let relays: Vec<_> = (0..4)
        .map(|_| RelayClient::new_on(&mut driver, 1).unwrap())
        .collect();
    let parked = tallies[2].park_async(&mut driver, gate).unwrap();
    for round in 0..4u64 {
        let pending: Vec<_> = relays
            .iter()
            .enumerate()
            .map(|(i, r)| {
                r.forward_async(&mut driver, tallies[i % 2], round + 1)
                    .unwrap()
            })
            .collect();
        join(&mut driver, pending).unwrap();
    }
    gate.enter(&mut driver).unwrap();
    assert_eq!(parked.wait(&mut driver).unwrap(), 0);
    let totals: Vec<u64> = tallies
        .iter()
        .map(|t| t.total(&mut driver).unwrap())
        .collect();
    // Relays 0 and 2 feed tally 0, relays 1 and 3 tally 1: 2·(1+2+3+4).
    assert_eq!(totals, [20, 20, 0]);
    let retried = driver.local_stats().calls_retried + driver.stats_of(1).unwrap().calls_retried;
    assert!(retried > 0, "the lossy fabric must force retransmissions");
    cluster.sim().faults().calm();
    cluster.shutdown(driver);
    assert_pinned(
        "pooled",
        clock.schedule().unwrap(),
        PIN_POOLED.0,
        PIN_POOLED.1,
    );
}

/// A write-through primary whose replica's machine is dark: the write's
/// sync to it fails, the primary drops it from the set and waits out its
/// coherence lease before acking — serving a ping that arrives meanwhile.
#[test]
fn write_through_primary_waits_out_a_lost_replica() {
    let (cluster, mut driver) = ClusterBuilder::new(4)
        .register::<Tally>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0x1EA5_E0FF))
        .call_policy(
            CallPolicy::reliable(Duration::from_millis(20))
                .with_max_retries(1)
                .with_backoff(Backoff::fixed(Duration::from_millis(5))),
        )
        .build();
    let clock = cluster.sim().clock().clone();
    let dir = driver.directory();
    let tally = TallyClient::new_on(&mut driver, 0).unwrap();
    let name = symbolic_addr(&["pin", "Tally", "0"]);
    dir.bind(&mut driver, name.clone(), tally.obj_ref())
        .unwrap();
    let cfg = ReplicaConfig {
        mode: CoherenceMode::WriteThrough,
        lease: Duration::from_millis(40),
    };
    let mut mgr = ReplicaManager::new(cfg, dir);
    let replicas = mgr.replicate(&mut driver, &name, &tally, &[1, 2]).unwrap();
    assert_eq!(replicas.len(), 2);
    assert_eq!(tally.add(&mut driver, 1).unwrap(), 1);

    cluster.sim().faults().crash(2);
    // The machines give up on the dark replica after 45 ms; the driver
    // waits longer than that plus the lease.
    driver.set_call_policy(CallPolicy::reliable(Duration::from_millis(500)));
    let t0 = driver.now_nanos();
    let write = tally.add_async(&mut driver, 1).unwrap();
    driver.ping(0).unwrap();
    assert_eq!(write.wait(&mut driver).unwrap(), 2);
    assert!(
        driver.now_nanos() - t0 >= 40_000_000,
        "the write was acked before the lost replica's lease ran out"
    );
    cluster.sim().faults().restart(2);
    cluster.shutdown(driver);
    assert_pinned(
        "write-through",
        clock.schedule().unwrap(),
        PIN_WRITE_THROUGH.0,
        PIN_WRITE_THROUGH.1,
    );
}

/// Two `mplite` ranks on a costed virtual LAN: a ping-pong, the
/// collectives built on it, and a receive nobody answers.
#[test]
fn mplite_two_rank_world() {
    let sim = SimCluster::new(ClusterConfig::lan(2, 50, 1.0).with_virtual_time(0x3B1_7E57));
    let results = MpiWorld::launch(&sim, |comm| {
        let peer = 1 - comm.rank();
        comm.send(peer, 7, &[comm.rank() as u8; 64]).unwrap();
        let got = comm.recv(peer, 7).unwrap();
        let sum = comm.allreduce_f64(comm.rank() as f64 + 1.0).unwrap();
        comm.barrier().unwrap();
        comm.set_timeout(Duration::from_millis(3));
        assert!(comm.recv(peer, 99).is_err());
        (got[0], sum, comm.now_nanos())
    });
    assert_eq!(results[0].0, 1);
    assert_eq!(results[1].0, 0);
    assert_eq!((results[0].1, results[1].1), (3.0, 3.0));
    assert_pinned(
        "mplite",
        sim.clock().schedule().unwrap(),
        PIN_MPLITE.0,
        PIN_MPLITE.1,
    );
}

/// The composed serving scenario (DESIGN §16) with its crash and spike
/// episodes: pooled machines, replicas, a promotion, a migration, deadlines,
/// breakers. Its clock stays inside the runner, so the pin is an FNV-1a
/// digest of what the run directory holds — ledger, report and the trace,
/// whose virtual timestamps follow every wake — and the number of trace
/// bytes. It is the run that tells apart a worker that runs a task the
/// moment a nudge reaches it inside a call from one that first drains the
/// rest of its channel.
#[test]
fn serving_scenario_through_a_crash_and_a_spike() {
    let spec = ScenarioSpec {
        crash_at_ms: 20,
        spike_at_ms: 30,
        ..ScenarioSpec::default()
    };
    let run = runner::run(&spec);
    assert_eq!(run.promotions, 1);
    let trace = run.trace.to_chrome_json();
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for text in [run.ledger.to_csv(), run.report.render(), trace.clone()] {
        for byte in text.bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    assert_eq!(
        (trace.len() as u64, digest),
        PIN_SERVING,
        "serving: the run moved — recorded trace bytes: {}, digest: 0x{digest:016X}",
        trace.len()
    );
}

/// `(events, digest)` of each scenario (trace bytes and digest for the
/// serving one): re-record one only with a change that means to move its
/// schedule.
const PIN_CLASSIC: (u64, u64) = (32, 0x98FF_79B7_D72A_C5D3);
const PIN_POOLED: (u64, u64) = (236, 0xD3F9_FACE_DC3D_9446);
const PIN_WRITE_THROUGH: (u64, u64) = (44, 0xE891_C8D0_093E_9A06);
const PIN_MPLITE: (u64, u64) = (10, 0xE096_2B4A_A275_8F07);
const PIN_SERVING: (u64, u64) = (1_259_407, 0x52E0_7AD4_1BCD_0EC1);
