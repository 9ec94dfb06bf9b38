//! Seeded, deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] gives every link an independent, **seeded** probability
//! of dropping or duplicating each packet. Decisions are pure
//! functions of `(seed, src, dst, per-link sequence number)` — a SplitMix64
//! hash, not a shared RNG — so a chaos test replays the identical fault
//! pattern run after run regardless of thread interleaving, as long as each
//! link carries the same packet sequence.
//!
//! On top of the probabilistic plan, a [`FaultInjector`] handle scripts
//! coarse failures at runtime: cutting and healing **partitions** between
//! machine pairs, and **crashing**/**restarting** whole machines. A crashed
//! machine goes dark at the network: every packet to or from it is dropped
//! (and counted) until `restart`. The machine's thread is not killed — a
//! restart models a transient outage; durable recovery of the *objects* on
//! a machine that stays dark goes through the oopp snapshot store instead.
//!
//! Faults are applied in [`Network::send`](crate::network::Network::send);
//! dropped packets vanish silently (lossy
//! links do not report loss to senders) but are always counted in
//! [`Metrics`](crate::metrics::Metrics).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::message::MachineId;

/// Probabilistic per-link fault model, driven by a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-packet decisions.
    pub seed: u64,
    /// Probability a packet is silently dropped.
    pub drop_p: f64,
    /// Probability a packet is delivered twice.
    pub dup_p: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
        }
    }

    /// An empty plan with the given seed; combine with the `with_*`
    /// builders.
    pub const fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Drop each packet with probability `p`.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability out of range");
        self.drop_p = p;
        self
    }

    /// Duplicate each packet with probability `p`.
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        self.dup_p = p;
        self
    }

    /// True if this plan never injects anything.
    pub fn is_noop(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0
    }
}

/// SplitMix64's increment: the golden ratio in 64 bits.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: one well-mixed word from one input word. Every
/// seeded decision of the substrate — a packet's fate here, the virtual
/// clock's event tiebreak — is a draw of this hash, and so are the crates
/// above it that hash or draw from a seed (`workload`'s request stream,
/// `distarray`'s hashed page map).
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from the top 53 bits of a hash.
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// What the fault layer decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver `copies` copies (1 normally, 2 when duplicated), each after
    /// `extra_delay` of injected latency (a load spike's).
    Deliver { copies: u8, extra_delay: Duration },
    /// Source or destination machine is crashed.
    DropCrashed,
    /// The (src, dst) pair is partitioned.
    DropPartitioned,
    /// The seeded plan dropped the packet.
    DropRandom,
}

/// Shared fault state: the plan plus the scripted runtime faults.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    machines: usize,
    /// Per-link packet sequence numbers; the hash input that makes
    /// decisions deterministic per link regardless of scheduling.
    link_seq: Vec<AtomicU64>,
    /// Cut links, row-major `[src * machines + dst]`, both directions set.
    partitioned: Vec<AtomicBool>,
    /// Machines currently dark.
    crashed: Vec<AtomicBool>,
    /// Per-machine load-spike: extra delivery delay (nanos) added to every
    /// packet **to** the machine while nonzero. Models a machine that is
    /// up but drowning — packets arrive late, queues grow, timeouts fire —
    /// the overload shape behind DESIGN.md §15's degradation machinery.
    spiked: Vec<AtomicU64>,
    /// Runtime mute for the seeded plan (scripted crashes/partitions still
    /// apply). Lets a chaos test quiesce the fabric before shutdown.
    plan_suppressed: AtomicBool,
    /// Fast-path gate: false until the plan is non-noop or any runtime
    /// fault is injected, so fault-free clusters pay one load per send.
    active: AtomicBool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, machines: usize) -> Self {
        let links = machines * machines;
        FaultState {
            active: AtomicBool::new(!plan.is_noop()),
            plan,
            machines,
            link_seq: (0..links).map(|_| AtomicU64::new(0)).collect(),
            partitioned: (0..links).map(|_| AtomicBool::new(false)).collect(),
            crashed: (0..machines).map(|_| AtomicBool::new(false)).collect(),
            spiked: (0..machines).map(|_| AtomicU64::new(0)).collect(),
            plan_suppressed: AtomicBool::new(false),
        }
    }

    fn link(&self, src: MachineId, dst: MachineId) -> usize {
        src * self.machines + dst
    }

    fn is_crashed(&self, m: MachineId) -> bool {
        self.crashed
            .get(m)
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn is_partitioned(&self, src: MachineId, dst: MachineId) -> bool {
        self.partitioned
            .get(self.link(src, dst))
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn spike_nanos(&self, m: MachineId) -> u64 {
        self.spiked.get(m).map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// True while machine `m` pays a scripted load-spike delay.
    pub(crate) fn is_spiked(&self, m: MachineId) -> bool {
        self.spike_nanos(m) != 0
    }

    /// Decide the fate of the next packet on `src -> dst`.
    pub(crate) fn verdict(&self, src: MachineId, dst: MachineId) -> Verdict {
        const NONE: Verdict = Verdict::Deliver {
            copies: 1,
            extra_delay: Duration::ZERO,
        };
        if !self.active.load(Ordering::Relaxed) {
            return NONE;
        }
        if self.is_crashed(src) || self.is_crashed(dst) {
            return Verdict::DropCrashed;
        }
        if src == dst {
            // Loopback never traverses a link; only a crash silences it.
            return NONE;
        }
        if self.is_partitioned(src, dst) {
            return Verdict::DropPartitioned;
        }
        // Load spike at the destination: every inbound packet pays the
        // scripted extra delay. Deterministic (no hash draw) and composes
        // with the seeded plan's drops and duplicates below.
        let spike = Duration::from_nanos(self.spike_nanos(dst));
        if self.plan.is_noop() || self.plan_suppressed.load(Ordering::Relaxed) {
            if spike.is_zero() {
                return NONE;
            }
            return Verdict::Deliver {
                copies: 1,
                extra_delay: spike,
            };
        }
        let seq = self.link_seq[self.link(src, dst)].fetch_add(1, Ordering::Relaxed);
        let h = mix(self.plan.seed ^ mix((src as u64) << 32 | dst as u64) ^ mix(seq));
        if self.plan.drop_p > 0.0 && unit(mix(h ^ 1)) < self.plan.drop_p {
            return Verdict::DropRandom;
        }
        let copies = if self.plan.dup_p > 0.0 && unit(mix(h ^ 2)) < self.plan.dup_p {
            2
        } else {
            1
        };
        Verdict::Deliver {
            copies,
            extra_delay: spike,
        }
    }

    fn activate(&self) {
        self.active.store(true, Ordering::Relaxed);
    }
}

/// Runtime handle for scripting partitions and crashes. Cloneable; all
/// clones steer the same cluster.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: Arc<FaultState>,
    /// Whether the fabric has somewhere to apply a delay — it runs on
    /// virtual time (see [`spike`](FaultInjector::spike)).
    timed: bool,
}

impl FaultInjector {
    pub(crate) fn new(state: Arc<FaultState>, timed: bool) -> Self {
        FaultInjector { state, timed }
    }

    /// Cut the links between `a` and `b` in both directions.
    pub fn partition(&self, a: MachineId, b: MachineId) {
        self.state.activate();
        for (x, y) in [(a, b), (b, a)] {
            if let Some(c) = self.state.partitioned.get(self.state.link(x, y)) {
                c.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Restore the links between `a` and `b`.
    pub fn heal(&self, a: MachineId, b: MachineId) {
        for (x, y) in [(a, b), (b, a)] {
            if let Some(c) = self.state.partitioned.get(self.state.link(x, y)) {
                c.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Cut machine `m` away from every one of `peers` at once — the
    /// asymmetric-failure shape that induces *false* suspicion: `m` is
    /// perfectly healthy but the supervisor (and whoever else is listed)
    /// cannot tell it from a corpse. Equivalent to
    /// [`partition`](FaultInjector::partition) pairwise.
    pub fn isolate(&self, m: MachineId, peers: &[MachineId]) {
        for &p in peers {
            if p != m {
                self.partition(m, p);
            }
        }
    }

    /// Undo [`isolate`](FaultInjector::isolate) for the same peer set.
    pub fn rejoin(&self, m: MachineId, peers: &[MachineId]) {
        for &p in peers {
            if p != m {
                self.heal(m, p);
            }
        }
    }

    /// Take machine `m` off the network: every packet to or from it is
    /// dropped until [`restart`](FaultInjector::restart).
    pub fn crash(&self, m: MachineId) {
        self.state.activate();
        if let Some(c) = self.state.crashed.get(m) {
            c.store(true, Ordering::Relaxed);
        }
    }

    /// Bring machine `m` back onto the network (transient-outage model:
    /// in-memory state survives; packets dropped while dark are gone).
    pub fn restart(&self, m: MachineId) {
        if let Some(c) = self.state.crashed.get(m) {
            c.store(false, Ordering::Relaxed);
        }
    }

    /// Load-spike machine `m`: every packet delivered **to** it pays
    /// `extra` additional latency until [`unspike`](FaultInjector::unspike).
    /// The machine stays up and keeps serving — just ever later, the
    /// overload shape (queues grow, timeouts fire, breakers open) that
    /// DESIGN.md §15's degradation machinery exists for. Deterministic:
    /// no random draw is consumed, so a virtual-time chaos run replays
    /// byte-for-byte.
    ///
    /// # Panics
    /// On a real-time fabric, where `send` pushes straight into the inbox
    /// and the spike would be counted (`spike_delayed`) without delaying
    /// anything.
    pub fn spike(&self, m: MachineId, extra: Duration) {
        assert!(
            self.timed,
            "FaultInjector::spike({m}, {extra:?}): a real-time fabric delivers directly, so \
             nothing would be delayed; build the cluster on virtual time \
             (`ClusterConfig::with_virtual_time`)"
        );
        self.state.activate();
        if let Some(s) = self.state.spiked.get(m) {
            s.store(crate::time::nanos(extra), Ordering::Relaxed);
        }
    }

    /// Undo [`spike`](FaultInjector::spike): deliveries to `m` are prompt
    /// again.
    pub fn unspike(&self, m: MachineId) {
        if let Some(s) = self.state.spiked.get(m) {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// True if machine `m` currently pays a load-spike delay.
    pub fn is_spiked(&self, m: MachineId) -> bool {
        self.state.spike_nanos(m) != 0
    }

    /// True if machine `m` is currently dark.
    pub fn is_crashed(&self, m: MachineId) -> bool {
        self.state.is_crashed(m)
    }

    /// True if the pair `(a, b)` is currently partitioned.
    pub fn is_partitioned(&self, a: MachineId, b: MachineId) -> bool {
        self.state.is_partitioned(a, b)
    }

    /// Mute the seeded probabilistic plan (drops, dups). Scripted
    /// crashes and partitions still apply. Note that calm segments
    /// do not consume link sequence numbers, so the replay property holds
    /// as long as calm/resume points are program-deterministic.
    pub fn calm(&self) {
        self.state.plan_suppressed.store(true, Ordering::Relaxed);
    }

    /// Make every machine reachable: restart the crashed, heal every
    /// partition, lift every spike and [`calm`](FaultInjector::calm) the
    /// seeded plan. What a cluster does before it sends its stop orders —
    /// a machine that never hears one is never joined.
    pub fn heal_all(&self) {
        for down in self.state.crashed.iter().chain(&self.state.partitioned) {
            down.store(false, Ordering::Relaxed);
        }
        for spike in &self.state.spiked {
            spike.store(0, Ordering::Relaxed);
        }
        self.calm();
    }

    /// Undo [`calm`](FaultInjector::calm): the seeded plan applies again.
    pub fn resume(&self) {
        self.state.plan_suppressed.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_pattern(state: &FaultState, n: usize) -> Vec<bool> {
        (0..n)
            .map(|_| state.verdict(0, 1) == Verdict::DropRandom)
            .collect()
    }

    #[test]
    fn noop_plan_always_delivers() {
        let s = FaultState::new(FaultPlan::none(), 2);
        for _ in 0..100 {
            assert_eq!(
                s.verdict(0, 1),
                Verdict::Deliver {
                    copies: 1,
                    extra_delay: Duration::ZERO
                }
            );
        }
    }

    #[test]
    fn same_seed_same_pattern() {
        let a = FaultState::new(FaultPlan::seeded(7).with_drop(0.3), 2);
        let b = FaultState::new(FaultPlan::seeded(7).with_drop(0.3), 2);
        assert_eq!(drop_pattern(&a, 500), drop_pattern(&b, 500));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultState::new(FaultPlan::seeded(7).with_drop(0.3), 2);
        let b = FaultState::new(FaultPlan::seeded(8).with_drop(0.3), 2);
        assert_ne!(drop_pattern(&a, 500), drop_pattern(&b, 500));
    }

    #[test]
    fn links_are_independent() {
        // Interleaving traffic on another link must not perturb this one.
        let a = FaultState::new(FaultPlan::seeded(7).with_drop(0.3), 3);
        let b = FaultState::new(FaultPlan::seeded(7).with_drop(0.3), 3);
        let pat_a = drop_pattern(&a, 200);
        let pat_b: Vec<bool> = (0..200)
            .map(|_| {
                let _ = b.verdict(2, 1); // extra traffic on another link
                b.verdict(0, 1) == Verdict::DropRandom
            })
            .collect();
        assert_eq!(pat_a, pat_b);
    }

    #[test]
    fn drop_rate_close_to_p() {
        let s = FaultState::new(FaultPlan::seeded(1).with_drop(0.2), 2);
        let drops = drop_pattern(&s, 10_000).iter().filter(|&&d| d).count();
        assert!(
            (1_500..2_500).contains(&drops),
            "drop count {drops} far from 20%"
        );
    }

    #[test]
    fn duplicates_appear() {
        let s = FaultState::new(FaultPlan::seeded(1).with_dup(0.5), 2);
        let dups = (0..100)
            .filter(|_| matches!(s.verdict(0, 1), Verdict::Deliver { copies: 2, .. }))
            .count();
        assert!(dups > 10, "expected duplicates, got {dups}");
    }

    #[test]
    fn crash_and_restart_gate_traffic() {
        let s = Arc::new(FaultState::new(FaultPlan::none(), 3));
        let inj = FaultInjector::new(s.clone(), true);
        inj.crash(1);
        assert_eq!(s.verdict(0, 1), Verdict::DropCrashed);
        assert_eq!(s.verdict(1, 2), Verdict::DropCrashed);
        assert_eq!(s.verdict(1, 1), Verdict::DropCrashed);
        assert!(matches!(s.verdict(0, 2), Verdict::Deliver { .. }));
        inj.restart(1);
        assert!(matches!(s.verdict(0, 1), Verdict::Deliver { .. }));
    }

    #[test]
    fn partition_cuts_both_directions_until_healed() {
        let s = Arc::new(FaultState::new(FaultPlan::none(), 3));
        let inj = FaultInjector::new(s.clone(), true);
        inj.partition(0, 2);
        assert_eq!(s.verdict(0, 2), Verdict::DropPartitioned);
        assert_eq!(s.verdict(2, 0), Verdict::DropPartitioned);
        assert!(matches!(s.verdict(0, 1), Verdict::Deliver { .. }));
        inj.heal(0, 2);
        assert!(matches!(s.verdict(0, 2), Verdict::Deliver { .. }));
        assert!(!inj.is_partitioned(0, 2));
    }

    #[test]
    fn isolate_cuts_every_listed_peer_and_rejoin_restores() {
        let s = Arc::new(FaultState::new(FaultPlan::none(), 4));
        let inj = FaultInjector::new(s.clone(), true);
        inj.isolate(1, &[0, 2, 3, 1]); // own id in the list is ignored
        for p in [0, 2, 3] {
            assert_eq!(s.verdict(p, 1), Verdict::DropPartitioned);
            assert_eq!(s.verdict(1, p), Verdict::DropPartitioned);
        }
        assert!(matches!(s.verdict(0, 2), Verdict::Deliver { .. }));
        inj.rejoin(1, &[0, 2, 3]);
        for p in [0, 2, 3] {
            assert!(matches!(s.verdict(p, 1), Verdict::Deliver { .. }));
        }
    }

    #[test]
    fn loopback_is_exempt_from_the_plan() {
        let s = FaultState::new(FaultPlan::seeded(3).with_drop(1.0), 2);
        for _ in 0..50 {
            assert!(matches!(s.verdict(1, 1), Verdict::Deliver { .. }));
        }
    }

    #[test]
    fn calm_mutes_the_plan_but_not_scripted_faults() {
        let s = Arc::new(FaultState::new(FaultPlan::seeded(3).with_drop(1.0), 3));
        let inj = FaultInjector::new(s.clone(), true);
        assert_eq!(s.verdict(0, 1), Verdict::DropRandom);
        inj.calm();
        assert!(matches!(s.verdict(0, 1), Verdict::Deliver { .. }));
        inj.crash(2);
        assert_eq!(s.verdict(0, 2), Verdict::DropCrashed);
        inj.resume();
        assert_eq!(s.verdict(0, 1), Verdict::DropRandom);
    }

    #[test]
    fn heal_all_lifts_every_scripted_fault_and_mutes_the_plan() {
        let s = Arc::new(FaultState::new(FaultPlan::seeded(3).with_drop(1.0), 3));
        let inj = FaultInjector::new(s.clone(), true);
        inj.crash(0);
        inj.partition(1, 2);
        inj.spike(2, Duration::from_secs(1));
        inj.heal_all();
        const PROMPT: Verdict = Verdict::Deliver {
            copies: 1,
            extra_delay: Duration::ZERO,
        };
        for (src, dst) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)] {
            assert_eq!(s.verdict(src, dst), PROMPT, "{src} -> {dst}");
        }
        assert!(!inj.is_crashed(0) && !inj.is_partitioned(2, 1) && !inj.is_spiked(2));
    }

    #[test]
    fn spike_delays_inbound_packets_until_unspiked() {
        let s = Arc::new(FaultState::new(FaultPlan::none(), 3));
        let inj = FaultInjector::new(s.clone(), true);
        let extra = Duration::from_millis(2);
        inj.spike(1, extra);
        assert!(inj.is_spiked(1));
        // Inbound to the spiked machine pays the delay; other links do not.
        assert_eq!(
            s.verdict(0, 1),
            Verdict::Deliver {
                copies: 1,
                extra_delay: extra
            }
        );
        assert_eq!(
            s.verdict(1, 2),
            Verdict::Deliver {
                copies: 1,
                extra_delay: Duration::ZERO
            }
        );
        // Loopback is exempt: a machine talking to itself never queues on
        // the fabric.
        assert_eq!(
            s.verdict(1, 1),
            Verdict::Deliver {
                copies: 1,
                extra_delay: Duration::ZERO
            }
        );
        inj.unspike(1);
        assert!(!inj.is_spiked(1));
        assert_eq!(
            s.verdict(0, 1),
            Verdict::Deliver {
                copies: 1,
                extra_delay: Duration::ZERO
            }
        );
    }

    #[test]
    fn spike_composes_with_the_seeded_plan() {
        let spike = Duration::from_millis(7);
        let plan = FaultPlan::seeded(9).with_drop(0.2).with_dup(0.3);
        let planned = FaultState::new(plan.clone(), 2);
        let spiked = FaultState::new(plan, 2);
        spiked.spiked[1].store(spike.as_nanos() as u64, Ordering::Relaxed);
        spiked.activate();
        let (mut dropped, mut doubled) = (0, 0);
        for _ in 0..200 {
            match (planned.verdict(0, 1), spiked.verdict(0, 1)) {
                (Verdict::DropRandom, Verdict::DropRandom) => dropped += 1,
                (
                    Verdict::Deliver {
                        copies,
                        extra_delay: Duration::ZERO,
                    },
                    Verdict::Deliver {
                        copies: spiked_copies,
                        extra_delay,
                    },
                ) => {
                    assert_eq!(spiked_copies, copies, "the spike draws nothing");
                    assert_eq!(extra_delay, spike, "every delivery pays the spike");
                    doubled += usize::from(copies == 2);
                }
                other => panic!("unexpected verdicts {other:?}"),
            }
        }
        assert!(
            dropped > 0 && doubled > 0,
            "{dropped} dropped, {doubled} doubled"
        );
    }
}
