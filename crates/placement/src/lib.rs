//! Adaptive object placement: move hot objects to idle machines.
//!
//! The paper's programs place every object explicitly (`new(machine 1)
//! PageDevice(...)`) and the placement is then fixed for the object's
//! lifetime. Under a skewed workload that static choice is the whole
//! performance story: one machine serializes the hot objects while the
//! rest of the cluster idles. This crate closes the loop. A [`Balancer`]
//! polls per-machine load signals — served, deferred and shed calls from
//! the daemons' runtime counters, per-object call counts from the `loads`
//! probe — feeds them to a pluggable [`PlacementPolicy`], and executes the
//! resulting [`MigrationPlan`]s with the core's live migration
//! ([`NodeCtx::migrate`]): quiesce, transfer, commit, forward.
//!
//! Planning is **pure** (`policy.plan(&samples)` is a function of the
//! samples and nothing else), so policies are unit-testable without a
//! cluster, and the balancer's decisions under a seeded workload are
//! deterministic. Execution adds two dampers the pure plan can't express:
//! a **cooldown** (after any round that migrates, the balancer sits out
//! the next round, so two policies reacting to each other's traffic can't
//! thrash an object back and forth) and an
//! **unmovable set** (objects whose migration failed — e.g. a
//! non-persistent class — are not proposed again).

use std::collections::{HashMap, HashSet};

use oopp::{NodeCtx, NodeStats, ObjRef, RemoteError};

/// One machine's load over the window since the previous poll.
///
/// All counters are **deltas**, not lifetime totals: the balancer diffs
/// each poll against the last so a machine that was hot an hour ago and
/// idle now looks idle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineSample {
    /// Machine id.
    pub machine: usize,
    /// Object calls served this window (the primary load signal).
    pub calls: u64,
    /// Calls that had to be parked this window — queueing pressure; a
    /// machine can show few served calls precisely because it is
    /// saturated.
    pub deferred: u64,
    /// Requests this machine *shed* this window — `Overloaded` admission
    /// rejections plus CoDel-style sojourn drops (DESIGN.md §15). Shed
    /// calls are demand the machine turned away, so they never show up in
    /// `calls`; without this term an overloaded machine that rejects most
    /// of its traffic can look *idle* to the planner.
    pub shed: u64,
    /// Per-object served-call deltas, sorted by object id.
    pub objects: Vec<(u64, u64)>,
}

impl MachineSample {
    /// Extra weight of one shed call in [`load`](MachineSample::load):
    /// shedding means demand already exceeded capacity, which is a
    /// stronger overload signal than a parked (deferred) call.
    pub const SHED_WEIGHT: u64 = 4;

    /// Scalar load: served calls plus queueing pressure plus shed demand.
    /// Deferred calls count double — they mean the machine is not keeping
    /// up, which is worse than being busy — and shed calls count
    /// [`SHED_WEIGHT`](MachineSample::SHED_WEIGHT)-fold: the machine is
    /// already refusing work, so the planner must steer load away even
    /// when the served-call count looks modest.
    pub fn load(&self) -> u64 {
        self.calls + 2 * self.deferred + Self::SHED_WEIGHT * self.shed
    }
}

/// The sampled machines, least loaded first, ties broken by the lower
/// machine id so a seeded recovery is deterministic.
///
/// Pure, like [`PlacementPolicy::plan`]. Every control loop that picks a
/// home for something walks this one ranking: the supervisor tries its
/// survivors in this order, the directory service takes the first `n` as
/// backups or replicas. They use it instead of [`PlacementPolicy`] because
/// finding a home is not rebalancing: the object *must* land somewhere
/// even on a perfectly balanced cluster. An empty ranking means "no
/// survivors": escalate rather than reactivate onto a corpse.
pub fn rank_by_load(samples: &[MachineSample]) -> Vec<usize> {
    let mut ranked: Vec<&MachineSample> = samples.iter().collect();
    ranked.sort_by_key(|s| (s.load(), s.machine));
    ranked.into_iter().map(|s| s.machine).collect()
}

/// The load signal [`rank_by_load`] ranks: one lifetime sample
/// (calls served and deferred, from the daemon's stats) per candidate
/// machine that answers the probe — a machine that does not answer is no
/// candidate. Every control loop that picks a home for something samples
/// through here, so they cannot come to weigh machines differently. Runs
/// under the caller's call policy.
pub fn probe_loads(
    ctx: &mut NodeCtx,
    candidates: impl IntoIterator<Item = usize>,
) -> Vec<MachineSample> {
    let mut samples = Vec::new();
    for machine in candidates {
        if let Ok(st) = ctx.stats_of(machine) {
            samples.push(MachineSample {
                machine,
                calls: st.calls_served,
                deferred: st.calls_deferred,
                ..MachineSample::default()
            });
        }
    }
    samples
}

/// One planned move: migrate `object` to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The object to move (at its current address).
    pub object: ObjRef,
    /// Destination machine.
    pub target: usize,
    /// The load (per-object call delta) that motivated the move.
    pub load: u64,
}

/// How the balancer turns samples into moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementPolicy {
    /// Never move anything — the paper's fixed placement, and the
    /// experimental control.
    Static,
    /// Repeatedly move the best-fitting object from the most- to the
    /// least-loaded machine while the extremes differ by more than
    /// `imbalance_ratio`, up to `max_moves_per_round` moves. Each
    /// candidate object must actually shrink the gap: its load must be
    /// less than the load difference, else moving it would just swap
    /// which machine is hot.
    GreedyRebalance {
        /// Keep rebalancing while `max_load > imbalance_ratio * min_load`.
        imbalance_ratio: f64,
        /// Upper bound on moves per planning round.
        max_moves_per_round: usize,
    },
}

impl PlacementPolicy {
    /// Plan migrations for one poll window. Pure: no I/O, no hidden
    /// state; the same samples always produce the same plans.
    pub fn plan(&self, samples: &[MachineSample]) -> Vec<MigrationPlan> {
        match *self {
            PlacementPolicy::Static => Vec::new(),
            PlacementPolicy::GreedyRebalance {
                imbalance_ratio,
                max_moves_per_round,
            } => Self::plan_greedy(samples, imbalance_ratio, max_moves_per_round),
        }
    }

    fn plan_greedy(
        samples: &[MachineSample],
        imbalance_ratio: f64,
        max_moves_per_round: usize,
    ) -> Vec<MigrationPlan> {
        if samples.len() < 2 {
            return Vec::new();
        }
        let ratio = imbalance_ratio.max(1.0);
        let mut loads: Vec<u64> = samples.iter().map(|s| s.load()).collect();
        // Working copy of per-object loads, so one round can plan several
        // moves off the same machine without proposing the same object
        // twice.
        let mut objects: Vec<Vec<(u64, u64)>> = samples.iter().map(|s| s.objects.clone()).collect();
        let mut plans = Vec::new();
        while plans.len() < max_moves_per_round {
            let (hot, _) = match loads
                .iter()
                .enumerate()
                .max_by_key(|&(m, &l)| (l, usize::MAX - m))
            {
                Some(x) => x,
                None => break,
            };
            let (cool, _) = match loads.iter().enumerate().min_by_key(|&(m, &l)| (l, m)) {
                Some(x) => x,
                None => break,
            };
            if hot == cool || (loads[hot] as f64) <= ratio * (loads[cool].max(1) as f64) {
                break;
            }
            let gap = loads[hot] - loads[cool];
            // Hottest object that still shrinks the gap when moved.
            let candidate = objects[hot]
                .iter()
                .enumerate()
                .filter(|&(_, &(_, c))| c > 0 && c < gap)
                .max_by_key(|&(_, &(o, c))| (c, o))
                .map(|(idx, &(o, c))| (idx, o, c));
            let Some((idx, object, load)) = candidate else {
                break;
            };
            plans.push(MigrationPlan {
                object: ObjRef {
                    machine: samples[hot].machine,
                    object,
                },
                target: samples[cool].machine,
                load,
            });
            objects[hot].remove(idx);
            loads[hot] -= load;
            loads[cool] += load;
        }
        plans
    }
}

/// Closed-loop placement controller for one cluster.
///
/// Owns the polling state (previous counter values, so each round works
/// on deltas), the hysteresis, and the set of objects that refused to
/// move. Drive it from the machine that coordinates the workload —
/// typically the driver — by calling [`step`](Balancer::step) between
/// workload rounds.
#[derive(Debug)]
pub struct Balancer {
    policy: PlacementPolicy,
    machines: Vec<usize>,
    /// The previous round migrated: sit this one out.
    cooling: bool,
    prev_object_calls: HashMap<usize, HashMap<u64, u64>>,
    prev_node: HashMap<usize, NodeStats>,
    unmovable: HashSet<ObjRef>,
    pinned: HashSet<ObjRef>,
    replicated: HashSet<ObjRef>,
    moves_executed: u64,
    moves_skipped_replicated: u64,
}

impl Balancer {
    /// A balancer managing `machines` under `policy`, with a hysteresis
    /// of one round.
    pub fn new(policy: PlacementPolicy, machines: Vec<usize>) -> Self {
        Balancer {
            policy,
            machines,
            cooling: false,
            prev_object_calls: HashMap::new(),
            prev_node: HashMap::new(),
            unmovable: HashSet::new(),
            pinned: HashSet::new(),
            replicated: HashSet::new(),
            moves_executed: 0,
            moves_skipped_replicated: 0,
        }
    }

    /// Never propose moving `obj` (e.g. an object with machine-local
    /// state such as an open device, or the naming directory).
    pub fn pin(&mut self, obj: ObjRef) {
        self.pinned.insert(obj);
    }

    /// Install the current replica footprint: the primaries of replicated
    /// objects, which refuse migration while their replica set exists
    /// (DESIGN.md §11). Call with the primaries reported by
    /// `replica::ReplicaManager` before each [`step`](Balancer::step);
    /// the whole set is replaced, so an object whose replicas were torn
    /// down becomes movable again at the next feed. Plans against these
    /// objects are *skipped* (counted in
    /// [`moves_skipped_replicated`](Balancer::moves_skipped_replicated))
    /// instead of being attempted, failing with
    /// [`RemoteError::Replicated`], and blacklisting the object forever.
    pub fn set_replicated(&mut self, primaries: impl IntoIterator<Item = ObjRef>) {
        self.replicated = primaries.into_iter().collect();
    }

    /// Migrations executed over this balancer's lifetime.
    pub fn moves_executed(&self) -> u64 {
        self.moves_executed
    }

    /// Plans skipped because their object is a replicated primary — via
    /// the [`set_replicated`](Balancer::set_replicated) footprint, or via
    /// a `Replicated` refusal when the footprint feed was stale.
    pub fn moves_skipped_replicated(&self) -> u64 {
        self.moves_skipped_replicated
    }

    /// Poll every managed machine and return this window's load deltas.
    /// A machine that does not answer both probes is left out of this
    /// window, as [`probe_loads`] leaves it out: one dark machine must not
    /// stop the rest of the cluster from being planned.
    pub fn sample(&mut self, ctx: &mut NodeCtx) -> Vec<MachineSample> {
        let mut samples = Vec::with_capacity(self.machines.len());
        for &m in &self.machines.clone() {
            // A dark machine costs one probe window per step, not two.
            let Ok(stats) = ctx.stats_of(m) else { continue };
            let Ok(loads) = ctx.loads_of(m) else { continue };
            let prev = self.prev_node.insert(m, stats).unwrap_or_default();
            let delta = stats.since(&prev);
            let prev_objects = self.prev_object_calls.entry(m).or_default();
            let mut objects = Vec::with_capacity(loads.len());
            for &(o, c) in &loads {
                let before = prev_objects.insert(o, c).unwrap_or(0);
                objects.push((o, c.saturating_sub(before)));
            }
            // Objects that disappeared (destroyed or migrated away) drop
            // out of the previous-poll table too.
            prev_objects.retain(|o, _| loads.binary_search_by_key(o, |&(id, _)| id).is_ok());
            samples.push(MachineSample {
                machine: m,
                calls: delta.calls_served,
                deferred: delta.calls_deferred,
                // Both admission rejections and sojourn drops are turned-away
                // demand; either alone means the machine is past saturation.
                shed: delta.calls_shed_overload + delta.calls_shed_sojourn,
                objects,
            });
        }
        samples
    }

    /// One control round: poll, plan, execute. Returns the plans that
    /// were actually executed. In the round after one that migrated (the
    /// cooldown) the balancer still polls, so the deltas stay one window
    /// wide, but plans nothing. A failed move is the balancer's to absorb,
    /// never the caller's: it rolls back and its object is not proposed
    /// again.
    pub fn step(&mut self, ctx: &mut NodeCtx) -> Vec<MigrationPlan> {
        let samples = self.sample(ctx);
        if std::mem::take(&mut self.cooling) {
            return Vec::new();
        }
        let mut executed = Vec::new();
        for plan in self.policy.plan(&samples) {
            if self.unmovable.contains(&plan.object) || self.pinned.contains(&plan.object) {
                continue;
            }
            if self.replicated.contains(&plan.object) {
                // A replicated primary refuses migration by contract;
                // skip the plan outright instead of burning a round trip
                // on a guaranteed `Replicated` refusal.
                self.moves_skipped_replicated += 1;
                continue;
            }
            match ctx.migrate(plan.object, plan.target) {
                Ok(_) => {
                    self.moves_executed += 1;
                    // The object's counters live on its new machine now;
                    // forget the old identity.
                    if let Some(prev) = self.prev_object_calls.get_mut(&plan.object.machine) {
                        prev.remove(&plan.object.object);
                    }
                    executed.push(plan);
                }
                Err(RemoteError::Replicated { .. }) => {
                    // The footprint feed was stale (or absent): learn the
                    // object here rather than blacklisting it — it becomes
                    // movable again once its replica set is torn down and
                    // the next set_replicated() drops it from the set.
                    self.moves_skipped_replicated += 1;
                    self.replicated.insert(plan.object);
                }
                Err(_) => {
                    // NotPersistent, dead target, mid-move crash — the
                    // core rolled back; don't propose this object again.
                    self.unmovable.insert(plan.object);
                }
            }
        }
        self.cooling = !executed.is_empty();
        executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(machine: usize, objects: &[(u64, u64)]) -> MachineSample {
        MachineSample {
            machine,
            calls: objects.iter().map(|&(_, c)| c).sum(),
            deferred: 0,
            shed: 0,
            objects: objects.to_vec(),
        }
    }

    fn max_load(samples: &[MachineSample]) -> u64 {
        samples.iter().map(|s| s.load()).max().unwrap_or(0)
    }

    fn apply(samples: &mut [MachineSample], plans: &[MigrationPlan]) {
        for p in plans {
            let src = samples
                .iter_mut()
                .find(|s| s.machine == p.object.machine)
                .expect("source sampled");
            let idx = src
                .objects
                .iter()
                .position(|&(o, _)| o == p.object.object)
                .expect("object sampled");
            let (_, load) = src.objects.remove(idx);
            src.calls -= load;
            let dst = samples
                .iter_mut()
                .find(|s| s.machine == p.target)
                .expect("target sampled");
            dst.calls += load;
            dst.objects.push((p.object.object, load));
        }
    }

    #[test]
    fn static_policy_never_moves() {
        let samples = vec![
            sample(0, &[(1, 1000), (2, 900)]),
            sample(1, &[]),
            sample(2, &[(3, 1)]),
        ];
        assert!(PlacementPolicy::Static.plan(&samples).is_empty());
    }

    #[test]
    fn greedy_moves_hot_objects_to_idle_machines_and_reduces_imbalance() {
        let mut samples = vec![
            sample(0, &[(1, 400), (2, 300), (3, 200), (4, 100)]),
            sample(1, &[(5, 10)]),
            sample(2, &[]),
        ];
        let policy = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.5,
            max_moves_per_round: 8,
        };
        let before = max_load(&samples);
        let plans = policy.plan(&samples);
        assert!(!plans.is_empty());
        // Every move leaves the hot machine, none enters it.
        assert!(plans.iter().all(|p| p.object.machine == 0 && p.target != 0));
        apply(&mut samples, &plans);
        assert!(
            max_load(&samples) < before,
            "rebalancing must shrink the peak"
        );
    }

    #[test]
    fn greedy_never_swaps_hot_for_hot() {
        // One object carries all the load: moving it would just relocate
        // the hotspot, so the plan must be empty.
        let samples = vec![sample(0, &[(1, 1000)]), sample(1, &[])];
        let policy = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.2,
            max_moves_per_round: 8,
        };
        assert!(policy.plan(&samples).is_empty());
    }

    #[test]
    fn greedy_respects_move_budget() {
        let samples = vec![
            sample(
                0,
                &[(1, 100), (2, 100), (3, 100), (4, 100), (5, 100), (6, 100)],
            ),
            sample(1, &[]),
        ];
        let policy = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.1,
            max_moves_per_round: 2,
        };
        assert!(policy.plan(&samples).len() <= 2);
    }

    #[test]
    fn greedy_is_deterministic() {
        let samples = vec![
            sample(0, &[(1, 250), (2, 250), (3, 100)]),
            sample(1, &[(7, 20)]),
            sample(2, &[]),
        ];
        let policy = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.3,
            max_moves_per_round: 4,
        };
        assert_eq!(policy.plan(&samples), policy.plan(&samples));
    }

    #[test]
    fn balanced_cluster_plans_nothing() {
        let samples = vec![
            sample(0, &[(1, 100)]),
            sample(1, &[(2, 110)]),
            sample(2, &[(3, 95)]),
        ];
        let policy = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.5,
            max_moves_per_round: 8,
        };
        assert!(policy.plan(&samples).is_empty());
    }

    #[test]
    fn reactivation_target_picks_least_loaded_survivor() {
        let samples = vec![
            sample(0, &[(1, 500)]),
            sample(1, &[(2, 10)]),
            sample(2, &[(3, 200)]),
        ];
        // Machine 1 is the coolest, then 2; the hot machine comes last.
        assert_eq!(rank_by_load(&samples), vec![1, 2, 0]);
        // No samples, no survivors: refuse rather than pick a corpse.
        assert!(rank_by_load(&[]).is_empty());
    }

    #[test]
    fn reactivation_target_breaks_ties_deterministically() {
        let samples = vec![sample(2, &[]), sample(1, &[]), sample(3, &[])];
        // Equal loads: lowest machine id wins regardless of sample order.
        assert_eq!(rank_by_load(&samples), vec![1, 2, 3]);
    }

    #[test]
    fn deferred_calls_count_as_extra_load() {
        let busy = MachineSample {
            deferred: 10,
            calls: 5,
            ..Default::default()
        };
        assert_eq!(busy.load(), 25);
    }

    #[test]
    fn shed_calls_count_heaviest_in_the_load_signal() {
        // A machine rejecting most of its demand serves few calls; the
        // shed term must still make it the hottest in the sample set.
        let shedding = MachineSample {
            calls: 5,
            shed: 10,
            ..Default::default()
        };
        assert_eq!(shedding.load(), 5 + MachineSample::SHED_WEIGHT * 10);
        let busy = MachineSample {
            calls: 30,
            ..Default::default()
        };
        assert!(shedding.load() > busy.load());
    }

    #[test]
    fn greedy_steers_load_off_a_shedding_machine() {
        // Served calls alone say machine 1 is the hot one (300 vs 120),
        // but machine 0 is *shedding*: its admission control turned away
        // 200 requests this window. The shed-aware load signal must make
        // machine 0 the source of every move.
        let mut shedding = sample(0, &[(1, 80), (2, 40)]);
        shedding.shed = 200;
        let samples = vec![shedding, sample(1, &[(3, 300)]), sample(2, &[])];
        let plans = PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.3,
            max_moves_per_round: 4,
        }
        .plan(&samples);
        assert!(!plans.is_empty());
        assert!(
            plans.iter().all(|p| p.object.machine == 0 && p.target != 0),
            "moves must leave the shedding machine, got {plans:?}"
        );
    }
}
