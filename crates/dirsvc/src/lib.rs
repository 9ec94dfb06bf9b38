//! Management plane of the sharded control plane (DESIGN.md §14).
//!
//! `oopp`'s [`NameService`] gives clients a *routing* view of the
//! partitioned directory: names hash to [`DirShard`](oopp::DirShard)
//! objects seated in the root directory. This crate keeps that shard map
//! **healthy**. A [`DirService`] enrolls every shard with the machinery
//! PRs 4–5 built for ordinary objects — exactly the paper's point that
//! system services are plain parallel objects:
//!
//! * unreplicated shards are registered with a [`Supervisor`]: their
//!   partitions are snapshot-replicated to backup machines and a primary
//!   crash heals by phi-accrual detection → CAS lease claim → fenced
//!   snapshot takeover;
//! * replicated shards (`read_replicas > 0`) are materialized through a
//!   [`ReplicaManager`] with write-through coherence: reads of the
//!   partition scale across the replica set, and a primary crash heals by
//!   CAS-fenced **promotion** of a surviving replica — state-preserving,
//!   no snapshot staleness — with the seat rebound in the root so every
//!   client's next re-resolve lands on the new primary.
//!
//! Either way the healing writes go through the root directory's lease
//! records, so racing recoveries arbitrate through the same `claim` CAS
//! as every other takeover in the system: exactly one incarnation wins.
//!
//! Drive it like the supervisor it wraps: [`DirService::attach`] once
//! after build, then [`DirService::step`] on the driver's control cadence
//! (and [`DirService::checkpoint`] at workload checkpoints to refresh the
//! snapshot backups of unreplicated shards).

use std::collections::HashSet;
use std::time::Duration;

use oopp::naming::shard_addr;
use oopp::{DirShardClient, NameService, NodeCtx, ObjRef, RemoteClient, RemoteError, RemoteResult};
use placement::{probe_loads, reactivation_target};
use replica::{ReplicaConfig, ReplicaManager};
use supervision::{Recovery, Supervisor, SupervisorConfig};

/// Tuning for a [`DirService`].
#[derive(Debug, Clone)]
pub struct DirServiceConfig {
    /// Read replicas per shard. `0` keeps shards unreplicated: recovery
    /// is the supervisor's snapshot takeover. `n > 0` materializes `n`
    /// read replicas per shard with write-through coherence; recovery is
    /// replica promotion.
    pub read_replicas: usize,
    /// Snapshot backup machines per unreplicated shard (min 1).
    pub snapshot_backups: usize,
    /// Supervision tuning (heartbeats, lease TTL, detector, restarts).
    pub supervisor: SupervisorConfig,
    /// Replication tuning (coherence mode, replica lease).
    pub replica: ReplicaConfig,
}

impl Default for DirServiceConfig {
    fn default() -> Self {
        DirServiceConfig {
            read_replicas: 0,
            snapshot_backups: 2,
            supervisor: SupervisorConfig::default(),
            replica: ReplicaConfig::default(),
        }
    }
}

/// Lifetime counters of one [`DirService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DirServiceStats {
    /// Shards enrolled at attach.
    pub shards_attached: u64,
    /// Machines the service has declared dead.
    pub machines_declared_dead: u64,
    /// Shard primaries healed by snapshot takeover.
    pub shard_takeovers: u64,
    /// Shard primaries healed by replica promotion.
    pub shard_promotions: u64,
}

/// What one [`DirService::step`] did.
#[derive(Debug, Clone, Default)]
pub struct DirStep {
    /// Snapshot takeovers completed this round (unreplicated shards).
    pub takeovers: Vec<Recovery>,
    /// Replica promotions completed this round: `(seat name, new primary)`.
    pub promotions: Vec<(String, ObjRef)>,
    /// Replicas re-synced by the coherence maintenance pass.
    pub synced: u64,
}

/// Supervises and replicates the [`DirShard`](oopp::DirShard) fleet of a
/// cluster built with [`dir_shards(n)`](oopp::ClusterBuilder::dir_shards).
///
/// Owns a [`Supervisor`] and a [`ReplicaManager`] pointed at the same
/// [`NameService`]; holds the driver-side state machine that routes a
/// dead machine to the right healing path per shard.
pub struct DirService {
    ns: NameService,
    machines: Vec<usize>,
    read_replicas: usize,
    snapshot_backups: usize,
    supervisor: Supervisor,
    replicas: ReplicaManager,
    /// Machines currently believed dead — the edge detector that fires
    /// `handle_dead_machine` exactly once per death (a resurrection
    /// re-arms it).
    dead: HashSet<usize>,
    stats: DirServiceStats,
}

impl DirService {
    /// A service for the cluster whose name service is `ns`, monitoring
    /// `machines` (every machine that may host a shard primary, replica,
    /// or snapshot backup; typically all workers).
    pub fn new(config: DirServiceConfig, machines: Vec<usize>, ns: NameService) -> Self {
        DirService {
            ns,
            machines: machines.clone(),
            read_replicas: config.read_replicas,
            snapshot_backups: config.snapshot_backups.max(1),
            supervisor: Supervisor::new(config.supervisor, machines, ns),
            replicas: ReplicaManager::new(config.replica, ns),
            dead: HashSet::new(),
            stats: DirServiceStats::default(),
        }
    }

    /// The name service this plane manages.
    pub fn name_service(&self) -> NameService {
        self.ns
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DirServiceStats {
        self.stats
    }

    /// The wrapped supervisor (detector state, supervision counters).
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The wrapped replica manager (replica sets, coherence counters).
    pub fn replicas(&self) -> &ReplicaManager {
        &self.replicas
    }

    /// True when the service currently believes `machine` is dead.
    pub fn is_dead(&self, machine: usize) -> bool {
        self.supervisor.is_dead(machine)
    }

    /// Pick the `n` least-loaded monitored machines, excluding `exclude`
    /// (a shard's own seat — a backup or replica beside its primary
    /// shares its fate). Best-effort: machines whose stats probe fails
    /// are skipped, and fewer than `n` may come back on a small cluster.
    fn pick_targets(&self, ctx: &mut NodeCtx, exclude: usize, n: usize) -> Vec<usize> {
        let others = self.machines.iter().copied().filter(|&m| m != exclude);
        let samples = probe_loads(ctx, others);
        let mut excluded = vec![exclude];
        let mut picked = Vec::with_capacity(n);
        while picked.len() < n {
            match reactivation_target(&samples, &excluded) {
                Some(m) => {
                    excluded.push(m);
                    picked.push(m);
                }
                None => break,
            }
        }
        picked
    }

    /// Enroll every shard of the cluster's shard map: snapshot-register
    /// unreplicated shards with the supervisor, or materialize each
    /// shard's read-replica set. Call once, after the cluster is built
    /// and before faults are possible. Returns the number of shards
    /// enrolled.
    pub fn attach(&mut self, ctx: &mut NodeCtx) -> RemoteResult<usize> {
        let shards = self.ns.shards();
        if shards == 0 {
            return Err(RemoteError::app(
                "DirService: cluster has a classic single directory; build with dir_shards(n > 0)",
            ));
        }
        for i in 0..shards {
            let name = shard_addr(i);
            let seat = self
                .ns
                .root_client()
                .lookup(ctx, name.clone())?
                .ok_or_else(|| {
                    RemoteError::app(format!(
                        "{name}: shard seat not bound in the root directory"
                    ))
                })?;
            let client: DirShardClient = RemoteClient::from_ref(seat);
            if self.read_replicas == 0 {
                let backups = self.pick_targets(ctx, seat.machine, self.snapshot_backups);
                if backups.is_empty() {
                    return Err(RemoteError::app(format!(
                        "{name}: no live backup machine for the shard snapshot"
                    )));
                }
                self.supervisor.register(ctx, &name, &client, &backups)?;
            } else {
                let targets = self.pick_targets(ctx, seat.machine, self.read_replicas);
                if targets.is_empty() {
                    return Err(RemoteError::app(format!(
                        "{name}: no live machine can host a replica of the shard"
                    )));
                }
                self.replicas.replicate(ctx, &name, &client, &targets)?;
            }
            self.stats.shards_attached += 1;
        }
        Ok(shards as usize)
    }

    /// One control round: pump the supervisor (heartbeats, death
    /// verdicts, snapshot takeovers of unreplicated shards), run the
    /// replica coherence pass, and — for each machine that *newly*
    /// crossed the dead threshold — shrink/promote every replicated
    /// shard that lost a replica or its primary there.
    pub fn step(&mut self, ctx: &mut NodeCtx) -> RemoteResult<DirStep> {
        let takeovers = self.supervisor.step(ctx)?;
        let synced = self.replicas.step(ctx)?;
        let mut promotions = Vec::new();
        for m in self.machines.clone() {
            if self.supervisor.is_dead(m) {
                if self.dead.insert(m) {
                    self.stats.machines_declared_dead += 1;
                    promotions.extend(self.replicas.handle_dead_machine(ctx, m)?);
                }
            } else {
                // Resurrected (probe answered after the dead verdict):
                // re-arm so a second death of the same machine heals too.
                self.dead.remove(&m);
            }
        }
        self.stats.shard_takeovers += takeovers.len() as u64;
        self.stats.shard_promotions += promotions.len() as u64;
        Ok(DirStep {
            takeovers,
            promotions,
            synced,
        })
    }

    /// Refresh the snapshot backups of every supervised (unreplicated)
    /// shard whose machine is up — recovery restores the *last
    /// replicated* partition, so call this at workload checkpoints.
    /// Returns how many shards were refreshed.
    pub fn checkpoint(&mut self, ctx: &mut NodeCtx) -> usize {
        self.supervisor.checkpoint(ctx)
    }

    /// Convenience driver: step until `machine`'s death has been detected
    /// (takeovers and promotions land in the same step as the verdict) or
    /// `budget` elapses on the cluster clock. Returns the steps'
    /// aggregated outcome. Intended for tests and benchmarks; production
    /// loops call [`step`](DirService::step) on their own cadence.
    pub fn heal_after_crash(
        &mut self,
        ctx: &mut NodeCtx,
        machine: usize,
        budget: Duration,
    ) -> RemoteResult<DirStep> {
        let mut out = DirStep::default();
        let deadline = ctx.now_nanos() + budget.as_nanos() as u64;
        loop {
            let round = self.step(ctx)?;
            out.takeovers.extend(round.takeovers);
            out.promotions.extend(round.promotions);
            out.synced += round.synced;
            if self.dead.contains(&machine) || ctx.now_nanos() >= deadline {
                break;
            }
            ctx.serve_for(Duration::from_millis(5));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unreplicated_with_two_backups() {
        let c = DirServiceConfig::default();
        assert_eq!(c.read_replicas, 0);
        assert_eq!(c.snapshot_backups, 2);
    }

    #[test]
    fn attach_refuses_a_classic_cluster() {
        let ns = NameService::classic(ObjRef {
            machine: 0,
            object: 1,
        });
        let svc = DirService::new(DirServiceConfig::default(), vec![0, 1], ns);
        assert_eq!(svc.name_service().shards(), 0);
        // `attach` needs a live ctx to fail remotely; the shard-count
        // refusal is pure, so check the guard's precondition here and the
        // remote path in tests/dirsvc.rs.
        assert_eq!(svc.stats().shards_attached, 0);
    }
}
