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
//!   crash heals by lease-lapse detection → CAS lease claim → fenced
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
use placement::{probe_loads, rank_by_load};
use replica::{ReplicaConfig, ReplicaManager};
use supervision::{Recovery, Supervisor};

/// Snapshot backup machines per unreplicated shard.
const SNAPSHOT_BACKUPS: usize = 2;

/// Tuning for a [`DirService`]. An unreplicated shard's snapshot goes to
/// the two least-loaded monitored machines besides its own.
#[derive(Debug, Clone)]
pub struct DirServiceConfig {
    /// Read replicas per shard. `0` keeps shards unreplicated: recovery
    /// is the supervisor's snapshot takeover. `n > 0` materializes `n`
    /// read replicas per shard with write-through coherence; recovery is
    /// replica promotion.
    pub read_replicas: usize,
    /// The supervisor's serving lease (see [`Supervisor::new`]).
    pub lease_ttl: Duration,
    /// Replication tuning (coherence mode, replica lease).
    pub replica: ReplicaConfig,
}

impl Default for DirServiceConfig {
    fn default() -> Self {
        DirServiceConfig {
            read_replicas: 0,
            lease_ttl: Duration::from_millis(200),
            replica: ReplicaConfig::default(),
        }
    }
}

/// What one [`DirService::step`] did. The lifetime counts are the wrapped
/// loops' own: [`Supervisor::stats`] for deaths and takeovers,
/// [`ReplicaManager::stats`] for promotions — every name either one
/// manages here is a shard.
#[derive(Debug, Clone, Default)]
pub struct DirStep {
    /// Snapshot takeovers completed this round (unreplicated shards).
    pub takeovers: Vec<Recovery>,
    /// Replica promotions completed this round: `(seat name, new primary)`.
    pub promotions: Vec<(String, ObjRef)>,
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
    supervisor: Supervisor,
    replicas: ReplicaManager,
    /// Machines currently believed dead — the edge detector that fires
    /// `handle_dead_machine` exactly once per death (a resurrection
    /// re-arms it).
    dead: HashSet<usize>,
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
            supervisor: Supervisor::new(config.lease_ttl, machines, ns),
            replicas: ReplicaManager::new(config.replica, ns),
            dead: HashSet::new(),
        }
    }

    /// The wrapped supervisor (heartbeat state, supervision counters).
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
        let ranked = rank_by_load(&probe_loads(ctx, others));
        ranked.into_iter().take(n).collect()
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
                let backups = self.pick_targets(ctx, seat.machine, SNAPSHOT_BACKUPS);
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
        self.replicas.step(ctx)?;
        let mut promotions = Vec::new();
        for m in self.machines.clone() {
            if self.supervisor.is_dead(m) {
                if self.dead.insert(m) {
                    promotions.extend(self.replicas.handle_dead_machine(ctx, m)?);
                }
            } else {
                // Resurrected (probe answered after the dead verdict):
                // re-arm so a second death of the same machine heals too.
                self.dead.remove(&m);
            }
        }
        Ok(DirStep {
            takeovers,
            promotions,
        })
    }

    /// Refresh the snapshot backups of every supervised (unreplicated)
    /// shard whose machine is up — recovery restores the *last
    /// replicated* partition, so call this at workload checkpoints.
    /// Returns how many shards were refreshed.
    pub fn checkpoint(&mut self, ctx: &mut NodeCtx) -> usize {
        self.supervisor.checkpoint(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_unreplicated_with_two_backups() {
        let c = DirServiceConfig::default();
        assert_eq!(c.read_replicas, 0);
        assert_eq!(SNAPSHOT_BACKUPS, 2);
    }
}
