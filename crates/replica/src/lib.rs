//! Coherent read replication (DESIGN.md §11).
//!
//! The paper's model gives every object exactly one process, so a
//! read-hot object serializes the whole cluster behind one mailbox.
//! Migration (the placement subsystem) can move that bottleneck but not
//! split it. This crate splits it: a persistent object's snapshot is
//! materialized as N **read replicas**, the class's `reads(...)` verbs
//! are served by any replica, and every other verb still runs at the
//! single primary — which keeps the paper's sequential-semantics story
//! intact for writes while read throughput scales with the replica
//! count (experiment E12).
//!
//! ## Coherence
//!
//! Replica reads are gated by two checks on the serving machine: a
//! **coherence lease** (a replica whose lease lapsed refuses with
//! [`StaleReplica`](oopp::RemoteError::StaleReplica) and the caller
//! falls back to the primary) and the frame's **replica-set epoch** (a
//! caller that has learned a newer epoch than the replica has synced
//! refuses the same way). The primary bumps its replica-set epoch on
//! every write; in [`CoherenceMode::WriteThrough`] it pushes the new
//! state to every live replica *before acknowledging the write*, so any
//! read that observes the ack — at any replica — observes the write. A
//! replica that cannot be reached during the push is dropped from the
//! set and its lease is waited out, so no live-leased replica can miss
//! an acknowledged write. [`CoherenceMode::BoundedStaleness`] skips the
//! synchronous push: writes ack immediately and the [`ReplicaManager`]
//! re-syncs lagging replicas on its next [`step`](ReplicaManager::step),
//! bounding staleness by the lease lifetime.
//!
//! ## Fencing and failover
//!
//! Replica-set *membership* is arbitrated through the naming directory
//! exactly like incarnation takeovers: `set_replicas` is a CAS on the
//! record's replica-set epoch, so of two racing managers exactly one
//! installs its set. When the primary's machine dies, the manager runs
//! the supervisor's takeover transaction, [`NameService::recover`]: it
//! wins the name's incarnation claim, promotes a surviving replica in
//! place — no snapshot restore, the replica *is* a live copy — and
//! re-binds the name fenced at the new epoch. Replicated objects are
//! **unmovable**: `migrate_out` refuses them, because a migration's
//! forwarding stub would bypass the coherence gate (scale the replica set
//! instead; see DESIGN.md §11).

use std::collections::HashSet;
use std::time::Duration;

use oopp::wire::collections::Bytes;
use oopp::{
    EventKind, NameService, NodeCtx, ObjRef, RemoteClient, RemoteError, RemoteResult, Takeover,
};

/// How a replica set stays coherent with its primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Every write at the primary synchronously re-syncs all live
    /// replicas before the write is acknowledged: any read that observes
    /// the ack observes the write (read-your-writes, everywhere).
    WriteThrough,
    /// Writes acknowledge immediately; the manager re-syncs replicas on
    /// its next [`step`](ReplicaManager::step). Replica reads may trail
    /// the primary by at most the coherence-lease lifetime.
    BoundedStaleness,
}

/// Tuning for a [`ReplicaManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaConfig {
    /// Coherence discipline for every set this manager runs.
    pub mode: CoherenceMode,
    /// Coherence-lease lifetime granted to each replica. A replica whose
    /// lease lapses refuses reads until the next sync or renewal, so
    /// [`step`](ReplicaManager::step) must run at least this often for
    /// replica reads to keep flowing under [`CoherenceMode::BoundedStaleness`]
    /// (under write-through, every write also renews).
    pub lease: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            mode: CoherenceMode::WriteThrough,
            lease: Duration::from_millis(250),
        }
    }
}

/// Lifetime counters of one manager.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Replicas materialized (initial sets plus grows).
    pub replicas_created: u64,
    /// Replicas removed (shrinks, machine deaths, promotions).
    pub replicas_dropped: u64,
    /// Replicas promoted to primary after a primary-machine death.
    pub promotions: u64,
    /// Full state pushes performed by [`step`](ReplicaManager::step); each
    /// records `ReplicaSync`, as a primary's write-through push (counted in
    /// [`NodeStats`](oopp::NodeStats)) does, so neither count derives from it.
    pub syncs: u64,
    /// Lease renewals performed by [`step`](ReplicaManager::step).
    pub renewals: u64,
}

/// One replicated name under management.
#[derive(Debug)]
struct Managed {
    name: String,
    primary: ObjRef,
    replicas: Vec<ObjRef>,
    /// Replica-set *membership* epoch, from the directory CAS.
    rs_epoch: u64,
    read_verbs: &'static [&'static str],
}

/// Step-driven controller for the read-replica sets of one cluster.
///
/// Like the placement `Balancer` and the supervision `Supervisor`, the
/// manager runs on the coordinating machine and is driven by calling
/// [`step`](ReplicaManager::step) between workload rounds. It owns no
/// replica state itself — the directory arbitrates membership, the
/// primaries' machines own the coherence protocol — so losing the
/// manager loses nothing but the renewal cadence.
#[derive(Debug)]
pub struct ReplicaManager {
    config: ReplicaConfig,
    dir: NameService,
    managed: Vec<Managed>,
    stats: ReplicaStats,
}

impl ReplicaManager {
    /// A manager arbitrating replica sets through the naming directory.
    pub fn new(config: ReplicaConfig, dir: NameService) -> Self {
        ReplicaManager {
            config,
            dir,
            managed: Vec::new(),
            stats: ReplicaStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// The current primary of a managed name.
    pub fn primary_of(&self, name: &str) -> Option<ObjRef> {
        self.entry(name).map(|e| e.primary)
    }

    /// The current replica set of a managed name.
    pub fn replicas_of(&self, name: &str) -> Option<Vec<ObjRef>> {
        self.entry(name).map(|e| e.replicas.clone())
    }

    fn entry(&self, name: &str) -> Option<&Managed> {
        self.managed.iter().find(|e| e.name == name)
    }

    fn lease_millis(&self) -> u64 {
        self.config.lease.as_millis() as u64
    }

    fn write_through(&self) -> bool {
        self.config.mode == CoherenceMode::WriteThrough
    }

    /// Materialize read replicas of `client` (bound in the directory as
    /// `name`) on `targets`, one replica per machine. The class must
    /// declare `reads(...)` verbs — an all-write class has nothing a
    /// replica could serve. Returns the replica addresses.
    ///
    /// Call this quiescent (no concurrent writers of the object): the
    /// replicas are seeded from a point-in-time snapshot and the primary
    /// only starts write propagation once its set is attached.
    pub fn replicate<C: RemoteClient>(
        &mut self,
        ctx: &mut NodeCtx,
        name: &str,
        client: &C,
        targets: &[usize],
    ) -> RemoteResult<Vec<ObjRef>> {
        if C::READ_VERBS.is_empty() {
            return Err(RemoteError::app(format!(
                "class {} declares no reads(...) verbs; a replica of it could serve nothing",
                C::CLASS
            )));
        }
        if targets.is_empty() {
            return Err(RemoteError::app(format!(
                "{name}: replicate called with an empty target list"
            )));
        }
        let machines = ctx.machines();
        if let Some(&bad) = targets.iter().find(|&&m| m >= machines) {
            return Err(RemoteError::app(format!(
                "{name}: replica target machine {bad} out of range (cluster has {machines} \
                 machines)"
            )));
        }
        if self.entry(name).is_some() {
            return Err(RemoteError::app(format!("{name}: already replicated")));
        }
        let dir = self.dir;
        let primary = client.obj_ref();
        let Some((bound, _, poisoned)) = dir.lease_of(ctx, name.to_string())? else {
            return Err(RemoteError::app(format!(
                "{name}: not bound in the directory; bind (or register with the supervisor) first"
            )));
        };
        if poisoned || bound != primary {
            return Err(RemoteError::app(format!(
                "{name}: directory binding does not match the given client"
            )));
        }
        let (_, rs_now) = dir
            .replica_set(ctx, name.to_string())?
            .unwrap_or((Vec::new(), 0));
        // `set_replicas` bumps by exactly one, so the epoch the replicas
        // must be adopted at is known before the CAS lands.
        let rs_next = rs_now + 1;
        let state = ctx.snapshot_of(primary)?;
        let mut replicas = Vec::with_capacity(targets.len());
        for &m in targets {
            if m == primary.machine {
                continue; // a replica beside its primary adds nothing
            }
            let r = ctx.replica_adopt(
                m,
                C::CLASS,
                state.clone(),
                primary,
                rs_next,
                self.lease_millis(),
            )?;
            replicas.push(r);
        }
        if dir
            .set_replicas(ctx, name.to_string(), replicas.clone(), rs_now)?
            .is_none()
        {
            // Lost the membership CAS to a concurrent manager: undo the
            // adoptions and let the winner's set stand.
            for r in replicas {
                let _ = ctx.replica_drop(r);
            }
            return Err(RemoteError::app(format!(
                "{name}: replica-set CAS lost (epoch moved past {rs_now})"
            )));
        }
        ctx.replica_attach(
            primary,
            replicas.clone(),
            rs_next,
            self.write_through(),
            self.lease_millis(),
        )?;
        ctx.register_replica_route_raw(primary, replicas.clone(), rs_next, C::READ_VERBS);
        ctx.trace_marker(
            EventKind::ReplicaScale,
            primary.machine,
            replicas.len() as u32,
        );
        self.stats.replicas_created += replicas.len() as u64;
        self.managed.push(Managed {
            name: name.to_string(),
            primary,
            replicas: replicas.clone(),
            rs_epoch: rs_next,
            read_verbs: C::READ_VERBS,
        });
        Ok(replicas)
    }

    /// Stop replicating `name`: drop every replica (each leaves a
    /// forwarding stub toward the primary), clear the directory set, and
    /// detach the primary. The object becomes a normal — and movable —
    /// single process again.
    pub fn unreplicate(&mut self, ctx: &mut NodeCtx, name: &str) -> RemoteResult<()> {
        let Some(idx) = self.managed.iter().position(|e| e.name == name) else {
            return Ok(());
        };
        let e = self.managed.remove(idx);
        let dir = self.dir;
        for &r in &e.replicas {
            let _ = ctx.replica_drop(r);
            self.stats.replicas_dropped += 1;
        }
        if let Some((_, rs)) = dir.replica_set(ctx, name.to_string())? {
            let _ = dir.set_replicas(ctx, name.to_string(), Vec::new(), rs)?;
        }
        ctx.replica_attach(e.primary, Vec::new(), e.rs_epoch, self.write_through(), 0)?;
        ctx.drop_replica_route(e.primary);
        ctx.trace_marker(EventKind::ReplicaScale, e.primary.machine, 0);
        Ok(())
    }

    /// One maintenance round: renew every replica's coherence lease, and
    /// push fresh state to any replica that has drifted behind the
    /// primary's replica-set epoch (the bounded-staleness re-sync path;
    /// under write-through the primary keeps replicas current and this
    /// degenerates to cheap renewals). Returns how many replicas were
    /// re-synced. Unreachable machines are skipped — death is handled by
    /// [`handle_dead_machine`](ReplicaManager::handle_dead_machine).
    pub fn step(&mut self, ctx: &mut NodeCtx) -> RemoteResult<u64> {
        let lease = self.lease_millis();
        let mut synced = 0;
        for i in 0..self.managed.len() {
            let primary = self.managed[i].primary;
            let Ok(status) = ctx.replica_status_of(primary) else {
                continue; // primary unreachable; failover is not step's job
            };
            let mut state: Option<Bytes> = None;
            for r in self.managed[i].replicas.clone() {
                match ctx.replica_renew(r, status.rs_epoch, lease) {
                    Ok(true) => self.stats.renewals += 1,
                    Ok(false) => {
                        // Drifted: fetch the primary's state once, push it.
                        if state.is_none() {
                            state = Some(ctx.snapshot_of(primary)?);
                        }
                        let s = state.clone().expect("just fetched");
                        if ctx.replica_sync_to(r, s, status.rs_epoch, lease).is_ok() {
                            self.stats.syncs += 1;
                            synced += 1;
                            ctx.trace_marker(EventKind::ReplicaSync, r.machine, 0);
                        }
                    }
                    Err(_) => {} // unreachable or mid-call; next round
                }
            }
        }
        Ok(synced)
    }

    /// React to a machine declared dead: shrink every set that had a
    /// replica there, and for every set whose *primary* lived there,
    /// CAS-promote a surviving replica into the primary role. Returns the
    /// promotions performed as `(name, new_primary)`.
    ///
    /// Promotion is the supervisor's takeover transaction —
    /// [`NameService::recover`], a CAS on the name's incarnation epoch —
    /// so a manager racing a snapshot-restoring supervisor cannot split
    /// the brain: exactly one wins the claim, and the loser adopts the
    /// winner's incarnation once it is bound.
    pub fn handle_dead_machine(
        &mut self,
        ctx: &mut NodeCtx,
        dead: usize,
    ) -> RemoteResult<Vec<(String, ObjRef)>> {
        ctx.forget_machine(dead);
        let mut promoted = Vec::new();
        for i in 0..self.managed.len() {
            if self.managed[i].primary.machine == dead {
                if let Some(p) = self.failover(ctx, i, dead)? {
                    promoted.push((self.managed[i].name.clone(), p));
                }
            } else if self.managed[i].replicas.iter().any(|r| r.machine == dead) {
                self.shrink_dead(ctx, i, dead)?;
            }
        }
        Ok(promoted)
    }

    /// Drop entry `i`'s replicas on `dead` from the directory set, the
    /// primary's attachment, and the local route.
    fn shrink_dead(&mut self, ctx: &mut NodeCtx, i: usize, dead: usize) -> RemoteResult<()> {
        let dir = self.dir;
        let name = self.managed[i].name.clone();
        let lost = self.managed[i]
            .replicas
            .iter()
            .filter(|r| r.machine == dead)
            .count() as u64;
        // The supervisor's declare-dead purge may have scrubbed the
        // directory already; converge on a set with no dead entries
        // whether or not it ran.
        for _ in 0..3 {
            let Some((set, rs)) = dir.replica_set(ctx, name.clone())? else {
                break;
            };
            let clean: Vec<ObjRef> = set.iter().copied().filter(|r| r.machine != dead).collect();
            if clean.len() == set.len() {
                self.managed[i].rs_epoch = rs;
                break;
            }
            if let Some(rs1) = dir.set_replicas(ctx, name.clone(), clean, rs)? {
                self.managed[i].rs_epoch = rs1;
                break;
            }
            // CAS lost to a concurrent purge; re-read and retry.
        }
        self.managed[i].replicas.retain(|r| r.machine != dead);
        self.stats.replicas_dropped += lost;
        let e = &self.managed[i];
        // The surviving replicas have synced past the membership epoch;
        // re-attach at the primary's current write epoch so its next
        // write continues the same stream.
        let rs_attach = match ctx.replica_status_of(e.primary) {
            Ok(st) => st.rs_epoch.max(e.rs_epoch),
            Err(_) => e.rs_epoch,
        };
        ctx.replica_attach(
            e.primary,
            e.replicas.clone(),
            rs_attach,
            self.write_through(),
            self.lease_millis(),
        )?;
        ctx.register_replica_route_raw(e.primary, e.replicas.clone(), e.rs_epoch, e.read_verbs);
        ctx.trace_marker(
            EventKind::ReplicaScale,
            e.primary.machine,
            e.replicas.len() as u32,
        );
        Ok(())
    }

    /// Promote a surviving replica of entry `i` whose primary died on
    /// `dead`, through the directory's takeover transaction. Returns the
    /// new primary, or `None` when someone else recovered the name (adopted
    /// here), another claim is in flight, or no replica survived (the
    /// supervisor's snapshot path is the only recovery left: the claimed
    /// epoch is the one its takeover reads and claims past).
    fn failover(
        &mut self,
        ctx: &mut NodeCtx,
        i: usize,
        dead: usize,
    ) -> RemoteResult<Option<ObjRef>> {
        let dir = self.dir;
        let name = self.managed[i].name.clone();
        let read = dir.lease_of(ctx, name.clone())?;
        // The promoted replica's write-version, read before promoting: the
        // new primary must continue the epoch stream at or above it.
        let mut version = 0;
        let mut survivors = self.managed[i].replicas.iter().copied();
        let place = |ctx: &mut NodeCtx, epoch| {
            survivors.find(|&r| {
                if r.machine == dead || ctx.ping(r.machine).is_err() {
                    return false;
                }
                version = ctx.replica_status_of(r).map(|s| s.rs_epoch).unwrap_or(0);
                ctx.replica_promote(r, epoch).is_ok()
            })
        };
        let (r, new_epoch) = match dir.recover(ctx, &name, dead, read, place, |_, _| true)? {
            Takeover::Bound { at, epoch } => (at, epoch),
            Takeover::Recovered { at, .. } => {
                // Someone else already recovered the name (supervisor
                // restore or a racing manager): adopt the new incarnation.
                // Its replica set was cleared by `bind_fenced`; rebuilding
                // is a fresh `replicate` decision, not ours to make here.
                self.adopt_recovered(ctx, i, at, dead)?;
                return Ok(None);
            }
            Takeover::Gone | Takeover::Lost | Takeover::Won { .. } => return Ok(None),
        };
        let rest: Vec<ObjRef> = self.managed[i]
            .replicas
            .iter()
            .copied()
            .filter(|&x| x != r && x.machine != dead)
            .collect();
        let rs_now = dir
            .replica_set(ctx, name.clone())?
            .map(|(_, rs)| rs)
            .unwrap_or(0);
        let rs1 = dir
            .set_replicas(ctx, name.clone(), rest.clone(), rs_now)?
            .unwrap_or(rs_now);
        ctx.replica_attach(
            r,
            rest.clone(),
            version.max(rs1),
            self.write_through(),
            self.lease_millis(),
        )?;
        let old_primary = self.managed[i].primary;
        ctx.drop_replica_route(old_primary);
        ctx.register_replica_route_raw(r, rest.clone(), rs1, self.managed[i].read_verbs);
        ctx.trace_marker(
            EventKind::ReplicaPromote,
            r.machine,
            new_epoch.min(u32::MAX as u64) as u32,
        );
        let e = &mut self.managed[i];
        e.primary = r;
        e.rs_epoch = rs1;
        e.replicas = rest;
        self.stats.promotions += 1;
        self.stats.replicas_dropped += 1; // the promoted one left the set
        Ok(Some(r))
    }

    /// Adopt an incarnation someone else recovered: drop our route and
    /// any replicas stranded by the takeover (their primary is gone; the
    /// stubs would forward into a fence), and track the new address
    /// unreplicated.
    fn adopt_recovered(
        &mut self,
        ctx: &mut NodeCtx,
        i: usize,
        bound: ObjRef,
        dead: usize,
    ) -> RemoteResult<()> {
        let stale: Vec<ObjRef> = self.managed[i]
            .replicas
            .iter()
            .copied()
            .filter(|r| r.machine != dead)
            .collect();
        for r in stale {
            let _ = ctx.replica_drop(r);
            self.stats.replicas_dropped += 1;
        }
        ctx.drop_replica_route(self.managed[i].primary);
        let e = &mut self.managed[i];
        e.primary = bound;
        e.replicas.clear();
        Ok(())
    }

    /// Re-register this node's read routes from the directory — what a
    /// client machine (or a manager that restarted) calls to start
    /// benefiting from sets it did not build. Names whose records
    /// disappeared lose their local route. Returns the number of live
    /// routes installed.
    pub fn refresh_routes(&mut self, ctx: &mut NodeCtx) -> RemoteResult<usize> {
        let dir = self.dir;
        let mut installed = 0;
        for i in 0..self.managed.len() {
            let name = self.managed[i].name.clone();
            let lease = dir.lease_of(ctx, name.clone())?;
            let set = dir.replica_set(ctx, name.clone())?;
            match (lease, set) {
                (Some((bound, _, false)), Some((replicas, rs))) => {
                    let e = &mut self.managed[i];
                    if e.primary != bound {
                        ctx.drop_replica_route(e.primary);
                    }
                    e.primary = bound;
                    e.replicas = replicas.clone();
                    e.rs_epoch = rs;
                    if replicas.is_empty() {
                        ctx.drop_replica_route(bound);
                    } else {
                        ctx.register_replica_route_raw(bound, replicas, rs, e.read_verbs);
                        installed += 1;
                    }
                }
                _ => {
                    ctx.drop_replica_route(self.managed[i].primary);
                }
            }
        }
        Ok(installed)
    }

    /// The machines currently hosting any copy (primary or replica) of a
    /// managed name — the set a new replica of it must not be placed on.
    pub fn footprint(&self, name: &str) -> HashSet<usize> {
        let mut s = HashSet::new();
        if let Some(e) = self.entry(name) {
            s.insert(e.primary.machine);
            s.extend(e.replicas.iter().map(|r| r.machine));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_write_through_with_a_sane_lease() {
        let c = ReplicaConfig::default();
        assert_eq!(c.mode, CoherenceMode::WriteThrough);
        assert!(c.lease >= Duration::from_millis(50));
    }

    #[test]
    fn footprint_of_unmanaged_name_is_empty() {
        let mgr = ReplicaManager::new(
            ReplicaConfig::default(),
            NameService::classic(ObjRef {
                machine: 0,
                object: 1,
            }),
        );
        assert!(mgr.footprint("oopp://nothing").is_empty());
        assert!(mgr.primary_of("oopp://nothing").is_none());
        assert!(mgr.replicas_of("oopp://nothing").is_none());
    }
}
