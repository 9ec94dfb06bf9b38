//! Symbolic object addresses (§5) and the sharded control plane (§14).
//!
//! The paper: *"Processes can be accessed using a symbolic object address,
//! similar to addresses used by the Data Access Protocol"*, e.g.
//! `"http://data/set/PageDevice/34"`. The [`Directory`] is a name service —
//! itself an ordinary oopp object, hosted on machine 0 by the runtime —
//! mapping `oopp://…` strings to live remote pointers. Combined with the
//! daemon's snapshot store it gives the paper's persistent-process model:
//! bind a name while the process is live, deactivate it, and a later
//! program resolves the name and reactivates the process.
//!
//! At scale one directory object is a choke point and a single point of
//! failure, so the control plane dogfoods the paper's own model: the
//! namespace can be hash-partitioned over N [`DirShard`] objects — each a
//! [`Directory`] by process inheritance (§3) holding one partition of the
//! lease records, persistent (snapshot-recoverable) and replicated for
//! reads.
//! [`NameService`] is the client-side router: a `Copy` facade that sends
//! each name to its shard, caches shard locations in the per-node resolve
//! cache, and re-resolves through the root directory when a shard's
//! primary fails over (DESIGN.md §14). With
//! `ClusterBuilder::dir_shards(0)` there is the root only.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::error::{RemoteError, RemoteResult};
use crate::ids::ObjRef;
use crate::node::NodeCtx;

/// Conventional scheme prefix for oopp symbolic addresses.
pub const SCHEME: &str = "oopp://";

/// Reserved namespace of the control plane itself. Names under this
/// prefix (the shard seats, above all) always resolve through the *root*
/// directory, never through a shard — otherwise locating a shard would
/// require the shard being located.
pub const DIRSVC_PREFIX: &str = "oopp://_dirsvc/";

/// The root-directory name of shard `index`'s seat.
pub fn shard_addr(index: u32) -> String {
    format!("{DIRSVC_PREFIX}shard/{index}")
}

/// Build a conventional symbolic address from path segments:
/// `symbolic_addr(&["data", "set", "PageDevice", "34"])` →
/// `"oopp://data/set/PageDevice/34"`.
pub fn symbolic_addr(segments: &[&str]) -> String {
    let mut s = String::from(SCHEME);
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 {
            s.push('/');
        }
        s.push_str(seg);
    }
    s
}

/// The shard a name routes to: a stable FNV-1a hash of the name's bytes
/// modulo the shard count. Deliberately *not* `std::hash` — the routing
/// function is part of the wire contract (every client must agree, across
/// processes and rust versions) and of the deterministic replay story.
pub fn shard_of_name(name: &str, shards: u32) -> u32 {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as u32
}

/// One directory entry: where the name points, which incarnation epoch
/// that pointer is at (0 = never supervised), and whether the supervisor
/// has given up on the name — a give-up poisons the name so resolvers
/// fail fast instead of re-activating an unrecoverable object forever.
/// A replicated name additionally records its read-replica set and the
/// fenced replica-set epoch (see DESIGN.md §11): `rs_epoch` is bumped by
/// CAS ([`set_replicas`](DirectoryClient::set_replicas)) so of two racing
/// replica managers exactly one installs its set.
#[derive(Debug, Clone)]
struct LeaseRecord {
    target: ObjRef,
    epoch: u64,
    poisoned: bool,
    replicas: Vec<ObjRef>,
    rs_epoch: u64,
}

impl LeaseRecord {
    fn fresh(target: ObjRef, epoch: u64) -> Self {
        LeaseRecord {
            target,
            epoch,
            poisoned: false,
            replicas: Vec::new(),
            rs_epoch: 0,
        }
    }
}

wire::wire_struct!(LeaseRecord {
    target,
    epoch,
    poisoned,
    replicas,
    rs_epoch
});

/// Server state of the cluster name service: the lease records of one
/// partition of the namespace. The root directory's partition is the
/// whole namespace (`None`); a [`DirShard`] is the same object seated as
/// slice `index` of `total` — so record semantics (CAS rules, poison,
/// replica-set fencing) are written once, for every deployment.
#[derive(Debug, Default)]
pub struct Directory {
    entries: BTreeMap<String, LeaseRecord>,
    partition: Option<(u32, u32)>,
}

remote_class! {
    /// Client for a directory object — the root on machine 0, or (as a
    /// base-class pointer, §3) any [`DirShard`] seat. User code should
    /// usually go through the routing [`NameService`] from
    /// [`Driver::directory`](crate::Driver::directory) instead of this raw
    /// client.
    class Directory {
        ctor();
        /// Bind `name` to a live object. Rebinding replaces the old entry
        /// (its epoch, if any, is preserved; a poisoned name is revived).
        fn bind(&mut self, name: String, target: ObjRef) -> ();
        /// Resolve a name, if bound and not poisoned.
        fn lookup(&mut self, name: String) -> Option<ObjRef>;
        /// Remove a binding; true if it existed.
        fn unbind(&mut self, name: String) -> bool;
        /// All names bound in this directory's partition with the given
        /// prefix (sorted).
        fn list(&mut self, prefix: String) -> Vec<String>;
        /// Number of bindings in this directory's partition.
        fn len(&mut self) -> usize;
        /// Full lease record of a name: `(target, epoch, poisoned)`.
        fn lease_of(&mut self, name: String) -> Option<(ObjRef, u64, bool)>;
        /// Atomically bump a name's epoch — the takeover arbiter. Succeeds
        /// (returning the new epoch) only when the recorded epoch still
        /// equals `expect`: of two racing claimants exactly one wins, and
        /// the loser learns the epoch moved under it. Directory calls
        /// serialize (one process per object), which makes this a CAS.
        fn claim(&mut self, name: String, expect: u64) -> Option<u64>;
        /// Bind `name` to a reactivated incarnation at `epoch`. Refused
        /// (false) if the record has meanwhile advanced past `epoch` —
        /// a later takeover must never be overwritten by an earlier one.
        fn bind_fenced(&mut self, name: String, target: ObjRef, epoch: u64) -> bool;
        /// Mark a name as given-up: resolvers see the poison instead of
        /// re-activating an unrecoverable object forever.
        fn poison(&mut self, name: String) -> ();
        /// The name's read-replica set and replica-set epoch, if bound.
        /// An unreplicated name reports `(vec![], 0)`.
        fn replica_set(&mut self, name: String) -> Option<(Vec<ObjRef>, u64)>;
        /// Atomically install a name's replica set — the replica-scaling
        /// arbiter, a CAS exactly like [`claim`](DirectoryClient::claim):
        /// succeeds (returning the bumped replica-set epoch) only when the
        /// recorded `rs_epoch` still equals `expect` and the name is bound
        /// and unpoisoned.
        fn set_replicas(&mut self, name: String, replicas: Vec<ObjRef>, expect: u64) -> Option<u64>;
        /// Purge every replica-set entry pointing at a dead machine: drop
        /// its replicas from every record (bumping the record's `rs_epoch`
        /// so live replicas re-fence) and report how many records changed.
        /// Part of the `declare-dead` purge path; the supervisor calls it
        /// alongside unbinding names homed on the dead machine.
        fn purge_replicas_on(&mut self, machine: usize) -> usize;
    }
}

impl Directory {
    /// Constructor: an empty directory over the whole namespace.
    pub fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Directory::default())
    }

    /// First line of every by-name verb. A request for a name outside this
    /// partition means the caller's shard map is wrong (or the seat was
    /// rebound to the wrong shard object); answering it would silently
    /// fork the namespace.
    fn guard(&self, name: &str) -> RemoteResult<()> {
        match self.partition {
            Some((index, total)) if total > 1 && shard_of_name(name, total) != index => {
                Err(RemoteError::app(format!(
                    "{name}: routed to shard {index}/{total} but hashes elsewhere"
                )))
            }
            _ => Ok(()),
        }
    }

    fn bind(&mut self, _ctx: &mut NodeCtx, name: String, target: ObjRef) -> RemoteResult<()> {
        self.guard(&name)?;
        let epoch = self.entries.get(&name).map(|r| r.epoch).unwrap_or(0);
        // Rebinding drops any replica set: the replicas mirror the *old*
        // target and must be rebuilt against the new one.
        self.entries.insert(name, LeaseRecord::fresh(target, epoch));
        Ok(())
    }

    fn lookup(&mut self, _ctx: &mut NodeCtx, name: String) -> RemoteResult<Option<ObjRef>> {
        self.guard(&name)?;
        let live = self.entries.get(&name).filter(|r| !r.poisoned);
        Ok(live.map(|r| r.target))
    }

    fn unbind(&mut self, _ctx: &mut NodeCtx, name: String) -> RemoteResult<bool> {
        self.guard(&name)?;
        Ok(self.entries.remove(&name).is_some())
    }

    fn list(&mut self, _ctx: &mut NodeCtx, prefix: String) -> RemoteResult<Vec<String>> {
        let from = self.entries.range(prefix.clone()..);
        Ok(from
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect())
    }

    fn len(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<usize> {
        Ok(self.entries.len())
    }

    fn lease_of(
        &mut self,
        _ctx: &mut NodeCtx,
        name: String,
    ) -> RemoteResult<Option<(ObjRef, u64, bool)>> {
        self.guard(&name)?;
        let r = self.entries.get(&name);
        Ok(r.map(|r| (r.target, r.epoch, r.poisoned)))
    }

    fn claim(
        &mut self,
        _ctx: &mut NodeCtx,
        name: String,
        expect: u64,
    ) -> RemoteResult<Option<u64>> {
        self.guard(&name)?;
        Ok(match self.entries.get_mut(&name) {
            Some(r) if !r.poisoned && r.epoch == expect => {
                r.epoch += 1;
                Some(r.epoch)
            }
            _ => None,
        })
    }

    fn bind_fenced(
        &mut self,
        _ctx: &mut NodeCtx,
        name: String,
        target: ObjRef,
        epoch: u64,
    ) -> RemoteResult<bool> {
        self.guard(&name)?;
        Ok(match self.entries.get_mut(&name) {
            Some(r) if r.epoch <= epoch => {
                // A takeover installs a fresh incarnation; any replica set
                // mirrored the dead one and must be rebuilt against it.
                *r = LeaseRecord {
                    rs_epoch: r.rs_epoch + 1,
                    ..LeaseRecord::fresh(target, epoch)
                };
                true
            }
            Some(_) => false,
            None => {
                self.entries.insert(name, LeaseRecord::fresh(target, epoch));
                true
            }
        })
    }

    fn poison(&mut self, _ctx: &mut NodeCtx, name: String) -> RemoteResult<()> {
        self.guard(&name)?;
        if let Some(r) = self.entries.get_mut(&name) {
            r.poisoned = true;
        }
        Ok(())
    }

    fn replica_set(
        &mut self,
        _ctx: &mut NodeCtx,
        name: String,
    ) -> RemoteResult<Option<(Vec<ObjRef>, u64)>> {
        self.guard(&name)?;
        let r = self.entries.get(&name);
        Ok(r.map(|r| (r.replicas.clone(), r.rs_epoch)))
    }

    fn set_replicas(
        &mut self,
        _ctx: &mut NodeCtx,
        name: String,
        replicas: Vec<ObjRef>,
        expect: u64,
    ) -> RemoteResult<Option<u64>> {
        self.guard(&name)?;
        Ok(match self.entries.get_mut(&name) {
            Some(r) if !r.poisoned && r.rs_epoch == expect => {
                r.replicas = replicas;
                r.rs_epoch += 1;
                Some(r.rs_epoch)
            }
            _ => None,
        })
    }

    fn purge_replicas_on(&mut self, _ctx: &mut NodeCtx, machine: usize) -> RemoteResult<usize> {
        let mut changed = 0;
        for r in self.entries.values_mut() {
            let before = r.replicas.len();
            r.replicas.retain(|rep| rep.machine != machine);
            if r.replicas.len() != before {
                r.rs_epoch += 1;
                changed += 1;
            }
        }
        Ok(changed)
    }
}

/// One shard of the partitioned control plane: a [`Directory`] (§3: the
/// derived class — every lease verb is the base's, reached by the name
/// dispatch's fall-through) seated over the slice of the namespace whose
/// names hash to `index` (see [`shard_of_name`]). A shard is a perfectly
/// ordinary oopp object — the whole point (§5: the directory "is itself
/// an ordinary oopp object"): what it adds to its base is being
/// `persistent`, so the supervisor can snapshot-restore it onto a
/// survivor, and declaring the query verbs as `reads(...)`, so the replica
/// manager can scale and fail over its partition with write-through
/// coherence.
#[derive(Debug)]
pub struct DirShard {
    base: Directory,
}

remote_class! {
    /// A shard's own surface: construction and
    /// [`shard_info`](DirShardClient::shard_info). The lease verbs are
    /// called through [`as_base`](DirShardClient::as_base) — a
    /// [`DirectoryClient`] aimed at the seat, which is how [`NameService`]
    /// routes. This client exists for the management plane
    /// (`crates/dirsvc`) and tests.
    class DirShard: Directory {
        persistent;
        reads(lookup, list, len, lease_of, replica_set, shard_info);
        ctor(index: u64, total: u64);
        /// This shard's `(index, total)` in the shard map — lets a client
        /// audit that a seat really serves the partition it claims.
        fn shard_info(&mut self) -> (u64, u64);
    }
}

impl DirShard {
    /// The one way a shard comes to be, fresh or restored: seat `index`
    /// must lie inside a shard map of `total`.
    fn seated(
        index: u64,
        total: u64,
        entries: BTreeMap<String, LeaseRecord>,
    ) -> RemoteResult<Self> {
        // `u32` because that is the shard count every client hashes with
        // ([`shard_of_name`]).
        match (u32::try_from(index), u32::try_from(total)) {
            (Ok(index), Ok(total)) if index < total => {
                let partition = Some((index, total));
                Ok(DirShard {
                    base: Directory { entries, partition },
                })
            }
            _ => Err(RemoteError::app(format!(
                "DirShard: seat {index} outside shard map of {total}"
            ))),
        }
    }

    /// Constructor: an empty partition `index` of `total`.
    pub fn new(_ctx: &mut NodeCtx, index: u64, total: u64) -> RemoteResult<Self> {
        Self::seated(index, total, BTreeMap::new())
    }

    /// Snapshot the partition (the `persistent;` contract).
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = wire::Writer::new();
        wire::Wire::encode(&self.seat(), &mut w);
        wire::Wire::encode(&(self.base.entries.len() as u64), &mut w);
        for (name, record) in &self.base.entries {
            wire::Wire::encode(name, &mut w);
            wire::Wire::encode(record, &mut w);
        }
        w.into_bytes()
    }

    /// Restore a partition from its snapshot (the `persistent;` contract).
    /// Only what [`save_state`](Self::save_state) writes is accepted: names
    /// strictly increasing and nothing after the last entry.
    pub fn load_state(_ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let r = &mut wire::Reader::new(state);
        let (index, total, count) = <(u64, u64, u64) as wire::Wire>::decode(r)?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let (name, record) = <(String, LeaseRecord) as wire::Wire>::decode(r)?;
            if entries
                .last_key_value()
                .is_some_and(|(last, _)| *last >= name)
            {
                return Err(
                    wire::WireError::Invalid("DirShard snapshot names out of order").into(),
                );
            }
            entries.insert(name, record);
        }
        r.expect_end()?;
        Self::seated(index, total, entries)
    }

    fn seat(&self) -> (u64, u64) {
        let (index, total) = self.base.partition.expect("a shard is built seated");
        (index.into(), total.into())
    }

    fn shard_info(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<(u64, u64)> {
        Ok(self.seat())
    }
}

/// Rounds a routed call retries through re-resolution before surfacing
/// the shard's failure. Each failed round re-reads the shard's seat from
/// the root directory after a short serving beat, so a takeover that
/// rebinds the seat mid-retry is picked up without any invalidation
/// broadcast.
const SHARD_RETRY_ROUNDS: usize = 10;

/// The serving beat between shard-retry rounds.
const SHARD_RETRY_BEAT: Duration = Duration::from_millis(25);

/// The cluster name service, as clients see it: a `Copy` routing facade
/// over the root [`Directory`] and, when the namespace is partitioned,
/// the [`DirShard`]s seated in it (DESIGN.md §14) — all of them spoken to
/// through the one [`DirectoryClient`].
///
/// Routing rules ([`shard_for`](NameService::shard_for)):
/// * `shards == 0` — root only: every name lives in the root directory;
/// * names under [`DIRSVC_PREFIX`] — always the root (the shard seats
///   live there; routing them through a shard would be circular);
/// * everything else — the shard [`shard_of_name`] picks.
///
/// Shard seats are located lazily through the root and cached in the
/// per-node resolve cache under their [`shard_addr`]; a call that fails
/// with a timeout / fence / double-redirect invalidates the cached seat,
/// re-reads it from the root (which the management plane rebinds after a
/// failover), and retries — bounded by a fixed round budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameService {
    root: ObjRef,
    shards: u32,
}

impl NameService {
    /// The root-only service: every name lives in `root`.
    pub fn classic(root: ObjRef) -> Self {
        NameService { root, shards: 0 }
    }

    /// A sharded service over `shards` partitions seated in `root`.
    pub fn sharded(root: ObjRef, shards: u32) -> Self {
        NameService { root, shards }
    }

    /// The root directory object (shard seats and reserved names live
    /// there; with `shards() == 0` it holds every name).
    pub fn obj_ref(&self) -> ObjRef {
        self.root
    }

    /// Number of partitions (0 = root only).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The raw root-directory client (management plane and tests).
    pub fn root_client(&self) -> DirectoryClient {
        crate::RemoteClient::from_ref(self.root)
    }

    /// The shard `name` routes to; `None` when the name is served by the
    /// root (no shards, or a reserved `_dirsvc` name).
    pub fn shard_for(&self, name: &str) -> Option<u32> {
        if self.shards == 0 || name.starts_with(DIRSVC_PREFIX) {
            None
        } else {
            Some(shard_of_name(name, self.shards))
        }
    }

    /// Locate shard `index`'s seat: per-node resolve cache first, root
    /// directory on a miss.
    fn shard_seat(&self, ctx: &mut NodeCtx, index: u32) -> RemoteResult<DirectoryClient> {
        let addr = shard_addr(index);
        if let Some(r) = ctx.cached_resolve(&addr) {
            return Ok(crate::RemoteClient::from_ref(r));
        }
        match self.root_client().lookup(ctx, addr.clone())? {
            Some(r) => {
                ctx.cache_resolve(&addr, r);
                Ok(crate::RemoteClient::from_ref(r))
            }
            None => Err(RemoteError::app(format!(
                "{addr}: shard seat not bound in the root directory"
            ))),
        }
    }

    /// Run `op` against shard `index`, re-resolving the seat and retrying
    /// on the errors that signal a failed or fenced seat. Errors that are
    /// the *answer* (app errors, missing methods) surface immediately.
    fn with_shard<T>(
        &self,
        ctx: &mut NodeCtx,
        index: u32,
        mut op: impl FnMut(&mut NodeCtx, &DirectoryClient) -> RemoteResult<T>,
    ) -> RemoteResult<T> {
        let addr = shard_addr(index);
        let mut last: Option<RemoteError> = None;
        for round in 0..SHARD_RETRY_ROUNDS {
            if round > 0 {
                // Let the failover land (claim, promote/restore, rebind)
                // before re-reading the seat.
                ctx.serve_for(SHARD_RETRY_BEAT);
            }
            let seat = match self.shard_seat(ctx, index) {
                Ok(s) => s,
                Err(e @ RemoteError::Timeout { .. }) => return Err(e), // root gone: unrecoverable here
                Err(e) => {
                    // Seat unbound mid-failover: re-read next round.
                    last = Some(e);
                    continue;
                }
            };
            match op(ctx, &seat) {
                Ok(v) => return Ok(v),
                Err(
                    e @ (RemoteError::Timeout { .. }
                    | RemoteError::Fenced { .. }
                    | RemoteError::Moved { .. }
                    | RemoteError::NoSuchObject { .. }),
                ) => {
                    // The seat is dead, fenced, or forwarded past the
                    // chase budget: drop it and re-resolve from the root.
                    ctx.invalidate_resolve(&addr);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(RemoteError::NoSuchSnapshot { key: addr }))
    }

    /// Run `op` on the directory that holds `name`: the root as is, a
    /// shard through [`with_shard`](Self::with_shard)'s seat chase (`op`
    /// runs once per round, on a fresh copy of the name).
    fn on<T>(
        &self,
        ctx: &mut NodeCtx,
        name: String,
        mut op: impl FnMut(&mut NodeCtx, &DirectoryClient, String) -> RemoteResult<T>,
    ) -> RemoteResult<T> {
        match self.shard_for(&name) {
            None => op(ctx, &self.root_client(), name),
            Some(i) => self.with_shard(ctx, i, |ctx, dir| op(ctx, dir, name.clone())),
        }
    }

    /// Bind `name` to a live object (see [`DirectoryClient::bind`]).
    pub fn bind(&self, ctx: &mut NodeCtx, name: String, target: ObjRef) -> RemoteResult<()> {
        self.on(ctx, name, |ctx, dir, name| dir.bind(ctx, name, target))
    }

    /// Resolve a name, if bound and not poisoned.
    pub fn lookup(&self, ctx: &mut NodeCtx, name: String) -> RemoteResult<Option<ObjRef>> {
        self.on(ctx, name, |ctx, dir, name| dir.lookup(ctx, name))
    }

    /// Remove a binding; true if it existed.
    pub fn unbind(&self, ctx: &mut NodeCtx, name: String) -> RemoteResult<bool> {
        self.on(ctx, name, |ctx, dir, name| dir.unbind(ctx, name))
    }

    /// All bound names with the given prefix, across the root and every
    /// partition (sorted). The control plane's own reserved names are
    /// reported only when explicitly asked for (a prefix inside
    /// [`DIRSVC_PREFIX`]) — `list("oopp://…")` of user names must not
    /// change meaning when sharding is switched on.
    pub fn list(&self, ctx: &mut NodeCtx, prefix: String) -> RemoteResult<Vec<String>> {
        let mut names: Vec<String> = self
            .root_client()
            .list(ctx, prefix.clone())?
            .into_iter()
            .filter(|n| prefix.starts_with(DIRSVC_PREFIX) || !n.starts_with(DIRSVC_PREFIX))
            .collect();
        for i in 0..self.shards {
            names.extend(self.with_shard(ctx, i, |ctx, s| s.list(ctx, prefix.clone()))?);
        }
        names.sort();
        names.dedup();
        Ok(names)
    }

    /// Number of user-visible bindings across the root and every
    /// partition (reserved control-plane names excluded).
    pub fn len(&self, ctx: &mut NodeCtx) -> RemoteResult<usize> {
        let reserved = self.root_client().list(ctx, DIRSVC_PREFIX.to_string())?;
        let mut n = self.root_client().len(ctx)? - reserved.len();
        for i in 0..self.shards {
            n += self.with_shard(ctx, i, |ctx, s| s.len(ctx))?;
        }
        Ok(n)
    }

    /// Full lease record of a name: `(target, epoch, poisoned)`.
    pub fn lease_of(
        &self,
        ctx: &mut NodeCtx,
        name: String,
    ) -> RemoteResult<Option<(ObjRef, u64, bool)>> {
        self.on(ctx, name, |ctx, dir, name| dir.lease_of(ctx, name))
    }

    /// Epoch CAS (see [`DirectoryClient::claim`]).
    pub fn claim(&self, ctx: &mut NodeCtx, name: String, expect: u64) -> RemoteResult<Option<u64>> {
        self.on(ctx, name, |ctx, dir, name| dir.claim(ctx, name, expect))
    }

    /// The one takeover transaction (DESIGN.md §10.3) of a name lost with
    /// machine `dead`, given the lease record the caller `read`: claim the
    /// name at the read epoch and, as the winner, make the new incarnation
    /// with `place` and [`bind_fenced`](Self::bind_fenced) it at the won
    /// epoch. A refused bind stands it down, fenced at the record's epoch:
    /// forwarding to the bound target if that is off `dead` and `live`,
    /// destroyed otherwise. Every other end answers by what the record names.
    pub fn recover(
        &self,
        ctx: &mut NodeCtx,
        name: &str,
        dead: usize,
        read: Option<(ObjRef, u64, bool)>,
        place: impl FnOnce(&mut NodeCtx, u64) -> Option<ObjRef>,
        live: impl FnOnce(&mut NodeCtx, ObjRef) -> bool,
    ) -> RemoteResult<Takeover> {
        let epoch = match read {
            Some((at, epoch, false)) if at.machine == dead => epoch,
            _ => return Ok(Takeover::named(read, dead)),
        };
        let Some(epoch) = self.claim(ctx, name.to_string(), epoch)? else {
            return Ok(Takeover::named(self.lease_of(ctx, name.to_string())?, dead));
        };
        let Some(fresh) = place(ctx, epoch) else {
            return Ok(Takeover::Won { epoch });
        };
        if self.bind_fenced(ctx, name.to_string(), fresh, epoch)? {
            return Ok(Takeover::Bound { at: fresh, epoch });
        }
        let record = self.lease_of(ctx, name.to_string())?;
        match record {
            Some((at, epoch, false)) if at.machine != dead && live(ctx, at) => {
                ctx.fence_object(fresh, epoch, at)?;
            }
            Some((_, epoch, _)) => {
                ctx.set_epoch_of(fresh, epoch)?;
                ctx.destroy(fresh)?;
            }
            None => ctx.destroy(fresh)?,
        }
        Ok(Takeover::named(record, dead))
    }

    /// Fenced rebind (see [`DirectoryClient::bind_fenced`]).
    pub fn bind_fenced(
        &self,
        ctx: &mut NodeCtx,
        name: String,
        target: ObjRef,
        epoch: u64,
    ) -> RemoteResult<bool> {
        self.on(ctx, name, |ctx, dir, name| {
            dir.bind_fenced(ctx, name, target, epoch)
        })
    }

    /// Poison a name (see [`DirectoryClient::poison`]).
    pub fn poison(&self, ctx: &mut NodeCtx, name: String) -> RemoteResult<()> {
        self.on(ctx, name, |ctx, dir, name| dir.poison(ctx, name))
    }

    /// The name's read-replica set and replica-set epoch, if bound.
    pub fn replica_set(
        &self,
        ctx: &mut NodeCtx,
        name: String,
    ) -> RemoteResult<Option<(Vec<ObjRef>, u64)>> {
        self.on(ctx, name, |ctx, dir, name| dir.replica_set(ctx, name))
    }

    /// Replica-set CAS (see [`DirectoryClient::set_replicas`]).
    pub fn set_replicas(
        &self,
        ctx: &mut NodeCtx,
        name: String,
        replicas: Vec<ObjRef>,
        expect: u64,
    ) -> RemoteResult<Option<u64>> {
        self.on(ctx, name, |ctx, dir, name| {
            dir.set_replicas(ctx, name, replicas.clone(), expect)
        })
    }

    /// Scrub a dead machine's replicas from every record, in the root and
    /// every partition; returns how many records changed.
    ///
    /// The partition sweep is **best-effort** — this runs on the
    /// declare-dead path, where a shard seated *on* the purged machine
    /// may itself be mid-takeover. Each partition gets exactly one
    /// attempt, no retry rounds: burning the seat-chase budget here would
    /// stall the very supervision step that heals the shard. A partition
    /// that cannot answer is left for its own recovery (the replica
    /// manager's shrink converges any replica routes it held); on a
    /// healthy fabric every shard answers and the count is exact. A root
    /// failure still surfaces — without the arbiter nothing safe can
    /// happen.
    pub fn purge_replicas_on(&self, ctx: &mut NodeCtx, machine: usize) -> RemoteResult<usize> {
        let mut changed = self.root_client().purge_replicas_on(ctx, machine)?;
        for i in 0..self.shards {
            let Ok(seat) = self.shard_seat(ctx, i) else {
                continue;
            };
            match seat.purge_replicas_on(ctx, machine) {
                Ok(n) => changed += n,
                // Stale seat: drop it so the next routed op re-resolves.
                Err(_) => ctx.invalidate_resolve(&shard_addr(i)),
            }
        }
        Ok(changed)
    }
}

wire::wire_struct!(NameService { root, shards });

/// How [`NameService::recover`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takeover {
    /// The name is unbound or poisoned: there is nothing to recover.
    Gone,
    /// The name is bound off the dead machine: adopt `at`, fenced at `epoch`.
    Recovered { at: ObjRef, epoch: u64 },
    /// A later claim holds the name and the record still names the dead
    /// machine: that claimant's recovery is in flight, or it gave up.
    Lost,
    /// This caller holds the claim at `epoch`; `place` found nowhere.
    Won { epoch: u64 },
    /// The fresh incarnation `at` is bound at `epoch`.
    Bound { at: ObjRef, epoch: u64 },
}

impl Takeover {
    /// What a lease record means to a claimant of a name lost with `dead`.
    fn named(record: Option<(ObjRef, u64, bool)>, dead: usize) -> Takeover {
        match record {
            Some((at, epoch, false)) if at.machine != dead => Takeover::Recovered { at, epoch },
            Some((_, _, false)) => Takeover::Lost,
            _ => Takeover::Gone,
        }
    }
}

/// Dereference a symbolic address — the paper's
/// `PageDevice *pd = "http://data/set/PageDevice/34";`.
///
/// Resolution order: a live binding in the directory wins; otherwise the
/// runtime **activates** the process from the snapshot stored under the
/// same address on `machine` (§5: "the runtime system is responsible for
/// … activating and de-activating processes, as needed") and binds the
/// fresh process so later resolutions find it live.
pub fn resolve_or_activate<C: crate::RemoteClient>(
    ctx: &mut NodeCtx,
    dir: &NameService,
    machine: usize,
    addr: &str,
) -> RemoteResult<C> {
    if let Some(r) = dir.lookup(ctx, addr.to_string())? {
        return Ok(C::from_ref(r));
    }
    let client: C = ctx.activate(machine, addr)?;
    dir.bind(ctx, addr.to_string(), client.obj_ref())?;
    Ok(client)
}

/// Crash-tolerant name resolution: [`resolve_or_activate`] for a fabric
/// where machines can die.
///
/// A live binding is *verified* (the bound machine's daemon must answer a
/// ping) before it is trusted; a binding to a dead machine is unbound as
/// stale. Activation then walks `candidates` — machines that hold a
/// replica of the snapshot stored under `addr` (see
/// [`NodeCtx::replicate_snapshot`](crate::NodeCtx::replicate_snapshot)) —
/// and reactivates the process on the first one that is alive, rebinding
/// the name so later resolutions find the fresh process directly.
///
/// This is the recovery path for a call that exhausted its retries with
/// [`RemoteError::Timeout`]: the caller drops
/// its stale remote pointer, resolves the symbolic address again through
/// this function, and resumes against the reactivated process.
///
/// Pings against dead machines cost a full retry cycle each, so keep the
/// [`CallPolicy`](crate::CallPolicy) windows short when supervision is in
/// play.
///
/// Resolutions are cached **per node** (see
/// [`NodeCtx::cached_resolve`](crate::NodeCtx::cached_resolve)), and a
/// cache hit is verified exactly like a directory binding — the bound
/// machine must answer a ping — before it is trusted. Staleness is
/// therefore repaired lazily on *every* machine, not just the one that
/// noticed the crash and re-bound the name: a third machine holding a
/// cached pointer to the dead home fails its own ping, invalidates its
/// own cache entry, and falls through to the directory, which already
/// points at the reactivated process. No invalidation broadcast needed.
pub fn resolve_or_activate_supervised<C: crate::RemoteClient>(
    ctx: &mut NodeCtx,
    dir: &NameService,
    addr: &str,
    candidates: &[usize],
) -> RemoteResult<C> {
    if let Some(r) = ctx.cached_resolve(addr) {
        if ctx.ping(r.machine).is_ok() {
            return Ok(C::from_ref(r));
        }
        ctx.invalidate_resolve(addr);
    }
    // Recovery is arbitrated by [`NameService::recover`]: its claim is a CAS
    // at the epoch this resolver read, so of N clients that watched the home
    // machine die exactly one activates a replica. A loser never claims again
    // in this invocation (claiming the *bumped* epoch would re-open the
    // double activation it just lost): it adopts the winner's incarnation,
    // or gives up with [`Fenced`](crate::RemoteError::Fenced) so the caller
    // re-resolves. Without the claim the name would flap between two live
    // copies (split-brain).
    let mut last_err = None;
    let mut may_claim = true;
    for _ in 0..6 {
        let read = dir.lease_of(ctx, addr.to_string())?;
        match read {
            Some((_, _, true)) => {
                // The supervisor gave up on this name; don't dig it up.
                return Err(crate::RemoteError::app(format!(
                    "{addr}: name is poisoned (supervision gave up)"
                )));
            }
            Some((r, epoch, false)) => {
                if ctx.ping(r.machine).is_ok() {
                    ctx.note_epoch(r, epoch);
                    ctx.cache_resolve(addr, r);
                    return Ok(C::from_ref(r));
                }
                if std::mem::take(&mut may_claim) {
                    let place = |ctx: &mut NodeCtx, epoch| {
                        for &m in candidates {
                            if m == r.machine || ctx.ping(m).is_err() {
                                continue;
                            }
                            match ctx.activate_fenced::<C>(m, addr, epoch) {
                                Ok(client) => return Some(client.obj_ref()),
                                Err(e) => last_err = Some(e),
                            }
                        }
                        None
                    };
                    let answers = |ctx: &mut NodeCtx, at: ObjRef| ctx.ping(at.machine).is_ok();
                    match dir.recover(ctx, addr, r.machine, read, place, answers)? {
                        Takeover::Bound { at, .. } => {
                            ctx.cache_resolve(addr, at);
                            return Ok(C::from_ref(at));
                        }
                        // We hold the claim but found no live candidate;
                        // surface the activation failure.
                        Takeover::Won { .. } => break,
                        // Another incarnation is bound, or the name went.
                        Takeover::Recovered { .. } | Takeover::Gone => continue,
                        Takeover::Lost => {}
                    }
                }
                // A rival's claim holds the name: its takeover is in
                // flight. Serve for a beat to let the winner's bind land,
                // then re-read.
                last_err = Some(crate::RemoteError::Fenced {
                    current_epoch: epoch,
                });
                ctx.serve_for(std::time::Duration::from_millis(20));
            }
            None => {
                // Never bound: first activation, no incarnation to fence.
                for &m in candidates {
                    if ctx.ping(m).is_err() {
                        continue;
                    }
                    match ctx.activate::<C>(m, addr) {
                        Ok(client) => {
                            dir.bind(ctx, addr.to_string(), client.obj_ref())?;
                            ctx.cache_resolve(addr, client.obj_ref());
                            return Ok(client);
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                break;
            }
        }
    }
    Err(last_err.unwrap_or(crate::RemoteError::NoSuchSnapshot {
        key: addr.to_string(),
    }))
}

/// Re-bind `addr` to an object's post-migration address and migrate it —
/// the placement subsystem's name-aware move. The directory is updated
/// *after* the migration commits, so a resolver racing the move sees
/// either the old binding (whose forward it chases once) or the new one;
/// never a dangling name.
pub fn migrate_bound(
    ctx: &mut NodeCtx,
    dir: &NameService,
    addr: &str,
    target: usize,
) -> RemoteResult<ObjRef> {
    let old = dir
        .lookup(ctx, addr.to_string())?
        .ok_or_else(|| crate::RemoteError::app(format!("{addr}: not bound")))?;
    let new_ref = ctx.migrate(old, target)?;
    if new_ref != old {
        dir.bind(ctx, addr.to_string(), new_ref)?;
        ctx.cache_resolve(addr, new_ref);
    }
    Ok(new_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::sweep::Case;

    #[test]
    fn symbolic_addresses_compose() {
        assert_eq!(
            symbolic_addr(&["data", "set", "PageDevice", "34"]),
            "oopp://data/set/PageDevice/34"
        );
        assert_eq!(symbolic_addr(&[]), "oopp://");
        assert_eq!(symbolic_addr(&["x"]), "oopp://x");
    }

    #[test]
    fn shard_hash_is_stable_and_total() {
        // Pinned values: the routing hash is a wire contract — changing
        // it strands every record in the wrong shard.
        assert_eq!(shard_of_name("oopp://a", 4), shard_of_name("oopp://a", 4));
        for shards in [1u32, 2, 3, 4, 8] {
            for i in 0..64 {
                let name = symbolic_addr(&["spread", &i.to_string()]);
                assert!(shard_of_name(&name, shards) < shards);
            }
        }
        // Every shard of a small map receives some of a modest key set.
        let mut hit = [false; 4];
        for i in 0..64 {
            hit[shard_of_name(&symbolic_addr(&["k", &i.to_string()]), 4) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "FNV-1a must spread keys: {hit:?}");
    }

    #[test]
    fn reserved_names_route_to_the_root() {
        let root = ObjRef {
            machine: 0,
            object: 7,
        };
        let ns = NameService::sharded(root, 8);
        assert_eq!(ns.shard_for(&shard_addr(3)), None);
        assert_eq!(ns.shard_for("oopp://_dirsvc/anything"), None);
        assert!(ns.shard_for("oopp://user/name").is_some());
        let classic = NameService::classic(root);
        assert_eq!(classic.shard_for("oopp://user/name"), None);
        assert_eq!(classic.shards(), 0);
        assert_eq!(classic.obj_ref(), root);
    }

    /// ROADMAP 4d for the shard snapshot: truncated, bit-flipped, noisy
    /// and count-inflated buffers restore to a typed error or to a shard
    /// whose seat lies inside its map (and so can judge any name) — never
    /// a panic, never a shard `DirShard::new` would have refused.
    #[test]
    fn junk_snapshots_are_typed_errors_or_seated_shards_never_panics() {
        let (cluster, mut driver) = crate::ClusterBuilder::new(1).build();
        let ctx: &mut NodeCtx = &mut driver;
        let mut shard = DirShard::new(ctx, 2, 5).unwrap();
        let homed = (0..200)
            .map(|i| symbolic_addr(&["junk", &i.to_string()]))
            .filter(|n| shard_of_name(n, 5) == 2);
        for (i, name) in homed.take(6).enumerate() {
            let target = ObjRef {
                machine: i % 2,
                object: 10 + i as u64,
            };
            shard.base.bind(ctx, name.clone(), target).unwrap();
            let set = shard.base.set_replicas(ctx, name, vec![target; i], 0);
            assert_eq!(set.unwrap(), Some(1));
        }
        let good = shard.save_state();
        let restored = DirShard::load_state(ctx, &good).unwrap();
        assert_eq!(restored.save_state(), good);
        assert!(DirShard::new(ctx, 5, 5).is_err() && DirShard::new(ctx, 0, 0).is_err());
        assert!(DirShard::new(ctx, 0, 1 << 32).is_err());

        let rng = &mut Case::new(0x15_5EA7);
        let (mut rejected, mut restored) = (0, 0);
        for i in 0..10_000 {
            let mut buf = good.clone();
            match i % 4 {
                0 => buf.truncate(rng.range(0..buf.len())),
                1 => {
                    for _ in 0..rng.range(1..4) {
                        let at = rng.range(0..buf.len());
                        buf[at] ^= 1 << rng.range(0..8);
                    }
                }
                // The header fields (index, total, record count) replaced
                // by anything at all, `u64::MAX` records included.
                2 => {
                    let at = 8 * rng.range(0..3);
                    let field = rng.next_u64() >> rng.range(0..64);
                    buf[at..at + 8].copy_from_slice(&field.to_le_bytes());
                }
                _ => {
                    buf.truncate(rng.range(0..64));
                    buf.fill_with(|| rng.next_u64() as u8);
                }
            }
            match DirShard::load_state(ctx, &buf) {
                Ok(mut shard) => {
                    let (index, total) = shard.seat();
                    assert!(index < total && total <= u32::MAX as u64, "{buf:02x?}");
                    let _ = shard.base.lookup(ctx, "oopp://any/name".into());
                    restored += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 5_000, "only {rejected} of 10 000 rejected");
        assert!(restored > 500, "only {restored} of 10 000 restored");
        cluster.shutdown(driver);
    }
}
