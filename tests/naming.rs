//! Lease-record edge cases in the naming directory (DESIGN.md §10–§11).
//!
//! The directory is the cluster's sole arbiter: incarnation takeovers
//! (`claim`/`bind_fenced`) and replica-set membership (`set_replicas`/
//! `purge_replicas_on`) are all CAS operations on one `LeaseRecord`.
//! These tests pin the refusal edges — poisoned names, stale epochs —
//! and property-test arbitrary interleavings of racing claimers,
//! membership updates, and declare-dead purges against a sequential
//! model of the record.

use std::time::Duration;

use oopp_repro::oopp::{
    shard_addr, shard_of_name, symbolic_addr, wire, Backoff, CallPolicy, Cluster, ClusterBuilder,
    DirShardClient, DirectoryClient, Driver, NameService, NodeCtx, ObjRef, RemoteClient,
    RemoteError, RemoteResult, Takeover, DIRSVC_PREFIX,
};
use oopp_repro::simnet::sweep::{cases, Case};
use oopp_repro::simnet::ClusterConfig;

fn build() -> (Cluster, Driver, NameService) {
    build_sharded(0)
}

fn build_sharded(shards: u32) -> (Cluster, Driver, NameService) {
    let (cluster, driver) = ClusterBuilder::new(2)
        .dir_shards(shards)
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(
            CallPolicy::reliable(Duration::from_millis(200))
                .with_max_retries(2)
                .with_backoff(Backoff::fixed(Duration::from_millis(5))),
        )
        .build();
    let dir = driver.directory();
    (cluster, driver, dir)
}

/// The first `want.len()` names of the form `oopp://naming/<tag>/<i>`
/// that hash to the wanted shards, in `want` order.
fn names_on_shards(tag: &str, shards: u32, want: &[u32]) -> Vec<String> {
    let mut out = vec![String::new(); want.len()];
    let mut missing: Vec<usize> = (0..want.len()).collect();
    for i in 0..10_000u32 {
        let n = symbolic_addr(&["naming", tag, &i.to_string()]);
        let s = shard_of_name(&n, shards);
        if let Some(pos) = missing.iter().position(|&w| want[w] == s) {
            out[missing.remove(pos)] = n;
            if missing.is_empty() {
                return out;
            }
        }
    }
    panic!("no names found for shards {want:?} of {shards}");
}

fn obj(machine: usize, object: u64) -> ObjRef {
    ObjRef { machine, object }
}

/// A poisoned name refuses every CAS — claim and set_replicas alike —
/// until a fenced rebind revives it at a higher epoch.
#[test]
fn poisoned_names_refuse_claims_and_membership_updates() {
    let (cluster, mut driver, dir) = build();
    let name = symbolic_addr(&["naming", "poisoned"]);
    dir.bind(&mut driver, name.clone(), obj(0, 10)).unwrap();
    assert_eq!(dir.claim(&mut driver, name.clone(), 0).unwrap(), Some(1));
    dir.poison(&mut driver, name.clone()).unwrap();

    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(0, 10), 1, true))
    );
    // The record is untouchable while poisoned: the epoch that *would*
    // match is refused, and so is a membership install.
    assert_eq!(dir.claim(&mut driver, name.clone(), 1).unwrap(), None);
    assert_eq!(
        dir.set_replicas(&mut driver, name.clone(), vec![obj(1, 11)], 0)
            .unwrap(),
        None
    );

    // A fenced rebind at (or above) the record's epoch revives it.
    assert!(dir
        .bind_fenced(&mut driver, name.clone(), obj(1, 12), 2)
        .unwrap());
    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(1, 12), 2, false))
    );
    assert_eq!(dir.claim(&mut driver, name.clone(), 2).unwrap(), Some(3));
    cluster.shutdown(driver);
}

/// A claim must present the exact current epoch: stale claimers lose,
/// exactly one of two racers at the same epoch wins, and the loser's
/// retry at the new epoch succeeds (the supervisor's recovery-race rule).
#[test]
fn claims_at_stale_epochs_lose_the_cas() {
    let (cluster, mut driver, dir) = build();
    let name = symbolic_addr(&["naming", "race"]);
    dir.bind(&mut driver, name.clone(), obj(0, 10)).unwrap();

    // Two racers, both believing epoch 0: first wins, second loses.
    assert_eq!(dir.claim(&mut driver, name.clone(), 0).unwrap(), Some(1));
    assert_eq!(dir.claim(&mut driver, name.clone(), 0).unwrap(), None);
    // The loser re-reads and retries at the taught epoch.
    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(0, 10), 1, false))
    );
    assert_eq!(dir.claim(&mut driver, name.clone(), 1).unwrap(), Some(2));
    // Claims on names that were never bound land nowhere.
    assert_eq!(
        dir.claim(&mut driver, "oopp://naming/ghost".into(), 0)
            .unwrap(),
        None
    );
    cluster.shutdown(driver);
}

/// A rival claimant on a worker machine: claims a name at `expect` and,
/// when it wins and is given a target, rebinds the name there.
#[derive(Debug)]
pub struct Rival {
    dir: ObjRef,
}

oopp_repro::oopp::remote_class! {
    class Rival {
        ctor(dir: ObjRef);
        /// Claim `name` at `expect`; on a win, `bind_fenced` it to `rebind`.
        fn claim(&mut self, name: String, expect: u64, rebind: Option<ObjRef>) -> Option<u64>;
    }
}

impl Rival {
    pub fn new(_ctx: &mut NodeCtx, dir: ObjRef) -> RemoteResult<Self> {
        Ok(Rival { dir })
    }

    fn claim(
        &mut self,
        ctx: &mut NodeCtx,
        name: String,
        expect: u64,
        rebind: Option<ObjRef>,
    ) -> RemoteResult<Option<u64>> {
        let dir = NameService::classic(self.dir);
        let won = dir.claim(ctx, name.clone(), expect)?;
        if let (Some(epoch), Some(at)) = (won, rebind) {
            dir.bind_fenced(ctx, name, at, epoch)?;
        }
        Ok(won)
    }
}

/// What a row's takeover meets besides the driver's own steps.
#[derive(Debug, Clone, Copy)]
enum Act {
    /// No rival, and `place` finds nowhere.
    Nowhere,
    /// The rival claims the name first (rebinding it to the given target,
    /// if any), and `place` finds nowhere.
    Races(Option<ObjRef>),
    /// `place` makes a fresh object on machine 1, bound unopposed.
    Fresh,
    /// `place` makes a fresh object on machine 1 after the rival claims the
    /// name once more (rebinding it to the given target, if any): the bind
    /// is refused.
    Refused(Option<ObjRef>),
}

/// `NameService::recover`, the one takeover transaction the supervisor, the
/// replica manager and the supervised resolver share, answers every state
/// of a lease record. For the lost-CAS rows a rival on machine 1 claims the
/// same name while the driver's takeover runs: every hop costs 1 ms of
/// virtual time, so the directory sees the driver's `lease_of` (at 1 ms),
/// the rival's `claim` (2 ms), the driver's `claim` (3 ms), the rival's
/// rebind, if it makes one (4 ms), and the driver's second `lease_of`
/// (5 ms), in that order. For the refused rows the rival claims inside
/// `place`, after the driver's claim and before its bind; the refused
/// incarnation stands down, so machine 1 ends each row with the objects it
/// began it with.
#[test]
fn take_over_answers_every_state_of_the_lease() {
    const DEAD: usize = 2;
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .register::<Rival>()
        .sim_config(ClusterConfig::lan(0, 1_000, 100.0).with_virtual_time(0x7A6E_0FE5))
        .build();
    let dir = driver.directory();
    let rival = RivalClient::new_on(&mut driver, 1, dir.obj_ref()).unwrap();
    cluster.sim().faults().crash(DEAD);
    let (home, away, new) = (obj(DEAD, 10), obj(1, 11), obj(1, 12));

    // (row, bound at epoch 1, poisoned, what the takeover meets, expected
    // outcome; `None` for `Bound` at the fresh object)
    use Act::{Fresh, Nowhere, Races, Refused};
    use Takeover::{Gone, Lost, Won};
    let recovered = |at, epoch| Some(Takeover::Recovered { at, epoch });
    let rows = [
        ("unbound", None, false, Nowhere, Some(Gone)),
        ("poisoned", Some(home), true, Nowhere, Some(Gone)),
        ("bound-away", Some(away), false, Nowhere, recovered(away, 1)),
        (
            "claim-won",
            Some(home),
            false,
            Nowhere,
            Some(Won { epoch: 2 }),
        ),
        ("lost", Some(home), false, Races(None), Some(Lost)),
        (
            "lost-rebound",
            Some(home),
            false,
            Races(Some(new)),
            recovered(new, 2),
        ),
        ("bound", Some(home), false, Fresh, None),
        (
            "refused-rebound",
            Some(home),
            false,
            Refused(Some(new)),
            recovered(new, 3),
        ),
        ("refused", Some(home), false, Refused(None), Some(Lost)),
    ];
    for (row, bound, poisoned, act, expected) in rows {
        let name = symbolic_addr(&["naming", "take-over", row]);
        if let Some(target) = bound {
            assert!(dir
                .bind_fenced(&mut driver, name.clone(), target, 1)
                .unwrap());
        }
        if poisoned {
            dir.poison(&mut driver, name.clone()).unwrap();
        }
        let live_on_1 = driver.stats_of(1).unwrap().objects_live;
        let racing = match act {
            Races(rebind) => Some(
                rival
                    .claim_async(&mut driver, name.clone(), 1, rebind)
                    .unwrap(),
            ),
            _ => None,
        };
        let mut fresh = None;
        let place = |ctx: &mut NodeCtx, epoch| {
            match act {
                Nowhere | Races(_) => return None,
                Fresh => {}
                Refused(rebind) => {
                    let won = rival.claim(ctx, name.clone(), epoch, rebind).unwrap();
                    assert_eq!(won, Some(epoch + 1), "row {row}: rival");
                }
            }
            let made = RivalClient::new_on(ctx, 1, dir.obj_ref()).unwrap();
            fresh = Some(made.obj_ref());
            fresh
        };
        let read = dir.lease_of(&mut driver, name.clone()).unwrap();
        let outcome = dir
            .recover(&mut driver, &name, DEAD, read, place, |_, _| true)
            .unwrap();
        let expected = expected.unwrap_or_else(|| Takeover::Bound {
            at: fresh.unwrap(),
            epoch: 2,
        });
        assert_eq!(outcome, expected, "row {row}");
        if let Some(pending) = racing {
            assert_eq!(
                pending.wait(&mut driver).unwrap(),
                Some(2),
                "row {row}: rival"
            );
        }
        let live_now = driver.stats_of(1).unwrap().objects_live;
        let made = matches!(act, Fresh) as u64;
        assert_eq!(live_now, live_on_1 + made, "row {row}: incarnations");
    }
    cluster.shutdown(driver);
}

/// Replica-set membership is fenced the same way: the CAS needs the
/// current rs_epoch, rebinding drops the set, and a fenced rebind bumps
/// the rs_epoch so routes built against the old set self-invalidate.
#[test]
fn replica_membership_is_cas_fenced_and_dropped_on_rebind() {
    let (cluster, mut driver, dir) = build();
    let name = symbolic_addr(&["naming", "set"]);
    dir.bind(&mut driver, name.clone(), obj(0, 10)).unwrap();
    assert_eq!(
        dir.replica_set(&mut driver, name.clone()).unwrap(),
        Some((vec![], 0))
    );

    assert_eq!(
        dir.set_replicas(&mut driver, name.clone(), vec![obj(1, 11)], 1)
            .unwrap(),
        None,
        "stale rs_epoch must lose"
    );
    assert_eq!(
        dir.set_replicas(&mut driver, name.clone(), vec![obj(1, 11)], 0)
            .unwrap(),
        Some(1)
    );

    // A plain rebind is a fresh incarnation: the mirrored set is gone.
    dir.bind(&mut driver, name.clone(), obj(1, 12)).unwrap();
    assert_eq!(
        dir.replica_set(&mut driver, name.clone()).unwrap(),
        Some((vec![], 0)),
        "rebinding must drop the replica set"
    );

    // A fenced rebind also clears the set but *bumps* the rs_epoch.
    assert_eq!(
        dir.set_replicas(&mut driver, name.clone(), vec![obj(0, 13)], 0)
            .unwrap(),
        Some(1)
    );
    assert!(dir
        .bind_fenced(&mut driver, name.clone(), obj(0, 14), 5)
        .unwrap());
    assert_eq!(
        dir.replica_set(&mut driver, name.clone()).unwrap(),
        Some((vec![], 2)),
        "takeover must clear the set and fence the epoch"
    );
    cluster.shutdown(driver);
}

/// The declare-dead purge touches exactly the records advertising a
/// replica on the corpse, bumping each one's rs_epoch once.
#[test]
fn purge_scrubs_only_records_on_the_dead_machine() {
    let (cluster, mut driver, dir) = build();
    let a = symbolic_addr(&["naming", "a"]);
    let b = symbolic_addr(&["naming", "b"]);
    dir.bind(&mut driver, a.clone(), obj(0, 10)).unwrap();
    dir.bind(&mut driver, b.clone(), obj(0, 20)).unwrap();
    dir.set_replicas(&mut driver, a.clone(), vec![obj(1, 11), obj(0, 12)], 0)
        .unwrap()
        .unwrap();
    dir.set_replicas(&mut driver, b.clone(), vec![obj(0, 21)], 0)
        .unwrap()
        .unwrap();

    assert_eq!(dir.purge_replicas_on(&mut driver, 1).unwrap(), 1);
    assert_eq!(
        dir.replica_set(&mut driver, a.clone()).unwrap(),
        Some((vec![obj(0, 12)], 2)),
        "machine-1 replica scrubbed, epoch fenced"
    );
    assert_eq!(
        dir.replica_set(&mut driver, b.clone()).unwrap(),
        Some((vec![obj(0, 21)], 1)),
        "untouched record keeps its epoch"
    );
    // Idempotent: a second purge finds nothing to change.
    assert_eq!(dir.purge_replicas_on(&mut driver, 1).unwrap(), 0);
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// Property: arbitrary interleavings against a sequential model
// ---------------------------------------------------------------------

/// Sequential model of one `LeaseRecord`, mirroring naming.rs semantics.
#[derive(Clone, Debug, PartialEq)]
struct ModelRec {
    target: ObjRef,
    epoch: u64,
    poisoned: bool,
    replicas: Vec<ObjRef>,
    rs_epoch: u64,
}

impl ModelRec {
    fn fresh(target: ObjRef, epoch: u64) -> Self {
        ModelRec {
            target,
            epoch,
            poisoned: false,
            replicas: Vec::new(),
            rs_epoch: 0,
        }
    }
}

/// One step of an interleaving: (verb, name index, expected epoch,
/// machine).
type Op = (u8, usize, u64, usize);

/// Up to 23 steps over two names and two machines.
fn interleaving(c: &mut Case) -> Vec<Op> {
    c.vec(1..24, |c| {
        let (kind, n) = (c.range(0u8..6), c.range(0usize..2));
        (kind, n, c.range(0u64..4), c.range(0usize..2))
    })
}

/// Run `ops` on a directory of `shards` shards (0: unsharded) over the two
/// `names`, checking every record against the sequential model after each.
fn matches_the_sequential_model(shards: u32, names: &[String], ops: Vec<Op>) {
    let (cluster, mut driver, dir) = build_sharded(shards);
    let mut model: Vec<ModelRec> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let target = obj(0, 100 + i as u64);
        dir.bind(&mut driver, name.clone(), target).unwrap();
        model.push(ModelRec::fresh(target, 0));
    }

    for (kind, n, e, m) in ops {
        let name = names[n].clone();
        let rec = &mut model[n];
        match kind {
            // claim(expect = e)
            0 => {
                let got = dir.claim(&mut driver, name, e).unwrap();
                let want = if !rec.poisoned && rec.epoch == e {
                    rec.epoch += 1;
                    Some(rec.epoch)
                } else {
                    None
                };
                assert_eq!(got, want);
            }
            // set_replicas([replica on machine m], expect = e)
            1 => {
                let replicas = vec![obj(m, 200 + m as u64)];
                let got = dir
                    .set_replicas(&mut driver, name, replicas.clone(), e)
                    .unwrap();
                let want = if !rec.poisoned && rec.rs_epoch == e {
                    rec.replicas = replicas;
                    rec.rs_epoch += 1;
                    Some(rec.rs_epoch)
                } else {
                    None
                };
                assert_eq!(got, want);
            }
            // purge_replicas_on(m) — sweeps every record
            2 => {
                let got = dir.purge_replicas_on(&mut driver, m).unwrap();
                let mut want = 0;
                for r in model.iter_mut() {
                    let before = r.replicas.len();
                    r.replicas.retain(|rep| rep.machine != m);
                    if r.replicas.len() != before {
                        r.rs_epoch += 1;
                        want += 1;
                    }
                }
                assert_eq!(got, want);
            }
            // poison
            3 => {
                dir.poison(&mut driver, name).unwrap();
                rec.poisoned = true;
            }
            // bind_fenced(target, epoch = e)
            4 => {
                let target = obj(m, 300 + e);
                let got = dir.bind_fenced(&mut driver, name, target, e).unwrap();
                let want = if rec.epoch <= e {
                    rec.target = target;
                    rec.epoch = e;
                    rec.poisoned = false;
                    rec.replicas.clear();
                    rec.rs_epoch += 1;
                    true
                } else {
                    false
                };
                assert_eq!(got, want);
            }
            // plain bind: fresh incarnation at the old epoch, set gone
            _ => {
                let target = obj(m, 400 + e);
                dir.bind(&mut driver, name, target).unwrap();
                *rec = ModelRec::fresh(target, rec.epoch);
            }
        }

        // The directory must agree with the model after every op.
        for (i, name) in names.iter().enumerate() {
            let r = &model[i];
            assert_eq!(
                dir.lease_of(&mut driver, name.clone()).unwrap(),
                Some((r.target, r.epoch, r.poisoned))
            );
            assert_eq!(
                dir.replica_set(&mut driver, name.clone()).unwrap(),
                Some((r.replicas.clone(), r.rs_epoch))
            );
        }
    }
    cluster.shutdown(driver);
}

/// Any interleaving of claimers, membership CASes, poisons, fenced
/// rebinds, and declare-dead purges — two logical actors over two names —
/// leaves the directory in exactly the state the sequential model
/// predicts, with epochs and rs_epochs never regressing.
#[test]
fn interleaved_claims_and_purges_match_the_sequential_model() {
    let names = [
        symbolic_addr(&["naming", "p", "0"]),
        symbolic_addr(&["naming", "p", "1"]),
    ];
    cases(
        "interleaved_claims_and_purges_match_the_sequential_model",
        40,
        |c| matches_the_sequential_model(0, &names, interleaving(c)),
    );
}

/// The same interleavings against the *sharded* control plane — one name
/// per shard of a 2-shard map, so every op exercises the routing facade —
/// must match the same sequential model: partitioning the records cannot
/// change a single record's CAS semantics.
#[test]
fn sharded_interleavings_match_the_sequential_model() {
    let names = names_on_shards("prop", 2, &[0, 1]);
    cases(
        "sharded_interleavings_match_the_sequential_model",
        40,
        |c| matches_the_sequential_model(2, &names, interleaving(c)),
    );
}

// ---------------------------------------------------------------------
// Sharded control plane: routing edges (DESIGN.md §14)
// ---------------------------------------------------------------------

/// Keys hashing to the same shard coexist as independent records, and
/// the facade's aggregate views (`list`, `len`) see every partition
/// while hiding the control plane's own seat names.
#[test]
fn same_shard_collisions_stay_independent_records() {
    let (cluster, mut driver, dir) = build_sharded(4);
    assert_eq!(dir.shards(), 4);

    // Two names on the same shard, one on a different shard.
    let pair = names_on_shards("coll", 4, &[2, 2]);
    let other = names_on_shards("coll-other", 4, &[3]);
    dir.bind(&mut driver, pair[0].clone(), obj(0, 10)).unwrap();
    dir.bind(&mut driver, pair[1].clone(), obj(1, 11)).unwrap();
    dir.bind(&mut driver, other[0].clone(), obj(1, 12)).unwrap();

    assert_eq!(
        dir.lookup(&mut driver, pair[0].clone()).unwrap(),
        Some(obj(0, 10))
    );
    assert_eq!(
        dir.lookup(&mut driver, pair[1].clone()).unwrap(),
        Some(obj(1, 11))
    );
    // Unbinding one colliding key leaves its shard-mate untouched.
    assert!(dir.unbind(&mut driver, pair[0].clone()).unwrap());
    assert_eq!(dir.lookup(&mut driver, pair[0].clone()).unwrap(), None);
    assert_eq!(
        dir.lookup(&mut driver, pair[1].clone()).unwrap(),
        Some(obj(1, 11))
    );

    // Aggregates span partitions but hide the `_dirsvc` seats…
    let all = dir.list(&mut driver, "oopp://".into()).unwrap();
    assert_eq!(all, {
        let mut want = vec![pair[1].clone(), other[0].clone()];
        want.sort();
        want
    });
    assert_eq!(dir.len(&mut driver).unwrap(), 2);
    // …which stay reachable by asking for the reserved prefix explicitly.
    let seats = dir.list(&mut driver, DIRSVC_PREFIX.into()).unwrap();
    assert_eq!(seats.len(), 4);
    assert!(seats.contains(&shard_addr(0)));
    cluster.shutdown(driver);
}

/// A rebind racing a CAS claim on *another* shard cannot disturb it: the
/// partitions hold disjoint records, so epochs advance independently —
/// and a claim race within one shard still has exactly one winner.
#[test]
fn rebind_races_cas_claims_across_two_shards_independently() {
    let (cluster, mut driver, dir) = build_sharded(2);
    let names = names_on_shards("race", 2, &[0, 1]);
    dir.bind(&mut driver, names[0].clone(), obj(0, 20)).unwrap();
    dir.bind(&mut driver, names[1].clone(), obj(1, 21)).unwrap();

    // Interleave: claim on shard 0, rebind on shard 1, claim again.
    assert_eq!(
        dir.claim(&mut driver, names[0].clone(), 0).unwrap(),
        Some(1)
    );
    dir.bind(&mut driver, names[1].clone(), obj(1, 22)).unwrap();
    assert_eq!(
        dir.claim(&mut driver, names[0].clone(), 1).unwrap(),
        Some(2)
    );

    // The rebound name's epoch was preserved by the rebind and is
    // untouched by the other shard's claims.
    assert_eq!(
        dir.lease_of(&mut driver, names[1].clone()).unwrap(),
        Some((obj(1, 22), 0, false))
    );
    // Same-epoch racers on the rebound name: one winner, one loser.
    assert_eq!(
        dir.claim(&mut driver, names[1].clone(), 0).unwrap(),
        Some(1)
    );
    assert_eq!(dir.claim(&mut driver, names[1].clone(), 0).unwrap(), None);
    assert_eq!(
        dir.lease_of(&mut driver, names[0].clone()).unwrap(),
        Some((obj(0, 20), 2, false))
    );
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// Per-node resolve cache: the 1024-entry eviction bound (DESIGN.md §14)
// ---------------------------------------------------------------------

/// The per-node resolve cache is bounded: inserting a *new* key at
/// capacity evicts wholesale (clear-then-insert, no LRU bookkeeping),
/// and `dir_cache_hits`/`dir_cache_misses` account every probe.
#[test]
fn resolve_cache_evicts_wholesale_at_capacity_and_counts_probes() {
    let (cluster, mut driver, _dir) = build();

    // A sentinel inserted first: the moment it stops resolving, the
    // wholesale clear has happened.
    let sentinel = symbolic_addr(&["naming", "evict", "sentinel"]);
    driver.cache_resolve(&sentinel, obj(0, 1));
    let mut cleared_at = None;
    for i in 0..2048u32 {
        driver.cache_resolve(
            &symbolic_addr(&["naming", "evict", &i.to_string()]),
            obj(0, 2),
        );
        if driver.cached_resolve(&sentinel).is_none() {
            cleared_at = Some(i);
            break;
        }
    }
    let cleared_at = cleared_at.expect("2048 inserts must blow the 1024-entry bound");
    assert!(
        cleared_at <= 1024,
        "eviction fired at insert {cleared_at}, past the documented bound"
    );

    // Clear-then-insert: the key that triggered the eviction survives
    // it; everything older — sentinel included — is gone.
    let trigger = symbolic_addr(&["naming", "evict", &cleared_at.to_string()]);
    let first = symbolic_addr(&["naming", "evict", "0"]);
    let s0 = driver.local_stats();
    assert_eq!(driver.cached_resolve(&trigger), Some(obj(0, 2)));
    assert_eq!(driver.cached_resolve(&sentinel), None);
    assert_eq!(driver.cached_resolve(&first), None);
    let s1 = driver.local_stats();
    assert_eq!(s1.dir_cache_hits, s0.dir_cache_hits + 1);
    assert_eq!(s1.dir_cache_misses, s0.dir_cache_misses + 2);

    cluster.shutdown(driver);
}

/// Wholesale eviction takes the sharded directory's *seat* entries with
/// it — the next lookup must re-resolve the seat through the root table
/// (a counted miss), route correctly, and re-warm the cache so the
/// lookup after that is a hit again.
#[test]
fn seat_cache_re_resolves_correctly_after_eviction() {
    let (cluster, mut driver, dir) = build_sharded(2);
    let names = names_on_shards("seatevict", 2, &[0, 1]);
    dir.bind(&mut driver, names[0].clone(), obj(1, 50)).unwrap();
    dir.bind(&mut driver, names[1].clone(), obj(1, 51)).unwrap();

    // Warm both seats, then prove warm lookups run on cache hits alone.
    assert_eq!(
        dir.lookup(&mut driver, names[0].clone()).unwrap(),
        Some(obj(1, 50))
    );
    assert_eq!(
        dir.lookup(&mut driver, names[1].clone()).unwrap(),
        Some(obj(1, 51))
    );
    let s0 = driver.local_stats();
    assert_eq!(
        dir.lookup(&mut driver, names[0].clone()).unwrap(),
        Some(obj(1, 50))
    );
    let s1 = driver.local_stats();
    assert!(s1.dir_cache_hits > s0.dir_cache_hits);
    assert_eq!(s1.dir_cache_misses, s0.dir_cache_misses);

    // Flood the driver's resolve cache well past the bound: exactly one
    // wholesale clear, and the seat entries are collateral damage.
    for i in 0..1500u32 {
        driver.cache_resolve(
            &symbolic_addr(&["naming", "flood", &i.to_string()]),
            obj(0, 900),
        );
    }
    assert_eq!(driver.cached_resolve(&shard_addr(0)), None);
    assert_eq!(driver.cached_resolve(&shard_addr(1)), None);

    // Post-eviction: the facade re-resolves the seat (counted misses),
    // still routes to the right shard record…
    let s2 = driver.local_stats();
    assert_eq!(
        dir.lookup(&mut driver, names[0].clone()).unwrap(),
        Some(obj(1, 50))
    );
    assert_eq!(
        dir.lookup(&mut driver, names[1].clone()).unwrap(),
        Some(obj(1, 51))
    );
    let s3 = driver.local_stats();
    assert!(s3.dir_cache_misses > s2.dir_cache_misses);

    // …and the refill sticks: the next lookup is pure cache hits again.
    let s4 = driver.local_stats();
    assert_eq!(
        dir.lookup(&mut driver, names[0].clone()).unwrap(),
        Some(obj(1, 50))
    );
    let s5 = driver.local_stats();
    assert!(s5.dir_cache_hits > s4.dir_cache_hits);
    assert_eq!(s5.dir_cache_misses, s4.dir_cache_misses);

    cluster.shutdown(driver);
}

/// A lookup concurrent with a takeover sees the old incarnation or the
/// new one — `bind_fenced` installs target and epoch atomically in the
/// shard's record — and a poisoned record is never served as live.
#[test]
fn lookup_sees_old_or_new_epoch_but_never_a_poisoned_entry() {
    let (cluster, mut driver, dir) = build_sharded(2);
    let name = names_on_shards("fence", 2, &[1]).remove(0);
    dir.bind(&mut driver, name.clone(), obj(0, 30)).unwrap();
    assert_eq!(dir.claim(&mut driver, name.clone(), 0).unwrap(), Some(1));

    // Mid-takeover the old binding still resolves (epoch already bumped).
    assert_eq!(
        dir.lookup(&mut driver, name.clone()).unwrap(),
        Some(obj(0, 30))
    );
    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(0, 30), 1, false))
    );
    // The takeover lands: lookups atomically switch to the new target.
    assert!(dir
        .bind_fenced(&mut driver, name.clone(), obj(1, 31), 1)
        .unwrap());
    assert_eq!(
        dir.lookup(&mut driver, name.clone()).unwrap(),
        Some(obj(1, 31))
    );

    // A takeover that gives up poisons the record; resolvers must see
    // "gone", not a stale live pointer.
    dir.poison(&mut driver, name.clone()).unwrap();
    assert_eq!(dir.lookup(&mut driver, name.clone()).unwrap(), None);
    assert_eq!(
        dir.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(1, 31), 1, true)),
        "lease_of still reports the poisoned record for supervisors"
    );
    cluster.shutdown(driver);
}

// ---------------------------------------------------------------------
// Wire identity and deployment equivalence (DESIGN.md §14.1)
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The request frame in flight under `req_id`, as hex.
fn sent_frame(driver: &Driver, req_id: u64) -> String {
    hex(driver.outstanding_frame(req_id).expect("call in flight"))
}

/// Bytes the driver put on the wire while `op` ran, and how many frames.
fn driver_traffic(
    cluster: &Cluster,
    driver: &mut Driver,
    op: impl FnOnce(&mut Driver),
) -> (u64, u64) {
    let me = driver.machine();
    let before = cluster.snapshot();
    op(driver);
    let after = cluster.snapshot();
    (
        after.per_machine_bytes_sent[me] - before.per_machine_bytes_sent[me],
        after.per_machine_sent[me] - before.per_machine_sent[me],
    )
}

/// Wire identity of the directory protocol: the complete `Frame::Request`
/// bytes of the root's `create`, a shard's `create`, a seat `bind` to the
/// root, and a `lookup` + `claim` aimed at a shard's seat — then the
/// routing facade is held to the same bytes: a routed call is exactly one
/// frame of exactly the pinned length. Request ids count up from the
/// builder's own seven calls (root create, then create + seat per shard).
#[test]
fn directory_request_frames_match_the_golden_bytes() {
    let (cluster, mut driver, dir) = build_sharded(3);

    let root = DirectoryClient::new_on_async(&mut driver, 0).unwrap();
    assert_eq!(
        sent_frame(&driver, 8),
        "0008000000000000000200000000000000001206637265617465094469726563746f7279\
         000000000000000000000000"
    );
    root.wait(&mut driver).unwrap();

    let shard = DirShardClient::new_on_async(&mut driver, 1, 1, 3).unwrap();
    assert_eq!(
        sent_frame(&driver, 9),
        "000900000000000000020000000000000000210663726561746508446972536861726410\
         010000000000000003000000000000000000000000000000000000"
    );
    let shard = shard.wait(&mut driver).unwrap();

    let seated = dir
        .root_client()
        .bind_async(&mut driver, shard_addr(7), shard.obj_ref())
        .unwrap();
    let golden_bind = "000a00000000000000020100000000000000250462696e64166f6f70703a2f2f5f646972\
         7376632f73686172642f370102000000000000000000000000000000000000";
    assert_eq!(sent_frame(&driver, 10), golden_bind);
    seated.wait(&mut driver).unwrap();

    // What the facade sends a shard: the directory stub aimed at the seat.
    let name = names_on_shards("golden", 3, &[1]).remove(0);
    let seat = dir
        .root_client()
        .lookup(&mut driver, shard_addr(1))
        .unwrap()
        .expect("shard 1 is seated");
    let at_seat = DirectoryClient::from_ref(seat);
    let found = at_seat.lookup_async(&mut driver, name.clone()).unwrap();
    let golden_lookup = "000c000000000000000201000000000000001e066c6f6f6b7570166f6f70703a2f2f6e61\
         6d696e672f676f6c64656e2f300000000000000000000000";
    assert_eq!(sent_frame(&driver, 12), golden_lookup);
    assert_eq!(found.wait(&mut driver).unwrap(), None);
    let claimed = at_seat.claim_async(&mut driver, name.clone(), 0).unwrap();
    let golden_claim = "000d000000000000000201000000000000002505636c61696d166f6f70703a2f2f6e616d\
         696e672f676f6c64656e2f3000000000000000000000000000000000000000";
    assert_eq!(sent_frame(&driver, 13), golden_claim);
    assert_eq!(claimed.wait(&mut driver).unwrap(), None);

    // The facade, seat cached by the first call: one frame each, same size.
    dir.lookup(&mut driver, name.clone()).unwrap();
    let frame_len = |golden: &str| (golden.len() / 2) as u64;
    let sent = driver_traffic(&cluster, &mut driver, |d| {
        dir.lookup(d, name.clone()).unwrap();
    });
    assert_eq!(sent, (frame_len(golden_lookup), 1));
    let sent = driver_traffic(&cluster, &mut driver, |d| {
        dir.claim(d, name.clone(), 0).unwrap();
    });
    assert_eq!(sent, (frame_len(golden_claim), 1));
    let sent = driver_traffic(&cluster, &mut driver, |d| {
        dir.bind(d, shard_addr(7), shard.obj_ref()).unwrap();
    });
    assert_eq!(sent, (frame_len(golden_bind), 1));
    cluster.shutdown(driver);
}

/// A shard snapshot in the layout every release so far has written —
/// `index, total, count, then per record name, target, epoch, poisoned,
/// replicas, rs_epoch` — built by hand, restores into a serving shard and
/// snapshots back to the same bytes.
#[test]
fn hand_built_shard_snapshot_restores_and_round_trips() {
    let (cluster, mut driver, _dir) = build();
    let name = names_on_shards("snap", 3, &[1]).remove(0);
    let mut w = wire::Writer::new();
    for field in [1u64, 3, 1] {
        wire::Wire::encode(&field, &mut w);
    }
    wire::Wire::encode(&name, &mut w);
    wire::Wire::encode(&obj(1, 77), &mut w);
    wire::Wire::encode(&5u64, &mut w);
    wire::Wire::encode(&true, &mut w);
    wire::Wire::encode(&vec![obj(0, 78)], &mut w);
    wire::Wire::encode(&2u64, &mut w);
    let snapshot = w.into_bytes();

    let key = shard_addr(1);
    driver
        .put_snapshot(
            1,
            key.clone(),
            "DirShard".into(),
            wire::collections::Bytes(snapshot.clone()),
        )
        .unwrap();
    let shard: DirShardClient = driver.activate(1, &key).unwrap();
    assert_eq!(shard.shard_info(&mut driver).unwrap(), (1, 3));
    let records = DirectoryClient::from_ref(shard.obj_ref());
    assert_eq!(
        records.lease_of(&mut driver, name.clone()).unwrap(),
        Some((obj(1, 77), 5, true))
    );
    assert_eq!(
        records.replica_set(&mut driver, name).unwrap(),
        Some((vec![obj(0, 78)], 2))
    );
    assert_eq!(driver.snapshot_of(shard.obj_ref()).unwrap().0, snapshot);
    cluster.shutdown(driver);
}

/// A shard snapshot holds its names strictly increasing, as `save_state`
/// writes them: two names out of order, or one name twice, is a typed
/// error at activation, not a partition that silently sorts or drops them.
#[test]
fn shard_snapshots_with_names_out_of_order_are_refused() {
    let (cluster, mut driver, _dir) = build();
    for (i, names) in [["oopp://b", "oopp://a"], ["oopp://a", "oopp://a"]]
        .iter()
        .enumerate()
    {
        let mut w = wire::Writer::new();
        for field in [0u64, 1, 2] {
            wire::Wire::encode(&field, &mut w);
        }
        for name in names {
            wire::Wire::encode(&name.to_string(), &mut w);
            wire::Wire::encode(&obj(1, 77), &mut w);
            wire::Wire::encode(&1u64, &mut w);
            wire::Wire::encode(&false, &mut w);
            wire::Wire::encode(&Vec::<ObjRef>::new(), &mut w);
            wire::Wire::encode(&0u64, &mut w);
        }
        let key = symbolic_addr(&["naming", "unsorted", &i.to_string()]);
        driver
            .put_snapshot(
                1,
                key.clone(),
                "DirShard".into(),
                wire::collections::Bytes(w.into_bytes()),
            )
            .unwrap();
        let restored = driver.activate::<DirShardClient>(1, &key);
        assert!(
            matches!(restored, Err(RemoteError::Decode { .. })),
            "{names:?}: {restored:?}"
        );
    }
    driver.ping(1).unwrap();
    cluster.shutdown(driver);
}

/// The root is the plain, non-persistent base class on machine 0: it
/// arbitrates every takeover, so it is the one object that cannot move —
/// which is also what keeps it out of the balancer's plans.
#[test]
fn the_root_directory_refuses_to_migrate() {
    for shards in [0, 2] {
        let (cluster, mut driver, dir) = build_sharded(shards);
        let root = dir.obj_ref();
        assert_eq!(root.machine, 0);
        let err = driver.migrate(root, 1).unwrap_err();
        assert!(
            matches!(&err, RemoteError::NotPersistent { class } if class == "Directory"),
            "{err}"
        );
        cluster.shutdown(driver);
    }
}

/// Drive one seeded script of all twelve directory verbs through the
/// facade of a `shards`-way deployment; returns every answer and the
/// final observable state as text.
fn run_directory_script(shards: u32) -> Vec<String> {
    let (cluster, mut driver, dir) = build_sharded(shards);
    let d = &mut driver;
    let rng = &mut Case::new(0x15_D1CE);
    let names: Vec<String> = (0..8)
        .map(|i| symbolic_addr(&["naming", "equiv", &i.to_string()]))
        .collect();
    let mut out = Vec::new();
    for step in 0..400 {
        let name = names[rng.range(0..names.len())].clone();
        let expect = rng.range(0..4);
        let machine = rng.range(0..3);
        let target = obj(machine, 100 + rng.range(0..8));
        let answer = match rng.range(0..12) {
            0 => format!("bind {:?}", dir.bind(d, name, target)),
            1 => format!("lookup {:?}", dir.lookup(d, name)),
            2 => format!("unbind {:?}", dir.unbind(d, name)),
            3 => format!("list {:?}", dir.list(d, "oopp://naming/equiv/".into())),
            4 => format!("len {:?}", dir.len(d)),
            5 => format!("lease_of {:?}", dir.lease_of(d, name)),
            6 => format!("claim {:?}", dir.claim(d, name, expect)),
            7 => format!("bind_fenced {:?}", dir.bind_fenced(d, name, target, expect)),
            8 => format!("poison {:?}", dir.poison(d, name)),
            9 => format!("replica_set {:?}", dir.replica_set(d, name)),
            10 => format!(
                "set_replicas {:?}",
                dir.set_replicas(d, name, vec![target, obj(2, 9)], expect)
            ),
            _ => format!("purge_replicas_on {:?}", dir.purge_replicas_on(d, machine)),
        };
        out.push(format!("{step}: {answer}"));
    }
    out.push(format!("list {:?}", dir.list(d, "oopp://".into())));
    out.push(format!("len {:?}", dir.len(d)));
    for name in &names {
        out.push(format!(
            "{name}: {:?} {:?}",
            dir.lease_of(d, name.clone()),
            dir.replica_set(d, name.clone())
        ));
    }
    cluster.shutdown(driver);
    out
}

/// One directory, however it is deployed: the same script gets the same
/// answers — CAS winners and losers, poison refusals, purge counts — and
/// leaves the same names, count and records whether every name lives in
/// the root, in one shard, or is spread over three.
#[test]
fn root_only_one_shard_and_three_shards_answer_alike() {
    let root_only = run_directory_script(0);
    for needle in [
        "claim Ok(Some(",
        "claim Ok(None)",
        "set_replicas Ok(Some(",
        "set_replicas Ok(None)",
        "bind_fenced Ok(false)",
        "unbind Ok(true)",
        ", true))) Ok(Some(", // a record left poisoned at the end
    ] {
        assert!(
            root_only.iter().any(|line| line.contains(needle)),
            "the script never produced `{needle}`"
        );
    }
    assert!(
        root_only
            .iter()
            .any(|l| l.contains("purge_replicas_on Ok(") && !l.ends_with("Ok(0)")),
        "the script never purged a replica"
    );
    for shards in [1, 3] {
        let sharded = run_directory_script(shards);
        for (a, b) in root_only.iter().zip(&sharded) {
            assert_eq!(a, b, "root-only vs {shards} shard(s)");
        }
        assert_eq!(root_only.len(), sharded.len());
    }
}
