//! The daemon protocol, declared once (DESIGN.md §4, "daemon protocol —
//! one table"): the frames its generated stubs put on the wire are pinned
//! to golden bytes, every verb of the table is driven end to end through
//! its stub, every verb that touches an object's process waits for a
//! checked-out object and sees the call's effect, and malformed requests
//! are typed errors on one call — never a dead machine thread.

use std::collections::BTreeSet;
use std::time::Duration;

use oopp_repro::oopp::node::DAEMON_VERBS;
use oopp_repro::oopp::wire::collections::Bytes;
use oopp_repro::oopp::{
    wire, BarrierClient, CallPolicy, ClusterBuilder, Driver, EventKind, MigrationPayload, NodeCtx,
    ObjRef, PacketBytes, Pending, RemoteClient, RemoteError, RemoteResult,
};
use oopp_repro::simnet::ClusterConfig;

/// Persistent counter with a read verb. A state of [`UNLUCKY`] refuses to
/// be restored anywhere but machine 0 — the lever that fails a migration
/// after `migrate_out` and so drives `migrate_rollback`.
#[derive(Debug, Default)]
pub struct Tally {
    total: u64,
}

const UNLUCKY: u64 = 13;

oopp_repro::oopp::remote_class! {
    class Tally {
        persistent;
        reads(total, total_after);
        ctor();
        /// Add `n`; returns the new total.
        fn add(&mut self, n: u64) -> u64;
        /// Current total (replica-servable).
        fn total(&mut self) -> u64;
        /// Enter `gate` — parked there, the object stays checked out —
        /// then add `n`; returns the new total.
        fn add_after(&mut self, gate: BarrierClient, n: u64) -> u64;
        /// Enter `gate`, then return the total (replica-servable).
        fn total_after(&mut self, gate: BarrierClient) -> u64;
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

    fn add_after(&mut self, ctx: &mut NodeCtx, gate: BarrierClient, n: u64) -> RemoteResult<u64> {
        gate.enter(ctx)?;
        self.add(ctx, n)
    }

    fn total_after(&mut self, ctx: &mut NodeCtx, gate: BarrierClient) -> RemoteResult<u64> {
        gate.enter(ctx)?;
        Ok(self.total)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&self.total)
    }

    fn load_state(ctx: &mut NodeCtx, state: &[u8]) -> RemoteResult<Self> {
        let total: u64 = wire::from_bytes(state)?;
        if total == UNLUCKY && ctx.machine() != 0 {
            return Err(RemoteError::app("an unlucky tally only lives on machine 0"));
        }
        Ok(Tally { total })
    }
}

/// One worker machine (0) plus the driver endpoint (1), with `workers`
/// scheduler lanes (0: the classic engine). A short single-shot policy: a
/// request the daemon mishandles must fail the test fast.
fn one_machine(tracing: bool, workers: usize) -> (oopp_repro::oopp::Cluster, Driver) {
    ClusterBuilder::new(1)
        .sched_workers(workers)
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xDAE_4014))
        .register::<Tally>()
        .call_policy(CallPolicy::no_retry(Duration::from_millis(500)))
        .tracing(tracing)
        .build()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The frame in flight for `call`, as hex; then wait the call out.
fn sent_frame<T: wire::Wire>(driver: &mut Driver, call: Pending<T>) -> String {
    let frame = hex(driver
        .outstanding_frame(call.req_id())
        .expect("call in flight"));
    call.wait(driver).expect("daemon call");
    frame
}

/// Wire identity: the complete `Frame::Request` bytes of four daemon calls
/// (string + bytes, no arguments, vector + bool, object references), as
/// the parent commit's hand-written encoders produced them. The sequence
/// matters: request ids count up from the cluster directory's `create`.
#[test]
fn daemon_request_frames_match_the_golden_bytes() {
    let (cluster, mut driver) = one_machine(false, 0);
    let obj = ObjRef {
        machine: 0,
        object: 2,
    };

    let id = driver
        .start_create(0, "DoubleBlock".into(), Bytes(wire::to_bytes(&8usize)))
        .unwrap();
    assert_eq!(
        sent_frame(&mut driver, id),
        "02020000000000000001000000000000000015066372656174650b446f75626c65426c6f636b\
         01080000000000000000000000"
    );

    let id = driver.start_ping(0).unwrap();
    assert_eq!(
        sent_frame(&mut driver, id),
        "020300000000000000010000000000000000050470696e670000000000000000000000"
    );

    let replicas = vec![ObjRef {
        machine: 1,
        object: 9,
    }];
    let id = driver
        .start_replica_attach(obj, replicas, 5, true, 200)
        .unwrap();
    assert_eq!(
        sent_frame(&mut driver, id),
        "020400000000000000010000000000000000320e7265706c6963615f617474616368\
         020000000000000001010900000000000000050000000000000001c800000000000000\
         0000000000000000000000"
    );

    let to = ObjRef {
        machine: 1,
        object: 19,
    };
    let id = driver.start_fence(obj, 3, to).unwrap();
    assert_eq!(
        sent_frame(&mut driver, id),
        "0205000000000000000100000000000000001f0566656e6365020000000000000003\
         000000000000000113000000000000000000000000000000000000"
    );
    cluster.shutdown(driver);
}

/// Every verb of the table, once, end to end through its stub (or the
/// hand-written method that adds to it), each returning its typed reply; the flight recorder confirms that no
/// row of the table went unserved.
#[test]
fn every_daemon_verb_round_trips_through_its_public_wrapper() {
    let (cluster, mut driver) = one_machine(true, 0);
    let recorder = cluster.recorder().expect("tracing is on");
    let d = &mut driver;
    let lease = 3_600_000;

    // ping, create, stats, loads, snapshot.
    d.ping(0).unwrap();
    let a = TallyClient::new_on(d, 0).unwrap();
    assert_eq!(a.add(d, 5).unwrap(), 5);
    assert!(d.stats_of(0).unwrap().objects_live >= 2, "directory + a");
    assert!(d.loads_of(0).unwrap().contains(&(a.obj_ref().object, 1)));
    let state = d.snapshot_of(a.obj_ref()).unwrap();
    assert_eq!(state.0, wire::to_bytes(&5u64));

    // put_snapshot, activate, drop_snapshot, deactivate, activate_fenced.
    d.put_snapshot(0, "k1".into(), "Tally".into(), state.clone())
        .unwrap();
    let b: TallyClient = d.activate(0, "k1").unwrap();
    assert_eq!(b.total(d).unwrap(), 5);
    assert!(d.drop_snapshot(0, "k1".into()).unwrap());
    assert!(!d.drop_snapshot(0, "k1".into()).unwrap());
    d.deactivate(b.obj_ref(), "k2".into()).unwrap();
    let c: TallyClient = d.activate_fenced(0, "k2", 3).unwrap();
    assert_eq!(d.believed_epoch(c.obj_ref()), 3);

    // set_epoch, heartbeat (the lease the two supervised objects now need),
    // fence (stale pointers to `c` forward to `a`).
    d.set_epoch_of(a.obj_ref(), 2).unwrap();
    d.start_heartbeat(0, lease).unwrap().wait(d).unwrap();
    assert_eq!(c.total(d).unwrap(), 5);
    d.fence_object(c.obj_ref(), 4, a.obj_ref()).unwrap();

    // replica_adopt, replica_status (both roles), replica_attach,
    // replica_sync, replica_renew, replica_promote, replica_drop.
    let primary = a.obj_ref();
    let r1 = d
        .replica_adopt(0, "Tally", state.clone(), primary, 1, lease)
        .unwrap();
    let r2 = d
        .replica_adopt(0, "Tally", state, primary, 1, lease)
        .unwrap();
    d.replica_attach(primary, vec![r1, r2], 1, false, lease)
        .unwrap();
    let status = d.replica_status_of(primary).unwrap();
    assert!(status.is_primary);
    assert_eq!(status.replicas, vec![r1, r2]);
    let status = d.replica_status_of(r1).unwrap();
    assert!(!status.is_primary);
    assert_eq!((status.rs_epoch, status.replicas), (1, vec![primary]));
    d.replica_sync_to(r1, Bytes(wire::to_bytes(&9u64)), 2, lease)
        .unwrap();
    assert!(d.replica_renew(r1, 2, lease).unwrap());
    assert!(!d.replica_renew(r1, 7, lease).unwrap(), "drifted");
    d.replica_promote(r2, 5).unwrap();
    assert_eq!(d.believed_epoch(r2), 5);
    d.replica_drop(r1).unwrap();

    // migrate_out, adopt_state, migrate_commit: a move to the driver's own
    // endpoint, which serves its half of the protocol re-entrantly.
    let m = TallyClient::new_on(d, 0).unwrap();
    m.add(d, 1).unwrap();
    let moved = d.migrate(m.obj_ref(), 1).unwrap();
    assert_eq!(moved.machine, 1);
    assert_eq!(m.total(d).unwrap(), 1, "the old pointer forwards");
    // migrate_rollback: the target refuses the state, the source restores
    // the object under its original id.
    let unlucky = TallyClient::new_on(d, 0).unwrap();
    unlucky.add(d, UNLUCKY).unwrap();
    assert!(matches!(
        d.migrate(unlucky.obj_ref(), 1),
        Err(RemoteError::App { .. })
    ));
    assert_eq!(unlucky.total(d).unwrap(), UNLUCKY);

    // destroy; shutdown goes out with the cluster.
    d.destroy(unlucky.obj_ref()).unwrap();
    assert!(matches!(
        unlucky.total(d),
        Err(RemoteError::NoSuchObject { .. })
    ));
    cluster.shutdown(driver);

    let served: BTreeSet<String> = recorder
        .merge()
        .events
        .iter()
        .filter(|e| e.kind == EventKind::ServerDispatch)
        .map(|e| e.method.to_string())
        .collect();
    let unserved: Vec<&str> = DAEMON_VERBS
        .iter()
        .copied()
        .filter(|v| !served.contains(*v))
        .collect();
    assert!(unserved.is_empty(), "verbs never exercised: {unserved:?}");
    assert_eq!(DAEMON_VERBS.len(), 26);
}

/// Let `held`, a call that enters `gate`, reach it — parked there, it
/// keeps its object checked out — then issue a verb with `issue`: the verb
/// must not be answered while the call is parked. Release the call;
/// return what it returned and then the verb's reply.
fn behind_parked_call<T: wire::Wire>(
    d: &mut Driver,
    gate: BarrierClient,
    held: Pending<u64>,
    issue: impl FnOnce(&mut Driver) -> Pending<T>,
) -> (u64, T) {
    d.serve_for(Duration::from_millis(20));
    let verb = issue(d);
    d.serve_for(Duration::from_millis(20));
    assert!(
        d.try_take_reply(verb.req_id()).is_none(),
        "the verb ran on a checked-out object"
    );
    gate.enter(d).unwrap();
    let returned = held.wait(d).unwrap();
    (returned, verb.wait(d).unwrap())
}

/// The one gate (DESIGN.md §4, 3a): every verb that touches an object's
/// process — reads its state, replaces it, or retires it — issued while a
/// call has the object checked out waits for the call to return and sees
/// its effect. One case per verb, on the classic engine and on a
/// one-worker pool: on the classic machine the parked call keeps the
/// dispatcher serving, on the pool it holds the only worker, so each verb
/// does arrive mid-call. A verb is refused `Busy` once and parked on its
/// object, ahead of the calls queued behind the running one; its request
/// records one deferral and one dispatch, and the machine sends nothing
/// but requests and their replies — two messages per request sent, no
/// wake-up packet to itself.
#[test]
fn process_verbs_wait_for_a_checked_out_object() {
    for workers in [0, 1] {
        verbs_wait_for_a_checked_out_object(workers);
    }
}

fn verbs_wait_for_a_checked_out_object(workers: usize) {
    let (cluster, mut driver) = one_machine(true, workers);
    let recorder = cluster.recorder().expect("tracing is on");
    let metrics = cluster.metrics().clone();
    let d = &mut driver;
    let lease = 3_600_000;
    let gate = BarrierClient::new_on(d, 0, 2).unwrap();
    let fresh = |d: &mut Driver| TallyClient::new_on(d, 0).unwrap();

    // destroy: the call completes first.
    let a = fresh(d);
    let held = a.add_after_async(d, gate, 1).unwrap();
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d.start_destroy(a.obj_ref()).unwrap()),
        (1, ())
    );
    assert!(matches!(a.total(d), Err(RemoteError::NoSuchObject { .. })));

    // snapshot: the state includes the call's write, and not the write of
    // the call queued behind it — the verb waits for one call, not a queue.
    let a = fresh(d);
    let held = a.add_after_async(d, gate, 2).unwrap();
    let mut queued = None;
    let (_, state) = behind_parked_call(d, gate, held, |d| {
        queued = Some(a.add_async(d, 10).unwrap());
        d.start_snapshot(a.obj_ref()).unwrap()
    });
    assert_eq!(state.0, wire::to_bytes(&2u64), "workers {workers}");
    assert_eq!(queued.unwrap().wait(d).unwrap(), 12);

    // deactivate: the stored snapshot includes it.
    let a = fresh(d);
    let held = a.add_after_async(d, gate, 3).unwrap();
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d
            .start_deactivate(a.obj_ref(), "parked".into())
            .unwrap()),
        (3, ())
    );
    let back: TallyClient = d.activate(0, "parked").unwrap();
    assert_eq!(back.total(d).unwrap(), 3);

    // migrate_out: the shipped state includes it; roll the move back.
    let a = fresh(d);
    let held = a.add_after_async(d, gate, 4).unwrap();
    let (_, payload): (u64, MigrationPayload) =
        behind_parked_call(d, gate, held, |d| d.start_migrate_out(a.obj_ref()).unwrap());
    assert_eq!(payload.state.0, wire::to_bytes(&4u64));
    d.start_migrate_rollback(a.obj_ref())
        .unwrap()
        .wait(d)
        .unwrap();
    assert_eq!(a.total(d).unwrap(), 4);

    // fence: the call completes first; the object is gone after.
    let a = fresh(d);
    let held = a.add_after_async(d, gate, 5).unwrap();
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d
            .start_fence(a.obj_ref(), 7, back.obj_ref())
            .unwrap()),
        (5, ())
    );
    assert!(d.snapshot_of(a.obj_ref()).is_err());

    // The replica verbs, behind a read parked on a replica of `primary`.
    let primary = fresh(d).obj_ref();
    let state = d.snapshot_of(primary).unwrap();
    let replica = |d: &mut Driver| {
        let r = d
            .replica_adopt(0, "Tally", state.clone(), primary, 1, lease)
            .unwrap();
        TallyClient::from_ref(r)
    };

    // replica_sync: the read returns the old state, whole; the new state
    // lands after it.
    let r = replica(d);
    let held = r.total_after_async(d, gate).unwrap();
    let new_state = Bytes(wire::to_bytes(&9u64));
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d
            .start_replica_sync(r.obj_ref(), new_state, 2, lease)
            .unwrap()),
        (0, ())
    );
    assert_eq!(r.total(d).unwrap(), 9);

    // replica_drop: the read completes; the replica is gone after.
    let r = replica(d);
    let held = r.total_after_async(d, gate).unwrap();
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d
            .start_replica_drop(r.obj_ref())
            .unwrap()),
        (0, ())
    );
    assert!(d.replica_status_of(r.obj_ref()).is_err());

    // replica_promote: the read completes; the replica is a plain object
    // after, which no longer answers `replica_status`.
    let r = replica(d);
    let held = r.total_after_async(d, gate).unwrap();
    assert_eq!(
        behind_parked_call(d, gate, held, |d| d
            .start_replica_promote(r.obj_ref(), 5)
            .unwrap()),
        (0, ())
    );
    assert!(matches!(
        d.replica_status_of(r.obj_ref()),
        Err(RemoteError::NoSuchObject { .. })
    ));
    cluster.shutdown(driver);

    let trace = recorder.merge();
    let of = |kind: EventKind| trace.events.iter().filter(move |e| e.kind == kind);
    let deferred: BTreeSet<(u64, &str)> = of(EventKind::ServerDefer)
        .filter(|e| DAEMON_VERBS.contains(&&*e.method))
        .map(|e| (e.span_id, &*e.method))
        .collect();
    assert_eq!(
        deferred.len(),
        8,
        "workers {workers}: one deferral per verb"
    );
    for (span, verb) in deferred {
        let count = |kind| of(kind).filter(|e| e.span_id == span).count();
        let runs = (
            count(EventKind::ServerDefer),
            count(EventKind::ServerDispatch),
        );
        assert_eq!(runs, (1, 1), "workers {workers}: {verb} (span {span:#x})");
    }
    // No retransmits under `no_retry`, and every request is answered.
    let sent = metrics.snapshot().messages_sent;
    let requests = of(EventKind::ClientSend).count() as u64;
    assert_eq!(
        sent,
        2 * requests,
        "workers {workers}: a message besides a request or a reply"
    );
}

/// A request that arrives for a migrating object waits in the object's
/// record and is judged twice: when it arrives, and at the swap that ends
/// the move. After a rollback the waiting call joins the restored
/// object's mailbox (behind the waiting verb); after a commit it is
/// answered `Moved` and its caller chases the forward to the new home.
/// Each waiting request records one deferral.
#[test]
fn requests_wait_out_a_migration_in_the_record() {
    for workers in [0, 1] {
        let (cluster, mut driver) = one_machine(true, workers);
        let recorder = cluster.recorder().expect("tracing is on");
        let d = &mut driver;
        let a = TallyClient::new_on(d, 0).unwrap();
        a.add(d, 2).unwrap();
        let unanswered = |d: &mut Driver, ids: &[u64]| {
            d.serve_for(Duration::from_millis(20));
            for &id in ids {
                assert!(d.try_take_reply(id).is_none(), "answered mid-migration");
            }
        };

        d.start_migrate_out(a.obj_ref()).unwrap().wait(d).unwrap();
        let call = a.add_async(d, 3).unwrap();
        let verb = d.start_snapshot(a.obj_ref()).unwrap();
        let mut waited = vec![call.req_id(), verb.req_id()];
        unanswered(d, &waited);
        d.start_migrate_rollback(a.obj_ref())
            .unwrap()
            .wait(d)
            .unwrap();
        assert_eq!(verb.wait(d).unwrap().0, wire::to_bytes(&2u64));
        assert_eq!(call.wait(d).unwrap(), 5);

        let payload = d.start_migrate_out(a.obj_ref()).unwrap().wait(d).unwrap();
        let call = a.add_async(d, 4).unwrap();
        waited.push(call.req_id());
        unanswered(d, &waited[2..]);
        let object = d
            .start_adopt_state(1, payload.class, payload.state)
            .unwrap()
            .wait(d)
            .unwrap();
        let to = ObjRef { machine: 1, object };
        d.start_migrate_commit(a.obj_ref(), to)
            .unwrap()
            .wait(d)
            .unwrap();
        assert_eq!(call.wait(d).unwrap(), 9);
        assert_eq!(d.stats_of(0).unwrap().calls_deferred, 3);
        cluster.shutdown(driver);

        let trace = recorder.merge();
        for id in waited {
            let defers = trace
                .events
                .iter()
                .filter(|e| e.kind == EventKind::ServerDefer && e.machine == 0 && e.req_id == id)
                .count();
            assert_eq!(defers, 1, "workers {workers}: request {id}");
        }
    }
}

/// Call daemon verb `verb` on machine 0 with the raw argument bytes `args`.
fn raw_call(driver: &mut Driver, verb: &str, args: &[u8]) -> RemoteResult<PacketBytes> {
    let id = driver.start_method_raw(ObjRef::daemon(0), verb, |w| w.put_bytes(args))?;
    driver.wait_raw(id)
}

/// Malformed daemon requests — an unknown verb, truncated arguments,
/// trailing garbage, and seeded random junk aimed at every verb — each
/// fail (or succeed) as that one call; the machine keeps serving.
#[test]
fn junk_daemon_requests_are_typed_errors_on_one_call() {
    let (cluster, mut driver) = one_machine(false, 0);
    let d = &mut driver;

    match raw_call(d, "no_such_verb", &[]) {
        Err(RemoteError::NoSuchMethod { class, method }) => {
            assert_eq!(
                (class.as_str(), method.as_str()),
                ("<daemon>", "no_such_verb")
            );
        }
        other => panic!("unknown verb: {other:?}"),
    }
    let truncated = [
        ("destroy", &[][..]),
        ("fence", &[2, 0, 0, 0, 0, 0, 0, 0, 3][..]),
        ("put_snapshot", &[1, b'k'][..]),
    ];
    for (verb, args) in truncated {
        assert!(
            matches!(raw_call(d, verb, args), Err(RemoteError::Decode { .. })),
            "truncated {verb}"
        );
    }
    for verb in ["ping", "stats", "loads"] {
        assert!(
            matches!(raw_call(d, verb, &[0xAB]), Err(RemoteError::Decode { .. })),
            "trailing garbage after {verb}"
        );
    }
    d.ping(0).unwrap();

    // Junk never panics the machine thread. Outcomes are opaque (random
    // bytes can spell a valid request; one that parks a verb behind a
    // quiesced object times out, which is the protocol working) — except
    // `shutdown`, which would be obeyed.
    d.set_call_policy(CallPolicy::no_retry(Duration::from_millis(20)));
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let verbs: Vec<&str> = DAEMON_VERBS
        .iter()
        .copied()
        .filter(|v| *v != "shutdown")
        .collect();
    for _ in 0..300 {
        let verb = verbs[next() as usize % verbs.len()];
        let junk: Vec<u8> = (0..next() % 48).map(|_| next() as u8).collect();
        let _ = raw_call(d, verb, &junk);
    }
    d.set_call_policy(CallPolicy::no_retry(Duration::from_millis(500)));
    d.ping(0).unwrap();
    cluster.shutdown(driver);
}

/// Regression: `set_epoch` on an id that never lived used to plant a fence
/// in the machine-wide epoch table without looking at the object table —
/// calls to the id then answered `Fenced` instead of `NoSuchObject`, and
/// the unsupervised object later allocated that id silently inherited the
/// epoch (and with it the lease self-fence). An unknown id is refused like
/// any other verb's; live objects and tombstones still take the epoch.
#[test]
fn set_epoch_on_an_id_that_never_lived_is_refused() {
    let (cluster, mut driver) = one_machine(false, 0);
    let d = &mut driver;
    let a = TallyClient::new_on(d, 0).unwrap();
    let never = ObjRef {
        machine: 0,
        object: a.obj_ref().object + 1,
    };

    let set = d.set_epoch_of(never, 7);
    assert!(
        matches!(set, Err(RemoteError::NoSuchObject { .. })),
        "set_epoch on a never-lived id: {set:?}"
    );
    d.forget_epoch(never);
    let call = TallyClient::from_ref(never).total(d);
    assert!(
        matches!(call, Err(RemoteError::NoSuchObject { .. })),
        "no fence was planted: {call:?}"
    );
    // The object that gets the id next is born unfenced.
    let b = TallyClient::new_on(d, 0).unwrap();
    assert_eq!(b.obj_ref(), never);
    assert_eq!(b.add(d, 3).unwrap(), 3);

    // A live object takes the epoch; so does the tombstone it leaves.
    d.set_epoch_of(a.obj_ref(), 2).unwrap();
    d.destroy(a.obj_ref()).unwrap();
    d.set_epoch_of(a.obj_ref(), 4).unwrap();
    let call = a.total(d);
    assert!(
        matches!(call, Err(RemoteError::Fenced { current_epoch: 4 })),
        "the tombstone's fence moved forward: {call:?}"
    );
    cluster.shutdown(driver);
}

/// Regression: lease arithmetic on wire input. `heartbeat` and the replica
/// verbs computed `now + millis * 1_000_000` unchecked; a huge grant
/// panicked the machine thread (debug) or wrapped to an arbitrary, possibly
/// past, lease (release). It must saturate to "never expires".
#[test]
fn absurd_lease_grants_saturate() {
    let (cluster, mut driver) = one_machine(false, 0);
    let d = &mut driver;
    let a = TallyClient::new_on(d, 0).unwrap();
    a.add(d, 5).unwrap();
    d.set_epoch_of(a.obj_ref(), 1).unwrap();

    d.start_heartbeat(0, u64::MAX).unwrap().wait(d).unwrap();
    d.ping(0).unwrap();
    assert_eq!(a.total(d).unwrap(), 5, "supervised object still served");

    let state = Bytes(wire::to_bytes(&5u64));
    let r = d
        .replica_adopt(0, "Tally", state.clone(), a.obj_ref(), 1, u64::MAX)
        .unwrap();
    assert!(d.replica_renew(r, 1, u64::MAX).unwrap());
    d.replica_sync_to(r, state, 2, u64::MAX).unwrap();
    d.ping(0).unwrap();
    let read = d.start_method_direct::<u64>(r, "total", |_| {}).unwrap();
    assert_eq!(read.wait(d).unwrap(), 5, "replica lease is live");
    cluster.shutdown(driver);
}
