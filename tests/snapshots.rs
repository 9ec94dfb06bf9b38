//! Every persistent class's restore against snapshots nobody wrote (DESIGN
//! §5): each truncation of a real snapshot, one trailing byte, runs of
//! random words and a count of 2^40 where the snapshot's first count lies.
//! A restore — `put_snapshot` + `activate`, or a migration's `adopt_state`
//! — answers a typed error, or builds an object whose own snapshot is those
//! very bytes. It never panics the machine and never allocates by a forged
//! count (that would abort the test process).

use std::time::Duration;

use oopp_repro::oopp::{
    symbolic_addr, wire, CallPolicy, ClusterBuilder, DirShardClient, DoubleBlockClient, Driver,
    MigrationPayload, ObjRef, RemoteClient, RemoteError,
};
use oopp_repro::pagestore::{ArrayPageDevice, ArrayPageDeviceClient, PageDevice, PageDeviceClient};
use oopp_repro::simnet::sweep::Case;
use oopp_repro::wire::collections::{Bytes, F64s};
use oopp_repro::workload::{Feed, FeedClient, Session, SessionClient, User, UserClient};
use wire::{Reader, V64};

/// `good` broken every way a restore must survive.
fn junk(good: &[u8], rng: &mut Case) -> Vec<Vec<u8>> {
    let mut junk: Vec<Vec<u8>> = (0..good.len()).map(|n| good[..n].to_vec()).collect();
    junk.push([good, &[0]].concat());
    for words in 1..=6 {
        junk.push(
            (0..words)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect(),
        );
    }
    let r = &mut Reader::new(good);
    let lead = r.take_varint().map_or(0, |_| r.position());
    junk.push([&wire::to_bytes(&V64(1 << 40)), &good[lead..]].concat());
    junk
}

/// Restore every junk snapshot of `live`'s class on machine 0.
fn refuses_junk<C: RemoteClient>(d: &mut Driver, live: C, rng: &mut Case) {
    let good = d.snapshot_of(live.obj_ref()).unwrap().0;
    let (mut refused, mut built) = (0, 0);
    for (i, bad) in junk(&good, rng).into_iter().enumerate() {
        let key = symbolic_addr(&["junk", C::CLASS, &i.to_string()]);
        d.put_snapshot(0, key.clone(), C::CLASS.into(), Bytes(bad.clone()))
            .unwrap();
        match d.activate::<C>(0, &key) {
            Err(RemoteError::Decode { .. } | RemoteError::App { .. }) => refused += 1,
            Ok(c) => {
                assert_eq!(d.snapshot_of(c.obj_ref()).unwrap().0, bad, "{}", C::CLASS);
                built += 1;
            }
            Err(other) => panic!("{} restored {bad:?} as {other:?}", C::CLASS),
        }
    }
    println!("{}: {refused} refused, {built} built", C::CLASS);
    assert!(refused > good.len(), "{}: {refused} refused", C::CLASS);
    d.ping(0).unwrap();
}

#[test]
fn junk_snapshots_are_typed_errors_for_every_persistent_class() {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<PageDevice>()
        .register::<ArrayPageDevice>()
        .register::<User>()
        .register::<Session>()
        .register::<Feed>()
        .call_policy(CallPolicy::no_retry(Duration::from_millis(500)))
        .build();
    let d = &mut driver;
    let rng = &mut Case::new(0x5AA9_5407);

    let doubles = DoubleBlockClient::new_on(d, 0, 3).unwrap();
    doubles
        .write_range(d, 0, F64s(vec![1.5, -2.0, 0.25]))
        .unwrap();
    refuses_junk(d, doubles, rng);
    let shard = DirShardClient::new_on(d, 0, 0, 1).unwrap();
    for name in ["oopp://junk/b", "oopp://junk/a"] {
        shard
            .as_base()
            .bind(d, name.into(), doubles.obj_ref())
            .unwrap();
    }
    refuses_junk(d, shard, rng);
    let device = PageDeviceClient::new_on(d, 0, "junk".into(), 4, 64, 0).unwrap();
    refuses_junk(d, device, rng);
    let array = ArrayPageDeviceClient::new_on(d, 0, "a".into(), 2, 2, 2, 2, 0, None).unwrap();
    refuses_junk(d, array, rng);
    let user = UserClient::new_on(d, 0, 3).unwrap();
    refuses_junk(d, user, rng);
    let session = SessionClient::new_on(d, 0, 1, 3).unwrap();
    refuses_junk(d, session, rng);
    let feed = FeedClient::new_on(d, 0, 2, 3).unwrap();
    refuses_junk(d, feed, rng);
    cluster.shutdown(driver);
}

/// The reactivation half of a migration takes its `MigrationPayload` as
/// the arguments of the daemon's `adopt_state`: junk there is one failed
/// call, or an adopted object that is exactly what the payload says.
#[test]
fn junk_migration_payloads_are_typed_errors_at_adopt_state() {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .call_policy(CallPolicy::no_retry(Duration::from_millis(500)))
        .build();
    let d = &mut driver;
    let rng = &mut Case::new(0xAD0_9757);
    let block = DoubleBlockClient::new_on(d, 0, 2).unwrap();
    let payload = MigrationPayload {
        class: "DoubleBlock".into(),
        state: d.snapshot_of(block.obj_ref()).unwrap(),
    };
    let good = wire::to_bytes(&payload);
    let (mut refused, mut adopted) = (0, 0);
    for bad in junk(&good, rng).into_iter().chain([good.clone()]) {
        let call = d.start_method_raw(ObjRef::daemon(0), "adopt_state", |w| w.put_bytes(&bad));
        match call.and_then(|id| d.wait_raw(id)) {
            Err(RemoteError::Decode { .. } | RemoteError::NoSuchClass { .. }) => refused += 1,
            Ok(reply) => {
                let object: u64 = wire::from_bytes(&reply).unwrap();
                let sent: MigrationPayload = wire::from_bytes(&bad).unwrap();
                let here = d.snapshot_of(ObjRef { machine: 0, object }).unwrap().0;
                assert_eq!(here, sent.state.0);
                adopted += 1;
            }
            Err(other) => panic!("adopt_state of {bad:?} answered {other:?}"),
        }
    }
    assert!(
        adopted >= 1 && refused > good.len(),
        "{refused} refused, {adopted} adopted"
    );
    d.ping(0).unwrap();
    cluster.shutdown(driver);
}
