//! The request pipeline: every gate a request must clear, in one place.
//!
//! [`judge`] is a pure function of an object's record and a request's
//! header: no locks, no `NodeCtx`. Callers run it under the shard lock they
//! already hold — at execution time for a live object (so a fence landing
//! while a request sits queued still wins), at admission for any other id —
//! and act on the verdict after releasing it. Adding a gate is one arm here
//! plus one row in the table test below.

use wire::Reader;

use crate::error::RemoteError;
use crate::ids::ObjRef;
use crate::policy::OverloadConfig;
use crate::shared::{Ask, LiveObj, ObjRecord, Role};

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Verdict {
    /// Every gate passed (`Live` records only): check the object out and
    /// dispatch. `replica_hit` is the replica-set epoch when a replica
    /// serves the read.
    Serve { replica_hit: Option<u64> },
    /// Quiesced mid-migration (`Migrating` records only): park the request
    /// and retry once the move commits or rolls back.
    Defer,
    /// Answer `err` without touching the object.
    Reject(RemoteError),
    /// Stale *server*: the caller carries proof of a takeover this node
    /// never saw (it was partitioned through the recovery). Move the
    /// record's epoch to `epoch`; a live incarnation is superseded — retire
    /// it, and answer it and everything queued behind it with `err` so
    /// every caller re-resolves.
    Quarantine { epoch: u64, err: RemoteError },
}

/// Whether the queue gates — the request's deadline, the machine's sojourn
/// target — can judge a request carrying `ask`. Only then does the
/// dispatcher stamp its `admitted_at`.
pub(crate) fn queue_gated(ask: &Ask, overload: &OverloadConfig) -> bool {
    ask.deadline != 0 || !overload.sojourn_target.is_zero()
}

/// Whether [`judge`] has a time gate to apply to `ask` at the live object
/// `live`: a queue gate, the supervisor's lease (a supervised object) or
/// replica coherence. Only then does the caller read the clock for `now`;
/// otherwise no gate reads it and the verdict is the same at any `now`.
/// (No gate of a record that is not live reads `now` at all.)
pub(crate) fn reads_clock(live: &LiveObj, ask: &Ask, overload: &OverloadConfig) -> bool {
    queue_gated(ask, overload) || live.epoch.is_some() || matches!(live.role, Role::Replica(_))
}

/// Judge a request for `target` carrying `ask` (and `payload`, read only
/// for the method name when a replica must tell reads from writes) against
/// `record` — `None` when the id was never seen or left nothing behind.
/// `now` is the cluster clock (see [`reads_clock`]), `lease` the
/// supervisor's serving lease.
///
/// Gate order for a live object, judged as its request leaves the mailbox
/// (so the mailbox holds what is queued *behind* it): deadline → sojourn →
/// stale caller → stale server → lease → replica write-redirect → replica
/// coherence. For anything else: stale caller → stale server → migrating →
/// forward → bare fence → `NoSuchObject`.
pub(crate) fn judge(
    record: Option<&ObjRecord>,
    target: ObjRef,
    ask: &Ask,
    payload: &[u8],
    now: u64,
    lease: u64,
    overload: &OverloadConfig,
) -> Verdict {
    let fenced = |current_epoch| Verdict::Reject(RemoteError::Fenced { current_epoch });
    // Overload gates (DESIGN.md §15) — time spent queued counts: work whose
    // caller has given up is dropped unexecuted, and with a sojourn target
    // configured, work that waited longer than the target is shed (the node
    // is persistently behind; serving ever-later work helps nobody).
    if let Some(ObjRecord::Live(live)) = record {
        if ask.deadline != 0 && now >= ask.deadline {
            let elapsed_nanos = now - ask.deadline;
            return Verdict::Reject(RemoteError::DeadlineExceeded { elapsed_nanos });
        }
        let sojourn_target = overload.sojourn_target.as_nanos() as u64;
        if sojourn_target != 0 && now.saturating_sub(ask.admitted_at) > sojourn_target {
            return Verdict::Reject(RemoteError::Overloaded {
                // Depth includes this request: a zero depth is reserved
                // for client-side breaker fast-fails.
                queue_depth: live.mailbox.len() as u64 + 1,
                retry_after_nanos: overload.retry_after.as_nanos() as u64,
            });
        }
    }
    // Epoch fences (DESIGN.md §10), whatever the record's state: a stale
    // caller never executes — even mid-migration — and learns the live
    // epoch.
    let epoch = record.and_then(ObjRecord::epoch);
    if let Some(current) = epoch {
        if ask.epoch != 0 && ask.epoch < current {
            return fenced(current);
        }
        if ask.epoch > current {
            let err = RemoteError::Fenced {
                current_epoch: ask.epoch,
            };
            return Verdict::Quarantine {
                epoch: ask.epoch,
                err,
            };
        }
    }
    let live = match record {
        Some(ObjRecord::Live(live)) => live,
        Some(ObjRecord::Migrating { .. }) => return Verdict::Defer,
        // Forwarding stubs are immutable routing metadata: answering
        // `Moved` cannot split the brain, and is how stale pointers heal.
        Some(ObjRecord::Gone {
            forward: Some(to), ..
        }) => return Verdict::Reject(RemoteError::Moved { to: *to }),
        Some(ObjRecord::Gone {
            epoch: Some(current),
            ..
        }) => return fenced(*current),
        Some(ObjRecord::Gone { .. }) | None => {
            let (machine, object) = (target.machine, target.object);
            return Verdict::Reject(RemoteError::NoSuchObject { machine, object });
        }
    };
    // Lease self-fence: a supervised object is served only while the
    // supervisor's lease is live. An isolated machine stops serving these
    // *itself*, which is what makes takeover safe even under false
    // suspicion.
    if let Some(current) = epoch {
        if now > lease {
            return fenced(current);
        }
    }
    // Replica coherence (DESIGN.md §11). A write verb redirects to the
    // primary through the standard `Moved` chase; a read is served only
    // while the replica can prove coherence — its lease is live and it has
    // synced at least as far as the caller's replica-set epoch — and
    // otherwise answers `StaleReplica` so the caller falls back.
    let Role::Replica(meta) = &live.role else {
        return Verdict::Serve { replica_hit: None };
    };
    let (primary, rs_epoch) = (meta.primary, meta.rs_epoch);
    let method = Reader::new(payload).take_len_prefixed().ok();
    if !method.is_some_and(|m| meta.read_verbs.iter().any(|v| v.as_bytes() == m)) {
        return Verdict::Reject(RemoteError::Moved { to: primary });
    }
    if now > meta.lease_until || ask.rs_epoch > rs_epoch {
        return Verdict::Reject(RemoteError::StaleReplica { primary, rs_epoch });
    }
    Verdict::Serve {
        replica_hit: Some(rs_epoch),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::time::Duration;

    use super::*;
    use crate::shared::{IncomingReq, PrimaryMeta, ReplicaMeta};

    const NOW: u64 = 1_000_000;
    const HERE: ObjRef = ObjRef {
        machine: 3,
        object: 9,
    };
    const PRIMARY: ObjRef = ObjRef {
        machine: 1,
        object: 4,
    };
    /// The record's epoch wherever a row has one; asks carry it, one less
    /// (stale caller) or one more (stale server).
    const EPOCH: u64 = 5;

    fn overload() -> OverloadConfig {
        OverloadConfig {
            sojourn_target: Duration::from_nanos(100),
            ..OverloadConfig::new()
        }
    }

    fn queued() -> IncomingReq {
        IncomingReq {
            req_id: 1,
            reply_to: 0,
            target: HERE.object,
            payload: Vec::new().into(),
            method: None,
            trace_id: 0,
            span: 0,
            ask: Ask::default(),
        }
    }

    /// A live record (checked out — `judge` never looks at the process)
    /// with two requests queued behind the one being judged.
    fn live(epoch: Option<u64>, role: Role) -> ObjRecord {
        ObjRecord::Live(LiveObj {
            slot: None,
            mailbox: VecDeque::from([queued(), queued()]),
            scheduled: true,
            epoch,
            role,
            calls: 0,
        })
    }

    /// A replica synced at rs_epoch 8 whose only read verb is `total`.
    fn replica(lease_until: u64) -> Role {
        Role::Replica(Box::new(ReplicaMeta {
            primary: PRIMARY,
            rs_epoch: 8,
            lease_until,
            read_verbs: &["total"],
        }))
    }

    fn primary() -> Role {
        Role::Primary(Box::new(PrimaryMeta {
            replicas: vec![PRIMARY],
            rs_epoch: 8,
            write_through: true,
            lease_millis: 1,
        }))
    }

    fn migrating(epoch: Option<u64>) -> ObjRecord {
        ObjRecord::Migrating {
            class: "C".into(),
            state: Vec::new(),
            epoch,
            calls: 0,
        }
    }

    fn payload(method: &str) -> Vec<u8> {
        let mut w = wire::Writer::new();
        w.put_len_prefixed(method.as_bytes());
        w.into_bytes()
    }

    /// One request, described by which gates it trips.
    #[derive(Clone, Copy)]
    struct Case {
        deadline_past: bool,
        sojourn_past: bool,
        /// Caller's epoch relative to [`EPOCH`]: -1, 0, +1 — or `None` for
        /// a caller with no epoch belief (epoch 0 on the wire).
        epoch: Option<i64>,
        lease_lapsed: bool,
        write_verb: bool,
        /// The caller has seen a newer replica-set epoch than the replica.
        rs_ahead: bool,
    }

    /// Trips every gate that can trip together (with a stale *caller*).
    const WORST: Case = Case {
        deadline_past: true,
        sojourn_past: true,
        epoch: Some(-1),
        lease_lapsed: true,
        write_verb: true,
        rs_ahead: true,
    };

    fn run(record: Option<&ObjRecord>, case: Case) -> Verdict {
        let ask = Ask {
            epoch: case.epoch.map_or(0, |d| (EPOCH as i64 + d) as u64),
            rs_epoch: if case.rs_ahead { 9 } else { 8 },
            deadline: if case.deadline_past { NOW - 7 } else { 0 },
            admitted_at: if case.sojourn_past { NOW - 101 } else { NOW },
        };
        let payload = payload(if case.write_verb { "add" } else { "total" });
        let lease = if case.lease_lapsed { NOW - 1 } else { u64::MAX };
        judge(record, HERE, &ask, &payload, NOW, lease, &overload())
    }

    fn fenced(current_epoch: u64) -> Verdict {
        Verdict::Reject(RemoteError::Fenced { current_epoch })
    }

    fn moved(to: ObjRef) -> Verdict {
        Verdict::Reject(RemoteError::Moved { to })
    }

    /// One row per gate, in pipeline order. Each row's request trips its
    /// gate *and every later one*, so moving a gate up or down the
    /// pipeline changes some row's verdict.
    #[test]
    fn live_gates_fire_in_order() {
        // A supervised replica whose coherence lease has lapsed.
        let record = live(Some(EPOCH), replica(NOW - 1));
        let rows: [(&str, Case, Verdict); 7] = [
            (
                "deadline",
                WORST,
                Verdict::Reject(RemoteError::DeadlineExceeded { elapsed_nanos: 7 }),
            ),
            (
                "sojourn",
                Case {
                    deadline_past: false,
                    ..WORST
                },
                Verdict::Reject(RemoteError::Overloaded {
                    queue_depth: 3, // the two queued behind it, plus itself
                    retry_after_nanos: 1_000_000,
                }),
            ),
            (
                "stale caller",
                Case {
                    deadline_past: false,
                    sojourn_past: false,
                    ..WORST
                },
                fenced(EPOCH),
            ),
            (
                "stale server",
                Case {
                    deadline_past: false,
                    sojourn_past: false,
                    epoch: Some(1),
                    ..WORST
                },
                Verdict::Quarantine {
                    epoch: EPOCH + 1,
                    err: RemoteError::Fenced {
                        current_epoch: EPOCH + 1,
                    },
                },
            ),
            (
                "lease",
                Case {
                    deadline_past: false,
                    sojourn_past: false,
                    epoch: Some(0),
                    ..WORST
                },
                fenced(EPOCH),
            ),
            (
                "replica write-redirect",
                Case {
                    deadline_past: false,
                    sojourn_past: false,
                    epoch: Some(0),
                    lease_lapsed: false,
                    ..WORST
                },
                moved(PRIMARY),
            ),
            (
                "replica coherence",
                Case {
                    deadline_past: false,
                    sojourn_past: false,
                    epoch: Some(0),
                    lease_lapsed: false,
                    write_verb: false,
                    ..WORST
                },
                Verdict::Reject(RemoteError::StaleReplica {
                    primary: PRIMARY,
                    rs_epoch: 8,
                }),
            ),
        ];
        for (gate, case, want) in rows {
            assert_eq!(run(Some(&record), case), want, "gate: {gate}");
        }

        // Past every gate: served, and a replica read says so. A caller
        // ahead of the replica's sync still trips coherence on a live
        // lease; an unparsable method name is no read verb.
        let coherent = live(Some(EPOCH), replica(NOW));
        let clear = Case {
            deadline_past: false,
            sojourn_past: false,
            epoch: Some(0),
            lease_lapsed: false,
            write_verb: false,
            rs_ahead: false,
        };
        assert_eq!(
            run(Some(&coherent), clear),
            Verdict::Serve {
                replica_hit: Some(8)
            }
        );
        assert!(matches!(
            run(
                Some(&coherent),
                Case {
                    rs_ahead: true,
                    ..clear
                }
            ),
            Verdict::Reject(RemoteError::StaleReplica { .. })
        ));
        let asked_now = Ask {
            admitted_at: NOW,
            ..Ask::default()
        };
        let garbled = judge(
            Some(&coherent),
            HERE,
            &asked_now,
            &[0xff],
            NOW,
            u64::MAX,
            &overload(),
        );
        assert_eq!(garbled, moved(PRIMARY));

        // The lease binds supervised objects only; an unfenced caller
        // (epoch 0) is never stale; sojourn shedding is off by default.
        let lapsed = Case {
            lease_lapsed: true,
            epoch: None,
            ..clear
        };
        let plain = Verdict::Serve { replica_hit: None };
        assert_eq!(run(Some(&live(None, Role::Plain)), lapsed), plain);
        assert_eq!(
            run(Some(&live(Some(EPOCH), primary())), lapsed),
            fenced(EPOCH)
        );
        let late = judge(
            Some(&live(None, Role::Plain)),
            HERE,
            &Ask::default(), // admitted at 0, a long time before NOW
            &[],
            NOW,
            u64::MAX,
            &OverloadConfig::new(),
        );
        assert_eq!(late, plain);
    }

    /// The clock predicate. A live object that is neither supervised nor a
    /// replica, judging a request with no deadline under no sojourn target,
    /// gets one verdict at every `now` — so `reads_clock` may skip the
    /// read; a replicated primary's gates are not time gates either. Arming
    /// any one time gate makes the predicate read, and that gate does move
    /// the verdict with `now`.
    #[test]
    fn the_clock_is_read_only_for_a_time_gate() {
        let quiet = OverloadConfig::new();
        let untimed = Ask {
            epoch: EPOCH,
            ..Ask::default()
        };
        for record in [live(None, Role::Plain), live(None, primary())] {
            let ObjRecord::Live(obj) = &record else {
                unreachable!()
            };
            assert!(!reads_clock(obj, &untimed, &quiet));
            assert!(!queue_gated(&untimed, &quiet));
            for (verb, lease) in [("add", 0), ("total", NOW), ("add", u64::MAX)] {
                for now in [0, NOW, u64::MAX] {
                    let verdict = judge(
                        Some(&record),
                        HERE,
                        &untimed,
                        &payload(verb),
                        now,
                        lease,
                        &quiet,
                    );
                    assert_eq!(verdict, Verdict::Serve { replica_hit: None }, "now {now}");
                }
            }
        }

        let deadline = Ask {
            deadline: NOW,
            ..Ask::default()
        };
        let rows = [
            ("deadline", live(None, Role::Plain), deadline, quiet, true),
            (
                "sojourn target",
                live(None, Role::Plain),
                Ask::default(),
                overload(),
                true,
            ),
            (
                "supervised lease",
                live(Some(EPOCH), Role::Plain),
                Ask::default(),
                quiet,
                false,
            ),
            (
                "replica coherence",
                live(None, replica(NOW)),
                Ask::default(),
                quiet,
                false,
            ),
        ];
        for (gate, record, ask, overload, queue) in rows {
            let ObjRecord::Live(obj) = &record else {
                unreachable!()
            };
            assert!(reads_clock(obj, &ask, &overload), "{gate}");
            assert_eq!(
                queue_gated(&ask, &overload),
                queue,
                "{gate}: the admission stamp"
            );
            let at = |now| {
                judge(
                    Some(&record),
                    HERE,
                    &ask,
                    &payload("total"),
                    now,
                    NOW,
                    &overload,
                )
            };
            assert!(matches!(at(0), Verdict::Serve { .. }), "{gate}");
            assert!(matches!(at(u64::MAX), Verdict::Reject(_)), "{gate}");
        }
    }

    /// The same for an id with no live object: stale caller → stale server
    /// → migrating → forward → bare fence → `NoSuchObject`. Deadline,
    /// sojourn and lease are live-only gates: `WORST` trips them all and
    /// none of them shows.
    #[test]
    fn absent_gates_fire_in_order() {
        let caller = |epoch| Case { epoch, ..WORST };
        let quarantine = Verdict::Quarantine {
            epoch: EPOCH + 1,
            err: RemoteError::Fenced {
                current_epoch: EPOCH + 1,
            },
        };
        let no_such = Verdict::Reject(RemoteError::NoSuchObject {
            machine: HERE.machine,
            object: HERE.object,
        });
        let stub = |epoch| ObjRecord::Gone {
            epoch,
            forward: Some(PRIMARY),
        };
        let bare = ObjRecord::Gone {
            epoch: Some(EPOCH),
            forward: None,
        };
        let rows: [(&str, Option<ObjRecord>, Option<i64>, Verdict); 12] = [
            (
                "stale caller beats migrating",
                Some(migrating(Some(EPOCH))),
                Some(-1),
                fenced(EPOCH),
            ),
            (
                "stale server beats migrating",
                Some(migrating(Some(EPOCH))),
                Some(1),
                quarantine.clone(),
            ),
            (
                "migrating",
                Some(migrating(Some(EPOCH))),
                Some(0),
                Verdict::Defer,
            ),
            (
                "migrating, unfenced",
                Some(migrating(None)),
                Some(1),
                Verdict::Defer,
            ),
            (
                "stale caller beats forward",
                Some(stub(Some(EPOCH))),
                Some(-1),
                fenced(EPOCH),
            ),
            (
                "stale server beats forward",
                Some(stub(Some(EPOCH))),
                Some(1),
                quarantine.clone(),
            ),
            (
                "forward beats bare fence",
                Some(stub(Some(EPOCH))),
                Some(0),
                moved(PRIMARY),
            ),
            (
                "forward, unfenced",
                Some(stub(None)),
                Some(1),
                moved(PRIMARY),
            ),
            (
                "stale server beats bare fence",
                Some(bare),
                Some(1),
                quarantine,
            ),
            (
                "bare fence",
                Some(ObjRecord::Gone {
                    epoch: Some(EPOCH),
                    forward: None,
                }),
                None,
                fenced(EPOCH),
            ),
            (
                "nothing left",
                Some(ObjRecord::Gone {
                    epoch: None,
                    forward: None,
                }),
                Some(1),
                no_such.clone(),
            ),
            ("never seen", None, Some(1), no_such),
        ];
        for (gate, record, epoch, want) in rows {
            assert_eq!(run(record.as_ref(), caller(epoch)), want, "gate: {gate}");
        }
    }

    /// Totality: over every combination of record state × caller epoch ×
    /// lease × role × verb × deadline × sojourn × replica-set position,
    /// `judge` answers (no panic) — `Serve` only for a live record, and
    /// exactly when no gate trips; `Defer` only for a migrating one.
    #[test]
    fn every_combination_gets_one_verdict() {
        let records = |epoch: Option<u64>| -> Vec<Option<ObjRecord>> {
            vec![
                None,
                Some(live(epoch, Role::Plain)),
                Some(live(epoch, primary())),
                Some(live(epoch, replica(NOW))),
                Some(live(epoch, replica(NOW - 1))),
                Some(migrating(epoch)),
                Some(ObjRecord::Gone {
                    epoch,
                    forward: None,
                }),
                Some(ObjRecord::Gone {
                    epoch,
                    forward: Some(PRIMARY),
                }),
            ]
        };
        let mut judged = 0;
        for fence in [None, Some(EPOCH)] {
            for record in records(fence) {
                for bits in 0..32u32 {
                    for epoch in [None, Some(-1), Some(0), Some(1)] {
                        let flag = |i: u32| bits & (1 << i) != 0;
                        let case = Case {
                            deadline_past: flag(0),
                            sojourn_past: flag(1),
                            epoch,
                            lease_lapsed: flag(2),
                            write_verb: flag(3),
                            rs_ahead: flag(4),
                        };
                        let verdict = run(record.as_ref(), case);
                        judged += 1;
                        let live = match &record {
                            Some(ObjRecord::Live(live)) => Some(live),
                            _ => None,
                        };
                        let fenced = fence.is_some();
                        let coherent = match live.map(|l| &l.role) {
                            Some(Role::Replica(meta)) => {
                                !case.write_verb && !case.rs_ahead && NOW <= meta.lease_until
                            }
                            _ => true,
                        };
                        let tripped = case.deadline_past
                            || case.sojourn_past
                            || (fenced && matches!(epoch, Some(-1) | Some(1)))
                            || (fenced && case.lease_lapsed)
                            || !coherent;
                        assert_eq!(
                            matches!(verdict, Verdict::Serve { .. }),
                            live.is_some() && !tripped,
                            "serve: {verdict:?}"
                        );
                        if matches!(verdict, Verdict::Defer) {
                            assert!(
                                matches!(record, Some(ObjRecord::Migrating { .. })),
                                "defer: {verdict:?}"
                            );
                        }
                    }
                }
            }
        }
        assert_eq!(judged, 2 * 8 * 32 * 4);
    }
}
