//! Thread-shared server state for the M:N object scheduler.
//!
//! A machine used to be exactly one thread: one `NodeCtx` owned the object
//! table, the dedup window and every gate, and served its inbox in a loop.
//! With the M:N scheduler (DESIGN.md §13) a machine is one
//! **dispatcher** lane (the network endpoint: admission, daemon verbs,
//! response routing) plus zero or more **worker** lanes that execute object
//! mailboxes. Everything both sides touch lives here.
//!
//! **One record per object.** The sharded object table is the only home of
//! per-object server state: an id maps to one [`ObjRecord`] — `Live` (the
//! process, its mailbox, its fencing epoch, its replication role, its load
//! counter), `Migrating` (quiesced, state and waiting requests parked) or
//! `Gone` (the fence / forwarding tombstone) — so every lifecycle verb is
//! one edit of one record under one shard lock, a request that must wait
//! for its object waits in that record, and there is no second queue or
//! table to forget. The locks that remain are the shards, the dedup window
//! and the snapshot store; they never nest, and none is held across a
//! dispatch, a network send, or a clock park. The supervisor lease is an
//! atomic.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use sched::{DepthGauge, Injector};
use simnet::{Clock, MachineId, Packet, PacketBytes, WORKER_LABEL_BASE};

use crate::dedup::DedupWindow;
use crate::frame::SharedStats;
use crate::ids::{IdMap, ObjRef, ObjectId, DAEMON};
use crate::node::WorkerLane;
use crate::policy::OverloadConfig;
use crate::process::ServerObject;

/// Shards of the per-machine object table. Power of two; eight keeps the
/// map fine-grained enough that a hot object's mailbox lock does not
/// serialize unrelated objects.
pub(crate) const OBJECT_SHARDS: usize = 8;

/// A request admitted by the dispatcher, parked in its target's mailbox
/// until a lane executes it.
pub(crate) struct IncomingReq {
    pub(crate) req_id: u64,
    pub(crate) reply_to: MachineId,
    pub(crate) target: ObjectId,
    /// Method name + encoded arguments, still inside the packet that
    /// brought them.
    pub(crate) payload: PacketBytes,
    /// The request's trace identity — the frame's ids and the method name
    /// at the head of `payload`, read once at admission — which every
    /// server-side event of the request is stamped with, its reply's
    /// included. `None` when this lane does not trace.
    pub(crate) trace: Option<CallTrace>,
    pub(crate) ask: Ask,
    /// Already counted as deferred (see `NodeCtx::park`).
    pub(crate) waited: bool,
}

/// The part of a request's header its gates read (see `node::judge`).
/// `Default` is a caller with no beliefs and no deadline — a daemon verb.
#[derive(Clone, Copy, Default)]
pub(crate) struct Ask {
    /// Caller's believed incarnation epoch (0 = unfenced).
    pub(crate) epoch: u64,
    /// Caller's believed replica-set epoch (0 = not replica-routed).
    pub(crate) rs_epoch: u64,
    /// Absolute cluster-clock deadline in nanos (0 = none). Checked at
    /// admission and re-checked at execution time under the shard lock.
    pub(crate) deadline: u64,
    /// Cluster-clock reading when the dispatcher admitted the request —
    /// the sojourn clock for CoDel-style shedding. Stamped only when a
    /// queue gate can read it (`judge::queue_gated`), 0 otherwise.
    pub(crate) admitted_at: u64,
}

/// Trace identity of one call: kept in the client's outstanding entry (to
/// stamp its retransmit/recv events), carried by the served request and
/// then its [`CallInfo`](crate::CallInfo) (to stamp the reply), and opened
/// fresh for a marker's own span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CallTrace {
    pub(crate) trace_id: u64,
    pub(crate) span: u64,
    pub(crate) parent_span: u64,
    pub(crate) method: std::sync::Arc<str>,
}

/// Everything this machine knows about one object id.
pub(crate) enum ObjRecord {
    /// The object lives here.
    Live(LiveObj),
    /// Mid-migration: quiesced, its snapshot parked until the coordinator
    /// commits (→ `Gone` with a forward) or rolls back (→ `Live` again,
    /// same id, same epoch, same load counter). Requests wait in `waiting`.
    Migrating {
        class: String,
        state: Vec<u8>,
        epoch: Option<u64>,
        calls: u64,
        waiting: VecDeque<IncomingReq>,
    },
    /// The object is no longer here: `forward` redirects stale pointers
    /// (a committed migration, a takeover, a dropped replica); with no
    /// forward, `epoch` alone fences them (a destroyed or quarantined
    /// supervised incarnation).
    Gone {
        epoch: Option<u64>,
        forward: Option<ObjRef>,
    },
}

/// One live object: its process (absent while checked out by a lane), the
/// mailbox of admitted-but-unexecuted requests, and the per-object state
/// every request is judged against.
pub(crate) struct LiveObj {
    /// The object itself; `None` while a lane is executing a call on it.
    pub(crate) slot: Option<Box<dyn ServerObject>>,
    /// Admitted requests awaiting execution, FIFO, behind any parked verbs.
    pub(crate) mailbox: VecDeque<IncomingReq>,
    /// True while a task token for this object exists (queued or running).
    /// At most one token at a time is what serializes the object: whoever
    /// holds it owns the mailbox until it drains or is re-parked.
    pub(crate) scheduled: bool,
    /// Incarnation epoch of a supervised object (DESIGN.md §10); `None`
    /// for an object never placed under fencing.
    pub(crate) epoch: Option<u64>,
    /// Replication role (DESIGN.md §11).
    pub(crate) role: Role,
    /// Calls served (plus admissions refused for overload) — the placement
    /// subsystem's load signal (daemon verb `loads`).
    pub(crate) calls: u64,
}

impl LiveObj {
    pub(crate) fn new(obj: Box<dyn ServerObject>) -> Self {
        LiveObj {
            slot: Some(obj),
            mailbox: VecDeque::new(),
            scheduled: false,
            epoch: None,
            role: Role::Plain,
            calls: 0,
        }
    }
}

/// What replication makes of a live object. The payloads are boxed: almost
/// every object is `Plain`, and the record should not grow for the few
/// that are not.
pub(crate) enum Role {
    Plain,
    Primary(Box<PrimaryMeta>),
    Replica(Box<ReplicaMeta>),
}

impl ObjRecord {
    /// The tombstone an object leaves behind, or `None` when nothing
    /// outlives it (an unfenced object simply disappears).
    pub(crate) fn gone(epoch: Option<u64>, forward: Option<ObjRef>) -> Option<Self> {
        (epoch.is_some() || forward.is_some()).then_some(ObjRecord::Gone { epoch, forward })
    }

    /// The incarnation epoch, whatever the state.
    pub(crate) fn epoch_mut(&mut self) -> &mut Option<u64> {
        match self {
            ObjRecord::Live(live) => &mut live.epoch,
            ObjRecord::Migrating { epoch, .. } | ObjRecord::Gone { epoch, .. } => epoch,
        }
    }

    /// The replica-set record of a live replicated primary.
    pub(crate) fn primary_mut(&mut self) -> Option<&mut PrimaryMeta> {
        match self {
            ObjRecord::Live(LiveObj {
                role: Role::Primary(pm),
                ..
            }) => Some(pm),
            _ => None,
        }
    }

    pub(crate) fn epoch(&self) -> Option<u64> {
        match self {
            ObjRecord::Live(live) => live.epoch,
            ObjRecord::Migrating { epoch, .. } | ObjRecord::Gone { epoch, .. } => *epoch,
        }
    }
}

/// Move a fencing epoch forward to at least `to` (placing its id under
/// fencing if it was not). Epochs never move back: a lower value is a stale
/// retransmit.
pub(crate) fn raise_epoch(epoch: &mut Option<u64>, to: u64) {
    *epoch = Some(epoch.unwrap_or(0).max(to));
}

/// One shard of the object table.
pub(crate) type Shard = IdMap<ObjectId, ObjRecord>;

/// Replace `object`'s record with `leave` (or nothing) and hand back the
/// one that was there. The caller holds the shard lock, so the swap is
/// what every other lane sees.
pub(crate) fn swap_record(
    shard: &mut Shard,
    object: ObjectId,
    leave: Option<ObjRecord>,
) -> Option<ObjRecord> {
    match leave {
        Some(record) => shard.insert(object, record),
        None => shard.remove(&object),
    }
}

/// Server-side metadata of a read replica hosted on this machine.
pub(crate) struct ReplicaMeta {
    /// The authoritative copy this replica mirrors.
    pub(crate) primary: ObjRef,
    /// Replica-set epoch of the last applied sync.
    pub(crate) rs_epoch: u64,
    /// Coherence lease: the replica serves reads only until this clock
    /// reading (nanos), unless the primary (or the replica manager) renews
    /// it first.
    pub(crate) lease_until: u64,
    /// The class's declared read verbs, captured at adoption so the gate
    /// works even while the object is checked out.
    pub(crate) read_verbs: &'static [&'static str],
}

/// Server-side record held by the machine hosting a replicated primary.
pub(crate) struct PrimaryMeta {
    /// Live replica set; write propagation drops members it cannot reach.
    pub(crate) replicas: Vec<ObjRef>,
    /// Replica-set epoch, bumped by every write the primary serves.
    pub(crate) rs_epoch: u64,
    /// Write-through (sync replicas before acking a write) vs. bounded
    /// staleness (ack immediately; the manager re-syncs on its cadence).
    pub(crate) write_through: bool,
    /// Coherence lease granted to replicas on each sync.
    pub(crate) lease_millis: u64,
}

/// Message on a worker lane's control channel, fed by the dispatcher.
pub(crate) enum WorkerMsg {
    /// A response frame for a call this lane issued (routed by
    /// `req_id mod stride`).
    Packet(Packet),
    /// "The queues may have work" — wake up and scan them.
    Nudge,
    /// The machine is shutting down; exit the worker loop.
    Shutdown,
}

/// Shared half of a machine's M:N pool (DESIGN.md §13): its one run queue
/// of task tokens, each worker's control channel, and the idle map the
/// dispatcher consults to wake exactly one sleeper per new task. A pool of
/// zero workers is the classic single-threaded machine (still the default,
/// and the driver's): its dispatcher runs every object task inline
/// (`submit_task`).
pub(crate) struct Pool {
    /// Admission pushes at the back, a token that yields its lane goes
    /// back at the front, and a lane takes work from the front.
    pub(crate) run_queue: Injector<ObjectId>,
    pub(crate) txs: Vec<Sender<WorkerMsg>>,
    /// Virtual-clock park labels, one per worker (`WORKER_LABEL_BASE`-offset).
    pub(crate) labels: Vec<u64>,
    /// Which workers are parked idle (not mid-task, not mid-wait).
    pub(crate) idle: Mutex<Vec<bool>>,
}

impl Pool {
    /// Machine `machine`'s pool of `workers` lanes, and the lanes' own
    /// halves: a control channel and a virtual-clock park label each.
    pub(crate) fn new(machine: MachineId, workers: usize) -> (Self, Vec<WorkerLane>) {
        let mut pool = Pool {
            run_queue: Injector::new(),
            txs: Vec::with_capacity(workers),
            labels: Vec::with_capacity(workers),
            idle: Mutex::new(vec![false; workers]),
        };
        let lanes = (0..workers)
            .map(|index| {
                let (tx, rx) = unbounded();
                let label = WORKER_LABEL_BASE + (machine as u64) * 256 + index as u64;
                pool.txs.push(tx);
                pool.labels.push(label);
                WorkerLane { rx, label, index }
            })
            .collect();
        (pool, lanes)
    }

    pub(crate) fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Wake worker `i`: the channel message covers the real-time mode, the
    /// label notification covers a virtual-time park.
    pub(crate) fn wake(&self, i: usize, msg: WorkerMsg, clock: &Clock) {
        let _ = self.txs[i].send(msg);
        clock.notify_label(self.labels[i]);
    }

    /// A task just landed in the run queue: wake the first idle worker, or
    /// — when nobody is idle — every worker, because a "busy" worker may
    /// be parked inside a re-entrant wait and can run the task in place
    /// (that is what keeps a 1-worker pool live across nested same-machine
    /// calls).
    pub(crate) fn nudge(&self, clock: &Clock) {
        let pick = {
            let mut idle = self.idle.lock();
            match idle.iter().position(|i| *i) {
                Some(i) => {
                    // Optimistically clear the flag so the next task
                    // wakes a different sleeper; the worker re-asserts
                    // idleness itself if the cupboard turns out bare.
                    idle[i] = false;
                    Some(i)
                }
                None => None,
            }
        };
        match pick {
            Some(i) => self.wake(i, WorkerMsg::Nudge, clock),
            None => {
                for i in 0..self.txs.len() {
                    self.wake(i, WorkerMsg::Nudge, clock);
                }
            }
        }
    }

    pub(crate) fn set_idle(&self, i: usize, v: bool) {
        self.idle.lock()[i] = v;
    }
}

/// One machine's thread-shared state: everything the dispatcher lane and
/// the worker lanes (which also run the daemon verbs parked on objects)
/// touch together.
pub(crate) struct SharedNode {
    /// The object table, sharded by id: one record per object.
    pub(crate) shards: Vec<Mutex<Shard>>,
    /// Serving lease granted by supervisor heartbeats: the clock reading
    /// (nanos) until which this machine may serve supervised objects.
    /// `u64::MAX` until the first heartbeat — unsupervised machines never
    /// self-fence. Relaxed everywhere: the value stands alone (it
    /// publishes no other data), and a lane that reads it a moment stale
    /// judged as if its call had started that moment earlier.
    pub(crate) lease: AtomicU64,
    /// At-most-once window, shared so any lane's `complete` is ordered
    /// against the dispatcher's `admit`.
    pub(crate) dedup: Mutex<DedupWindow>,
    pub(crate) stats: SharedStats,
    pub(crate) next_obj_id: AtomicU64,
    /// Passivated object states by key (`deactivate`, `activate`).
    pub(crate) snapshots: Mutex<HashMap<String, (String, Vec<u8>)>>,
    pub(crate) pool: Pool,
    /// Admission-control knobs (immutable after build).
    pub(crate) overload: OverloadConfig,
    /// Admitted-but-unexecuted requests across all object mailboxes — the
    /// machine-wide in-flight gauge the admission check reads. Acquired on
    /// mailbox push; released wherever a request leaves a mailbox
    /// (execution pop, quarantine drain, removed-object drain).
    pub(crate) queued: DepthGauge,
}

impl SharedNode {
    pub(crate) fn new(pool: Pool, overload: OverloadConfig) -> Self {
        SharedNode {
            shards: (0..OBJECT_SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            lease: AtomicU64::new(u64::MAX),
            dedup: Mutex::new(DedupWindow::default()),
            stats: SharedStats::new(0),
            next_obj_id: AtomicU64::new(DAEMON + 1),
            snapshots: Mutex::default(),
            pool,
            overload,
            queued: DepthGauge::new(),
        }
    }

    pub(crate) fn alloc_obj_id(&self) -> ObjectId {
        self.next_obj_id.fetch_add(1, Ordering::Relaxed)
    }

    /// The shard holding `object`'s record, locked.
    pub(crate) fn shard(&self, object: ObjectId) -> parking_lot::MutexGuard<'_, Shard> {
        self.shards[object as usize & (OBJECT_SHARDS - 1)].lock()
    }

    /// Number of live objects (excluding the daemon).
    pub(crate) fn objects_live(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock();
                shard
                    .values()
                    .filter(|r| matches!(r, ObjRecord::Live(_)))
                    .count()
            })
            .sum()
    }

    /// Take out the requests waiting in `record`, which just left the
    /// table; a mailbox's calls give their in-flight slots back.
    pub(crate) fn drain(&self, record: &mut Option<ObjRecord>) -> VecDeque<IncomingReq> {
        match record {
            Some(ObjRecord::Live(live)) => {
                let calls = live.mailbox.iter().filter(|r| r.target != DAEMON).count();
                self.queued.release(calls as u64);
                std::mem::take(&mut live.mailbox)
            }
            Some(ObjRecord::Migrating { waiting, .. }) => std::mem::take(waiting),
            _ => VecDeque::new(),
        }
    }

    /// Make `live` reachable under `id`.
    pub(crate) fn insert_object(&self, id: ObjectId, live: LiveObj) {
        self.shard(id).insert(id, ObjRecord::Live(live));
    }
}
