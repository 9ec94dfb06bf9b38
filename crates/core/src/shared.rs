//! Thread-shared server state for the M:N object scheduler.
//!
//! A machine used to be exactly one thread: one `NodeCtx` owned the object
//! table, the dedup window and every gate, and served its inbox in a loop.
//! With the work-stealing scheduler (DESIGN.md §13) a machine is one
//! **dispatcher** lane (the network endpoint: admission, daemon verbs,
//! response routing) plus zero or more **worker** lanes that execute object
//! mailboxes. Everything both sides touch lives here, behind locks sized to
//! the contention: the object table is sharded, the admission gates share
//! one mutex (they are read together), and the counters are plain atomics.
//!
//! Lock order, where two are held: **shard before gates**. Neither is ever
//! held across a dispatch, a network send, or a clock park.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use sched::{DepthGauge, Injector, StealOrder, Stealer};
use simnet::{Clock, MachineId, Packet};

use crate::dedup::DedupWindow;
use crate::frame::NodeStats;
use crate::ids::{ObjRef, ObjectId, DAEMON};
use crate::policy::OverloadConfig;
use crate::process::ServerObject;

/// Shards of the per-machine object table. Power of two; eight keeps the
/// map fine-grained enough that a hot object's mailbox lock does not
/// serialize unrelated objects.
pub(crate) const OBJECT_SHARDS: usize = 8;

#[inline]
pub(crate) fn shard_of(object: ObjectId) -> usize {
    (object as usize) & (OBJECT_SHARDS - 1)
}

/// A request admitted by the dispatcher, parked in its target's mailbox
/// until a lane executes it.
pub(crate) struct IncomingReq {
    pub(crate) req_id: u64,
    pub(crate) reply_to: MachineId,
    pub(crate) target: ObjectId,
    pub(crate) payload: Vec<u8>,
    /// The method name at the head of `payload`, parsed once at admission
    /// for the flight recorder's events; `None` while tracing is off.
    pub(crate) method: Option<std::sync::Arc<str>>,
    /// Trace identity from the request frame (zeros when untraced).
    pub(crate) trace_id: u64,
    pub(crate) span: u64,
    /// Caller's believed incarnation epoch (0 = unfenced).
    pub(crate) epoch: u64,
    /// Caller's believed replica-set epoch (0 = not replica-routed).
    pub(crate) rs_epoch: u64,
    /// Absolute cluster-clock deadline in nanos (0 = none). Checked at
    /// admission and re-checked at execution time under the shard lock.
    pub(crate) deadline: u64,
    /// Cluster-clock reading when the dispatcher admitted the request —
    /// the sojourn clock for CoDel-style shedding.
    pub(crate) admitted_at: u64,
}

/// Trace identity of one call, kept alongside the client's outstanding
/// entry (to stamp retransmit/recv events) and the server's serving table
/// (to stamp the reply event).
#[derive(Clone)]
pub(crate) struct CallTrace {
    pub(crate) trace_id: u64,
    pub(crate) span: u64,
    pub(crate) parent_span: u64,
    pub(crate) method: std::sync::Arc<str>,
}

/// One live object: its process (absent while checked out by a lane) and
/// the mailbox of admitted-but-unexecuted requests.
pub(crate) struct ObjEntry {
    /// The object itself; `None` while a lane is executing a call on it.
    pub(crate) slot: Option<Box<dyn ServerObject>>,
    /// Admitted requests awaiting execution, FIFO.
    pub(crate) mailbox: VecDeque<IncomingReq>,
    /// True while a task token for this object exists (queued or running).
    /// At most one token at a time is what serializes the object: whoever
    /// holds it owns the mailbox until it drains or is re-parked.
    pub(crate) scheduled: bool,
}

impl ObjEntry {
    pub(crate) fn new(obj: Box<dyn ServerObject>) -> Self {
        ObjEntry {
            slot: Some(obj),
            mailbox: VecDeque::new(),
            scheduled: false,
        }
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

/// The admission gates: every piece of routing/fencing metadata a request
/// must clear **at execution time** before its object is checked out.
/// One mutex for all of them — they are read together on every call and
/// written rarely (lifecycle verbs, heartbeats).
#[derive(Default)]
pub(crate) struct Gates {
    /// Server-side incarnation epochs of supervised objects (DESIGN.md §10).
    pub(crate) epochs: HashMap<ObjectId, u64>,
    /// Serving lease granted by supervisor heartbeats; `None` until the
    /// first heartbeat (unsupervised machines never check leases).
    pub(crate) lease_deadline: Option<u64>,
    /// Forwarding stubs left by committed migrations.
    pub(crate) forwards: HashMap<ObjectId, ObjRef>,
    /// Objects mid-migration: quiesced with their snapshot held for
    /// rollback; their requests park in the dispatcher's deferred queue.
    pub(crate) migrating: HashMap<ObjectId, (String, Vec<u8>)>,
    /// Read replicas hosted here (coherence metadata; the replica objects
    /// themselves live in the shards like any other).
    pub(crate) replica_meta: HashMap<ObjectId, ReplicaMeta>,
    /// Replicated primaries hosted here.
    pub(crate) primaries: HashMap<ObjectId, PrimaryMeta>,
    /// Served calls per live object — the placement subsystem's load
    /// signal (daemon verb `loads`).
    pub(crate) object_calls: HashMap<ObjectId, u64>,
}

/// Machine-wide counters. Atomics, not a mutex: every lane bumps them on
/// every call and nobody reads them until a `stats` verb asks.
#[derive(Default)]
pub(crate) struct SharedStats {
    pub(crate) calls_served: AtomicU64,
    pub(crate) calls_deferred: AtomicU64,
    pub(crate) calls_retried: AtomicU64,
    pub(crate) dup_replayed: AtomicU64,
    pub(crate) dup_suppressed: AtomicU64,
    pub(crate) calls_forwarded: AtomicU64,
    pub(crate) migrated_in: AtomicU64,
    pub(crate) migrated_out: AtomicU64,
    pub(crate) heartbeats_served: AtomicU64,
    pub(crate) calls_fenced: AtomicU64,
    pub(crate) replica_reads_served: AtomicU64,
    pub(crate) replica_reads_stale: AtomicU64,
    pub(crate) replica_syncs_sent: AtomicU64,
    pub(crate) dir_cache_hits: AtomicU64,
    pub(crate) dir_cache_misses: AtomicU64,
    pub(crate) calls_shed_overload: AtomicU64,
    pub(crate) calls_shed_sojourn: AtomicU64,
    pub(crate) calls_deadline_expired: AtomicU64,
    pub(crate) breaker_fast_fails: AtomicU64,
    pub(crate) retries_suppressed: AtomicU64,
}

macro_rules! bump {
    ($stats:expr, $field:ident) => {
        $stats
            .$field
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    };
}
pub(crate) use bump;

impl SharedStats {
    pub(crate) fn snapshot(&self, objects_live: u64, snapshots_stored: u64) -> NodeStats {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        NodeStats {
            objects_live,
            snapshots_stored,
            calls_served: g(&self.calls_served),
            calls_deferred: g(&self.calls_deferred),
            calls_retried: g(&self.calls_retried),
            dup_replayed: g(&self.dup_replayed),
            dup_suppressed: g(&self.dup_suppressed),
            calls_forwarded: g(&self.calls_forwarded),
            migrated_in: g(&self.migrated_in),
            migrated_out: g(&self.migrated_out),
            heartbeats_served: g(&self.heartbeats_served),
            calls_fenced: g(&self.calls_fenced),
            replica_reads_served: g(&self.replica_reads_served),
            replica_reads_stale: g(&self.replica_reads_stale),
            replica_syncs_sent: g(&self.replica_syncs_sent),
            dir_cache_hits: g(&self.dir_cache_hits),
            dir_cache_misses: g(&self.dir_cache_misses),
            calls_shed_overload: g(&self.calls_shed_overload),
            calls_shed_sojourn: g(&self.calls_shed_sojourn),
            calls_deadline_expired: g(&self.calls_deadline_expired),
            breaker_fast_fails: g(&self.breaker_fast_fails),
            retries_suppressed: g(&self.retries_suppressed),
        }
    }
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

/// The execution layer behind a machine's dispatcher.
pub(crate) enum Sched {
    /// No worker pool: the dispatcher runs object tasks inline — the
    /// classic single-threaded profile, still the default.
    Inline,
    /// An M:N work-stealing pool (DESIGN.md §13).
    Pool(Pool),
}

/// Shared half of a machine's worker pool: the overflow injector, each
/// worker's steal handle and control channel, and the idle map the
/// dispatcher consults to wake exactly one sleeper per new task.
pub(crate) struct Pool {
    pub(crate) injector: Injector<ObjectId>,
    pub(crate) stealers: Vec<Stealer<ObjectId>>,
    pub(crate) txs: Vec<Sender<WorkerMsg>>,
    /// Virtual-clock park labels, one per worker (`WORKER_LABEL_BASE`-offset).
    pub(crate) labels: Vec<u64>,
    /// Which workers are parked idle (not mid-task, not mid-wait).
    pub(crate) idle: Mutex<Vec<bool>>,
    /// Seeded victim permutations: same `SIMNET_SEED`, same steal order.
    pub(crate) steal_order: StealOrder,
}

impl Pool {
    pub(crate) fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Wake worker `i`: the channel message covers the real-time mode, the
    /// label notification covers a virtual-time park.
    pub(crate) fn wake(&self, i: usize, msg: WorkerMsg, clock: &Clock) {
        let _ = self.txs[i].send(msg);
        clock.notify_label(self.labels[i]);
    }

    /// A task just landed in the injector: wake the first idle worker, or
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
/// the worker lanes touch together.
pub(crate) struct SharedNode {
    /// The object table, sharded by id.
    pub(crate) shards: Vec<Mutex<HashMap<ObjectId, ObjEntry>>>,
    /// Fencing / routing / replication gates, checked at execution time.
    pub(crate) gates: Mutex<Gates>,
    /// At-most-once window, shared so any lane's `complete` is ordered
    /// against the dispatcher's `admit`.
    pub(crate) dedup: Mutex<DedupWindow>,
    /// Traced requests admitted but not yet answered.
    pub(crate) serving_spans: Mutex<HashMap<(MachineId, u64), CallTrace>>,
    pub(crate) stats: SharedStats,
    pub(crate) next_obj_id: AtomicU64,
    /// Daemon verbs currently parked in the dispatcher's deferred queue
    /// (they reported Busy against a checked-out object). Workers read
    /// this when an object goes idle to know the dispatcher needs a kick.
    pub(crate) daemon_parked: AtomicU64,
    pub(crate) sched: Sched,
    /// Admission-control knobs (immutable after build).
    pub(crate) overload: OverloadConfig,
    /// Admitted-but-unexecuted requests across all object mailboxes — the
    /// machine-wide in-flight gauge the admission check reads. Acquired on
    /// mailbox push; released wherever a request leaves a mailbox
    /// (execution pop, quarantine drain, removed-object drain).
    pub(crate) queued: DepthGauge,
}

impl SharedNode {
    pub(crate) fn new(sched: Sched, overload: OverloadConfig) -> Self {
        SharedNode {
            shards: (0..OBJECT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            gates: Mutex::new(Gates::default()),
            dedup: Mutex::new(DedupWindow::default()),
            serving_spans: Mutex::new(HashMap::new()),
            stats: SharedStats::default(),
            next_obj_id: AtomicU64::new(DAEMON + 1),
            daemon_parked: AtomicU64::new(0),
            sched,
            overload,
            queued: DepthGauge::new(),
        }
    }

    pub(crate) fn alloc_obj_id(&self) -> ObjectId {
        self.next_obj_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of live objects (excluding the daemon).
    pub(crate) fn objects_live(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Park a freshly constructed object under `id`.
    pub(crate) fn insert_object(&self, id: ObjectId, obj: Box<dyn ServerObject>) {
        self.shards[shard_of(id)]
            .lock()
            .insert(id, ObjEntry::new(obj));
    }
}
