//! Cluster assembly: builder, worker threads, driver handle, shutdown.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::thread::JoinHandle;

use simnet::{ActorSeat, ClusterConfig, MachineId, Metrics, MetricsSnapshot, SimCluster};
use wire::collections::Bytes;

use crate::array::DoubleBlock;
use crate::frame::Frame;
use crate::group::Barrier;
use crate::naming::{
    shard_addr, DirShard, DirShardClient, Directory, DirectoryClient, NameService,
};
use crate::node::{LaneRole, MachineEnv, NodeCtx};
use crate::policy::{CallPolicy, OverloadConfig};
use crate::process::{ClassRegistry, RemoteClient, ServerClass};
use crate::shared::{Pool, SharedNode};
use crate::trace::{Recorder, TraceCtx, DEFAULT_TRACE_CAPACITY};

/// Configures and launches an oopp cluster.
///
/// ```
/// use oopp::ClusterBuilder;
///
/// let (cluster, mut driver) = ClusterBuilder::new(4).build();
/// assert_eq!(driver.workers(), 4);
/// driver.ping(0).unwrap();
/// cluster.shutdown(driver);
/// ```
pub struct ClusterBuilder {
    workers: usize,
    sched_workers: usize,
    dir_shards: u32,
    sim_config: ClusterConfig,
    registry: ClassRegistry,
    policy: CallPolicy,
    overload: OverloadConfig,
    tracing: bool,
}

/// Hard ceiling on worker machines: one OS thread each, so a typo like
/// `ClusterBuilder::new(1 << 20)` must fail loudly, not fork-bomb the host.
const MAX_WORKERS: usize = 1024;

/// Hard ceiling on per-machine scheduler lanes (each is an OS thread).
const MAX_SCHED_WORKERS: usize = 256;

/// Hard ceiling on directory shards: beyond this the seating loop costs
/// more than any lookup distribution could win back.
const MAX_DIR_SHARDS: u32 = 1024;

impl ClusterBuilder {
    /// A cluster of `workers` machines (plus the implicit driver endpoint)
    /// on a zero-cost network — the deterministic test configuration. Use
    /// [`sim_config`](Self::sim_config) for costed benchmark topologies.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a cluster needs at least one worker machine");
        assert!(
            workers <= MAX_WORKERS,
            "ClusterBuilder::new({workers}): a cluster is capped at {MAX_WORKERS} worker \
             machines (one OS thread each)"
        );
        let mut registry = ClassRegistry::new();
        registry.register::<DoubleBlock>();
        registry.register::<Barrier>();
        registry.register::<Directory>();
        registry.register::<DirShard>();
        ClusterBuilder {
            workers,
            sched_workers: 0,
            dir_shards: 0,
            sim_config: ClusterConfig::zero_cost(workers + 1),
            registry,
            policy: CallPolicy::default(),
            overload: OverloadConfig::new(),
            tracing: false,
        }
    }

    /// Attach an M:N execution pool of `n` worker lanes to every machine
    /// (DESIGN.md §13). With `n = 0` (the default) each machine is the
    /// classic single thread: the dispatcher executes objects inline. With
    /// `n > 0` the dispatcher only admits requests to per-object mailboxes
    /// and queues their task tokens on the machine's one run queue; `n`
    /// extra OS threads per machine take tokens off its front and execute
    /// them. Per-object sequential-server semantics are preserved either
    /// way.
    pub fn sched_workers(mut self, n: usize) -> Self {
        assert!(
            n <= MAX_SCHED_WORKERS,
            "ClusterBuilder::sched_workers({n}): capped at {MAX_SCHED_WORKERS} lanes per \
             machine (each lane is an OS thread)"
        );
        self.sched_workers = n;
        self
    }

    /// Partition the control plane over `n` [`DirShard`] objects
    /// (DESIGN.md §14). With `n = 0` (the default) there is the root
    /// only: one [`Directory`] on machine 0 holds every name. With
    /// `n > 0` the builder also creates `n` shards — each a `Directory`
    /// by inheritance — round-robin across the worker machines, seats
    /// them in the root under `oopp://_dirsvc/shard/<i>`, and
    /// [`Driver::directory`] returns a [`NameService`] that routes each
    /// name to its shard by a stable hash. Shards are persistent and
    /// declare read verbs, so `crates/dirsvc`'s management plane can
    /// supervise and replicate them like any other object.
    pub fn dir_shards(mut self, n: u32) -> Self {
        assert!(
            n <= MAX_DIR_SHARDS,
            "ClusterBuilder::dir_shards({n}): capped at {MAX_DIR_SHARDS} shards"
        );
        self.dir_shards = n;
        self
    }

    /// Per-machine overload protection (DESIGN.md §15): mailbox caps, the
    /// machine-wide in-flight budget and the CoDel-style sojourn target.
    /// Every [`RemoteError::Overloaded`] rejection they cause carries a
    /// 1 ms retry hint. The defaults ([`OverloadConfig::new`]) are generous
    /// enough that well-behaved workloads never notice them.
    ///
    /// [`RemoteError::Overloaded`]: crate::RemoteError::Overloaded
    pub fn overload(mut self, config: OverloadConfig) -> Self {
        assert!(
            config.mailbox_cap > 0,
            "ClusterBuilder::overload: mailbox_cap must be at least 1 \
             (a cap of 0 would reject every request)"
        );
        assert!(
            config.inflight_cap > 0,
            "ClusterBuilder::overload: inflight_cap must be at least 1 \
             (a cap of 0 would reject every request)"
        );
        self.overload = config;
        self
    }

    /// Replace the substrate configuration (link cost, disks, faults). The
    /// machine count in `cfg` is overridden to `workers + 1` — the extra
    /// endpoint is the driver's.
    pub fn sim_config(mut self, mut cfg: ClusterConfig) -> Self {
        cfg.machines = self.workers + 1;
        self.sim_config = cfg;
        self
    }

    /// Register a user class for remote construction. Built-ins
    /// ([`DoubleBlock`], [`Barrier`], [`Directory`], [`DirShard`]) are
    /// pre-registered.
    pub fn register<T: ServerClass>(mut self) -> Self {
        self.registry.register::<T>();
        self
    }

    /// Full reliability contract for every machine's calls: per-attempt
    /// timeout, retransmission budget, and backoff schedule. Use
    /// [`CallPolicy::reliable`] on faulty fabrics (see
    /// [`simnet::FaultPlan`]).
    pub fn call_policy(mut self, policy: CallPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable the flight recorder: every machine records the full lifecycle
    /// of every call into a per-machine ring (see [`crate::trace`]). Read
    /// the result by cloning [`Cluster::recorder`] before shutdown and
    /// calling [`Recorder::merge`] after it. Off by default — a disabled
    /// recorder costs two zero bytes per request frame.
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.tracing = enabled;
        self
    }

    /// Launch the machines and return the cluster handle plus the driver
    /// context (the paper's "program running on machine 0").
    pub fn build(self) -> (Cluster, Driver) {
        let ClusterBuilder {
            workers,
            sched_workers,
            dir_shards,
            sim_config,
            registry,
            policy,
            overload,
            tracing,
        } = self;
        let sim = SimCluster::new(sim_config);
        let registry = Arc::new(registry);
        let recorder = tracing.then(|| {
            Arc::new(Recorder::new(
                workers + 1,
                sched_workers + 1,
                DEFAULT_TRACE_CAPACITY,
                sim.clock().clone(),
            ))
        });
        // What a lane of machine `m` is built from, around that machine's
        // thread-shared server state and its pool of `lanes` workers; and
        // the workers' own halves.
        let machine_env = |m: MachineId, lanes: usize| {
            let (pool, lanes) = Pool::new(m, lanes);
            let env = MachineEnv {
                machine: m,
                workers,
                net: sim.net(),
                registry: &registry,
                disks: sim.disks(m),
                policy,
                recorder: recorder.as_ref(),
                shared: Arc::new(SharedNode::new(pool, overload)),
            };
            (env, lanes)
        };

        let mut threads = Vec::with_capacity(workers * (sched_workers + 1));
        for m in 0..workers {
            let (env, lanes) = machine_env(m, sched_workers);
            for lane in lanes {
                let name = format!("oopp-machine-{m}-w{}", lane.index);
                let mut ctx = NodeCtx::new(&env, LaneRole::Worker(lane));
                threads.push(spawn_lane(name, move || ctx.worker_loop()));
            }
            let mut ctx = NodeCtx::new(&env, LaneRole::Dispatcher(sim.take_inbox(m)));
            threads.push(spawn_lane(format!("oopp-machine-{m}"), move || {
                ctx.serve_loop()
            }));
        }

        // The driver endpoint serves no objects: the overload caps are
        // irrelevant there, but keep one config for the whole cluster.
        let driver_id = workers;
        let mut driver_ctx = NodeCtx::new(
            &machine_env(driver_id, 0).0,
            LaneRole::Dispatcher(sim.take_inbox(driver_id)),
        );

        // The cluster name service root lives on machine 0 (§5 symbolic
        // addresses resolve against it). With shards, the root only holds
        // the reserved `_dirsvc` seats; user names live in the shards,
        // created round-robin across the workers and seated in the root
        // so clients can locate them (DESIGN.md §14).
        let root_dir =
            DirectoryClient::new_on(&mut driver_ctx, 0).expect("create cluster directory");
        for i in 0..dir_shards {
            let shard = DirShardClient::new_on(
                &mut driver_ctx,
                i as usize % workers,
                i as u64,
                dir_shards as u64,
            )
            .expect("create directory shard");
            root_dir
                .bind(&mut driver_ctx, shard_addr(i), shard.obj_ref())
                .expect("seat directory shard");
        }
        let directory = NameService::sharded(root_dir.obj_ref(), dir_shards);

        let cluster = Cluster {
            sim,
            threads,
            workers,
            driver_id,
            driver_seat: driver_ctx.seat().clone(),
            recorder,
        };
        let driver = Driver {
            ctx: driver_ctx,
            directory,
        };
        (cluster, driver)
    }
}

/// One OS thread per lane, named after it.
fn spawn_lane(name: String, run: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    let thread = std::thread::Builder::new().name(name).spawn(run);
    thread.expect("spawn lane thread")
}

/// A running oopp cluster: the simulated machines and their serve threads.
pub struct Cluster {
    sim: SimCluster,
    threads: Vec<JoinHandle<()>>,
    workers: usize,
    driver_id: MachineId,
    /// The driver's place among the virtual clock's actors: a cluster
    /// dropped before its driver gives it up, or its stop orders would wait
    /// for a driver that never parks.
    driver_seat: ActorSeat,
    recorder: Option<Arc<Recorder>>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Cluster {
    /// Number of worker machines.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The underlying substrate (disks, metrics, topology).
    pub fn sim(&self) -> &SimCluster {
        &self.sim
    }

    /// Substrate counters (messages, bytes, disk activity).
    pub fn metrics(&self) -> &Arc<Metrics> {
        self.sim.metrics()
    }

    /// Snapshot the substrate counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.sim.snapshot()
    }

    /// The flight recorder, when the cluster was built with
    /// [`ClusterBuilder::tracing`]. Clone the `Arc` out *before* calling
    /// [`shutdown`](Cluster::shutdown) (which consumes the cluster), then
    /// [`merge`](Recorder::merge) *after* it: each lane gives its ring back
    /// when its thread ends, so only then does the merge hold every event.
    pub fn recorder(&self) -> Option<Arc<Recorder>> {
        self.recorder.clone()
    }

    /// Stop every machine and join its thread, healing the fabric first
    /// ([`FaultInjector::heal_all`](simnet::FaultInjector::heal_all)): the
    /// join waits for ever on a machine the stop order cannot reach. The
    /// driver is consumed: a cluster without machines has nothing left to
    /// talk to.
    pub fn shutdown(mut self, mut driver: Driver) {
        self.sim.faults().heal_all();
        // An open circuit breaker must not swallow the stop order (the
        // join below would wait for ever on a machine never told to stop).
        let mut policy = driver.ctx.call_policy();
        policy.breaker_exempt = true;
        driver.ctx.set_call_policy(policy);
        for m in 0..self.workers {
            // A machine stuck in a deadlocked dispatch can miss the
            // shutdown; best effort, the join below still bounds cleanup.
            let _ = driver.ctx.shutdown_machine(m);
        }
        drop(driver);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    fn emergency_shutdown(&mut self) {
        self.sim.faults().heal_all();
        // Fire shutdown frames directly into the fabric (no driver context
        // needed; replies land nowhere, which is fine). Nothing resends
        // them: they are single-shot.
        for m in 0..self.workers {
            let frame = Frame::SingleShot {
                req_id: u64::MAX,
                reply_to: self.driver_id,
                target: crate::ids::DAEMON,
                payload: Bytes(NodeCtx::shutdown_payload()),
                trace: TraceCtx::default(),
                epoch: 0,
                rs_epoch: 0.into(),
                deadline: 0,
            };
            let _ = self
                .sim
                .net()
                .send(self.driver_id, m, wire::to_bytes(&frame));
        }
        self.driver_seat.release();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.emergency_shutdown();
        }
    }
}

/// The driver program's context — the paper's code "executed on machine 0".
///
/// Dereferences to [`NodeCtx`], so every client stub and lifecycle method is
/// available directly: `FooClient::new_on(&mut driver, machine, ...)`.
pub struct Driver {
    ctx: NodeCtx,
    directory: NameService,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("machine", &self.ctx.machine())
            .finish()
    }
}

impl Driver {
    /// The cluster name service (§5 symbolic addresses): root only, or
    /// routing over the shards seated in the root when the cluster was
    /// built with [`ClusterBuilder::dir_shards`].
    pub fn directory(&self) -> NameService {
        self.directory
    }
}

impl Deref for Driver {
    type Target = NodeCtx;
    fn deref(&self) -> &NodeCtx {
        &self.ctx
    }
}

impl DerefMut for Driver {
    fn deref_mut(&mut self) -> &mut NodeCtx {
        &mut self.ctx
    }
}
