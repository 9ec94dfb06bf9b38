//! Shared machinery for the experiment harness: costed cluster
//! configurations, timing helpers, the table writer (`workload`'s), and two
//! small remote classes the ablation experiments need.

use std::time::{Duration, Instant};

use oopp::{remote_class, BarrierClient, NodeCtx, ObjRef, RemoteResult};
use simnet::{ClusterConfig, DiskConfig, NetCost, TopologySpec};

pub mod experiments;

/// The experiment table writer: the one aligned-column renderer, shared
/// with the `workload` reports.
pub use workload::report::TextTable as Table;

/// The canonical costed network of the experiments: 50 µs one-way latency,
/// 10 Gb/s links — a commodity cluster interconnect.
pub fn lan_config() -> ClusterConfig {
    ClusterConfig {
        machines: 0, // set by the builder / world
        topology: TopologySpec::Uniform(NetCost::lan(50, 10.0)),
        disk: DiskConfig::nvme(),
        disks_per_machine: 1,
        disk_capacity: 256 << 20,
        faults: simnet::FaultPlan::none(),
        // E1-E8 and A2/A3 time modeled delays on the wall clock: real mode
        // (costed, so sleeps end in the spin tail for sub-100us precision).
        time: simnet::TimeMode::Real,
    }
}

/// A slower, seek-dominated disk profile for the I/O-parallelism
/// experiments (1 ms positioning, 400 MB/s transfer).
pub fn spinny_disk() -> DiskConfig {
    DiskConfig {
        seek: Duration::from_millis(1),
        bytes_per_sec: 400e6,
    }
}

/// Render a merged flight-recorder trace as a per-method table: how many
/// calls each method made, how many wire transmissions they cost, and the
/// client-observed latency distribution (see `oopp::trace`).
pub fn method_stats_table(trace: &oopp::Trace) -> Table {
    let mut t = Table::new(&[
        "method", "calls", "attempts", "retx", "dups", "p50 us", "p99 us", "queue us", "svc us",
        "KiB out", "KiB in",
    ]);
    for s in trace.method_stats() {
        t.row(&[
            s.method.clone(),
            s.calls.to_string(),
            s.attempts.to_string(),
            s.retransmits.to_string(),
            s.dups.to_string(),
            s.p50_micros.to_string(),
            s.p99_micros.to_string(),
            s.queue_micros.to_string(),
            s.service_micros.to_string(),
            format!("{:.1}", s.bytes_out as f64 / 1024.0),
            format!("{:.1}", s.bytes_in as f64 / 1024.0),
        ]);
    }
    if trace.dropped > 0 {
        t.row(&[
            format!("({} events dropped to ring wrap)", trace.dropped),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    t
}

/// Time one closure invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed(), r)
}

/// Median of `reps` timed invocations (the harness's robust statistic —
/// cheap experiments repeat, expensive ones run once).
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps >= 1);
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            let _ = f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Format a `Duration` as microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Format a `Duration` as milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

// ---------------------------------------------------------------------
// Remote classes used by the ablation experiments
// ---------------------------------------------------------------------

/// A worker that can enter barriers on request (A2: oopp group barrier).
#[derive(Debug)]
pub struct Syncer;

remote_class! {
    /// Client for [`Syncer`].
    class Syncer {
        ctor();
        /// Enter `barrier` and return once released.
        fn sync(&mut self, barrier: BarrierClient) -> ();
    }
}

impl Syncer {
    fn new(_ctx: &mut NodeCtx) -> RemoteResult<Self> {
        Ok(Syncer)
    }
    fn sync(&mut self, ctx: &mut NodeCtx, barrier: BarrierClient) -> RemoteResult<()> {
        barrier.enter(ctx)
    }
}

/// A table of remote pointers held by ONE process (A3: the shallow
/// `SetGroup` the paper advises against — every peer lookup is a remote
/// call back to this table).
#[derive(Debug)]
pub struct GroupTable {
    entries: Vec<ObjRef>,
}

remote_class! {
    /// Client for [`GroupTable`].
    class GroupTable {
        ctor(entries: Vec<ObjRef>);
        /// Look up entry `i`.
        fn get(&mut self, i: usize) -> ObjRef;
        /// Table length.
        fn len(&mut self) -> usize;
    }
}

impl GroupTable {
    fn new(_ctx: &mut NodeCtx, entries: Vec<ObjRef>) -> RemoteResult<Self> {
        Ok(GroupTable { entries })
    }
    fn get(&mut self, _ctx: &mut NodeCtx, i: usize) -> RemoteResult<ObjRef> {
        self.entries
            .get(i)
            .copied()
            .ok_or_else(|| oopp::RemoteError::app(format!("no entry {i}")))
    }
    fn len(&mut self, _ctx: &mut NodeCtx) -> RemoteResult<usize> {
        Ok(self.entries.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_stable() {
        let d = time_median(5, || std::hint::black_box(1 + 1));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn duration_formatters() {
        assert_eq!(us(Duration::from_micros(1500)), "1500.0");
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
    }

    #[test]
    fn syncer_and_table_classes_work() {
        let (cluster, mut driver) = oopp::ClusterBuilder::new(2)
            .register::<Syncer>()
            .register::<GroupTable>()
            .build();
        let barrier = BarrierClient::new_on(&mut driver, 0, 3).unwrap();
        let s0 = SyncerClient::new_on(&mut driver, 0).unwrap();
        let s1 = SyncerClient::new_on(&mut driver, 1).unwrap();
        let p0 = s0.sync_async(&mut driver, barrier).unwrap();
        let p1 = s1.sync_async(&mut driver, barrier).unwrap();
        barrier.enter(&mut driver).unwrap();
        p0.wait(&mut driver).unwrap();
        p1.wait(&mut driver).unwrap();

        let table = GroupTableClient::new_on(
            &mut driver,
            0,
            vec![
                oopp::RemoteClient::obj_ref(&s0),
                oopp::RemoteClient::obj_ref(&s1),
            ],
        )
        .unwrap();
        assert_eq!(table.len(&mut driver).unwrap(), 2);
        assert_eq!(
            table.get(&mut driver, 1).unwrap(),
            oopp::RemoteClient::obj_ref(&s1)
        );
        assert!(table.get(&mut driver, 5).is_err());
        cluster.shutdown(driver);
    }
}
