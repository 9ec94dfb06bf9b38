//! Shared machinery for the experiment harness: the costed cluster
//! configuration, the modeled-time stopwatch and the cost model's own
//! price of a call to hold it to, the table writer (`workload`'s) and its
//! cell formatters, and two small remote classes the ablation experiments
//! need.
//!
//! Every experiment runs on the seeded virtual clock: a time cell is a
//! difference of two readings of the cluster clock, the same on every host
//! and every run, and `reproduce`'s whole output is a golden file
//! (`golden/reproduce.txt`). Host nanoseconds are `benchmark/`'s business.

use std::time::Duration;

use oopp::{remote_class, BarrierClient, NodeCtx, ObjRef, RemoteResult};
use simnet::time::transfer_time;
use simnet::{Clock, ClusterConfig, DiskConfig, MetricsSnapshot, NetCost};

pub mod experiments;

/// The experiment table writer: the one aligned-column renderer, shared
/// with the `workload` reports.
pub use workload::report::TextTable as Table;

/// The canonical link of the experiments: 50 µs one-way latency, 10 Gb/s —
/// a commodity cluster interconnect.
pub fn lan() -> NetCost {
    NetCost::lan(50, 10.0)
}

/// The canonical costed cluster of E1–E8, A2 and A3: [`lan`] links,
/// NVMe-class disks, and — like every experiment's cluster — the seeded
/// virtual clock, where those costs are charged exactly.
pub fn lan_config() -> ClusterConfig {
    ClusterConfig {
        machines: 0, // set by the builder / world
        link: lan(),
        disk: DiskConfig::nvme(),
        disks_per_machine: 1,
        disk_capacity: 256 << 20,
        faults: simnet::FaultPlan::none(),
        time: simnet::TimeMode::Virtual { seed: 0xE1_2026 },
    }
}

/// [`lan_config`] with a slower, seek-dominated disk for the
/// I/O-parallelism experiments (1 ms positioning, 400 MB/s transfer).
pub fn spinny_config() -> ClusterConfig {
    ClusterConfig {
        disk: DiskConfig {
            seek: Duration::from_millis(1),
            bytes_per_sec: 400e6,
        },
        ..lan_config()
    }
}

/// Assert that a traced run kept every rule of the audit (DESIGN.md §8):
/// causality, at most once, no late work, and no events lost.
pub fn assert_audit_clean(trace: &oopp::Trace, what: &str) {
    let lines: Vec<String> = trace.audit().iter().map(|v| v.to_string()).collect();
    assert!(
        lines.is_empty(),
        "{what}: the audit failed:\n{}",
        lines.join("\n")
    );
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

/// How far `f` moved the cluster clock: the time cell of every table. On
/// the seeded virtual clock one run is the measurement — there is no
/// spread to take a median of.
pub fn modeled<R>(clock: &Clock, f: impl FnOnce() -> R) -> Duration {
    let t0 = clock.now_nanos();
    f();
    Duration::from_nanos(clock.now_nanos() - t0)
}

/// One synchronous call on a [`lan_config`] cluster, held to the cost
/// model: its modeled time must be, to the nanosecond, what `link_delivery`
/// charges its request and its reply on idle links — a latency plus its
/// bytes over the bandwidth, each — plus the device time it was served
/// with. Returns that time and the call's traffic.
pub fn priced(
    cluster: &oopp::Cluster,
    what: &str,
    call: impl FnOnce(),
) -> (Duration, MetricsSnapshot) {
    let before = cluster.snapshot();
    let time = modeled(cluster.sim().clock(), call);
    let delta = cluster.snapshot().since(&before);
    // One message per sender, so a machine's byte count is a message's.
    assert!(
        delta.per_machine_sent.iter().all(|&n| n <= 1),
        "{what}: not one call"
    );
    let wire: Duration = (delta
        .per_machine_sent
        .iter()
        .zip(&delta.per_machine_bytes_sent))
    .filter(|(&sent, _)| sent == 1)
    .map(|(_, &bytes)| lan().latency + transfer_time(bytes as usize, lan().bytes_per_sec))
    .sum();
    let model = wire + Duration::from_nanos(delta.disk_busy_nanos);
    assert_eq!(time, model, "{what}: modeled time is not the cost model's");
    (time, delta)
}

/// Format a `Duration` as microseconds with 1 decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Format a `Duration` as milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format `num / den` as a factor with 1 decimal, `-` when `den` is zero:
/// on an exact clock a phase that sends nothing takes no time at all, and
/// a table never prints `inf` or `NaN`.
pub fn ratio(num: Duration, den: Duration) -> String {
    if den.is_zero() {
        return "-".into();
    }
    format!("{:.1}x", num.as_secs_f64() / den.as_secs_f64())
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
    fn duration_formatters() {
        assert_eq!(us(Duration::from_micros(1500)), "1500.0");
        assert_eq!(ms(Duration::from_micros(1500)), "1.50");
        let (a, b) = (Duration::from_micros(300), Duration::from_micros(200));
        assert_eq!(ratio(a, b), "1.5x");
        assert_eq!(ratio(Duration::ZERO, b), "0.0x");
        assert_eq!(ratio(a, Duration::ZERO), "-");
        assert_eq!(ratio(Duration::ZERO, Duration::ZERO), "-");
    }

    #[test]
    fn a_call_is_priced_by_the_link_model_and_two_are_not_one() {
        let (cluster, mut driver) = oopp::ClusterBuilder::new(1)
            .sim_config(lan_config())
            .build();
        let block = oopp::DoubleBlockClient::new_on(&mut driver, 0, 4).unwrap();
        let (time, delta) = priced(&cluster, "get", || {
            block.get(&mut driver, 0).unwrap();
        });
        assert_eq!(delta.messages_sent, 2);
        assert!(time > 2 * lan().latency && time < 2 * lan().latency + Duration::from_micros(1));
        let two = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            priced(&cluster, "two gets", || {
                block.get(&mut driver, 0).unwrap();
                block.get(&mut driver, 1).unwrap();
            })
        }));
        assert!(two.is_err(), "two calls must not pass for one");
        cluster.shutdown(driver);
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
