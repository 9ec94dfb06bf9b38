//! The experiments: one function per claim of the paper. Each returns a
//! [`Table`] that the `reproduce` binary prints and EXPERIMENTS.md records,
//! every time cell a difference of two readings of the cluster's seeded
//! virtual clock, and each asserts its claim against the substrate's cost
//! model before it prints.
//!
//! The paper (a conceptual framework paper) has no numbered tables or
//! figures; the experiment ids E1–E8 index the *claims and worked examples*
//! of its sections, as laid out in DESIGN.md §3.

use std::time::Duration;

use distarray::{register_classes, Array, BlockStorage, Domain, PageMap};
use fft::{c64, Complex, Direction, DistributedFft3, Fft3, Grid3};
use mplite::apps::{fft_run, pageio_run, IoMode};
use mplite::MpiWorld;
use oopp::{
    join, Backoff, BarrierClient, BreakerConfig, CallPolicy, ClusterBuilder, DoubleBlockClient,
    OverloadConfig, RemoteClient, RemoteError,
};
use pagestore::{ArrayPage, ArrayPageDevice, ArrayPageDeviceClient, PageDevice};
use placement::{Balancer, PlacementPolicy};
use simnet::time::transfer_time;
use simnet::{ClusterConfig, FaultPlan};
use wire::collections::F64s;
use wire::V64;
use workload::loadgen::{ClosedLoop, ReqClass, Zipf};
use workload::slo::ClassLedger;

use crate::{
    assert_audit_clean, lan, lan_config, method_stats_table, modeled, ms, priced, ratio,
    spinny_config, us, GroupTable, GroupTableClient, Syncer, SyncerClient, Table,
};

/// E1 (§2): cost of remote object semantics — creation, method call,
/// element access — against the substrate's analytic cost model: every
/// row is one synchronous call, and its modeled time must equal what the
/// link model charges for its request and its reply, to the nanosecond.
/// Runs with the flight recorder on; the second table is the per-method
/// account of the same run (attempts, p50/p99 latency, bytes).
pub fn e1_rmi_overhead() -> Vec<Table> {
    let mut t = Table::new(&["operation", "wire B", "modeled us = 2*lat + B/bw"]);
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .sim_config(lan_config())
        .tracing(true)
        .build();
    let mut row = |operation: &str, call: &mut dyn FnMut()| {
        let (time, delta) = priced(&cluster, operation, call);
        t.row(&[operation.into(), delta.bytes_sent.to_string(), us(time)]);
    };

    // Remote creation and destruction.
    let mut small = None;
    row("new(machine 0)", &mut || {
        small = Some(DoubleBlockClient::new_on(&mut driver, 0, 16).unwrap());
    });
    let small = small.expect("created");
    row("delete", &mut || small.destroy(&mut driver).unwrap());

    // data[i] = v and x = data[i] — the paper's element accesses (the
    // constant is the paper's own literal, not an approximation of pi).
    let block = DoubleBlockClient::new_on(&mut driver, 0, 1 << 17).unwrap();
    #[allow(clippy::approx_constant)]
    row("data[7]=v", &mut || {
        block.set(&mut driver, 7, 3.1415).unwrap()
    });
    row("x=data[2]", &mut || {
        block.get(&mut driver, 2).unwrap();
    });

    // Bulk payload sweep: read_range of increasing size.
    for elems in [16usize, 1 << 10, 1 << 14, 1 << 17] {
        row(&format!("read_range({elems})"), &mut || {
            block.read_range(&mut driver, 0, elems).unwrap();
        });
    }
    let recorder = cluster.recorder().expect("tracing enabled");
    cluster.shutdown(driver);
    let trace = recorder.merge();
    assert_audit_clean(&trace, "E1");
    vec![t, method_stats_table(&trace)]
}

/// The device fixture of E2, E3 and E8: an [`ArrayPageDevice`] of `pages`
/// pages of `dims` doubles on `machine`, its page `page` written with
/// generated data.
fn device_with_page(
    driver: &mut oopp::Driver,
    machine: usize,
    name: String,
    pages: u64,
    dims: [usize; 3],
    page: u64,
    seed: u64,
) -> ArrayPageDeviceClient {
    let [n1, n2, n3] = dims;
    let (b1, b2, b3) = (n1 as u64, n2 as u64, n3 as u64);
    let dev =
        ArrayPageDeviceClient::new_on(driver, machine, name, pages, b1, b2, b3, 0, None).unwrap();
    let data = ArrayPage::generate(n1, n2, n3, seed).into_f64s();
    dev.write_array(driver, page, data).unwrap();
    dev
}

/// E2 (§3): "moving the data to the computation" vs "moving the computation
/// to the data" for the page-sum, across page sizes. Both calls read the
/// page off the device's disk; what moving the computation saves is
/// exactly the wire time of the page it does not ship.
pub fn e2_move_compute() -> Table {
    let mut t = Table::new(&[
        "page (doubles)",
        "page KiB",
        "ship-data ms",
        "device-sum ms",
        "ratio",
    ]);
    for side in [8usize, 16, 32, 64] {
        let (cluster, mut driver) = ClusterBuilder::new(1)
            .register::<PageDevice>()
            .register::<ArrayPageDevice>()
            .sim_config(lan_config())
            .build();
        let dev = device_with_page(&mut driver, 0, "e2".into(), 2, [side; 3], 0, 1);
        let (ship, _) = priced(&cluster, "E2 ship", || {
            let data = dev.read_array(&mut driver, 0).unwrap();
            std::hint::black_box(data.0.iter().sum::<f64>());
        });
        let (device, _) = priced(&cluster, "E2 sum", || {
            dev.sum(&mut driver, 0).unwrap();
        });
        assert!(device < ship, "E2 {side}^3: the device-side sum must win");
        let n = side * side * side;
        t.row(&[
            format!("{side}^3"),
            (n * 8 / 1024).to_string(),
            ms(ship),
            ms(device),
            ratio(ship, device),
        ]);
        cluster.shutdown(driver);
    }
    t
}

/// E3 (§4): the split-loop transformation — one page from each of N
/// devices, sequential vs split, plus the hand-written message-passing
/// pipeline on identical hardware. The link model predicts both loops
/// from one call's price: the sequential loop pays it N times, the split
/// loop once plus N − 1 further replies queueing on the driver's link.
pub fn e3_parallel_io() -> Vec<Table> {
    let mut t = Table::new(&[
        "devices",
        "sequential ms",
        "split-loop ms",
        "speedup",
        "mplite pipelined ms",
    ]);
    let page_elems = 1 << 14; // 128 KiB pages
    let mut last_trace = None;
    for n in [1usize, 2, 4, 8, 16] {
        let (cluster, mut driver) = ClusterBuilder::new(n)
            .register::<PageDevice>()
            .register::<ArrayPageDevice>()
            .sim_config(spinny_config())
            .tracing(true)
            .build();
        let clock = cluster.sim().clock();
        let devices: Vec<_> = (0..n)
            .map(|m| {
                device_with_page(
                    &mut driver,
                    m,
                    format!("e3.{m}"),
                    4,
                    [32, 32, 16],
                    1,
                    m as u64,
                )
            })
            .collect();

        // One read, priced by the cost model: the unit both loops are
        // predicted from.
        let (one, delta) = priced(&cluster, "E3 one read", || {
            devices[0].read_array(&mut driver, 1).unwrap();
        });
        let reply = transfer_time(
            delta.per_machine_bytes_sent[0] as usize,
            lan().bytes_per_sec,
        );

        // The unsplit loop: each read completes before the next is issued.
        let seq = modeled(clock, || {
            for d in &devices {
                let _ = d.read_array(&mut driver, 1).unwrap();
            }
        });
        // The compiler-split loop.
        let split = modeled(clock, || {
            let pending: Vec<_> = devices
                .iter()
                .map(|d| d.read_array_async(&mut driver, 1).unwrap())
                .collect();
            let _ = join(&mut driver, pending).unwrap();
        });
        assert_eq!(seq, one * n as u32, "E3 N={n}: N round trips, end to end");
        assert_eq!(
            split,
            one + reply * (n as u32 - 1),
            "E3 N={n}: round trips and disks overlap, replies share the driver's link"
        );
        let recorder = cluster.recorder().expect("tracing enabled");
        cluster.shutdown(driver);
        let trace = recorder.merge();
        assert_audit_clean(&trace, &format!("E3 N={n}"));
        // One per-method table is enough; keep the widest configuration.
        last_trace = Some(trace);

        // The message-passing baseline: n servers + 1 client.
        let mut mp_cfg = spinny_config();
        mp_cfg.machines = n + 1;
        let (mp, _) = pageio_run(mp_cfg, page_elems * 8, 4, IoMode::Pipelined);
        // Same structure, leaner framing: the hand-written pipeline beats
        // the split loop by header bytes only.
        assert!(
            mp <= split && split - mp < Duration::from_micros(1),
            "E3 N={n}: split loop {split:?} vs message passing {mp:?}"
        );

        t.row(&[n.to_string(), ms(seq), ms(split), ratio(seq, split), ms(mp)]);
    }
    vec![t, method_stats_table(&last_trace.expect("loop ran"))]
}

/// E4 (§4): the distributed FFT — scaling with process count, oopp RMI vs.
/// the message-passing baseline, on the modeled clock: the time cells are
/// the transposes' link time (host arithmetic is not modeled — the
/// wall-clock benchmark's `fft3d` workload times it).
pub fn e4_fft() -> Table {
    let shape = [64usize, 64, 64];
    let data: Vec<Complex> = (0..shape.iter().product::<usize>())
        .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect();
    let mut t = Table::new(&[
        "processes",
        "oopp ms",
        "mplite ms",
        "oopp msgs",
        "oopp MB moved",
    ]);
    let expected = Fft3::new(shape).transform(&Grid3::new(shape, data.clone()), Direction::Forward);

    for parts in [1usize, 2, 4, 8] {
        let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(parts))
            .sim_config(lan_config())
            .build();
        let dfft = DistributedFft3::new(
            &mut driver,
            [shape[0] as u64, shape[1] as u64, shape[2] as u64],
            parts,
        )
        .unwrap();
        dfft.scatter(&mut driver, &data).unwrap();
        let before = cluster.snapshot();
        let oopp_time = modeled(cluster.sim().clock(), || {
            dfft.transform(&mut driver, Direction::Forward).unwrap()
        });
        let delta = cluster.snapshot().since(&before);
        let oopp_grid = dfft.gather(&mut driver).unwrap();
        cluster.shutdown(driver);

        let mut cfg = lan_config();
        cfg.machines = parts;
        let (mpi_grid, mpi_time) = fft_run(cfg, shape, data.clone(), Direction::Forward);
        assert!(
            oopp_grid == expected.data() && mpi_grid == expected.data(),
            "E4 P={parts}: both models must compute the local transform, bit for bit"
        );
        // The slab algorithm's traffic (DESIGN §3): two phases of one
        // call per worker, and in the one exchange a `put` and a `take`
        // per worker and peer; the transpose moves (P-1)/P of the grid in
        // and out.
        let p = parts as u64;
        assert_eq!(delta.messages_sent, 4 * p * p);
        // ... and its time on the link model. Both models transpose once
        // per transform. Message passing pays a latency and the P − 1
        // blocks a rank's link takes in one after another; the object
        // framework pays the same and five latencies more, whatever P —
        // the driver's two calls (four) and the `put` reply the exchange
        // waits for. One process exchanges nothing. The slack is header
        // bytes.
        let (lat, slack) = (lan().latency, Duration::from_micros(1) * parts as u32);
        let block = (shape.iter().product::<usize>() * 16) / (parts * parts);
        let exchanges = if parts > 1 { 1 } else { 0 };
        let transposes =
            (lat + transfer_time((parts - 1) * block, lan().bytes_per_sec)) * exchanges;
        assert!(
            mpi_time >= transposes && mpi_time < transposes + slack,
            "E4 P={parts}: mplite {mpi_time:?} against {transposes:?}"
        );
        let rmi = mpi_time + lat * (4 + exchanges);
        assert!(
            oopp_time >= rmi && oopp_time < rmi + slack,
            "E4 P={parts}: oopp {oopp_time:?} against {rmi:?}"
        );

        t.row(&[
            parts.to_string(),
            ms(oopp_time),
            ms(mpi_time),
            delta.messages_sent.to_string(),
            format!("{:.1}", delta.bytes_sent as f64 / 1e6),
        ]);
    }
    t
}

/// E5 (§5): "the PageMap determines the degree of parallelism of the I/O":
/// the same slab read under four layouts.
pub fn e5_pagemap() -> Table {
    let mut t = Table::new(&["page map", "read ms", "devices touched", "disk parallelism"]);
    let n = [64u64, 32, 32];
    let p = [4u64, 32, 32]; // pages stack along axis 0: grid [16,1,1]
    let grid = [16u64, 1, 1];
    let devices = 4u64;
    // Four consecutive pages: a contiguous slab. Blocked keeps all four on
    // one device (ceil(16/4) = 4 per device); round-robin spreads them.
    let slab = Domain::new(0, 16, 0, 32, 0, 32);

    for (name, map) in [
        ("round-robin", PageMap::round_robin(grid, devices)),
        ("blocked", PageMap::blocked(grid, devices)),
        ("hashed", PageMap::hashed(grid, devices, 7)),
        ("z-curve", PageMap::zcurve(grid, devices)),
    ] {
        let (cluster, mut driver) = register_classes(ClusterBuilder::new(devices as usize))
            .sim_config(spinny_config())
            .build();
        let storage = BlockStorage::create(
            &mut driver,
            "e5",
            devices as usize,
            map.pages_per_device(),
            p[0],
            p[1],
            p[2],
            1,
        )
        .unwrap();
        let array = Array::new(n, p, storage, map).unwrap();
        array.fill(&mut driver, &array.whole(), 1.0).unwrap();

        let before = cluster.snapshot();
        let d = modeled(cluster.sim().clock(), || {
            array.read(&mut driver, &slab).unwrap()
        });
        let delta = cluster.snapshot().since(&before);
        let busy = Duration::from_nanos(delta.disk_busy_nanos);
        // The layout's claim, exactly: a device reads its pages one after
        // another, so the slab's deepest device sets the read time — its
        // queue of page reads, a round trip, and at most the slab's pages
        // sharing the driver's link on the way back.
        let mut queue = vec![0u32; devices as usize];
        for page in 0..4 {
            queue[array.physical([page, 0, 0]).device_id as usize] += 1;
        }
        let deepest = busy / 4 * queue.into_iter().max().expect("devices");
        let page_wire = transfer_time(4 * 32 * 32 * 8, lan().bytes_per_sec);
        let round_trip = 2 * lan().latency + 4 * page_wire + Duration::from_micros(1);
        assert!(
            d >= deepest && d < deepest + round_trip,
            "E5 {name}: read {d:?}, deepest device queue {deepest:?}"
        );
        t.row(&[
            name.into(),
            ms(d),
            array.devices_touched(&slab).to_string(),
            ratio(busy, d),
        ]);
        cluster.shutdown(driver);
    }
    t
}

/// E6 (§5): "deploying multiple Array clients in parallel" — a read-heavy
/// reduction where a single client's link is the bottleneck, so adding
/// coordinating Array client processes spreads the transfer.
pub fn e6_array_sum() -> Table {
    let mut t = Table::new(&[
        "clients",
        "checksum ms",
        "speedup vs 1",
        "device-side sum ms",
    ]);
    let devices = 8usize;
    // 1 Gb/s links: the transfer term dominates, so the bottleneck is each
    // client's receive link — exactly the regime where extra clients help.
    let thin = simnet::NetCost::lan(50, 1.0);
    let mut cfg = lan_config();
    cfg.link = thin;
    let (cluster, mut driver) = register_classes(ClusterBuilder::new(devices))
        .sim_config(cfg)
        .build();
    let clock = cluster.sim().clock();
    // 32 MiB of doubles in eight 4-MiB pages, one device per machine.
    let grid = [8u64, 1, 1];
    let map = PageMap::round_robin(grid, devices as u64);
    let storage = BlockStorage::create(
        &mut driver,
        "e6",
        devices,
        map.pages_per_device(),
        8,
        256,
        256,
        1,
    )
    .unwrap();
    let array = Array::new([64, 256, 256], [8, 256, 256], storage, map).unwrap();
    array.fill(&mut driver, &array.whole(), 0.5).unwrap();
    let whole = array.whole();
    let page_wire = transfer_time(4 << 20, thin.bytes_per_sec);

    // Reference: the device-side sum (ships 8 bytes per page — the cheap
    // direction, shown for contrast).
    let device_side = modeled(clock, || array.sum(&mut driver, &whole).unwrap());

    let mut base: Option<Duration> = None;
    for clients in [1usize, 2, 4, 8] {
        // Deploy the client processes once per row (setup excluded from the
        // timed region).
        let mut pending = Vec::new();
        for i in 0..clients {
            pending.push(
                distarray::ArrayWorkerClient::new_on_async(&mut driver, i % devices, array.clone())
                    .unwrap(),
            );
        }
        let workers = oopp::join_clients(&mut driver, pending).unwrap();
        let slabs = whole.split_axis0(clients as u64);
        let d = modeled(clock, || {
            let pending: Vec<_> = slabs
                .iter()
                .enumerate()
                .map(|(i, slab)| {
                    workers[i % workers.len()]
                        .read_checksum_async(&mut driver, *slab)
                        .unwrap()
                })
                .collect();
            let _total: f64 = join(&mut driver, pending).unwrap().into_iter().sum();
        });
        for w in workers {
            w.destroy(&mut driver).unwrap();
        }
        // The link model's prediction: a client's receive link carries
        // the pages of its slab that another machine stores, one after
        // another, and the slowest client sets the time — that many page
        // transfers, plus one page's disk read and a round trip.
        let remote_pages = (0..clients)
            .map(|i| {
                let pages = (i * devices / clients..(i + 1) * devices / clients).map(|p| p as u64);
                let away = |&page: &u64| array.physical([page, 0, 0]).device_id as usize != i;
                pages.filter(away).count() as u32
            })
            .max()
            .expect("clients");
        let transfers = page_wire * remote_pages;
        assert!(
            d >= transfers && d < transfers + Duration::from_millis(2),
            "E6 {clients} clients: {d:?} vs {remote_pages} page transfers of {page_wire:?}"
        );
        let baseline = *base.get_or_insert(d);
        t.row(&[
            clients.to_string(),
            ms(d),
            ratio(baseline, d),
            ms(device_side),
        ]);
    }
    cluster.shutdown(driver);
    t
}

/// E7 (§5): persistence — deactivate/activate cycles vs. state size, and
/// symbolic-address resolution.
pub fn e7_persistence() -> Table {
    let mut t = Table::new(&["state KiB", "deactivate ms", "activate ms", "lookup us"]);
    let (cluster, mut driver) = ClusterBuilder::new(1).sim_config(lan_config()).build();
    let dir = driver.directory();
    for elems in [1usize << 7, 1 << 10, 1 << 13, 1 << 16, 1 << 19] {
        let block = DoubleBlockClient::new_on(&mut driver, 0, elems).unwrap();
        block.fill(&mut driver, 1.5).unwrap();
        let key = oopp::symbolic_addr(&["bench", "block", &elems.to_string()]);
        dir.bind(&mut driver, key.clone(), block.obj_ref()).unwrap();

        // Each verb is one call, priced by the link model: the state is
        // stored where the process lived and never crosses a link.
        let (deact, _) = priced(&cluster, "E7 deactivate", || {
            driver.deactivate(block.obj_ref(), key.clone()).unwrap()
        });
        let mut revived = None;
        let (act, _) = priced(&cluster, "E7 activate", || {
            revived = Some(driver.activate::<DoubleBlockClient>(0, &key).unwrap());
        });
        let revived = revived.expect("activated");
        assert_eq!(revived.get(&mut driver, 0).unwrap(), 1.5);
        let (lookup, _) = priced(&cluster, "E7 lookup", || {
            dir.lookup(&mut driver, key.clone()).unwrap();
        });
        t.row(&[
            (elems * 8 / 1024).to_string(),
            ms(deact),
            ms(act),
            us(lookup),
        ]);
        revived.destroy(&mut driver).unwrap();
    }
    cluster.shutdown(driver);
    t
}

/// E8 (§2/§4): N object-processes vs one — the split loop parallelizes
/// across *distinct* processes, while the same N calls aimed at a single
/// object serialize (one process per object). Device work (1 ms seek per
/// page sum) makes the serialization visible above the link latency: N
/// objects cost one seek, one object N seeks.
pub fn e8_shared_memory() -> Table {
    let mut t = Table::new(&[
        "calls",
        "sequential ms",
        "N objects parallel ms",
        "speedup",
        "1 object parallel ms",
    ]);
    for n in [2usize, 4, 8] {
        let (cluster, mut driver) = ClusterBuilder::new(n)
            .register::<PageDevice>()
            .register::<ArrayPageDevice>()
            .sim_config(spinny_config())
            .build();
        let clock = cluster.sim().clock();
        let devices: Vec<_> = (0..n)
            .map(|m| device_with_page(&mut driver, m, format!("e8.{m}"), 2, [16; 3], 0, m as u64))
            .collect();

        // One call, priced: the wire time of its two small messages and
        // one seek-dominated page read.
        let (one, delta) = priced(&cluster, "E8 one call", || {
            devices[0].sum(&mut driver, 0).unwrap();
        });
        let seek = Duration::from_nanos(delta.disk_busy_nanos);

        // The unsplit loop over N device-processes.
        let seq = modeled(clock, || {
            for d in &devices {
                let _ = d.sum(&mut driver, 0).unwrap();
            }
        });
        // The split loop over N device-processes: seeks overlap.
        let par = modeled(clock, || {
            let pending: Vec<_> = devices
                .iter()
                .map(|d| d.sum_async(&mut driver, 0).unwrap())
                .collect();
            let _ = join(&mut driver, pending).unwrap();
        });
        // The same N calls at ONE device-process: one process per object,
        // so its seeks serialize even under the split loop.
        let one_dev = &devices[0];
        let one_obj = modeled(clock, || {
            let pending: Vec<_> = (0..n)
                .map(|_| one_dev.sum_async(&mut driver, 0).unwrap())
                .collect();
            let _ = join(&mut driver, pending).unwrap();
        });
        let slack = Duration::from_micros(1); // N tiny messages sharing a link
        assert_eq!(seq, one * n as u32, "E8 N={n}: N round trips, N seeks");
        assert!(
            par >= one && par < one + slack,
            "E8 N={n}: N objects cost one seek, got {par:?} against {one:?}"
        );
        let n_seeks = one + seek * (n as u32 - 1);
        assert!(
            one_obj >= n_seeks && one_obj < n_seeks + slack,
            "E8 N={n}: one object costs N seeks, got {one_obj:?} against {n_seeks:?}"
        );
        t.row(&[
            n.to_string(),
            ms(seq),
            ms(par),
            ratio(seq, par),
            ms(one_obj),
        ]);
        cluster.shutdown(driver);
    }
    t
}

/// The reply window and backoff of the lossy-fabric experiments (E9, E10):
/// short, so a drop costs 55 ms, not `DEFAULT_TIMEOUT`.
const LOSSY_WINDOW: Duration = Duration::from_millis(50);
const LOSSY_BACKOFF: Duration = Duration::from_millis(5);

/// The retrying policy E9 and E10 run under.
fn lossy_policy() -> CallPolicy {
    CallPolicy::reliable(LOSSY_WINDOW)
        .with_max_retries(8)
        .with_backoff(Backoff::fixed(LOSSY_BACKOFF))
}

/// E9 (robustness): completion time of an E3-style split-loop workload as
/// the seeded per-packet drop rate rises, under a retrying [`CallPolicy`].
///
/// The fabric drops request and response frames silently; callers recover
/// by retransmitting after a short reply window, and servers suppress the
/// resulting duplicates, so every run computes the same answer — losses
/// buy latency, never wrong results. Zero-cost substrate on the virtual
/// clock: all reported time is retry windows and backoff — one of each per
/// loss the caller had to wait out — none of it wire time.
pub fn e9_faults() -> Vec<Table> {
    let mut t = Table::new(&[
        "drop rate",
        "completion ms",
        "retries",
        "frames dropped",
        "matches 0% run",
    ]);
    let workers = 4usize;
    let n = 256usize;
    let rounds = 6usize;

    let run = |plan: FaultPlan| -> (Vec<f64>, u64, u64, Duration, oopp::Trace) {
        let (cluster, mut driver) = ClusterBuilder::new(workers)
            .sim_config(
                ClusterConfig::zero_cost(0)
                    .with_faults(plan)
                    .with_virtual_time(0xE9_2026),
            )
            .call_policy(lossy_policy())
            .tracing(true)
            .build();
        let t0 = driver.now_nanos();
        let blocks: Vec<_> = (0..workers)
            .map(|m| {
                let b = DoubleBlockClient::new_on(&mut driver, m, n).unwrap();
                b.fill(&mut driver, (m + 1) as f64).unwrap();
                b
            })
            .collect();
        for round in 0..rounds {
            let addend = F64s(vec![round as f64 + 0.25; n]);
            let pending: Vec<_> = blocks
                .iter()
                .map(|b| {
                    b.axpy_range_async(&mut driver, 0, 0.5, addend.clone())
                        .unwrap()
                })
                .collect();
            join(&mut driver, pending).unwrap();
        }
        let mut data = Vec::with_capacity(workers * n);
        for b in &blocks {
            data.extend(b.read_range(&mut driver, 0, n).unwrap().0);
        }
        let elapsed = Duration::from_nanos(driver.now_nanos() - t0);
        let retries = driver.local_stats().calls_retried;
        let drops = cluster.snapshot().total_fault_drops();
        let recorder = cluster.recorder().expect("tracing enabled");
        cluster.shutdown(driver);
        (data, retries, drops, elapsed, recorder.merge())
    };

    let (baseline, ..) = run(FaultPlan::none());
    let mut lossiest_trace = None;
    for p in [0.0f64, 0.01, 0.05, 0.10] {
        let plan = if p == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::seeded(0xE9).with_drop(p)
        };
        let (data, retries, drops, elapsed, trace) = run(plan);
        assert_audit_clean(&trace, &format!("E9 {p}"));
        assert!(
            data == baseline,
            "E9 {p}: a lossy run must compute the clean run's data"
        );
        // The driver issues one round at a time, so a round's losses are
        // waited out together: never more than a window and a backoff per
        // retransmission, and without one nothing but the nanosecond a
        // free FIFO link puts between two deliveries. One retransmission
        // recovers each loss.
        assert!(
            elapsed < (LOSSY_WINDOW + LOSSY_BACKOFF) * retries as u32 + Duration::from_micros(1),
            "E9 {p}: {elapsed:?} for {retries} retransmissions"
        );
        assert_eq!(retries, drops, "E9 {p}");
        t.row(&[
            format!("{:.0}%", p * 100.0),
            ms(elapsed),
            retries.to_string(),
            drops.to_string(),
            if data == baseline { "yes" } else { "NO" }.into(),
        ]);
        lossiest_trace = Some(trace);
    }
    // Per-method account of the 10%-drop run: where the retries landed and
    // what they did to tail latency.
    vec![t, method_stats_table(&lossiest_trace.expect("loop ran"))]
}

/// The experiments' one work object: a block of doubles, a write counter
/// and a hit counter, with a *modeled* device-side service cost per call.
/// Like the substrate's network and disk, compute is costed analytically —
/// a sleep on the cluster clock — so each simulated machine's (and each
/// worker lane's) service capacity is independent of the host: servers
/// park in the clock concurrently, exactly as real cores would compute
/// concurrently. `work`, `version` and `read` are replica-servable (E12);
/// `bump` is the write only the primary executes, and the write counter is
/// its exactly-once witness (the data bytes would diverge on any
/// double-apply). The hit counter is the sequential-server witness of E13:
/// a lost or doubled call to an object changes it.
#[derive(Debug)]
pub struct HotBlock {
    data: Vec<f64>,
    writes: u64,
    hits: u64,
}

oopp::remote_class! {
    class HotBlock {
        persistent;
        reads(work, version, read);
        ctor(n: usize);
        /// Fill the whole block with `v`.
        fn fill(&mut self, v: f64) -> ();
        /// The synthetic hot method: one reduction over the block plus
        /// `micros` of modeled compute; counts a hit.
        fn work(&mut self, micros: u64) -> f64;
        /// The write verb (adds `delta` to every element); counts a write.
        fn bump(&mut self, delta: f64) -> ();
        /// Write counter — the read-your-writes probe.
        fn version(&mut self) -> u64;
        /// The whole block, for the byte-identical witness.
        fn read(&mut self) -> F64s;
        /// Hit counter; cheap enough to double as E10's once-only
        /// steady-state trace marker.
        fn probe(&mut self) -> u64;
    }
}

impl HotBlock {
    pub fn new(_ctx: &mut oopp::NodeCtx, n: usize) -> oopp::RemoteResult<Self> {
        Ok(HotBlock {
            data: vec![0.0; n],
            writes: 0,
            hits: 0,
        })
    }

    fn fill(&mut self, _ctx: &mut oopp::NodeCtx, v: f64) -> oopp::RemoteResult<()> {
        self.data.fill(v);
        Ok(())
    }

    fn work(&mut self, ctx: &mut oopp::NodeCtx, micros: u64) -> oopp::RemoteResult<f64> {
        self.hits += 1;
        // Dependent chain so the reduction isn't folded away; the result
        // is a pure function of the state, so it is placement-invariant.
        let mut s = 0.0f64;
        for &x in &self.data {
            s = s * 0.999_999_9 + x;
        }
        ctx.clock().sleep(Duration::from_micros(micros));
        Ok(s)
    }

    fn bump(&mut self, _ctx: &mut oopp::NodeCtx, delta: f64) -> oopp::RemoteResult<()> {
        for x in &mut self.data {
            *x += delta;
        }
        self.writes += 1;
        Ok(())
    }

    fn version(&mut self, _ctx: &mut oopp::NodeCtx) -> oopp::RemoteResult<u64> {
        Ok(self.writes)
    }

    fn read(&mut self, _ctx: &mut oopp::NodeCtx) -> oopp::RemoteResult<&[f64]> {
        Ok(&self.data)
    }

    fn probe(&mut self, _ctx: &mut oopp::NodeCtx) -> oopp::RemoteResult<u64> {
        Ok(self.hits)
    }

    fn save_state(&self) -> Vec<u8> {
        wire::to_bytes(&(V64(self.writes), V64(self.hits), F64s(self.data.clone())))
    }

    fn load_state(_ctx: &mut oopp::NodeCtx, state: &[u8]) -> oopp::RemoteResult<Self> {
        let (V64(writes), V64(hits), F64s(data)) = wire::from_bytes(state)?;
        Ok(HotBlock { data, writes, hits })
    }
}

/// E10 (DESIGN.md §9): adaptive placement under a Zipf-skewed workload.
///
/// Every object is born on machine 0 — the paper's static placement — and
/// a skewed client stream hammers them while the rest of the cluster
/// idles. With the balancer off ([`PlacementPolicy::Static`]) machine 0
/// serializes everything; with [`PlacementPolicy::GreedyRebalance`] the
/// hot objects are live-migrated to the idle machines between rounds. The
/// chaos variant reruns the balanced workload under 5% seeded loss and
/// forces one migration into a crashed machine mid-run: the move must
/// roll back and the final data must stay byte-identical to the
/// fault-free runs — a migration never loses or duplicates an object.
pub fn e10_placement() -> Vec<Table> {
    const WORKERS: usize = 4;
    const NOBJ: usize = 16;
    const N: usize = 4096; // 32 KiB of f64 state per object
    const SERVICE_US: u64 = 300; // modeled device-side compute per call
    const ROUNDS: usize = 16;
    const CALLS: usize = 48;
    const ZIPF_S: f64 = 0.9;

    struct Outcome {
        data: Vec<f64>,
        p50: u64,
        p99: u64,
        elapsed: Duration,
        moves: u64,
        per_machine: Vec<u64>,
        rolled_back: Option<bool>,
        trace: oopp::Trace,
    }

    let run = |policy: PlacementPolicy, plan: FaultPlan, chaos: bool| -> Outcome {
        let (cluster, mut driver) = ClusterBuilder::new(WORKERS)
            .register::<HotBlock>()
            .sim_config(
                ClusterConfig::zero_cost(0)
                    .with_faults(plan)
                    .with_virtual_time(0xE10_2026),
            )
            .call_policy(lossy_policy())
            .tracing(true)
            .build();
        let blocks: Vec<_> = (0..NOBJ)
            .map(|k| {
                let b = HotBlockClient::new_on(&mut driver, 0, N).unwrap();
                b.fill(&mut driver, (k + 1) as f64 * 0.5).unwrap();
                b
            })
            .collect();
        let mut balancer = Balancer::new(policy, (0..WORKERS).collect());
        balancer.pin(driver.directory().obj_ref());
        // The coldest object stays put in every run so the chaos variant
        // can deterministically aim a migration at the crashed machine.
        balancer.pin(blocks[NOBJ - 1].obj_ref());

        let mut zipf = Zipf::new(0xE10_2026, NOBJ, ZIPF_S);
        let mut rolled_back = None;
        let t0 = driver.now_nanos();
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                // Steady-state marker: `probe` is called exactly once,
                // here, so the trace can be sliced at the point where the
                // balancer has converged (latency columns below exclude
                // the convergence transient the Static run doesn't pay).
                blocks[0].probe(&mut driver).unwrap();
            }
            if chaos && round == ROUNDS / 2 {
                // A crash races the transfer: migrate_out quiesces the
                // object, adopt_state hits a dark machine, the core must
                // roll back to the original address.
                cluster.sim().faults().crash(WORKERS - 1);
                let refused = driver
                    .migrate(blocks[NOBJ - 1].obj_ref(), WORKERS - 1)
                    .is_err();
                cluster.sim().faults().restart(WORKERS - 1);
                rolled_back = Some(refused);
            }
            let sums: Vec<_> = (0..CALLS)
                .map(|_| {
                    let k = zipf.sample();
                    blocks[k].work_async(&mut driver, SERVICE_US).unwrap()
                })
                .collect();
            // One mutation per round, totally ordered by the round joins,
            // so the final state is identical however objects are placed.
            let write = blocks[round % NOBJ]
                .bump_async(&mut driver, round as f64 * 0.5 + 0.125)
                .unwrap();
            join(&mut driver, sums).unwrap();
            join(&mut driver, vec![write]).unwrap();
            balancer.step(&mut driver);
        }
        let elapsed = Duration::from_nanos(driver.now_nanos() - t0);
        let mut data = Vec::with_capacity(NOBJ * N);
        for b in &blocks {
            data.extend(b.read(&mut driver).unwrap().0);
        }
        let per_machine: Vec<u64> = (0..WORKERS)
            .map(|m| driver.stats_of(m).unwrap().calls_served)
            .collect();
        let recorder = cluster.recorder().expect("tracing enabled");
        let moves = balancer.moves_executed();
        cluster.shutdown(driver);
        let trace = recorder.merge();
        assert_audit_clean(&trace, "E10");
        // Slice at the marker: per-call latency over the second half of
        // the run, after the balancer converged.
        let cutoff = trace
            .events
            .iter()
            .find(|e| &*e.method == "probe")
            .map(|e| e.at_nanos)
            .unwrap_or(0);
        let steady = oopp::Trace {
            events: trace
                .events
                .iter()
                .filter(|e| e.at_nanos >= cutoff)
                .cloned()
                .collect(),
            dropped: trace.dropped,
        };
        let stats = steady
            .method_stats()
            .into_iter()
            .find(|s| s.method == "work")
            .expect("hot method traced");
        Outcome {
            data,
            p50: stats.p50_micros,
            p99: stats.p99_micros,
            elapsed,
            moves,
            per_machine,
            rolled_back,
            trace,
        }
    };

    let greedy = PlacementPolicy::GreedyRebalance {
        imbalance_ratio: 1.3,
        max_moves_per_round: 3,
    };
    let baseline = run(PlacementPolicy::Static, FaultPlan::none(), false);
    let balanced = run(greedy, FaultPlan::none(), false);
    let chaotic = run(greedy, FaultPlan::seeded(0xE10).with_drop(0.05), true);
    // Static placement is one machine serving every call, one after
    // another; balancing must at least halve both the run and its steady
    // tail, lose nothing under loss, and survive the mid-move crash.
    let serial = Duration::from_micros(SERVICE_US) * (ROUNDS * CALLS) as u32;
    assert!(
        baseline.elapsed >= serial && baseline.elapsed < serial + Duration::from_micros(10),
        "E10: static run {:?} against {serial:?} of service time",
        baseline.elapsed
    );
    assert!(balanced.elapsed * 2 < baseline.elapsed && balanced.p99 * 2 < baseline.p99);
    assert!(balanced.data == baseline.data && chaotic.data == baseline.data);
    assert_eq!(chaotic.rolled_back, Some(true), "E10: the mid-move crash");

    let mut t = Table::new(&[
        "policy",
        "steady p50 us",
        "steady p99 us",
        "modeled ms",
        "moves",
        "calls/machine",
        "mid-move crash",
        "matches static",
    ]);
    for (name, o) in [
        ("Static", &baseline),
        ("GreedyRebalance", &balanced),
        ("Greedy + 5% loss", &chaotic),
    ] {
        let spread = o
            .per_machine
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/");
        t.row(&[
            name.into(),
            o.p50.to_string(),
            o.p99.to_string(),
            ms(o.elapsed),
            o.moves.to_string(),
            spread,
            match o.rolled_back {
                None => "-".into(),
                Some(true) => "rolled back".into(),
                Some(false) => "NOT ROLLED BACK".into(),
            },
            if o.data == baseline.data { "yes" } else { "NO" }.into(),
        ]);
    }
    // Per-method account of the balanced run: migration markers included.
    vec![t, method_stats_table(&balanced.trace)]
}

/// E11 (DESIGN.md §10): self-healing under the E10-style Zipf workload.
///
/// Supervised [`HotBlock`]s live on machines 1–3 (machine 0 keeps the
/// naming directory) while a skewed client stream works them and one
/// deterministic write per round mutates state. Mid-run, the hottest
/// object's home is killed — a real crash in one variant, a full
/// partition (a *false* suspicion: the machine is alive but unreachable)
/// in the other. The supervisor must detect the silence, reactivate the
/// lost objects from replicated snapshots at a bumped lease epoch, and
/// the run must end **byte-identical** to the fault-free baseline: every
/// acknowledged write applied exactly once, zero split-brain writes from
/// the stale incarnation. The table reports the MTTR split into its
/// detection and reactivation components, straight from the supervisor's
/// recovery ledger.
pub fn e11_self_healing() -> Vec<Table> {
    use oopp::symbolic_addr;
    use supervision::Supervisor;

    const WORKERS: usize = 4;
    const NOBJ: usize = 6;
    const N: usize = 2048; // 16 KiB of f64 state per object
    const SERVICE_US: u64 = 150;
    const ROUNDS: usize = 12;
    const CALLS: usize = 24;
    const ZIPF_S: f64 = 0.9;
    const HOMES: [usize; 3] = [1, 2, 3];
    const LEASE: Duration = Duration::from_millis(250);
    const CALL_WINDOW: Duration = Duration::from_millis(40);

    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        Crash,
        Partition,
    }

    struct Outcome {
        data: Vec<f64>,
        elapsed: Duration,
        detect: Duration,
        reactivate: Duration,
        recovered: u64,
        false_suspicions: u64,
        fenced: u64,
        write_retries: u64,
        failed_reads: u64,
    }

    let run = |fault: Fault| -> Outcome {
        // Single-shot 40 ms windows: on a zero-cost fabric a live machine
        // answers in microseconds, and a call into a dead one must fail
        // *faster than the lease*, or the blocked driver would starve the
        // heartbeat pump and take the healthy machines down with it.
        let call_policy = CallPolicy::no_retry(CALL_WINDOW);
        let (cluster, mut driver) = ClusterBuilder::new(WORKERS)
            .register::<HotBlock>()
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(0xE11_2026))
            .call_policy(call_policy)
            .build();
        let dir = driver.directory();
        let mut sup = Supervisor::new(LEASE, HOMES.to_vec(), dir);

        // Object k lives on HOMES[k % 3]; the hottest (k = 0) on machine 1,
        // which is the machine every fault variant kills.
        let mut addrs = Vec::with_capacity(NOBJ);
        for k in 0..NOBJ {
            let home = HOMES[k % HOMES.len()];
            let addr = symbolic_addr(&["e11", "HotBlock", &k.to_string()]);
            let b = HotBlockClient::new_on(&mut driver, home, N).unwrap();
            b.fill(&mut driver, (k + 1) as f64 * 0.5).unwrap();
            let backups: Vec<usize> = HOMES.iter().copied().filter(|&m| m != home).collect();
            sup.register(&mut driver, &addr, &b, &backups).unwrap();
            addrs.push(addr);
        }
        const VICTIM: usize = 1;
        let peers: Vec<usize> = (0..=WORKERS).filter(|&p| p != VICTIM).collect();
        // A few real heartbeat rounds before the first strike.
        for _ in 0..8 {
            sup.step(&mut driver).unwrap();
            driver.serve_for(Duration::from_millis(3));
        }

        let mut zipf = Zipf::new(0xE11_2026, NOBJ, ZIPF_S);
        let mut recoveries = Vec::new();
        let mut write_retries = 0u64;
        let mut failed_reads = 0u64;
        let t0 = driver.now_nanos();
        for round in 0..ROUNDS {
            if fault != Fault::None && round == ROUNDS / 2 {
                // Checkpoint, then strike: every acknowledged write is in a
                // replicated snapshot before the home goes dark, so the
                // takeover incarnation resumes with nothing lost.
                sup.checkpoint(&mut driver);
                match fault {
                    Fault::Crash => cluster.sim().faults().crash(VICTIM),
                    Fault::Partition => cluster.sim().faults().isolate(VICTIM, &peers),
                    Fault::None => unreachable!(),
                }
            }
            for _ in 0..CALLS {
                // A driver-resident supervisor is a cooperative controller:
                // it must be stepped *within* the round too, or a long
                // round of synchronous calls would starve the heartbeat
                // pump past the lease and fail the whole cluster.
                recoveries.extend(sup.step(&mut driver).unwrap());
                let k = zipf.sample();
                let target = HotBlockClient::from_ref(sup.current_of(&addrs[k]).unwrap());
                // `work` is read-only; a call that dies with the machine is
                // counted and dropped, not replayed (the client would
                // re-issue it in a real system — either way no state moves).
                if target.work(&mut driver, SERVICE_US).is_err() {
                    failed_reads += 1;
                    recoveries.extend(sup.step(&mut driver).unwrap());
                }
            }
            // The one mutation per round must land exactly once: retry
            // through re-resolution until an incarnation acknowledges it.
            // At-most-once dedup plus epoch fencing make the retries safe.
            let delta = round as f64 * 0.5 + 0.125;
            let kw = round % NOBJ;
            loop {
                let target = HotBlockClient::from_ref(sup.current_of(&addrs[kw]).unwrap());
                match target.bump(&mut driver, delta) {
                    Ok(()) => break,
                    Err(_) => {
                        write_retries += 1;
                        recoveries.extend(sup.step(&mut driver).unwrap());
                        driver.serve_for(Duration::from_millis(5));
                    }
                }
            }
            recoveries.extend(sup.step(&mut driver).unwrap());
        }
        let elapsed = Duration::from_nanos(driver.now_nanos() - t0);

        // Heal and readmit: the witness below reads from every machine.
        cluster.sim().faults().heal_all();
        let deadline = simnet::time::after(driver.now_nanos(), Duration::from_secs(30));
        while fault != Fault::None && sup.is_dead(VICTIM) {
            assert!(driver.now_nanos() < deadline, "readmission stalled");
            sup.step(&mut driver).unwrap();
            driver.serve_for(Duration::from_millis(2));
        }

        let mut data = Vec::with_capacity(NOBJ * N);
        for addr in &addrs {
            let b = HotBlockClient::from_ref(sup.current_of(addr).unwrap());
            data.extend(b.read(&mut driver).unwrap().0);
        }
        let fenced: u64 = (0..WORKERS)
            .map(|m| driver.stats_of(m).unwrap().calls_fenced)
            .sum();
        let stats = sup.stats();
        assert_eq!(stats.names_poisoned, 0, "supervision gave up: {stats:?}");
        let recovered = recoveries.len() as u64;
        let (detect, reactivate) = if recoveries.is_empty() {
            (Duration::ZERO, Duration::ZERO)
        } else {
            let d: Duration = recoveries.iter().map(|r| r.detect).sum();
            let t: Duration = recoveries.iter().map(|r| r.total).sum();
            (d / recovered as u32, (t - d) / recovered as u32)
        };
        cluster.shutdown(driver);
        Outcome {
            data,
            elapsed,
            detect,
            reactivate,
            recovered,
            false_suspicions: stats.false_suspicions,
            fenced,
            write_retries,
            failed_reads,
        }
    };

    let baseline = run(Fault::None);
    let crashed = run(Fault::Crash);
    let partitioned = run(Fault::Partition);
    // MTTR is the lease by construction — the verdict waits for it, then
    // for the driver to come back from a 40 ms call into the dead machine
    // (at most two: the one in flight and the one that finds out) — and
    // reactivation from a replicated snapshot is next to nothing. No
    // acknowledged write is lost or doubled.
    for o in [&crashed, &partitioned] {
        assert!(
            o.detect >= LEASE && o.detect < LEASE + CALL_WINDOW * 2,
            "E11: detection took {:?}",
            o.detect
        );
        assert!(o.reactivate < Duration::from_millis(1));
        assert!((o.recovered, o.false_suspicions, o.write_retries) == (2, 1, 0));
        assert!(
            o.data == baseline.data,
            "E11: state diverged from fault-free"
        );
    }

    let mut t = Table::new(&[
        "variant",
        "modeled ms",
        "recovered",
        "MTTR detect ms",
        "MTTR reactivate ms",
        "false suspicions",
        "fenced calls",
        "write retries",
        "dropped reads",
        "matches fault-free",
    ]);
    for (name, o) in [
        ("fault-free", &baseline),
        ("crash mid-Zipf", &crashed),
        ("partition (false suspicion)", &partitioned),
    ] {
        t.row(&[
            name.into(),
            ms(o.elapsed),
            o.recovered.to_string(),
            format!("{:.1}", o.detect.as_secs_f64() * 1e3),
            format!("{:.1}", o.reactivate.as_secs_f64() * 1e3),
            o.false_suspicions.to_string(),
            o.fenced.to_string(),
            o.write_retries.to_string(),
            o.failed_reads.to_string(),
            if o.data == baseline.data { "yes" } else { "NO" }.into(),
        ]);
    }
    vec![t]
}

/// E12 (DESIGN.md §11): coherent read replication under a read-heavy
/// Zipf workload.
///
/// The head of the Zipf distribution is one read-hot object whose `work`
/// verb costs modeled device time; the tail objects are cheap metadata
/// reads on other machines. One process per object means the head
/// serializes behind a single mailbox no matter where placement puts it
/// — so the replica subsystem materializes k read replicas and the same
/// split-loop read batches fan out across them, scaling read throughput
/// ~linearly with k while ~2% writes keep landing at the primary under
/// write-through coherence (every read-your-writes probe must hit).
///
/// The chaos variant reruns the 4-replica workload and kills a replica
/// machine and then the *primary's* machine mid-run: the manager shrinks
/// the set, CAS-promotes a surviving replica, and the run must end with
/// the exact version count (exactly-once writes) and data byte-identical
/// to every fault-free variant.
///
/// Everything rides the seeded virtual clock (`HotBlock::work` charges
/// its service time there), so the makespans, the `>= 3x` gate and every
/// counter are the same on any host, and a second chaos run must replay
/// the first exactly.
pub fn e12_replication() -> Vec<Table> {
    use oopp::symbolic_addr;
    use replica::{CoherenceMode, ReplicaConfig, ReplicaManager};

    const WORKERS: usize = 6;
    const NOBJ: usize = 4; // Zipf universe: the hot head + 3 cheap tails
    const N: usize = 2048; // 16 KiB of f64 state in the hot object
    const SERVICE_US: u64 = 250;
    const ROUNDS: usize = 12;
    const READS: usize = 48; // per round; one write per round = ~2% writes
    const ZIPF_S: f64 = 1.2;
    const HOT_HOME: usize = 1; // machine 0 keeps the directory
    const COLD_HOMES: [usize; 3] = [2, 3, 4];
    const REPLICA_HOMES: [usize; 4] = [2, 3, 4, 5];
    const SEED: u64 = 0xE12_2026;

    #[derive(PartialEq, Debug)]
    struct Outcome {
        data: Vec<f64>,
        version: u64,
        makespan_nanos: u64,
        hot_reads: u64,
        replica_served: u64,
        syncs: u64,
        promotions: u64,
        ryw_misses: u64,
    }

    let run = |replicas: usize, chaos: bool| -> Outcome {
        let call_policy = CallPolicy::reliable(Duration::from_millis(60))
            .with_max_retries(2)
            .with_backoff(Backoff::fixed(Duration::from_millis(5)));
        let (cluster, mut driver) = ClusterBuilder::new(WORKERS)
            .register::<HotBlock>()
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(SEED))
            .call_policy(call_policy)
            .build();
        let dir = driver.directory();
        let name = symbolic_addr(&["e12", "HotBlock", "hot"]);
        let hot = HotBlockClient::new_on(&mut driver, HOT_HOME, N).unwrap();
        dir.bind(&mut driver, name.clone(), hot.obj_ref()).unwrap();
        let cold: Vec<HotBlockClient> = COLD_HOMES
            .iter()
            .map(|&m| HotBlockClient::new_on(&mut driver, m, 8).unwrap())
            .collect();
        let mut mgr = ReplicaManager::new(
            ReplicaConfig {
                mode: CoherenceMode::WriteThrough,
                lease: Duration::from_secs(30),
            },
            dir,
        );
        if replicas > 0 {
            mgr.replicate(&mut driver, &name, &hot, &REPLICA_HOMES[..replicas])
                .unwrap();
        }

        let mut zipf = Zipf::new(SEED, NOBJ, ZIPF_S);
        let mut hot_reads = 0u64;
        let mut ryw_misses = 0u64;
        let mut dead: Vec<usize> = Vec::new();
        let t0 = driver.now_nanos();
        for round in 0..ROUNDS {
            // The chaos schedule: first a replica dies, later the primary
            // itself. The harness plays the supervisor's declare-dead role
            // (E11 already proved detection); the manager does the rest.
            if chaos && (round == ROUNDS / 3 || round == 2 * ROUNDS / 3) {
                let victim = if round == ROUNDS / 3 {
                    REPLICA_HOMES[replicas - 1]
                } else {
                    mgr.primary_of(&name).unwrap().machine
                };
                let was_primary = mgr.primary_of(&name).unwrap().machine == victim;
                cluster.sim().faults().crash(victim);
                dead.push(victim);
                let promoted = mgr.handle_dead_machine(&mut driver, victim).unwrap();
                assert_eq!(
                    promoted.len(),
                    usize::from(was_primary),
                    "a dead primary must promote exactly one replica"
                );
            }
            let primary = mgr.primary_of(&name).unwrap_or(hot.obj_ref());
            let hot_now = HotBlockClient::from_ref(primary);

            // The split-loop read batch: issue every request before
            // awaiting any reply. Hot reads fan out over the replica set.
            let mut hot_pending = Vec::new();
            let mut cold_pending = Vec::new();
            for _ in 0..READS {
                let k = zipf.sample();
                if k == 0 {
                    hot_pending.push(hot_now.work_async(&mut driver, SERVICE_US).unwrap());
                } else {
                    cold_pending.push(cold[k - 1].version_async(&mut driver).unwrap());
                }
            }
            hot_reads += hot_pending.len() as u64;
            join(&mut driver, hot_pending).unwrap();
            join(&mut driver, cold_pending).unwrap();

            // The round's one write, and its read-your-writes witness: the
            // very next read — routed to a replica — must see the ack.
            hot_now
                .bump(&mut driver, round as f64 * 0.5 + 0.125)
                .unwrap();
            if hot_now.version(&mut driver).unwrap() != round as u64 + 1 {
                ryw_misses += 1;
            }
        }
        let makespan_nanos = driver.now_nanos() - t0;

        let primary = mgr.primary_of(&name).unwrap_or(hot.obj_ref());
        let hot_now = HotBlockClient::from_ref(primary);
        let data = hot_now.read(&mut driver).unwrap().0;
        let version = hot_now.version(&mut driver).unwrap();
        let live = (0..WORKERS).filter(|m| !dead.contains(m));
        let (mut replica_served, mut syncs) = (0u64, 0u64);
        for m in live {
            let s = driver.stats_of(m).unwrap();
            replica_served += s.replica_reads_served;
            syncs += s.replica_syncs_sent;
        }
        let promotions = mgr.stats().promotions;
        cluster.shutdown(driver);
        Outcome {
            data,
            version,
            makespan_nanos,
            hot_reads,
            replica_served,
            syncs,
            promotions,
            ryw_misses,
        }
    };

    let single = run(0, false);
    let two = run(2, false);
    let four = run(4, false);
    let chaos = run(4, true);

    let tp = |o: &Outcome| o.hot_reads as f64 / (o.makespan_nanos as f64 / 1e9);
    let mut t = Table::new(&[
        "variant",
        "modeled ms",
        "hot reads",
        "hot reads/s",
        "speedup",
        "RYW misses",
        "replica-served",
        "syncs",
        "promotions",
        "matches primary-only",
    ]);
    for (label, o) in [
        ("primary only", &single),
        ("2 replicas", &two),
        ("4 replicas", &four),
        ("4 replicas + chaos", &chaos),
    ] {
        assert_eq!(o.ryw_misses, 0, "{label}: read-your-writes violated");
        assert_eq!(
            o.version, ROUNDS as u64,
            "{label}: write acked more or less than once"
        );
        t.row(&[
            label.into(),
            ms(Duration::from_nanos(o.makespan_nanos)),
            o.hot_reads.to_string(),
            format!("{:.0}", tp(o)),
            format!("{:.1}x", tp(o) / tp(&single)),
            o.ryw_misses.to_string(),
            o.replica_served.to_string(),
            o.syncs.to_string(),
            o.promotions.to_string(),
            if o.data == single.data { "yes" } else { "NO" }.into(),
        ]);
    }
    assert_eq!(chaos.promotions, 1, "chaos run must promote a replica");
    assert_eq!(
        chaos,
        run(4, true),
        "same-seed chaos runs must replay the same makespan and counters"
    );
    assert!(
        chaos.data == single.data && four.data == single.data && two.data == single.data,
        "replicated runs must stay byte-identical to the primary-only run"
    );
    assert!(
        tp(&four) >= 3.0 * tp(&single),
        "4 replicas must lift read throughput >= 3x, got {:.2}x",
        tp(&four) / tp(&single)
    );
    vec![t]
}

/// A2: synchronization primitives — the oopp group barrier vs. the mplite
/// dissemination barrier and allreduce, same link costs.
pub fn a2_collectives() -> Table {
    let mut t = Table::new(&[
        "parties",
        "oopp barrier ms",
        "mplite barrier ms",
        "mplite allreduce ms",
    ]);
    for n in [2usize, 4, 8, 16] {
        // oopp: n Syncers + the driver entering a Barrier.
        let (cluster, mut driver) = ClusterBuilder::new(n)
            .register::<Syncer>()
            .sim_config(lan_config())
            .build();
        let barrier = BarrierClient::new_on(&mut driver, 0, n + 1).unwrap();
        let syncers: Vec<_> = (0..n)
            .map(|m| SyncerClient::new_on(&mut driver, m).unwrap())
            .collect();
        let oopp_time = modeled(cluster.sim().clock(), || {
            let pending: Vec<_> = syncers
                .iter()
                .map(|s| s.sync_async(&mut driver, barrier).unwrap())
                .collect();
            barrier.enter(&mut driver).unwrap();
            join(&mut driver, pending).unwrap();
        });
        cluster.shutdown(driver);

        // mplite barrier + allreduce.
        let mut cfg = lan_config();
        cfg.machines = n;
        let world = MpiWorld::new(cfg);
        let (times, _) = world.run(|c| {
            let t0 = c.now_nanos();
            c.barrier().unwrap();
            let t1 = c.now_nanos();
            c.allreduce_f64(c.rank() as f64).unwrap();
            (t1 - t0, c.now_nanos() - t1)
        });
        let slowest = |phase: fn(&(u64, u64)) -> u64| {
            Duration::from_nanos(times.iter().map(phase).max().expect("ranks"))
        };
        let (mp_barrier, mp_allred) = (slowest(|t| t.0), slowest(|t| t.1));
        // The structures, exactly: the centralized barrier is four
        // latencies whatever the fan-in (driver → syncer → barrier and
        // back), the dissemination barrier ⌈log₂ n⌉, the allreduce a
        // reduce and a broadcast down the same tree. The slack is bytes.
        let (lat, slack) = (lan().latency, Duration::from_micros(1) * n as u32);
        let rounds = n.next_power_of_two().trailing_zeros();
        for (what, time, latencies) in [
            ("oopp barrier", oopp_time, 4),
            ("mplite barrier", mp_barrier, rounds),
            ("mplite allreduce", mp_allred, 2 * rounds),
        ] {
            assert!(
                time >= lat * latencies && time < lat * latencies + slack,
                "A2 n={n}: {what} took {time:?}, expected {latencies} latencies"
            );
        }

        t.row(&[
            (n + 1).to_string(),
            ms(oopp_time),
            ms(mp_barrier),
            ms(mp_allred),
        ]);
    }
    t
}

/// A3 (§4): the `SetGroup` deep copy the paper recommends vs. the shallow
/// remote table it warns about — M peer dereferences each.
pub fn a3_deepcopy() -> Table {
    let mut t = Table::new(&["fan-out calls", "deep-copy ms", "shallow ms", "penalty"]);
    let n = 8usize;
    let (cluster, mut driver) = ClusterBuilder::new(n)
        .register::<GroupTable>()
        .sim_config(lan_config())
        .build();
    let clock = cluster.sim().clock();
    // The "group": one DoubleBlock per machine.
    let members: Vec<_> = (0..n)
        .map(|m| DoubleBlockClient::new_on(&mut driver, m, 64).unwrap())
        .collect();
    let table = GroupTableClient::new_on(
        &mut driver,
        0,
        members.iter().map(|m| m.obj_ref()).collect::<Vec<_>>(),
    )
    .unwrap();

    for calls in [8usize, 32, 128] {
        // Deep copy: the peer table is local; one round trip per call.
        let deep = modeled(clock, || {
            for i in 0..calls {
                let _ = members[i % n].get(&mut driver, 0).unwrap();
            }
        });
        // Shallow: every call first dereferences the remote table.
        let shallow = modeled(clock, || {
            for i in 0..calls {
                let r = table.get(&mut driver, i % n).unwrap();
                let _ = DoubleBlockClient::from_ref(r).get(&mut driver, 0).unwrap();
            }
        });
        // One extra round trip per use: twice the latency floor, and the
        // few bytes of a remote pointer on the wire.
        assert!(
            shallow > deep * 2 && shallow < deep * 2 + Duration::from_micros(1) * calls as u32,
            "A3 {calls} calls: shallow {shallow:?} vs deep {deep:?}"
        );
        t.row(&[
            calls.to_string(),
            ms(deep),
            ms(shallow),
            ratio(shallow, deep),
        ]);
    }
    cluster.shutdown(driver);
    t
}

/// E13 (DESIGN.md §13): M:N scheduler throughput on a skewed
/// workload, at 100× the E10 object population.
///
/// 1600 objects spread over 4 machines, a Zipf(0.9) client stream of
/// pipelined calls, each call costing 200µs of modeled compute. The run
/// repeats under the classic single-threaded engine and under pools of 1,
/// 2 and 4 worker lanes per machine; everything rides one virtual clock,
/// so "makespan" is the modeled completion time and the speedup column is
/// host-independent. The final per-object hit counts must be identical
/// across engines: whichever lane pops an object's token, no call to an
/// object is lost or served twice.
pub fn e13_sched() -> Vec<Table> {
    const MACHINES: usize = 4;
    const NOBJ: usize = 1600; // 100x E10's population
    const SERVICE_US: u64 = 200;
    const ROUNDS: usize = 24;
    const WINDOW: usize = 64; // pipelined calls in flight per round
    const ZIPF_S: f64 = 0.9;
    const SEED: u64 = 0xE13_2026;

    struct Outcome {
        makespan_nanos: u64,
        state: Vec<u64>,
    }

    // `lanes == 0` is the classic single-threaded engine; otherwise an
    // M:N pool of `lanes` worker lanes per machine.
    let run = |lanes: usize| -> Outcome {
        let (cluster, mut driver) = ClusterBuilder::new(MACHINES)
            .sched_workers(lanes)
            .register::<HotBlock>()
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(SEED))
            .call_policy(CallPolicy::reliable(Duration::from_millis(500)))
            .build();
        // Rank k lives on machine k % MACHINES, so the hottest ranks land
        // on distinct machines and the bottleneck is per-machine service
        // capacity — the thing the pool is supposed to multiply.
        let cells: Vec<_> = (0..NOBJ)
            .map(|k| HotBlockClient::new_on(&mut driver, k % MACHINES, 0).unwrap())
            .collect();

        let mut zipf = Zipf::new(SEED, NOBJ, ZIPF_S);
        let t0 = driver.now_nanos();
        for _ in 0..ROUNDS {
            let pending: Vec<_> = (0..WINDOW)
                .map(|_| {
                    let k = zipf.sample();
                    cells[k].work_async(&mut driver, SERVICE_US).unwrap()
                })
                .collect();
            join(&mut driver, pending).unwrap();
        }
        let makespan_nanos = driver.now_nanos() - t0;
        let state = cells
            .iter()
            .map(|c| c.probe(&mut driver).unwrap())
            .collect();
        cluster.shutdown(driver);
        Outcome {
            makespan_nanos,
            state,
        }
    };

    let calls = (ROUNDS * WINDOW) as f64;
    let mut t = Table::new(&[
        "engine",
        "lanes/machine",
        "virtual makespan",
        "modeled calls/s",
        "speedup vs 1 lane",
        "state identical",
    ]);
    let mut baseline_state: Option<Vec<u64>> = None;
    let mut one_lane_nanos = 0u64;
    for lanes in [0usize, 1, 2, 4] {
        let out = run(lanes);
        let same = match &baseline_state {
            None => {
                baseline_state = Some(out.state.clone());
                true
            }
            Some(b) => *b == out.state,
        };
        if lanes == 1 {
            one_lane_nanos = out.makespan_nanos;
        }
        let speedup = if lanes >= 1 && out.makespan_nanos > 0 {
            format!("{:.2}x", one_lane_nanos as f64 / out.makespan_nanos as f64)
        } else {
            "-".into()
        };
        t.row(&[
            if lanes == 0 { "inline" } else { "pool" }.into(),
            if lanes == 0 {
                "-".into()
            } else {
                lanes.to_string()
            },
            ms(Duration::from_nanos(out.makespan_nanos)),
            format!("{:.0}", calls / (out.makespan_nanos as f64 / 1e9)),
            speedup,
            if same { "yes" } else { "NO" }.into(),
        ]);
    }
    vec![t]
}

/// E14's workload object: a directory client that hammers the sharded
/// name service from its *own* machine, so load on the control plane is
/// concurrent across machines instead of pipelined out of the single
/// driver. The [`oopp::NameService`] facade is `Copy` and wire-encodable,
/// so the hammer receives the routing view by value in its constructor —
/// the same handle any application client holds.
#[derive(Debug)]
pub struct DirHammer {
    ns: oopp::NameService,
    prefix: String,
    count: u64,
    latencies_us: Vec<f64>,
    failed: u64,
}

oopp::remote_class! {
    class DirHammer {
        ctor(ns: oopp::NameService, prefix: String, count: u64);
        /// Resolve `ops` names round-robin through the facade, timing
        /// each on the cluster clock. Returns how many resolved; failed
        /// resolutions are counted, not fatal (a crash episode is part of
        /// the workload).
        fn run(&mut self, ops: u64) -> u64;
        /// `(failed, per-op latencies µs)` accumulated by `run` since the
        /// last drain — fetched after the measured window so the reply
        /// payload never rides inside it.
        fn drain(&mut self) -> F64s;
    }
}

impl DirHammer {
    pub fn new(
        _ctx: &mut oopp::NodeCtx,
        ns: oopp::NameService,
        prefix: String,
        count: u64,
    ) -> oopp::RemoteResult<Self> {
        Ok(DirHammer {
            ns,
            prefix,
            count,
            latencies_us: Vec::new(),
            failed: 0,
        })
    }

    fn run(&mut self, ctx: &mut oopp::NodeCtx, ops: u64) -> oopp::RemoteResult<u64> {
        let mut ok = 0;
        for i in 0..ops {
            let name = format!("{}/{}", self.prefix, i % self.count);
            let t0 = ctx.now_nanos();
            match self.ns.lookup(ctx, name) {
                Ok(Some(_)) => {
                    ok += 1;
                    self.latencies_us
                        .push(ctx.now_nanos().saturating_sub(t0) as f64 / 1e3);
                }
                Ok(None) | Err(_) => self.failed += 1,
            }
        }
        Ok(ok)
    }

    fn drain(&mut self, _ctx: &mut oopp::NodeCtx) -> oopp::RemoteResult<F64s> {
        let mut out = vec![self.failed as f64];
        out.append(&mut self.latencies_us);
        self.failed = 0;
        Ok(F64s(out))
    }
}

/// E14 (DESIGN.md §14): sharded control plane — directory ops/s vs shard
/// count, and resolve latency through a shard-primary crash.
///
/// The fabric is deliberately thin (20 µs latency, 10 Mb/s links) so the
/// *directory machine's inbound link* is the bottleneck, the way a real
/// control-plane node saturates. Eight hammer objects resolve pre-bound
/// names concurrently through the `NameService` facade; with one shard
/// every stream converges on the root's machine and serializes on its
/// link, with `n` shards the same traffic spreads over `n` machines'
/// links. The scaling table must show ≥ 2× ops/s at 4 shards vs 1 (the
/// PR's acceptance gate, asserted here so `reproduce e14` enforces it).
///
/// The chaos table re-runs a 4-shard layout under a `DirService` control
/// loop and crashes shard 1's machine mid-wave: resolves that hit the
/// lost shard ride `NameService`'s re-resolve/retry loop through
/// detection, snapshot takeover, and the seat rebind — the p99 stays at
/// the healthy tail and the worst op costs one detection + takeover
/// window. Everything runs on the seeded virtual clock, so every number
/// in both tables is deterministic.
pub fn e14_dirsvc() -> Vec<Table> {
    use dirsvc::{DirService, DirServiceConfig};

    const MACHINES: usize = 8;
    const NAMES: u64 = 64;
    const WAVE: u64 = 400;
    const SEED: u64 = 0xE14_2026;
    const PREFIX: &str = "oopp://e14/name";

    // 20 µs one-way, 10 Mb/s: a control-plane frame of ~100 B costs ~80 µs
    // of per-receiver transfer, so concurrent resolves aimed at one
    // machine queue on its link — the resource sharding multiplies.
    let thin_net = || ClusterConfig::lan(0, 20, 0.01);

    // The deployment both phases share: the names bound, and a warmed hammer
    // on each of `machines` — one pass fills its resolve cache with the shard
    // seats, and the warm latencies are discarded.
    let deploy = |driver: &mut oopp::Driver, machines: std::ops::Range<usize>| {
        let ns = driver.directory();
        for i in 0..NAMES {
            let target = oopp::ObjRef {
                machine: i as usize % MACHINES,
                object: 40_000 + i,
            };
            ns.bind(driver, format!("{PREFIX}/{i}"), target).unwrap();
        }
        let hammers: Vec<_> = machines
            .map(|m| DirHammerClient::new_on(driver, m, ns, PREFIX.into(), NAMES).unwrap())
            .collect();
        for h in &hammers {
            h.run(driver, NAMES).unwrap();
            h.drain(driver).unwrap();
        }
        hammers
    };
    // What a wave measured, as one tally: every hammer's resolve latencies
    // and its count of failed resolves.
    let harvest = |driver: &mut oopp::Driver, hammers: &[DirHammerClient]| {
        let (mut failed, mut lat_us) = (0, Vec::new());
        for h in hammers {
            let mut d = h.drain(driver).unwrap().0;
            failed += d.remove(0) as u64;
            lat_us.extend(d);
        }
        let mut resolves = ClassLedger::of_completed(lat_us);
        resolves.issued += failed;
        resolves.other = failed;
        resolves
    };

    struct Run {
        ops_per_sec: f64,
        resolves: ClassLedger,
        cache_hits: u64,
        cache_misses: u64,
    }

    // One scaling measurement: `shards == 0` is the classic single
    // directory, otherwise a partitioned one. No faults, no control loop —
    // this phase measures the data path alone.
    let scale_run = |shards: u32| -> Run {
        let (cluster, mut driver) = ClusterBuilder::new(MACHINES)
            .dir_shards(shards)
            .register::<DirHammer>()
            .sim_config(thin_net().with_virtual_time(SEED))
            .call_policy(CallPolicy::reliable(Duration::from_millis(250)))
            .build();
        let hammers = deploy(&mut driver, 0..MACHINES);
        let t0 = driver.now_nanos();
        let pending: Vec<_> = hammers
            .iter()
            .map(|h| h.run_async(&mut driver, WAVE).unwrap())
            .collect();
        join(&mut driver, pending).unwrap();
        let makespan = driver.now_nanos() - t0;

        let resolves = harvest(&mut driver, &hammers);
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for m in 0..MACHINES {
            let st = driver.stats_of(m).unwrap();
            cache_hits += st.dir_cache_hits;
            cache_misses += st.dir_cache_misses;
        }
        cluster.shutdown(driver);
        Run {
            ops_per_sec: (MACHINES as u64 * WAVE) as f64 / (makespan as f64 / 1e9),
            resolves,
            cache_hits,
            cache_misses,
        }
    };

    let mut scaling = Table::new(&[
        "directory",
        "shards",
        "resolves/s",
        "speedup vs 1 shard",
        "p50 us",
        "p99 us",
        "cache hits",
        "cache misses",
        "failed",
    ]);
    let mut base_ops = 0.0;
    let mut ops_at_4 = 0.0;
    for shards in [0u32, 1, 2, 4, 8] {
        let r = scale_run(shards);
        if shards == 1 {
            base_ops = r.ops_per_sec;
        }
        if shards == 4 {
            ops_at_4 = r.ops_per_sec;
        }
        let speedup = if shards >= 1 && base_ops > 0.0 {
            format!("{:.2}x", r.ops_per_sec / base_ops)
        } else {
            "-".into()
        };
        scaling.row(&[
            if shards == 0 { "classic" } else { "sharded" }.into(),
            if shards == 0 {
                "-".into()
            } else {
                shards.to_string()
            },
            format!("{:.0}", r.ops_per_sec),
            speedup,
            format!("{:.0}", r.resolves.percentile_us(0.50)),
            format!("{:.0}", r.resolves.percentile_us(0.99)),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.resolves.other.to_string(),
        ]);
    }
    assert!(
        ops_at_4 >= 2.0 * base_ops,
        "E14 gate: 4 shards must deliver >= 2x the resolves/s of 1 shard \
         (got {ops_at_4:.0} vs {base_ops:.0})"
    );

    // Chaos phase: 4 shards on machines 0–3, hammers on 4–7, a DirService
    // control loop stepped by the driver, and (in the crash row) machine 1
    // — shard 1's primary — crashed 100 ms into the wave.
    const CHAOS_SHARDS: u32 = 4;
    const CHAOS_OPS: u64 = 2000;
    let chaos_run = |crash: bool| -> (ClassLedger, u64, u64) {
        let (cluster, mut driver) = ClusterBuilder::new(MACHINES)
            .dir_shards(CHAOS_SHARDS)
            .register::<DirHammer>()
            .sim_config(thin_net().with_virtual_time(SEED ^ 0xC4A5))
            .call_policy(
                CallPolicy::reliable(Duration::from_millis(100))
                    .with_max_retries(2)
                    .with_backoff(Backoff::fixed(Duration::from_millis(5))),
            )
            .build();
        let ns = driver.directory();
        let mut svc = DirService::new(
            DirServiceConfig {
                read_replicas: 0,
                lease_ttl: Duration::from_millis(500),
                ..DirServiceConfig::default()
            },
            vec![1, 2, 3],
            ns,
        );
        assert_eq!(svc.attach(&mut driver).unwrap(), CHAOS_SHARDS as usize);
        let hammers = deploy(&mut driver, 4..MACHINES);
        // One step sends the first heartbeats (it does not wait for their
        // acks), then snapshot every partition: takeover restores the last
        // checkpoint, which must include every binding.
        svc.step(&mut driver).unwrap();
        assert_eq!(svc.checkpoint(&mut driver), CHAOS_SHARDS as usize);

        let t0 = driver.now_nanos();
        let pending: Vec<_> = hammers
            .iter()
            .map(|h| h.run_async(&mut driver, CHAOS_OPS).unwrap())
            .collect();
        let step_until = |driver: &mut oopp::Driver, svc: &mut DirService, until: u64| {
            while driver.now_nanos() < until {
                svc.step(driver).unwrap();
                driver.serve_for(Duration::from_millis(2));
            }
        };
        step_until(&mut driver, &mut svc, t0 + 100_000_000);
        if crash {
            cluster.sim().faults().crash(1);
        }
        // Fixed drive-out window — detection (one lease), takeover, and
        // the post-heal tail all fit; fixed so the schedule is replayable.
        step_until(&mut driver, &mut svc, t0 + 2_000_000_000);
        join(&mut driver, pending).unwrap();
        let resolves = harvest(&mut driver, &hammers);
        let stats = svc.supervisor().stats();
        cluster.shutdown(driver);
        (
            resolves,
            stats.objects_reactivated,
            stats.machines_declared_dead,
        )
    };

    let mut chaos = Table::new(&[
        "episode",
        "resolves",
        "failed",
        "p50 us",
        "p99 us",
        "max ms",
        "takeovers",
        "dead machines",
    ]);
    for crash in [false, true] {
        let (r, takeovers, dead) = chaos_run(crash);
        chaos.row(&[
            if crash {
                "shard-1 primary crash at t+100ms"
            } else {
                "calm"
            }
            .into(),
            r.ok.to_string(),
            r.other.to_string(),
            format!("{:.0}", r.percentile_us(0.50)),
            format!("{:.0}", r.percentile_us(0.99)),
            format!("{:.1}", r.percentile_us(1.0) / 1e3),
            takeovers.to_string(),
            dead.to_string(),
        ]);
    }

    vec![scaling, chaos]
}

/// E15 (DESIGN.md §15): graceful degradation under overload.
///
/// Three claims, three tables, all on the seeded virtual clock:
///
/// **Goodput sweep.** A closed-loop Zipf(0.9) stream over 16 [`HotBlock`]
/// objects (200 µs of modeled service each) on 4 machines × 2 lanes, with
/// per-call 2 ms deadlines and 16-deep mailbox caps. The in-flight window
/// sweeps from far below saturation to 4× past it; the offered column is
/// the window relative to the ~1× saturation point. Past capacity the
/// *extra* offered load is shed — at admission (`Overloaded`) when a
/// mailbox is full, at execution (`DeadlineExceeded`) when queued work
/// outlives its budget — so goodput plateaus instead of collapsing, the
/// completion tail of *successful* calls stays bounded near the deadline,
/// and a shed request costs its caller microseconds, not a queue drain
/// (the fail-fast probe column). Latencies are closed-loop completion
/// times observed at the driver (FIFO wait order), so they upper-bound
/// the true reply latency.
///
/// **Bounded tail.** The 4×-overload point re-run with shedding disabled
/// (default generous caps, no deadline): every call eventually lands, but
/// the p99 rides the hot object's unbounded queue. The degradation knobs
/// buy a bounded tail at the same order of goodput.
///
/// **Load-spike episode.** One machine's inbound link spiked a full
/// second; a 20 ms / 1-retry policy with a circuit breaker (trip at 3,
/// 50 ms cooldown) degrades in the documented order — enriched timeouts
/// (attempts + elapsed, the columns of this table), then client-side
/// breaker fast-fails that never touch the network, then a half-open
/// trial re-closes the breaker after the spike lifts and every call lands
/// again.
pub fn e15_overload() -> Vec<Table> {
    const MACHINES: usize = 4;
    const LANES: usize = 2;
    const NOBJ: usize = 16;
    const SERVICE_US: u64 = 200;
    const TOTAL_CALLS: usize = 3000;
    const BASE_WINDOW: usize = 32; // ~saturation: 8 lanes + queue headroom
    const ZIPF_S: f64 = 0.9;
    const SEED: u64 = 0xE15_2026;
    const DEADLINE: Duration = Duration::from_millis(2);
    const MAILBOX_CAP: usize = 16;

    struct Run {
        tally: ClassLedger, // closed-loop completion times
        goodput: f64,
        shed_lat: ClassLedger, // fail-fast probe rejections
        sample_overloaded: Option<String>,
        sample_deadline: Option<String>,
    }

    // One closed-loop measurement at a fixed in-flight window. `shed`
    // arms the degradation knobs; `false` is the fail-slow baseline.
    let run = |window: usize, shed: bool| -> Run {
        let overload = if shed {
            OverloadConfig {
                mailbox_cap: MAILBOX_CAP,
                ..OverloadConfig::new()
            }
        } else {
            OverloadConfig::new()
        };
        let (cluster, mut driver) = ClusterBuilder::new(MACHINES)
            .sched_workers(LANES)
            .register::<HotBlock>()
            .overload(overload)
            .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(SEED))
            .call_policy(CallPolicy::reliable(Duration::from_millis(250)))
            .build();
        let cells: Vec<_> = (0..NOBJ)
            .map(|k| HotBlockClient::new_on(&mut driver, k % MACHINES, 0).unwrap())
            .collect();
        let policy = CallPolicy::reliable(Duration::from_millis(250));
        driver.set_call_policy(if shed {
            policy.with_deadline(DEADLINE)
        } else {
            policy
        });

        let (mut sample_overloaded, mut sample_deadline) = (None, None);
        let mut shed_lat_us = Vec::new();
        let mut zipf = Zipf::new(SEED ^ (window as u64) << 1 ^ shed as u64, NOBJ, ZIPF_S);
        let mut issued = 0usize;
        let mut load = ClosedLoop::new(TOTAL_CALLS, driver.now_nanos());
        while load.running() {
            if load.has_room(window) {
                let call = cells[zipf.sample()].work_async(&mut driver, SERVICE_US);
                load.issue(&driver, ReqClass::Read, driver.now_nanos(), call);
                issued += 1;
                // Fail-fast witness: every 64th issue, one *synchronous*
                // call at the hottest object, timed in isolation. When its
                // mailbox is full the rejection must cost the caller far
                // less than one service time.
                if shed && issued.is_multiple_of(64) {
                    let s0 = driver.now_nanos();
                    if let Err(RemoteError::Overloaded { .. }) =
                        cells[0].work(&mut driver, SERVICE_US)
                    {
                        shed_lat_us.push(driver.now_nanos().saturating_sub(s0) as f64 / 1e3);
                    }
                }
                continue;
            }
            match load.retire(&mut driver) {
                Ok(_) | Err(RemoteError::Timeout { .. }) => {}
                Err(e @ RemoteError::Overloaded { .. }) => {
                    sample_overloaded.get_or_insert_with(|| e.to_string());
                }
                Err(e @ RemoteError::DeadlineExceeded { .. }) => {
                    sample_deadline.get_or_insert_with(|| e.to_string());
                }
                Err(e) => panic!("unexpected E15 error class: {e}"),
            }
        }
        let ledger = load.finish(driver.now_nanos());
        cluster.shutdown(driver);
        assert_eq!(ledger.read.other, 0, "E15: a call failed at issue");
        Run {
            goodput: ledger.read.ok as f64 / ((ledger.t1_nanos - ledger.t0_nanos) as f64 / 1e9),
            tally: ledger.read,
            shed_lat: ClassLedger::of_completed(shed_lat_us),
            sample_overloaded,
            sample_deadline,
        }
    };

    let mut sweep = Table::new(&[
        "offered",
        "window",
        "ok",
        "shed overload",
        "shed deadline",
        "timeout",
        "goodput calls/s",
        "ok p50 us",
        "ok p99 us",
        "reject p99 us",
    ]);
    let mut peak = 0.0f64;
    let mut past_capacity: Vec<(usize, Run)> = Vec::new();
    for window in [8usize, 16, 32, 64, 128] {
        let r = run(window, true);
        peak = peak.max(r.goodput);
        sweep.row(&[
            format!("{:.2}x", window as f64 / BASE_WINDOW as f64),
            window.to_string(),
            r.tally.ok.to_string(),
            r.tally.overloaded.to_string(),
            r.tally.deadline.to_string(),
            r.tally.timeout.to_string(),
            format!("{:.0}", r.goodput),
            format!("{:.0}", r.tally.percentile_us(0.50)),
            format!("{:.0}", r.tally.percentile_us(0.99)),
            format!("{:.1}", r.shed_lat.percentile_us(0.99)),
        ]);
        if window >= 2 * BASE_WINDOW {
            past_capacity.push((window, r));
        }
    }
    for (window, r) in &past_capacity {
        assert!(
            r.goodput >= 0.8 * peak,
            "E15 gate: goodput at {window} in-flight ({:.0}/s) must stay within \
             20% of the peak ({peak:.0}/s) — shedding failed to protect capacity",
            r.goodput
        );
        assert!(
            r.tally.percentile_us(0.99) <= 5.0 * DEADLINE.as_micros() as f64,
            "E15 gate: past capacity the successful-call p99 must stay near the \
             deadline, got {:.0} us",
            r.tally.percentile_us(0.99)
        );
    }
    let top = &past_capacity.last().unwrap().1;
    assert!(
        top.tally.overloaded + top.tally.deadline > 0,
        "E15 gate: the 4x point must actually shed load"
    );
    assert!(
        top.shed_lat.issued > 0 && top.shed_lat.percentile_us(0.99) < SERVICE_US as f64,
        "E15 gate: a shed request must fail fast (p99 {:.1} us vs {SERVICE_US} us \
         of service)",
        top.shed_lat.percentile_us(0.99)
    );

    // Bounded-tail comparison at the 4x point: shedding on vs off.
    let mut tail = Table::new(&[
        "config",
        "ok",
        "shed",
        "goodput calls/s",
        "ok p99 us",
        "ok max us",
    ]);
    let unbounded = run(4 * BASE_WINDOW, false);
    for (label, r) in [
        ("shed + 2ms deadline", top),
        ("fail-slow baseline", &unbounded),
    ] {
        tail.row(&[
            label.into(),
            r.tally.ok.to_string(),
            (r.tally.overloaded + r.tally.deadline).to_string(),
            format!("{:.0}", r.goodput),
            format!("{:.0}", r.tally.percentile_us(0.99)),
            format!("{:.0}", r.tally.percentile_us(1.0)),
        ]);
    }
    assert_eq!(
        unbounded.tally.overloaded + unbounded.tally.deadline,
        0,
        "the baseline must queue everything"
    );
    assert!(
        top.tally.percentile_us(0.99) < unbounded.tally.percentile_us(0.99),
        "E15 gate: degradation knobs must buy a strictly better tail than the \
         fail-slow baseline"
    );

    // Load-spike episode: enriched timeouts, breaker fast-fails, recovery.
    const PHASE_CALLS: usize = 10;
    struct Phase {
        label: &'static str,
        ok: u64,
        timeout: u64,
        fast_fail: u64,
        attempts: Vec<f64>,
        elapsed_ms: Vec<f64>,
        sample_timeout: Option<String>,
        sample_fast_fail: Option<String>,
    }
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<HotBlock>()
        .sim_config(ClusterConfig::zero_cost(0).with_virtual_time(SEED ^ 0x5B1))
        .call_policy(CallPolicy::reliable(Duration::from_millis(100)))
        .build();
    let cell = HotBlockClient::new_on(&mut driver, 1, 0).unwrap();
    driver.set_call_policy(
        CallPolicy::reliable(Duration::from_millis(20))
            .with_max_retries(1)
            .with_backoff(Backoff::fixed(Duration::from_millis(5)))
            .with_breaker(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(50),
            }),
    );
    let mut phases = Vec::new();
    for label in ["healthy", "spiked 1s", "spike lifted"] {
        match label {
            "spiked 1s" => cluster.sim().faults().spike(1, Duration::from_secs(1)),
            "spike lifted" => {
                cluster.sim().faults().unspike(1);
                driver.serve_for(Duration::from_secs(3)); // drain + cooldown
            }
            _ => {}
        }
        let mut ph = Phase {
            label,
            ok: 0,
            timeout: 0,
            fast_fail: 0,
            attempts: Vec::new(),
            elapsed_ms: Vec::new(),
            sample_timeout: None,
            sample_fast_fail: None,
        };
        for _ in 0..PHASE_CALLS {
            match cell.work(&mut driver, 50) {
                Ok(_) => ph.ok += 1,
                Err(e @ RemoteError::Timeout { .. }) => {
                    if let RemoteError::Timeout {
                        attempts, millis, ..
                    } = e
                    {
                        ph.attempts.push(attempts as f64);
                        ph.elapsed_ms.push(millis as f64);
                    }
                    ph.timeout += 1;
                    ph.sample_timeout.get_or_insert_with(|| e.to_string());
                }
                Err(e @ RemoteError::Overloaded { queue_depth: 0, .. }) => {
                    ph.fast_fail += 1;
                    ph.sample_fast_fail.get_or_insert_with(|| e.to_string());
                }
                Err(e) => panic!("unexpected spike-episode error: {e}"),
            }
        }
        phases.push(ph);
    }
    cluster.shutdown(driver);

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let mut spike = Table::new(&[
        "phase",
        "calls",
        "ok",
        "timeout",
        "breaker fast-fail",
        "timeout attempts (mean)",
        "timeout elapsed ms (mean)",
    ]);
    for ph in &phases {
        spike.row(&[
            ph.label.into(),
            PHASE_CALLS.to_string(),
            ph.ok.to_string(),
            ph.timeout.to_string(),
            ph.fast_fail.to_string(),
            format!("{:.1}", mean(&ph.attempts)),
            format!("{:.1}", mean(&ph.elapsed_ms)),
        ]);
    }
    assert_eq!(phases[0].ok, PHASE_CALLS as u64, "healthy phase must land");
    assert!(
        phases[1].timeout >= 3 && phases[1].fast_fail >= 1,
        "the spike must cost enriched timeouts, then breaker fast-fails"
    );
    assert!(
        phases[1].attempts.iter().all(|&a| a == 2.0),
        "every spiked timeout must report its retransmission (attempts == 2)"
    );
    assert_eq!(
        phases[2].ok, PHASE_CALLS as u64,
        "after the spike the breaker must re-close and serve"
    );

    // Degradation anatomy: every failure class with its rendered error —
    // queue depths, backoff hints, budget overshoots, attempt counts all
    // ride the wire and land in the caller's hands.
    let mut anatomy = Table::new(&["class", "count", "example (as seen by the caller)"]);
    let spiked = &phases[1];
    for (class, count, example) in [
        (
            "server shed: mailbox/in-flight",
            top.tally.overloaded,
            top.sample_overloaded.clone(),
        ),
        (
            "server shed: deadline expired",
            top.tally.deadline,
            top.sample_deadline.clone(),
        ),
        (
            "client timeout (enriched)",
            spiked.timeout,
            spiked.sample_timeout.clone(),
        ),
        (
            "client breaker fast-fail",
            spiked.fast_fail,
            spiked.sample_fast_fail.clone(),
        ),
    ] {
        anatomy.row(&[
            class.into(),
            count.to_string(),
            example.unwrap_or_else(|| "-".into()),
        ]);
    }

    vec![sweep, tail, spike, anatomy]
}

/// E16: the macro-workload serving scenario — every subsystem shipped so
/// far composed under one SLO-judged closed loop (DESIGN.md §16).
///
/// A social-graph session store (users, sessions, feeds; Zipf-popular
/// keys, read-heavy with write bursts) runs on the sharded directory
/// with the hot feed read-replicated, the balancer rebalancing around
/// the replicated primary, and admission control + deadlines + breakers
/// armed — while the fault injector kills the hot feed's home machine
/// and latency-spikes the replica that inherits its reads. The asserted
/// claims: the SLO gates (read/write p99 and goodput floors) hold
/// through the chaos schedule, the dead primary promotes exactly once,
/// and the entire run — tables, percentiles, verdicts — replays
/// byte-identically from one seed.
///
/// Scale knobs: `SIMNET_SEED` replays a different schedule;
/// `OOPP_E16_LONG=1` runs the nightly-sized scenario (10x requests).
pub fn e16_workload() -> Vec<Table> {
    use workload::{config::ScenarioSpec, loadgen::ArrivalCurve, runner};

    let long = std::env::var("OOPP_E16_LONG").is_ok_and(|v| v == "1");
    let spec = ScenarioSpec {
        requests: if long { 24_000 } else { 2_400 },
        curve: ArrivalCurve::Diurnal {
            period_ms: 400,
            trough: 0.4,
        },
        crash_at_ms: 15,
        spike_at_ms: 30,
        spike_dur_ms: if long { 150 } else { 10 },
        spike_extra_ms: 2,
        ..ScenarioSpec::default()
    };

    let a = runner::run(&spec);
    let b = runner::run(&spec);

    // The composition claims, asserted.
    assert_eq!(
        a.promotions, 1,
        "the crashed hot-feed home must promote exactly one replica"
    );
    assert!(
        a.report.passed(),
        "SLO gates must hold through crash + spike:\n{}",
        a.report.render()
    );
    assert_eq!(
        a.report.render(),
        b.report.render(),
        "same-seed E16 runs must produce byte-identical reports"
    );
    assert_eq!(
        a.ledger.to_csv(),
        b.ledger.to_csv(),
        "same-seed E16 runs must produce byte-identical ledgers"
    );
    if a.account.dropped_events == 0 {
        assert_eq!(
            a.trace_ledger.read.ok + a.trace_ledger.write.ok,
            a.ledger.read.ok + a.ledger.write.ok,
            "trace-derived completions must match the client ledger"
        );
        assert_audit_clean(&a.trace, "E16");
    }

    let verdicts = workload::report::verdict_table(&a.report.verdicts);
    let sections = a.report.sections.into_iter().map(|(_, table)| table);
    sections.chain([verdicts]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A migrated, reactivated or replicated `HotBlock` is its snapshot:
    /// the data and both witnesses travel, and bytes nobody wrote are a
    /// `Decode` error, never a panic.
    #[test]
    fn hot_block_snapshot_round_trips_and_refuses_junk() {
        let (cluster, mut driver) = ClusterBuilder::new(1).build();
        let mut block = HotBlock::new(&mut driver, 3).unwrap();
        block.fill(&mut driver, -0.0).unwrap();
        for round in 0..300 {
            block.work(&mut driver, 0).unwrap();
            if round % 100 == 0 {
                block.bump(&mut driver, 0.25).unwrap();
            }
        }
        let bytes = block.save_state();
        let back = HotBlock::load_state(&mut driver, &bytes).unwrap();
        assert_eq!(back.data, [0.75; 3]);
        assert_eq!((back.writes, back.hits), (3, 300), "a two-byte varint too");
        assert_eq!(back.save_state(), bytes);

        let mut junk: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        junk.push([bytes.as_slice(), &[0]].concat());
        junk.push(vec![0xff; 32]);
        // A length that promises 2^40 doubles in a handful of bytes.
        junk.push(wire::to_bytes(&(V64(1), V64(1), V64(1 << 40))));
        for bad in junk {
            let refused = HotBlock::load_state(&mut driver, &bad);
            assert!(
                matches!(refused, Err(RemoteError::Decode { .. })),
                "{bad:?} loaded as {refused:?}"
            );
        }
        cluster.shutdown(driver);
    }
}
