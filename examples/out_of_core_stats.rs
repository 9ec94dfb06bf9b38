//! Out-of-core array analytics (§3 + §5): a 3-D dataset spread over many
//! devices, reduced both ways — moving the data to the computation and
//! moving the computation to the data — and then with parallel clients.
//!
//! ```text
//! cargo run --release --example out_of_core_stats
//! ```

use std::time::Duration;

use distarray::{parallel_sum, register_classes, Array, BlockStorage, PageMap};
use oopp::ClusterBuilder;
use simnet::{ClusterConfig, NetCost};

fn main() {
    // A costed network so the two strategies differ measurably — on the
    // virtual clock, where costs are charged: every time below is modeled.
    let workers = 4;
    let config = ClusterConfig {
        machines: 0,                  // overridden by the builder
        link: NetCost::lan(50, 10.0), // 50µs, 10 Gb/s
        disk: simnet::DiskConfig::nvme(),
        disks_per_machine: 1,
        disk_capacity: 256 << 20,
        faults: simnet::FaultPlan::none(),
        time: simnet::TimeMode::Virtual { seed: 42 },
    };
    let (cluster, mut driver) = register_classes(ClusterBuilder::new(workers))
        .sim_config(config)
        .build();
    let clock = cluster.sim().clock();
    let since = |t0: u64| Duration::from_nanos(clock.now_nanos() - t0);

    // A 64 x 64 x 64 array in 16³ pages over 8 devices (2 per machine).
    let n = [64u64, 64, 64];
    let p = [16u64, 16, 16];
    let grid = [4u64, 4, 4];
    let devices = 4u64;
    let map = PageMap::round_robin(grid, devices);
    let storage = BlockStorage::create(
        &mut driver,
        "dataset",
        devices as usize,
        map.pages_per_device(),
        p[0],
        p[1],
        p[2],
        1,
    )
    .expect("create block storage");
    let array = Array::new(n, p, storage, map).expect("assemble array");
    println!(
        "dataset: {}x{}x{} doubles ({} MiB) over {} devices",
        n[0],
        n[1],
        n[2],
        n[0] * n[1] * n[2] * 8 / (1 << 20),
        devices
    );

    // Load a synthetic field: f(i,j,k) varies so reductions are checkable.
    let whole = array.whole();
    let data: Vec<f64> = (0..array.len())
        .map(|i| ((i % 1000) as f64) / 100.0)
        .collect();
    let t = clock.now_nanos();
    array
        .write(&mut driver, &whole, &data)
        .expect("load dataset");
    println!("loaded in {:?}", since(t));
    let expected: f64 = data.iter().sum();

    // Strategy A (§3): move the computation to the data — device-side
    // partial sums, 8 bytes back per page.
    let t = clock.now_nanos();
    let device_side = array.sum(&mut driver, &whole).expect("device-side sum");
    let ta = since(t);

    // Strategy B: move the data to the computation — ship every page to
    // the driver and sum locally.
    let t = clock.now_nanos();
    let client_side = array
        .sum_by_moving_data(&mut driver, &whole)
        .expect("client-side sum");
    let tb = since(t);

    assert!((device_side - expected).abs() < 1e-6);
    assert!((client_side - expected).abs() < 1e-6);
    println!("sum = {device_side:.3}");
    println!("  computation -> data (device-side sums): {ta:?}");
    println!("  data -> computation (ship every page):  {tb:?}");
    println!(
        "  moving the computation is {:.1}x faster here",
        tb.as_secs_f64() / ta.as_secs_f64()
    );

    // §5: "deploying multiple Array clients in parallel".
    for clients in [1usize, 2, 4] {
        let t = clock.now_nanos();
        let s = parallel_sum(&mut driver, &array, &whole, clients).expect("parallel sum");
        assert!((s - expected).abs() < 1e-6);
        println!(
            "  parallel sum with {clients} Array client(s): {:?}",
            since(t)
        );
    }

    let m = cluster.snapshot();
    println!(
        "traffic: {} messages, {:.1} MiB; disk: {} reads / {} writes on {} active disks",
        m.messages_sent,
        m.bytes_sent as f64 / (1 << 20) as f64,
        m.disk_reads,
        m.disk_writes,
        cluster.sim().active_disks()
    );
    cluster.shutdown(driver);
}
