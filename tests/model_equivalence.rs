//! Integration tests comparing the two programming models (oopp RMI vs.
//! mplite message passing) on the same workloads, and exercising costed
//! configurations end to end.

use oopp_repro::fft::{c64, max_error, Complex, Direction, DistributedFft3, Fft3, Grid3};
use oopp_repro::mplite::apps::{fft_run, pageio_run, IoMode};
use oopp_repro::mplite::MpiWorld;
use oopp_repro::oopp::{join, ClusterBuilder};
use oopp_repro::pagestore::{Page, PageDevice, PageDeviceClient};
use oopp_repro::simnet::{ClusterConfig, DiskConfig, NetCost};

fn sample(shape: [usize; 3]) -> Vec<Complex> {
    let n = shape[0] * shape[1] * shape[2];
    (0..n)
        .map(|i| c64((i as f64 * 0.23).sin(), (i as f64 * 0.81).cos()))
        .collect()
}

/// Both models compute the same FFT, bit-for-bit against the local plan.
#[test]
fn fft_same_answer_under_both_models() {
    let shape = [8usize, 4, 4];
    let data = sample(shape);
    let expected = Fft3::new(shape).transform(&Grid3::new(shape, data.clone()), Direction::Forward);

    // oopp object processes.
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(2)).build();
    let dfft = DistributedFft3::new(&mut driver, [8, 4, 4], 2).unwrap();
    dfft.scatter(&mut driver, &data).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    let oopp_result = dfft.gather(&mut driver).unwrap();
    cluster.shutdown(driver);

    // mplite ranks.
    let (mpi_result, _) = fft_run(ClusterConfig::zero_cost(2), shape, data, Direction::Forward);

    assert!(max_error(&oopp_result, expected.data()) < 1e-9);
    assert!(max_error(&mpi_result, expected.data()) < 1e-9);
    assert!(
        max_error(&oopp_result, &mpi_result) < 1e-12,
        "identical algorithm, identical bits"
    );
}

/// Page I/O: the oopp split loop and the hand-pipelined MPI client move the
/// same bytes (message counts may differ by the RMI framing).
#[test]
fn pageio_traffic_comparable_across_models() {
    let n = 4;
    let page_size = 2048usize;

    // oopp version: N devices, split-loop read, count substrate traffic.
    let (cluster, mut driver) = ClusterBuilder::new(n).register::<PageDevice>().build();
    let devices: Vec<_> = (0..n)
        .map(|m| {
            PageDeviceClient::new_on(&mut driver, m, format!("d{m}"), 8, page_size as u64, 0)
                .unwrap()
        })
        .collect();
    for d in &devices {
        d.write(&mut driver, 0, Page::zeroed(page_size).into_bytes())
            .unwrap();
    }
    let before = cluster.snapshot();
    let pending: Vec<_> = devices
        .iter()
        .map(|d| d.read_async(&mut driver, 0).unwrap())
        .collect();
    join(&mut driver, pending).unwrap();
    let oopp_delta = cluster.snapshot().since(&before);
    cluster.shutdown(driver);

    // mplite version.
    let (_, mpi_metrics) = pageio_run(
        ClusterConfig::zero_cost(n + 1),
        page_size,
        8,
        IoMode::Pipelined,
    );

    // Both move n pages of payload; allow generous framing slack.
    let payload = (n * page_size) as u64;
    assert!(oopp_delta.bytes_sent >= payload);
    assert!(mpi_metrics.bytes_sent >= payload);
    assert!(oopp_delta.bytes_sent < payload * 2);
    assert!(mpi_metrics.bytes_sent < payload * 2);
    // Request+reply per device in both models.
    assert_eq!(oopp_delta.messages_sent, 2 * n as u64);
}

/// A costed link end to end: correctness is cost-independent, and a call
/// costs what its path does — the driver's round trip to a worker is one
/// request and one reply, each crossing the link once.
#[test]
fn costed_link_end_to_end() {
    let link = NetCost::lan(100, 1.0);
    let config = ClusterConfig {
        machines: 0,
        link,
        disk: DiskConfig::nvme(),
        disks_per_machine: 1,
        disk_capacity: 8 << 20,
        faults: simnet::FaultPlan::none(),
        time: simnet::TimeMode::Virtual { seed: 0x2AC5 },
    };
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(4))
        .sim_config(config)
        .build();
    let (before, t0) = (cluster.snapshot(), driver.now_nanos());
    driver.ping(3).unwrap();
    let (rtt, sent) = (driver.now_nanos() - t0, cluster.snapshot().since(&before));
    let wire = |machine: usize| {
        let bytes = sent.per_machine_bytes_sent[machine] as usize;
        simnet::time::nanos(link.latency + simnet::time::transfer_time(bytes, link.bytes_per_sec))
    };
    assert_eq!(rtt, wire(4) + wire(3), "request and reply, one link each");
    let shape = [8usize, 8, 4];
    let data = sample(shape);
    let expected = Fft3::new(shape).transform(&Grid3::new(shape, data.clone()), Direction::Forward);
    let dfft = DistributedFft3::new(&mut driver, [8, 8, 4], 4).unwrap();
    dfft.scatter(&mut driver, &data).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    assert!(max_error(&dfft.gather(&mut driver).unwrap(), expected.data()) < 1e-9);
    cluster.shutdown(driver);
}

/// mplite collectives against serial reference, larger world.
#[test]
fn collectives_agree_with_serial_reference() {
    let world = MpiWorld::new(ClusterConfig::zero_cost(7));
    let (sums, _) = world.run(|c| {
        let v = (c.rank() * c.rank()) as f64;
        c.allreduce_f64(v).unwrap()
    });
    let expect: f64 = (0..7).map(|r| (r * r) as f64).sum();
    assert_eq!(sums, vec![expect; 7]);
}

/// The driver can interleave work against both models' substrates in one
/// process (separate clusters).
#[test]
fn two_clusters_coexist() {
    let (c1, mut d1) = ClusterBuilder::new(2).build();
    let (c2, mut d2) = ClusterBuilder::new(2).build();
    let a = oopp_repro::oopp::DoubleBlockClient::new_on(&mut d1, 0, 4).unwrap();
    let b = oopp_repro::oopp::DoubleBlockClient::new_on(&mut d2, 0, 4).unwrap();
    a.set(&mut d1, 0, 1.0).unwrap();
    b.set(&mut d2, 0, 2.0).unwrap();
    assert_eq!(a.get(&mut d1, 0).unwrap(), 1.0);
    assert_eq!(b.get(&mut d2, 0).unwrap(), 2.0);
    c1.shutdown(d1);
    c2.shutdown(d2);
}
