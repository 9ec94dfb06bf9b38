//! Cross-module tests: the distributed array checked against a local
//! mirror, under every page map, including parallel clients and property
//! tests over random domains.

use std::time::Duration;

use oopp::{CallPolicy, Cluster, ClusterBuilder, Driver, RemoteClient, RemoteError};
use simnet::sweep::cases;

use crate::*;

/// Local ground-truth model of a 3-D array.
struct Mirror {
    n: [u64; 3],
    data: Vec<f64>,
}

impl Mirror {
    fn new(n: [u64; 3]) -> Self {
        Mirror {
            n,
            data: vec![0.0; (n[0] * n[1] * n[2]) as usize],
        }
    }
    fn idx(&self, i1: u64, i2: u64, i3: u64) -> usize {
        ((i1 * self.n[1] + i2) * self.n[2] + i3) as usize
    }
    fn write(&mut self, d: &Domain, buf: &[f64]) {
        let mut it = buf.iter();
        for (i1, i2, i3) in d.points() {
            let idx = self.idx(i1, i2, i3);
            self.data[idx] = *it.next().unwrap();
        }
    }
    fn read(&self, d: &Domain) -> Vec<f64> {
        d.points()
            .map(|(i1, i2, i3)| self.data[self.idx(i1, i2, i3)])
            .collect()
    }
    fn sum(&self, d: &Domain) -> f64 {
        self.read(d).iter().sum()
    }
    fn min(&self, d: &Domain) -> f64 {
        self.read(d).into_iter().fold(f64::INFINITY, f64::min)
    }
    fn max(&self, d: &Domain) -> f64 {
        self.read(d).into_iter().fold(f64::NEG_INFINITY, f64::max)
    }
    fn scale(&mut self, d: &Domain, alpha: f64) {
        let scaled: Vec<f64> = self.read(d).iter().map(|v| v * alpha).collect();
        self.write(d, &scaled);
    }
}

fn cluster(workers: usize) -> (Cluster, Driver) {
    register_classes(ClusterBuilder::new(workers)).build()
}

fn build_array(
    driver: &mut Driver,
    n: [u64; 3],
    p: [u64; 3],
    devices: u64,
    map_of: impl Fn([u64; 3], u64) -> PageMap,
) -> Array {
    let grid = [
        n[0].div_ceil(p[0]),
        n[1].div_ceil(p[1]),
        n[2].div_ceil(p[2]),
    ];
    let map = map_of(grid, devices);
    let storage = BlockStorage::create(
        driver,
        "arr",
        devices as usize,
        map.pages_per_device(),
        p[0],
        p[1],
        p[2],
        1,
    )
    .unwrap();
    Array::new(n, p, storage, map).unwrap()
}

fn patterned(len: usize, seed: u64) -> Vec<f64> {
    (0..len)
        .map(|i| ((i as u64 * 37 + seed * 101) % 1000) as f64 / 8.0)
        .collect()
}

#[test]
fn write_read_roundtrip_whole_array() {
    let (cluster, mut driver) = cluster(3);
    let array = build_array(&mut driver, [6, 6, 6], [2, 3, 2], 3, |g, d| {
        PageMap::round_robin(g, d)
    });
    let whole = array.whole();
    let data = patterned(array.len() as usize, 1);
    array.write(&mut driver, &whole, &data).unwrap();
    assert_eq!(array.read(&mut driver, &whole).unwrap(), data);
    cluster.shutdown(driver);
}

#[test]
fn partial_page_domains_roundtrip() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [8, 8, 8], [4, 4, 4], 4, |g, d| {
        PageMap::blocked(g, d)
    });
    // A domain straddling all eight pages, off page boundaries.
    let d = Domain::new(1, 7, 2, 6, 3, 5);
    let data = patterned(d.len() as usize, 2);
    array.write(&mut driver, &d, &data).unwrap();
    assert_eq!(array.read(&mut driver, &d).unwrap(), data);
    // Outside the domain is untouched.
    assert_eq!(array.get(&mut driver, 0, 0, 0).unwrap(), 0.0);
    cluster.shutdown(driver);
}

#[test]
fn edge_pages_truncate_correctly() {
    // 5x5x5 array with 2x2x2 pages: grid 3x3x3, edge pages are partial.
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [5, 5, 5], [2, 2, 2], 3, PageMap::zcurve);
    let whole = array.whole();
    let data = patterned(125, 3);
    array.write(&mut driver, &whole, &data).unwrap();
    assert_eq!(array.read(&mut driver, &whole).unwrap(), data);
    assert_eq!(
        array.sum(&mut driver, &whole).unwrap(),
        data.iter().sum::<f64>()
    );
    cluster.shutdown(driver);
}

#[test]
fn sums_agree_between_device_side_and_client_side() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [4, 4, 8], [2, 2, 4], 4, |g, d| {
        PageMap::hashed(g, d, 7)
    });
    let whole = array.whole();
    let data = patterned(128, 5);
    array.write(&mut driver, &whole, &data).unwrap();
    let d = Domain::new(1, 4, 0, 3, 2, 7);
    let device_side = array.sum(&mut driver, &d).unwrap();
    let client_side = array.sum_by_moving_data(&mut driver, &d).unwrap();
    assert!((device_side - client_side).abs() < 1e-9);
    cluster.shutdown(driver);
}

#[test]
fn fill_then_sum() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [4, 4, 4], [2, 2, 2], 2, |g, d| {
        PageMap::round_robin(g, d)
    });
    array
        .fill(&mut driver, &Domain::new(0, 4, 0, 4, 0, 2), 2.0)
        .unwrap();
    array
        .fill(&mut driver, &Domain::new(0, 4, 0, 4, 2, 4), -1.0)
        .unwrap();
    assert_eq!(
        array.sum(&mut driver, &array.whole()).unwrap(),
        32.0 * 2.0 - 32.0
    );
    cluster.shutdown(driver);
}

#[test]
fn element_get_set() {
    let (cluster, mut driver) = cluster(1);
    let array = build_array(&mut driver, [3, 3, 3], [2, 2, 2], 2, |g, d| {
        PageMap::blocked(g, d)
    });
    array.set(&mut driver, 2, 2, 2, 9.5).unwrap();
    array.set(&mut driver, 0, 1, 2, -3.0).unwrap();
    assert_eq!(array.get(&mut driver, 2, 2, 2).unwrap(), 9.5);
    assert_eq!(array.get(&mut driver, 0, 1, 2).unwrap(), -3.0);
    assert_eq!(array.get(&mut driver, 1, 1, 1).unwrap(), 0.0);
    cluster.shutdown(driver);
}

#[test]
fn out_of_bounds_and_size_mismatches_error() {
    let (cluster, mut driver) = cluster(1);
    let array = build_array(&mut driver, [4, 4, 4], [2, 2, 2], 1, |g, d| {
        PageMap::round_robin(g, d)
    });
    assert!(array
        .read(&mut driver, &Domain::new(0, 5, 0, 4, 0, 4))
        .is_err());
    assert!(array
        .write(&mut driver, &Domain::new(0, 2, 0, 2, 0, 2), &[0.0; 7])
        .is_err());
    cluster.shutdown(driver);
}

#[test]
fn constructor_validates_consistency() {
    let (cluster, mut driver) = cluster(1);
    let storage = BlockStorage::create(&mut driver, "v", 1, 8, 2, 2, 2, 1).unwrap();
    // Wrong grid.
    let bad_map = PageMap::round_robin([3, 3, 3], 1);
    assert!(Array::new([4, 4, 4], [2, 2, 2], storage.clone(), bad_map).is_err());
    // Map wants more devices than storage has.
    let wide_map = PageMap::round_robin([2, 2, 2], 5);
    assert!(Array::new([4, 4, 4], [2, 2, 2], storage, wide_map).is_err());
    cluster.shutdown(driver);
}

#[test]
fn devices_touched_matches_pagemap_prediction() {
    // E5's measurable: a contiguous slab under round-robin touches many
    // devices; under blocked, few.
    let (cluster, mut driver) = cluster(4);
    let n = [16, 4, 4];
    let p = [2, 4, 4]; // pages stack along axis 0: grid [8,1,1]
    let slab = Domain::new(0, 4, 0, 4, 0, 4); // first two pages

    // blocked: ceil(8/4) = 2 consecutive pages per device → the slab's two
    // pages share one device; round-robin spreads them over two.
    let rr = build_array(&mut driver, n, p, 4, PageMap::round_robin);
    assert_eq!(rr.devices_touched(&slab), 2);
    let bl = build_array(&mut driver, n, p, 4, PageMap::blocked);
    assert_eq!(
        bl.devices_touched(&slab),
        1,
        "blocked packs the slab on one device"
    );
    cluster.shutdown(driver);
}

#[test]
fn active_disk_count_reflects_layout() {
    // The same access under two maps engages different numbers of physical
    // disks — the paper's §5 claim made observable through the substrate.
    let slab = Domain::new(0, 4, 0, 4, 0, 4);
    let n = [16, 4, 4];
    let p = [2, 4, 4]; // grid [8,1,1]

    let disks_for = |map_of: fn([u64; 3], u64) -> PageMap| {
        let (cluster, mut driver) = cluster(4);
        let array = build_array(&mut driver, n, p, 4, map_of);
        array.fill(&mut driver, &slab, 1.0).unwrap();
        let touched = cluster.sim().active_disks();
        cluster.shutdown(driver);
        touched
    };

    assert_eq!(disks_for(PageMap::round_robin), 2);
    assert_eq!(disks_for(PageMap::blocked), 1);
}

#[test]
fn parallel_clients_compute_the_same_sum() {
    let (cluster, mut driver) = cluster(3);
    let array = build_array(&mut driver, [6, 4, 4], [2, 2, 2], 3, |g, d| {
        PageMap::round_robin(g, d)
    });
    let whole = array.whole();
    let data = patterned(96, 8);
    array.write(&mut driver, &whole, &data).unwrap();
    let serial = array.sum(&mut driver, &whole).unwrap();
    for clients in [1, 2, 3, 5] {
        let par = parallel_sum(&mut driver, &array, &whole, clients).unwrap();
        assert!(
            (par - serial).abs() < 1e-9,
            "clients={clients}: {par} vs {serial}"
        );
    }
    cluster.shutdown(driver);
}

#[test]
fn array_worker_operations() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [4, 4, 4], [2, 2, 2], 2, |g, d| {
        PageMap::zcurve(g, d)
    });
    let w = ArrayWorkerClient::new_on(&mut driver, 1, array.clone()).unwrap();
    let d = Domain::new(0, 4, 0, 4, 0, 4);
    array.fill(&mut driver, &d, 3.0).unwrap();
    assert_eq!(w.sum(&mut driver, d).unwrap(), 192.0);
    // Checksum through the worker equals checksum computed driver-side.
    let local = array.read(&mut driver, &d).unwrap();
    let expect: f64 = local
        .iter()
        .enumerate()
        .map(|(i, v)| v * (1.0 + (i % 97) as f64))
        .sum();
    assert!((w.read_checksum(&mut driver, d).unwrap() - expect).abs() < 1e-9);
    w.destroy(&mut driver).unwrap();
    cluster.shutdown(driver);
}

#[test]
fn arrays_travel_the_wire() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [4, 4, 4], [2, 2, 2], 2, |g, d| {
        PageMap::hashed(g, d, 3)
    });
    let back: Array = wire::from_bytes(&wire::to_bytes(&array)).unwrap();
    assert_eq!(back, array);
    cluster.shutdown(driver);
}

/// Junk from the wire is a typed error at once and never takes the serving
/// machine down: an `ArrayWorker` on machine 1 is sent handles and boxes
/// that no constructor makes — as its own constructor argument, or as the
/// `Domain` of `sum` and `read_checksum` — and answers `ping` after each.
#[test]
fn junk_arrays_and_domains_are_typed_errors_at_an_array_worker() {
    let (cluster, mut driver) = register_classes(ClusterBuilder::new(2))
        .call_policy(CallPolicy::no_retry(Duration::from_millis(500)))
        .build();
    let d = &mut driver;
    let array = build_array(d, [4, 4, 4], [2, 2, 2], 2, PageMap::round_robin);
    let (storage, map) = (array.storage().clone(), array.map().clone());
    // A handle is its fields in order: shape, page shape, storage, map.
    let handle = |n: [u64; 3], p: [u64; 3], map: Vec<u8>| {
        [wire::to_bytes(&(n, p, storage.clone())), map].concat()
    };
    let table = |len: usize, device_id: u64, tag: u8| {
        let address = PageAddress {
            device_id,
            index: 0,
        };
        wire::to_bytes(&([2u64, 2, 2], 2u64, vec![address; len], tag))
    };
    let rr = |grid, devices| wire::to_bytes(&PageMap::round_robin(grid, devices));
    let (big, good) = ([1 << 32, 1 << 32, 2], [4, 4, 4]);
    let junk_handles = [
        (
            "a page dimension of 0",
            handle(good, [0, 2, 2], wire::to_bytes(&map)),
        ),
        ("n1·n2·n3 overflows", handle(big, big, rr([1, 1, 1], 2))),
        (
            "a map of another grid",
            handle(good, [2, 2, 2], rr([3, 3, 3], 2)),
        ),
        (
            "more devices than storage",
            handle(good, [2, 2, 2], rr([2, 2, 2], 3)),
        ),
        (
            "a short page table",
            handle(good, [2, 2, 2], table(7, 0, 0)),
        ),
        (
            "a device past the map's",
            handle(good, [2, 2, 2], table(8, 2, 0)),
        ),
        ("an unknown layout", handle(good, [2, 2, 2], table(8, 0, 9))),
    ];
    for (what, bytes) in junk_handles {
        let built = d.create::<ArrayWorkerClient>(1, bytes);
        assert!(
            matches!(built, Err(RemoteError::Decode { .. })),
            "{what}: {built:?}"
        );
        d.ping(1).unwrap();
    }
    let worker = ArrayWorkerClient::new_on(d, 1, array).unwrap();
    let inverted = wire::to_bytes(&([2u64, 0, 0], [1u64, 4, 4]));
    for method in ["sum", "read_checksum"] {
        let got = d.call_method::<f64>(worker.obj_ref(), method, |w| w.put_bytes(&inverted));
        assert!(
            matches!(got, Err(RemoteError::Decode { .. })),
            "{method}: {got:?}"
        );
        d.ping(1).unwrap();
    }
    assert_eq!(worker.sum(d, Domain::whole(4, 4, 4)).unwrap(), 0.0);
    cluster.shutdown(driver);
}

/// Random domains, random maps: the distributed array always agrees with
/// the local mirror — every operation that walks a box's rows on a device
/// or in the client.
#[test]
fn distributed_array_matches_mirror() {
    cases("distributed_array_matches_mirror", 12, |c| {
        let ops = c.vec(1..6, |c| {
            let corner = [c.range(0u64..6), c.range(0u64..6), c.range(0u64..6)];
            let extent = [c.range(1u64..4), c.range(1u64..4), c.range(1u64..4)];
            (corner, extent, c.range(0u64..1000))
        });
        let (map_choice, seed) = (c.range(0u8..4), c.range(0u64..100));
        let n = [6u64, 6, 6];
        let p = [4u64, 3, 2];
        let (cluster, mut driver) = cluster(2);
        let map_of = move |g: [u64; 3], d: u64| match map_choice {
            0 => PageMap::round_robin(g, d),
            1 => PageMap::blocked(g, d),
            2 => PageMap::hashed(g, d, seed),
            _ => PageMap::zcurve(g, d),
        };
        let array = build_array(&mut driver, n, p, 2, map_of);
        let mut mirror = Mirror::new(n);
        for (i, ([a1, a2, a3], [e1, e2, e3], vs)) in ops.into_iter().enumerate() {
            let b1 = (a1 + e1).min(n[0]);
            let b2 = (a2 + e2).min(n[1]);
            let b3 = (a3 + e3).min(n[2]);
            let (a1, a2, a3) = (a1.min(b1), a2.min(b2), a3.min(b3));
            let d = Domain::new(a1, b1, a2, b2, a3, b3);
            let buf = patterned(d.len() as usize, vs + i as u64);
            array.write(&mut driver, &d, &buf).unwrap();
            mirror.write(&d, &buf);
            // Scale a box that crosses d's rows.
            let widened = Domain::new(a1, b1, 0, n[1], a3, b3);
            array.scale(&mut driver, &widened, -0.5).unwrap();
            mirror.scale(&widened, -0.5);
            // Read back a related (possibly larger) domain and compare.
            let probe = Domain::new(0, n[0], a2, b2, 0, n[2]);
            assert_eq!(
                array.read(&mut driver, &probe).unwrap(),
                mirror.read(&probe)
            );
            let s = array.sum(&mut driver, &probe).unwrap();
            assert!((s - mirror.sum(&probe)).abs() < 1e-9);
            for q in [probe, d, widened] {
                assert_eq!(array.min(&mut driver, &q).unwrap(), mirror.min(&q));
                assert_eq!(array.max(&mut driver, &q).unwrap(), mirror.max(&q));
            }
        }
        cluster.shutdown(driver);
    });
}

#[test]
fn device_side_min_max_scale_over_domains() {
    let (cluster, mut driver) = cluster(2);
    let array = build_array(&mut driver, [6, 6, 6], [4, 4, 4], 2, |g, d| {
        PageMap::round_robin(g, d)
    });
    let whole = array.whole();
    let data: Vec<f64> = (0..216).map(|i| (i as f64) - 100.0).collect();
    array.write(&mut driver, &whole, &data).unwrap();

    assert_eq!(array.min(&mut driver, &whole).unwrap(), -100.0);
    assert_eq!(array.max(&mut driver, &whole).unwrap(), 115.0);
    // A strict subdomain, off page boundaries.
    let d = Domain::new(1, 5, 2, 6, 3, 5);
    let sub = array.read(&mut driver, &d).unwrap();
    let expect_min = sub.iter().cloned().fold(f64::INFINITY, f64::min);
    let expect_max = sub.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(array.min(&mut driver, &d).unwrap(), expect_min);
    assert_eq!(array.max(&mut driver, &d).unwrap(), expect_max);

    // Scale the subdomain only; everything else is untouched.
    let before_total = array.sum(&mut driver, &whole).unwrap();
    let before_sub = array.sum(&mut driver, &d).unwrap();
    array.scale(&mut driver, &d, 2.0).unwrap();
    let after_sub = array.sum(&mut driver, &d).unwrap();
    let after_total = array.sum(&mut driver, &whole).unwrap();
    assert!((after_sub - 2.0 * before_sub).abs() < 1e-9);
    assert!((after_total - (before_total + before_sub)).abs() < 1e-9);
    cluster.shutdown(driver);
}
