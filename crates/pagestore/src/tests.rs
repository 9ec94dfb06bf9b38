//! End-to-end tests of the page store against a live cluster: the paper's
//! §2–§3 listings, inheritance, parallel device I/O, and persistence.

use oopp::{join, Cluster, ClusterBuilder, Driver, RemoteClient, RemoteError};
use simnet::{ClusterConfig, DiskConfig};
use wire::collections::{Bytes, F64s};

use crate::device::PageDeviceState;
use crate::{
    ArrayPage, ArrayPageDevice, ArrayPageDeviceClient, Domain, Page, PageDevice, PageDeviceClient,
};

fn cluster(workers: usize) -> (Cluster, Driver) {
    ClusterBuilder::new(workers)
        .register::<PageDevice>()
        .register::<ArrayPageDevice>()
        .build()
}

#[test]
fn paper_listing_create_write_read() {
    let (cluster, mut driver) = cluster(2);
    // PageDevice *PageStore = new(machine 1) PageDevice("pagefile", 10, 1024);
    let store = PageDeviceClient::new_on(&mut driver, 1, "pagefile".into(), 10, 1024, 0).unwrap();
    // Page *page = GenerateDataPage(); PageStore->write(page, 17 % 10);
    let page = Page::generate(1024, 17);
    store
        .write(&mut driver, 7, page.clone().into_bytes())
        .unwrap();
    let back = Page::from_bytes(store.read(&mut driver, 7).unwrap());
    assert_eq!(back, page);
    // Untouched pages read back zeroed.
    assert_eq!(store.read(&mut driver, 3).unwrap().0, vec![0u8; 1024]);
    assert_eq!(store.number_of_pages(&mut driver).unwrap(), 10);
    assert_eq!(store.page_size(&mut driver).unwrap(), 1024);
    assert_eq!(store.filename(&mut driver).unwrap(), "pagefile");
    cluster.shutdown(driver);
}

#[test]
fn page_index_and_size_validation() {
    let (cluster, mut driver) = cluster(1);
    let store = PageDeviceClient::new_on(&mut driver, 0, "d".into(), 4, 64, 0).unwrap();
    assert!(matches!(
        store.read(&mut driver, 4),
        Err(RemoteError::App { .. })
    ));
    assert!(matches!(
        store.write(&mut driver, 0, Bytes(vec![0u8; 63])),
        Err(RemoteError::App { .. })
    ));
    // Zero page size rejected at construction.
    assert!(PageDeviceClient::new_on(&mut driver, 0, "z".into(), 4, 0, 0).is_err());
    // Device too big for the disk rejected at construction.
    assert!(
        PageDeviceClient::new_on(&mut driver, 0, "big".into(), u64::MAX / 4096, 4096, 0).is_err()
    );
    // Unknown disk index rejected.
    assert!(PageDeviceClient::new_on(&mut driver, 0, "nd".into(), 1, 64, 9).is_err());
    cluster.shutdown(driver);
}

/// A device encodes every read from its one page buffer and writes a page
/// to the disk from the request it arrived in: reads of different pages,
/// through either interface, never show each other's bytes, and a page that
/// arrives short or malformed leaves the disk as it was.
#[test]
fn the_page_buffer_holds_the_page_asked_for_and_junk_never_reaches_the_disk() {
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    let dev = ArrayPageDeviceClient::new_on(d, 0, "a".into(), 3, 2, 2, 2, 0, None).unwrap();
    let page = |p: u64| F64s((0..8).map(|i| (10 * p + i) as f64 - 0.5).collect());
    for p in 0..3 {
        dev.write_array(d, p, page(p)).unwrap();
    }
    for p in [2, 0, 1, 1, 2] {
        assert_eq!(dev.read_array(d, p).unwrap(), page(p));
        // The same page through the base interface: its bytes, undecoded.
        assert_eq!(
            dev.as_base().read(d, p).unwrap().0,
            wire::to_bytes(&page(p))[1..]
        );
        assert_eq!(dev.sum(d, p).unwrap(), page(p).0.iter().sum::<f64>());
    }

    // Eight doubles declared, five present; then a page one double short.
    let short: Result<(), _> = d.call_method(dev.obj_ref(), "write_array", |w| {
        wire::Wire::encode(&1u64, w);
        w.put_varint(8);
        w.put_f64s(&[99.0; 5]);
    });
    assert!(matches!(short, Err(RemoteError::Decode { .. })));
    assert!(matches!(
        dev.write_array(d, 1, F64s(vec![99.0; 7])),
        Err(RemoteError::App { .. })
    ));
    assert!(matches!(
        dev.as_base().write(d, 1, Bytes(vec![9; 63])),
        Err(RemoteError::App { .. })
    ));
    assert!(matches!(
        dev.write_sub(d, 1, Domain::new(0, 2, 0, 2, 0, 1), F64s(vec![99.0; 5])),
        Err(RemoteError::App { .. })
    ));
    assert_eq!(dev.read_array(d, 1).unwrap(), page(1));
    cluster.shutdown(driver);
}

#[test]
fn devices_on_separate_machines_are_independent() {
    let (cluster, mut driver) = cluster(3);
    let stores: Vec<_> = (0..3)
        .map(|m| PageDeviceClient::new_on(&mut driver, m, format!("dev{m}"), 4, 128, 0).unwrap())
        .collect();
    for (i, s) in stores.iter().enumerate() {
        s.write(&mut driver, 0, Page::generate(128, i as u64).into_bytes())
            .unwrap();
    }
    for (i, s) in stores.iter().enumerate() {
        let got = Page::from_bytes(s.read(&mut driver, 0).unwrap());
        assert_eq!(got, Page::generate(128, i as u64));
    }
    cluster.shutdown(driver);
}

#[test]
fn parallel_reads_via_split_loop() {
    // §4's loop-splitting example: one page from each of N devices.
    let n = 4;
    let (cluster, mut driver) = cluster(n);
    let devices: Vec<_> = (0..n)
        .map(|m| PageDeviceClient::new_on(&mut driver, m, format!("d{m}"), 8, 256, 0).unwrap())
        .collect();
    let page_address: Vec<u64> = vec![3, 1, 7, 5];
    for (i, d) in devices.iter().enumerate() {
        d.write(
            &mut driver,
            page_address[i],
            Page::generate(256, 100 + i as u64).into_bytes(),
        )
        .unwrap();
    }
    // Send loop...
    let pending: Vec<_> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| d.read_async(&mut driver, page_address[i]).unwrap())
        .collect();
    // ...receive loop.
    let buffers = join(&mut driver, pending).unwrap();
    for (i, buf) in buffers.into_iter().enumerate() {
        assert_eq!(Page::from_bytes(buf), Page::generate(256, 100 + i as u64));
    }
    cluster.shutdown(driver);
}

#[test]
fn array_device_sum_both_directions_agree() {
    // §3: sum by moving the data vs. sum on the device.
    let (cluster, mut driver) = cluster(2);
    let blocks =
        ArrayPageDeviceClient::new_on(&mut driver, 1, "array_blocks".into(), 6, 4, 4, 4, 0, None)
            .unwrap();
    let page = ArrayPage::generate(4, 4, 4, 11);
    let expected = page.sum();
    blocks
        .write_array(&mut driver, 4, page.into_f64s())
        .unwrap();

    // double result = blocks->sum(PageAddress);  (computation → data)
    let remote = blocks.sum(&mut driver, 4).unwrap();
    // read whole page, sum locally            (data → computation)
    let local: f64 = blocks.read_array(&mut driver, 4).unwrap().0.iter().sum();

    assert!((remote - expected).abs() < 1e-9);
    assert!((local - expected).abs() < 1e-9);
    cluster.shutdown(driver);
}

#[test]
fn array_device_reductions_and_scale() {
    let (cluster, mut driver) = cluster(1);
    let dev =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "r".into(), 2, 2, 2, 2, 0, None).unwrap();
    let page = ArrayPage::new(2, 2, 2, vec![3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, 6.0]);
    dev.write_array(&mut driver, 0, page.into_f64s()).unwrap();
    let whole = Domain::whole(2, 2, 2);
    assert_eq!(dev.min_sub(&mut driver, 0, whole).unwrap(), -5.0);
    assert_eq!(dev.max_sub(&mut driver, 0, whole).unwrap(), 9.0);
    assert_eq!(dev.sum(&mut driver, 0).unwrap(), 19.0);
    dev.scale_sub(&mut driver, 0, whole, 2.0).unwrap();
    assert_eq!(dev.sum(&mut driver, 0).unwrap(), 38.0);
    assert_eq!(dev.shape(&mut driver).unwrap(), (2, 2, 2));
    cluster.shutdown(driver);
}

#[test]
fn sub_box_read_write_sum() {
    let (cluster, mut driver) = cluster(1);
    let dev =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "s".into(), 1, 4, 4, 4, 0, None).unwrap();
    // Write the sub-box [1,3)x[1,3)x[1,3) with ones.
    dev.write_sub(
        &mut driver,
        0,
        Domain::new(1, 3, 1, 3, 1, 3),
        F64s(vec![1.0; 8]),
    )
    .unwrap();
    assert_eq!(dev.sum(&mut driver, 0).unwrap(), 8.0);
    assert_eq!(
        dev.sum_sub(&mut driver, 0, Domain::new(1, 3, 1, 3, 1, 3))
            .unwrap(),
        8.0
    );
    assert_eq!(
        dev.sum_sub(&mut driver, 0, Domain::new(0, 1, 0, 4, 0, 4))
            .unwrap(),
        0.0
    );
    // Read a sub-box straddling the written region.
    let got = dev
        .read_sub(&mut driver, 0, Domain::new(0, 2, 1, 2, 1, 3))
        .unwrap();
    assert_eq!(got.0, vec![0.0, 0.0, 1.0, 1.0]);
    // Degenerate (empty) boxes are fine.
    assert_eq!(
        dev.read_sub(&mut driver, 0, Domain::new(2, 2, 0, 4, 0, 4))
            .unwrap()
            .0,
        Vec::<f64>::new()
    );
    // Invalid boxes are rejected.
    let inverted = Domain {
        a: [3, 0, 0],
        b: [2, 4, 4],
    };
    assert!(dev.read_sub(&mut driver, 0, inverted).is_err());
    assert!(dev
        .read_sub(&mut driver, 0, Domain::new(0, 5, 0, 4, 0, 4))
        .is_err());
    cluster.shutdown(driver);
}

#[test]
fn inheritance_base_client_operates_on_derived_device() {
    // §3: "The definition of the derived process ... requires no new
    // syntax" — and a base-typed pointer still works.
    let (cluster, mut driver) = cluster(1);
    let dev =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "inh".into(), 2, 2, 2, 2, 0, None).unwrap();
    let base: PageDeviceClient = dev.as_base();
    assert_eq!(base.page_size(&mut driver).unwrap(), 64); // 8 doubles
    assert_eq!(base.number_of_pages(&mut driver).unwrap(), 2);
    // Raw page write through the BASE interface, structured read through
    // the DERIVED interface.
    let page = ArrayPage::generate(2, 2, 2, 5);
    base.write(&mut driver, 1, page.clone().into_page().into_bytes())
        .unwrap();
    let got = dev.read_array(&mut driver, 1).unwrap();
    assert_eq!(got.0, page.elements());
    cluster.shutdown(driver);
}

#[test]
fn copy_construct_from_live_process() {
    // §5: ArrayPageDevice *new_device = new ArrayPageDevice(page_device);
    let (cluster, mut driver) = cluster(2);
    let original =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "orig".into(), 3, 2, 2, 2, 0, None).unwrap();
    for p in 0..3 {
        original
            .write_array(&mut driver, p, ArrayPage::generate(2, 2, 2, p).into_f64s())
            .unwrap();
    }
    // The new device is on a DIFFERENT machine and copies the state of the
    // live process through its base-class interface.
    let copy = ArrayPageDeviceClient::new_on(
        &mut driver,
        1,
        "copy".into(),
        3,
        2,
        2,
        2,
        0,
        Some(original.as_base()),
    )
    .unwrap();
    // ... subsequently shut it down (the paper's `delete page_device`).
    original.destroy(&mut driver).unwrap();
    for p in 0..3 {
        let got = copy.read_array(&mut driver, p).unwrap();
        assert_eq!(got.0, ArrayPage::generate(2, 2, 2, p).elements());
    }
    cluster.shutdown(driver);
}

#[test]
fn copy_construct_rejects_mismatched_page_size() {
    let (cluster, mut driver) = cluster(1);
    let original =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "o".into(), 1, 2, 2, 2, 0, None).unwrap();
    let err = ArrayPageDeviceClient::new_on(
        &mut driver,
        0,
        "c".into(),
        1,
        4,
        4,
        4,
        0,
        Some(original.as_base()),
    )
    .unwrap_err();
    assert!(matches!(err, RemoteError::App { .. }));
    cluster.shutdown(driver);
}

#[test]
fn device_persistence_survives_deactivate_activate() {
    // §5: the device process is deactivated; its pages stay on the disk;
    // activation reattaches.
    let (cluster, mut driver) = cluster(1);
    let dev =
        ArrayPageDeviceClient::new_on(&mut driver, 0, "p".into(), 2, 2, 2, 2, 0, None).unwrap();
    let page = ArrayPage::generate(2, 2, 2, 77);
    dev.write_array(&mut driver, 1, page.clone().into_f64s())
        .unwrap();

    let key = oopp::symbolic_addr(&["data", "set", "ArrayPageDevice", "p"]);
    driver.deactivate(dev.obj_ref(), key.clone()).unwrap();
    assert!(dev.sum(&mut driver, 1).is_err(), "process must be gone");

    let revived: ArrayPageDeviceClient = driver.activate(0, &key).unwrap();
    assert_eq!(
        revived.read_array(&mut driver, 1).unwrap().0,
        page.elements()
    );
    cluster.shutdown(driver);
}

#[test]
fn costed_disks_still_roundtrip() {
    // Same logic under a costed disk model (nvme): correctness is
    // cost-independent.
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<PageDevice>()
        .sim_config(ClusterConfig {
            disk: DiskConfig::nvme(),
            disk_capacity: 1 << 20,
            ..ClusterConfig::zero_cost(0)
        })
        .build();
    let store = PageDeviceClient::new_on(&mut driver, 1, "c".into(), 4, 4096, 0).unwrap();
    let page = Page::generate(4096, 1);
    store
        .write(&mut driver, 2, page.clone().into_bytes())
        .unwrap();
    assert_eq!(Page::from_bytes(store.read(&mut driver, 2).unwrap()), page);
    let m = cluster.snapshot();
    assert_eq!(m.disk_writes, 1);
    assert_eq!(m.disk_reads, 1);
    assert!(m.disk_busy_nanos > 0);
    cluster.shutdown(driver);
}

#[test]
fn two_devices_same_machine_different_disks() {
    let (cluster, mut driver) = ClusterBuilder::new(1)
        .register::<PageDevice>()
        .sim_config(ClusterConfig {
            disks_per_machine: 2,
            ..ClusterConfig::zero_cost(0)
        })
        .build();
    let d0 = PageDeviceClient::new_on(&mut driver, 0, "a".into(), 2, 64, 0).unwrap();
    let d1 = PageDeviceClient::new_on(&mut driver, 0, "b".into(), 2, 64, 1).unwrap();
    d0.write(&mut driver, 0, Page::generate(64, 1).into_bytes())
        .unwrap();
    d1.write(&mut driver, 0, Page::generate(64, 2).into_bytes())
        .unwrap();
    assert_eq!(
        Page::from_bytes(d0.read(&mut driver, 0).unwrap()),
        Page::generate(64, 1)
    );
    assert_eq!(
        Page::from_bytes(d1.read(&mut driver, 0).unwrap()),
        Page::generate(64, 2)
    );
    assert_eq!(cluster.sim().active_disks(), 2);
    cluster.shutdown(driver);
}

/// A restored device is held to what `new` builds: pages of at least one
/// byte, a size that fits in a `usize`, a region that lies on its disk,
/// and an array shape that fills a page. A snapshot that broke one used
/// to restore, and the device's first `read` then resized its page buffer
/// to the forged page size (a capacity-overflow panic, or an abort) or
/// overflowed `page_index * page_size`.
#[test]
fn restored_devices_keep_the_constructors_invariants() {
    let (cluster, mut driver) = cluster(1);
    let d = &mut driver;
    let dev = ArrayPageDeviceClient::new_on(d, 0, "g".into(), 4, 2, 2, 2, 0, None).unwrap();
    let state = d.snapshot_of(dev.obj_ref()).unwrap();
    let (base, n1, n2, n3): (Bytes, u64, u64, u64) = wire::from_bytes(&state.0).unwrap();
    let geometry: PageDeviceState = wire::from_bytes(&base.0).unwrap();
    let forge = |edit: &dyn Fn(&mut PageDeviceState)| {
        let mut g = geometry.clone();
        edit(&mut g);
        wire::to_bytes(&g)
    };
    let forged_devices = [
        forge(&|g| g.page_size = 0),
        forge(&|g| g.page_size = 1 << 40),
        forge(&|g| g.number_of_pages = u64::MAX),
        forge(&|g| g.base = u64::MAX - 8),
        forge(&|g| g.base = 1 << 50),
    ];
    let as_array =
        |base: &[u8], n: (u64, u64, u64)| wire::to_bytes(&(Bytes(base.to_vec()), n.0, n.1, n.2));
    let mut forged = vec![];
    for device in &forged_devices {
        forged.push(("PageDevice", device.clone()));
        forged.push(("ArrayPageDevice", as_array(device, (n1, n2, n3))));
    }
    for shape in [(2, 2, 3), (0, 2, 2), (1 << 32, 1 << 32, 1)] {
        forged.push(("ArrayPageDevice", as_array(&base.0, shape)));
    }
    for (i, (class, state)) in forged.into_iter().enumerate() {
        let key = oopp::symbolic_addr(&["forged", &i.to_string()]);
        d.put_snapshot(0, key.clone(), class.into(), Bytes(state))
            .unwrap();
        let restored = d.activate::<PageDeviceClient>(0, &key);
        assert!(
            matches!(restored, Err(RemoteError::App { .. })),
            "forgery {i} of {class} restored as {restored:?}"
        );
    }
    // The snapshot as written still restores, pages and all.
    let page = ArrayPage::generate(2, 2, 2, 5);
    dev.write_array(d, 3, page.clone().into_f64s()).unwrap();
    d.put_snapshot(0, "as-written".into(), "ArrayPageDevice".into(), state)
        .unwrap();
    let back: ArrayPageDeviceClient = d.activate(0, "as-written").unwrap();
    assert_eq!(back.read_array(d, 3).unwrap().0, page.elements());
    cluster.shutdown(driver);
}
