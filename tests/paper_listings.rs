#![allow(clippy::approx_constant)] // 3.1415 is the paper’s own literal

//! Integration tests: the paper's complete program listings, transliterated
//! and executed across every crate of the workspace.

use oopp_repro::distarray::{parallel_sum, register_classes, Array, BlockStorage, Domain, PageMap};
use oopp_repro::fft::{c64, max_error, Complex, Direction, DistributedFft3, Fft3, Grid3};
use oopp_repro::oopp::{join, ClusterBuilder, DoubleBlockClient, RemoteClient};
use oopp_repro::pagestore::{
    ArrayPage, ArrayPageDevice, ArrayPageDeviceClient, Page, PageDevice, PageDeviceClient,
};

/// §2: the first listing of the paper, end to end.
#[test]
fn section2_page_device_listing() {
    let (cluster, mut driver) = ClusterBuilder::new(2).register::<PageDevice>().build();
    let page_store =
        PageDeviceClient::new_on(&mut driver, 1, "pagefile".into(), 10, 1024, 0).unwrap();
    let page = Page::generate(1024, 99);
    page_store
        .write(&mut driver, 7, page.clone().into_bytes())
        .unwrap();
    assert_eq!(
        Page::from_bytes(page_store.read(&mut driver, 7).unwrap()),
        page
    );
    cluster.shutdown(driver);
}

/// §2: `double *data = new(machine 2) double[1024]` with N computing
/// processes sharing the block.
#[test]
fn section2_shared_memory_sketch() {
    let n = 4;
    let (cluster, mut driver) = ClusterBuilder::new(n).build();
    let data = DoubleBlockClient::new_on(&mut driver, 2, 1024).unwrap();
    data.set(&mut driver, 7, 3.1415).unwrap();
    assert_eq!(data.get(&mut driver, 2).unwrap(), 0.0);

    // N processes share the block: each writes its slot, all read back.
    let writes: Vec<_> = (0..n)
        .map(|i| data.set_async(&mut driver, i, i as f64).unwrap())
        .collect();
    join(&mut driver, writes).unwrap();
    let reads: Vec<_> = (0..n)
        .map(|i| data.get_async(&mut driver, i).unwrap())
        .collect();
    assert_eq!(join(&mut driver, reads).unwrap(), vec![0.0, 1.0, 2.0, 3.0]);
    cluster.shutdown(driver);
}

/// §3: both sum strategies on an ArrayPageDevice, across crates.
#[test]
fn section3_move_data_vs_move_computation() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<PageDevice>()
        .register::<ArrayPageDevice>()
        .build();
    let blocks =
        ArrayPageDeviceClient::new_on(&mut driver, 1, "array_blocks".into(), 6, 8, 8, 8, 0, None)
            .unwrap();
    let page = ArrayPage::generate(8, 8, 8, 4);
    blocks
        .write_array(&mut driver, 4, page.clone().into_f64s())
        .unwrap();

    // Move the data: read the page, sum locally.
    let raw = blocks.as_base().read(&mut driver, 4).unwrap();
    let local = ArrayPage::from_page(8, 8, 8, Page::from_bytes(raw)).sum();
    // Move the computation: device-side sum.
    let remote = blocks.sum(&mut driver, 4).unwrap();

    assert!((local - page.sum()).abs() < 1e-9);
    assert!((remote - page.sum()).abs() < 1e-9);
    cluster.shutdown(driver);
}

/// §4: the split-loop parallel read over N devices.
#[test]
fn section4_parallel_device_read() {
    let n = 6;
    let (cluster, mut driver) = ClusterBuilder::new(n)
        .register::<PageDevice>()
        .register::<ArrayPageDevice>()
        .build();
    let mut devices = Vec::new();
    for i in 0..n {
        devices.push(
            ArrayPageDeviceClient::new_on(
                &mut driver,
                i,
                format!("array_blocks_{i}"),
                8,
                4,
                4,
                4,
                0,
                None,
            )
            .unwrap(),
        );
    }
    let page_address: Vec<u64> = (0..n as u64).map(|i| (3 * i) % 8).collect();
    for (i, d) in devices.iter().enumerate() {
        d.write_array(
            &mut driver,
            page_address[i],
            ArrayPage::generate(4, 4, 4, i as u64).into_f64s(),
        )
        .unwrap();
    }
    // The compiler-split loop.
    let pending: Vec<_> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| d.read_array_async(&mut driver, page_address[i]).unwrap())
        .collect();
    let buffers = join(&mut driver, pending).unwrap();
    for (i, buf) in buffers.iter().enumerate() {
        assert_eq!(buf.0, ArrayPage::generate(4, 4, 4, i as u64).elements());
    }
    cluster.shutdown(driver);
}

/// §4: the FFT master listing — create the group, SetGroup, transform.
#[test]
fn section4_fft_group_listing() {
    let shape = [8usize, 8, 8];
    let grid: Vec<Complex> = (0..512).map(|i| c64((i as f64 * 0.1).sin(), 0.0)).collect();
    let expected = Fft3::new(shape).transform(&Grid3::new(shape, grid.clone()), Direction::Forward);

    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(4)).build();
    let dfft = DistributedFft3::new(&mut driver, [8, 8, 8], 4).unwrap();
    dfft.scatter(&mut driver, &grid).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    let got = dfft.gather(&mut driver).unwrap();
    assert!(max_error(&got, expected.data()) < 1e-9);
    dfft.destroy(&mut driver).unwrap();
    cluster.shutdown(driver);
}

/// §5: the Array built over BlockStorage with a PageMap, summed by
/// multiple parallel Array clients, then persisted and reborn.
#[test]
fn section5_array_and_persistence() {
    let (cluster, mut driver) = register_classes(ClusterBuilder::new(3)).build();

    // Build the array.
    let grid = [2u64, 2, 2];
    let map = PageMap::hashed(grid, 3, 42);
    let storage =
        BlockStorage::create(&mut driver, "set", 3, map.pages_per_device(), 4, 4, 4, 1).unwrap();
    let array = Array::new([8, 8, 8], [4, 4, 4], storage, map).unwrap();
    let whole = array.whole();
    let data: Vec<f64> = (0..512).map(|i| (i % 97) as f64).collect();
    array.write(&mut driver, &whole, &data).unwrap();
    let expected: f64 = data.iter().sum();

    // Loop over subdomains with a single client...
    let mut total = 0.0;
    for slab in whole.split_axis0(4) {
        total += array.sum(&mut driver, &slab).unwrap();
    }
    assert!((total - expected).abs() < 1e-9);
    // ... and with parallel clients.
    let par = parallel_sum(&mut driver, &array, &whole, 3).unwrap();
    assert!((par - expected).abs() < 1e-9);

    // Persist one device and reactivate it; the array still answers.
    let dev0 = *array.storage().device(0);
    let key = oopp_repro::oopp::symbolic_addr(&["snapshots", "set", "0"]);
    driver.deactivate(dev0.obj_ref(), key.clone()).unwrap();
    let revived: ArrayPageDeviceClient = driver.activate(dev0.machine(), &key).unwrap();
    // Rebuild the storage table with the revived device.
    let mut devices = array.storage().devices().to_vec();
    devices[0] = revived;
    let array2 = Array::new(
        [8, 8, 8],
        [4, 4, 4],
        BlockStorage::from_devices(devices),
        array.map().clone(),
    )
    .unwrap();
    let after = array2.sum(&mut driver, &whole).unwrap();
    assert!(
        (after - expected).abs() < 1e-9,
        "data survived deactivation"
    );
    cluster.shutdown(driver);
}

/// Sub-domain reads assemble correctly across page and device boundaries.
#[test]
fn section5_subdomain_read_assembly() {
    let (cluster, mut driver) = register_classes(ClusterBuilder::new(2)).build();
    let grid = [3u64, 3, 3];
    let map = PageMap::zcurve(grid, 2);
    let storage =
        BlockStorage::create(&mut driver, "z", 2, map.pages_per_device(), 2, 2, 2, 1).unwrap();
    let array = Array::new([6, 6, 6], [2, 2, 2], storage, map).unwrap();
    let data: Vec<f64> = (0..216).map(|i| i as f64).collect();
    array.write(&mut driver, &array.whole(), &data).unwrap();

    let d = Domain::new(1, 5, 1, 5, 1, 5);
    let sub = array.read(&mut driver, &d).unwrap();
    // Check a few elements against the row-major layout.
    let at = |i1: u64, i2: u64, i3: u64| ((i1 * 6 + i2) * 6 + i3) as f64;
    assert_eq!(sub[0], at(1, 1, 1));
    assert_eq!(sub[63], at(4, 4, 4));
    assert_eq!(sub.len(), 64);
    cluster.shutdown(driver);
}
