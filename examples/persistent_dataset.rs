//! Persistent processes and symbolic addresses (§5): build a dataset,
//! publish it under `oopp://` names, deactivate it, then have a "second
//! program" find and reactivate it by name — plus the §5 copy-constructor
//! from a live process.
//!
//! ```text
//! cargo run --release --example persistent_dataset
//! ```

use oopp::{symbolic_addr, ClusterBuilder, RemoteClient};
use pagestore::{ArrayPage, ArrayPageDevice, ArrayPageDeviceClient, PageDevice};

fn main() {
    let (cluster, mut driver) = ClusterBuilder::new(2)
        .register::<PageDevice>()
        .register::<ArrayPageDevice>()
        .build();
    let dir = driver.directory();

    // --- Program 1: build and publish a dataset.
    let device = ArrayPageDeviceClient::new_on(
        &mut driver,
        0,
        "climate_blocks".into(),
        4, // pages
        8,
        8,
        8, // 8x8x8 doubles per page
        0,
        None,
    )
    .expect("create dataset device");
    for page in 0..4 {
        device
            .write_array(
                &mut driver,
                page,
                ArrayPage::generate(8, 8, 8, page).into_f64s(),
            )
            .expect("write page");
    }
    let sums: Vec<f64> = (0..4)
        .map(|p| device.sum(&mut driver, p).unwrap())
        .collect();
    println!("dataset built; per-page sums: {sums:?}");

    // Publish under a DAP-style symbolic address...
    let name = symbolic_addr(&["data", "set", "ArrayPageDevice", "34"]);
    dir.bind(&mut driver, name.clone(), device.obj_ref())
        .unwrap();
    println!("published as {name}");

    // ... and deactivate the live process (its pages stay on the disk).
    let snapshot_key = symbolic_addr(&["snapshots", "climate_blocks"]);
    driver
        .deactivate(device.obj_ref(), snapshot_key.clone())
        .unwrap();
    dir.unbind(&mut driver, name.clone()).unwrap();
    println!("process deactivated to snapshot {snapshot_key}");

    // --- Program 2 (later): reactivate by symbolic address.
    let revived: ArrayPageDeviceClient = driver
        .activate(0, &snapshot_key)
        .expect("reactivate dataset");
    dir.bind(&mut driver, name.clone(), revived.obj_ref())
        .unwrap();
    let resolved = dir
        .lookup(&mut driver, name.clone())
        .unwrap()
        .expect("name resolves");
    let handle = ArrayPageDeviceClient::from_ref(resolved);
    let sums2: Vec<f64> = (0..4)
        .map(|p| handle.sum(&mut driver, p).unwrap())
        .collect();
    assert_eq!(sums, sums2, "reactivated process sees the same data");
    println!("reactivated via {name}; sums match");

    // --- §5's inheritance + persistence combo: copy-construct a new
    // device from the live process, then shut the original down.
    let copy = ArrayPageDeviceClient::new_on(
        &mut driver,
        1,
        "climate_blocks_copy".into(),
        4,
        8,
        8,
        8,
        0,
        Some(handle.as_base()),
    )
    .expect("copy-construct from live process");
    handle.destroy(&mut driver).unwrap(); // delete page_device;
    let sums3: Vec<f64> = (0..4).map(|p| copy.sum(&mut driver, p).unwrap()).collect();
    assert_eq!(sums, sums3);
    println!("copy-constructed replica on machine 1 verified; original deleted");

    println!(
        "directory now holds {} name(s): {:?}",
        dir.len(&mut driver).unwrap(),
        dir.list(&mut driver, "oopp://".into()).unwrap()
    );
    cluster.shutdown(driver);
}
