//! Self-healing end to end (DESIGN §10): a supervised cluster detects a
//! crashed machine by heartbeat silence, reactivates its objects from
//! replicated snapshots on a survivor at a bumped epoch, and heals stale
//! pointers transparently — the old client reference keeps working.
//!
//! ```text
//! cargo run --release --example self_healing
//! ```

use std::time::{Duration, Instant};

use oopp::{symbolic_addr, Backoff, CallPolicy, ClusterBuilder, DoubleBlockClient, RemoteClient};
use simnet::ClusterConfig;
use supervision::Supervisor;

fn main() {
    // Three workers; machine 0 hosts the naming directory. Calls into a
    // dead machine must fail faster than the lease, or a blocked driver
    // would starve its own heartbeat pump.
    let policy = CallPolicy::reliable(Duration::from_millis(100))
        .with_max_retries(2)
        .with_backoff(Backoff::fixed(Duration::from_millis(5)));
    let (cluster, mut driver) = ClusterBuilder::new(3)
        .sim_config(ClusterConfig::zero_cost(0))
        .call_policy(policy)
        .build();
    let dir = driver.directory();

    // The supervisor lives in the driver and is stepped cooperatively: it
    // pumps heartbeats granting a 150 ms lease to machines 1 and 2 every
    // 10 ms, and convicts a machine once a heartbeat to it went a whole
    // lease unanswered and 150 ms passed since its last acknowledged one.
    let mut sup = Supervisor::new(Duration::from_millis(150), vec![1, 2], dir);

    // A block on machine 1, registered for supervision with machine 2 as
    // its snapshot backup. Registration binds the name at epoch 1 and
    // replicates the first snapshot.
    let addr = symbolic_addr(&["demo", "block"]);
    let block = DoubleBlockClient::new_on(&mut driver, 1, 64).unwrap();
    sup.register(&mut driver, &addr, &block, &[2]).unwrap();
    for i in 0..64 {
        block.set(&mut driver, i, i as f64).unwrap();
    }
    // Checkpoint so the replica carries the writes we just acknowledged.
    assert_eq!(sup.checkpoint(&mut driver), 1);
    println!(
        "block live on machine {} at epoch 1, snapshot replicated to machine 2",
        block.machine()
    );

    // Let a few heartbeat rounds run, then kill the home.
    let warm = Instant::now() + Duration::from_millis(120);
    while Instant::now() < warm {
        sup.step(&mut driver).unwrap();
        driver.serve_for(Duration::from_millis(5));
    }
    cluster.sim().faults().crash(1);
    println!("machine 1 crashed; supervisor is listening to the silence...");

    // Step until the supervisor declares the machine dead (silence past
    // the lease TTL) and completes the takeover.
    let mut recoveries = Vec::new();
    while recoveries.is_empty() {
        recoveries.extend(sup.step(&mut driver).unwrap());
        driver.serve_for(Duration::from_millis(2));
    }
    let r = &recoveries[0];
    println!(
        "recovered {} onto machine {} at epoch {}: detect {:.1?}, reactivate {:.1?}",
        r.name,
        r.to.machine,
        r.epoch,
        r.detect,
        r.total - r.detect,
    );
    assert_eq!(r.to.machine, 2);
    assert_eq!(r.epoch, 2);

    // The takeover incarnation carries the checkpointed state.
    let revived = DoubleBlockClient::from_ref(r.to);
    let x = revived.get(&mut driver, 7).unwrap();
    println!("state survived the crash: block[7] = {x}");
    assert_eq!(x, 7.0);

    // The machine comes back blank. The supervisor sees it answer probes,
    // re-fences its dead incarnation into a forwarder, and readmits it.
    cluster.sim().faults().restart(1);
    while sup.is_dead(1) {
        sup.step(&mut driver).unwrap();
        driver.serve_for(Duration::from_millis(2));
    }
    println!("machine 1 restarted and readmitted");

    // Now the old client pointer heals itself: the call reaches the
    // forwarder on machine 1, chases the Moved answer to machine 2, and
    // succeeds — no application-level re-resolution needed.
    let y = block.get(&mut driver, 9).unwrap();
    println!("stale pointer healed itself: block[9] = {y}");
    assert_eq!(y, 9.0);

    let stats = sup.stats();
    println!(
        "supervisor stats: {} declared dead, {} reactivated, {} false suspicions, {} poisoned",
        stats.machines_declared_dead,
        stats.objects_reactivated,
        stats.false_suspicions,
        stats.names_poisoned,
    );

    cluster.shutdown(driver);
    println!("clean shutdown");
}
