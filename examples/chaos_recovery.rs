//! Fault tolerance end to end (DESIGN §6): a lossy fabric, a mid-run
//! machine crash, and recovery through §5 persistence — replicated
//! snapshots plus supervised symbolic-address resolution.
//!
//! ```text
//! cargo run --release --example chaos_recovery
//! ```

use oopp::{
    resolve_or_activate_supervised, symbolic_addr, Backoff, CallPolicy, ClusterBuilder,
    DoubleBlockClient, RemoteClient, RemoteError,
};
use simnet::{ClusterConfig, FaultPlan};

fn main() {
    // Three workers on a fabric that drops 5% of all packets, seeded so
    // every run of this example behaves identically.
    let workers = 3;
    let plan = FaultPlan::seeded(0xC4A05).with_drop(0.05);
    let policy = CallPolicy::reliable(std::time::Duration::from_millis(80))
        .with_max_retries(4)
        .with_backoff(Backoff::fixed(std::time::Duration::from_millis(5)));
    let (cluster, mut driver) = ClusterBuilder::new(workers)
        .sim_config(ClusterConfig::zero_cost(0).with_faults(plan))
        .call_policy(policy)
        .build();
    let dir = driver.directory();

    // A process on machine 1, reachable by symbolic address (§5).
    let addr = symbolic_addr(&["demo", "block"]);
    let block = DoubleBlockClient::new_on(&mut driver, 1, 64).unwrap();
    dir.bind(&mut driver, addr.clone(), block.obj_ref())
        .unwrap();
    for i in 0..64 {
        block.set(&mut driver, i, i as f64).unwrap();
    }
    // Replicate its snapshot to machine 2 so a crash is survivable.
    driver.replicate_snapshot(&block, &addr, &[2]).unwrap();
    println!(
        "block live on machine {}, snapshot replicated to machine 2",
        block.machine()
    );

    // The crash: machine 1 goes network-dark mid-run.
    cluster.sim().faults().crash(1);
    match block.get(&mut driver, 7) {
        Err(RemoteError::Timeout {
            machine,
            attempts,
            millis,
            ..
        }) => println!(
            "call failed after {attempts} attempts over {millis} ms: machine {machine} is down"
        ),
        other => panic!("expected a timeout against the crashed machine, got {other:?}"),
    }

    // Recovery: re-resolve the symbolic address; the supervisor skips the
    // dead machine and reactivates the process from the replica.
    let revived: DoubleBlockClient =
        resolve_or_activate_supervised(&mut driver, &dir, &addr, &[1, 2]).unwrap();
    println!(
        "reactivated on machine {} from its snapshot",
        revived.machine()
    );
    let x = revived.get(&mut driver, 7).unwrap();
    println!("state survived the crash: block[7] = {x}");
    assert_eq!(x, 7.0);

    let stats = driver.local_stats();
    println!(
        "driver rode out the loss: {} calls retried (fabric dropped {} frames)",
        stats.calls_retried,
        cluster.snapshot().total_fault_drops(),
    );

    // Machine 1 is still dark and the plan still lossy: `shutdown` heals
    // the fabric before it sends its stop orders.
    cluster.shutdown(driver);
    println!("clean shutdown");
}
