//! Live object migration and adaptive placement (DESIGN §9): move a hot
//! object to an idle machine while callers keep calling it.
//!
//! ```text
//! cargo run --release --example live_migration
//! ```

use oopp::{
    migrate_bound, symbolic_addr, Backoff, CallPolicy, ClusterBuilder, DoubleBlockClient,
    RemoteClient,
};
use placement::{Balancer, PlacementPolicy};

fn main() {
    let policy = CallPolicy::reliable(std::time::Duration::from_millis(100))
        .with_max_retries(4)
        .with_backoff(Backoff::fixed(std::time::Duration::from_millis(5)));
    let (cluster, mut driver) = ClusterBuilder::new(3).call_policy(policy).build();

    // The paper's static placement: the object is born on machine 0 and
    // would stay there for its whole lifetime.
    let block = DoubleBlockClient::new_on(&mut driver, 0, 256).unwrap();
    block.fill(&mut driver, 1.5).unwrap();
    let before = block.sum_range(&mut driver, 0, 256).unwrap();
    println!("block born on machine {}, sum = {before}", block.machine());

    // One explicit live migration: quiesce → transfer → commit. The old
    // address keeps a forwarding stub, so a stale client still works —
    // its first call chases one `Moved` redirect, then goes direct. The
    // driver coordinated this move, so make it forget what it learned and
    // act like any other stale caller in the cluster.
    let new_ref = driver.migrate(block.obj_ref(), 2).unwrap();
    println!(
        "migrated to machine {} (fresh id {})",
        new_ref.machine, new_ref.object
    );
    driver.forget_move(block.obj_ref());
    let after = block.sum_range(&mut driver, 0, 256).unwrap();
    assert_eq!(before, after, "state must survive the move bit-for-bit");
    println!("stale pointer chased the forward: sum still {after}");

    // Symbolic addresses move too: migrate_bound re-binds the directory
    // entry so resolvers never see the stub.
    let dir = driver.directory();
    let addr = symbolic_addr(&["demo", "hot", "block"]);
    dir.bind(&mut driver, addr.clone(), block.obj_ref())
        .unwrap();
    let bound = migrate_bound(&mut driver, &dir, &addr, 1).unwrap();
    println!(
        "migrate_bound moved it to machine {} and re-bound '{addr}'",
        bound.machine
    );

    // The closed loop: a balancer watches per-machine load and moves hot
    // objects off the busy machine by itself.
    let hot: Vec<_> = (0..4)
        .map(|_| DoubleBlockClient::new_on(&mut driver, 0, 256).unwrap())
        .collect();
    let mut balancer = Balancer::new(
        PlacementPolicy::GreedyRebalance {
            imbalance_ratio: 1.2,
            max_moves_per_round: 2,
        },
        vec![0, 1, 2],
    );
    balancer.pin(dir.obj_ref());
    for round in 0..6 {
        for b in &hot {
            for i in 0..8 {
                b.set(&mut driver, i, round as f64).unwrap();
            }
        }
        for plan in &balancer.step(&mut driver) {
            println!(
                "round {round}: balancer moved object {} (load {}) to machine {}",
                plan.object.object, plan.load, plan.target
            );
        }
    }
    println!(
        "balancer executed {} migrations total",
        balancer.moves_executed()
    );

    let stats = driver.stats_of(0).unwrap();
    println!(
        "machine 0 now forwards stale callers: {} calls redirected so far",
        stats.calls_forwarded
    );
    cluster.shutdown(driver);
}
