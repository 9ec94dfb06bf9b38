//! The paper's §4 parallel FFT, both ways: as a group of oopp
//! object-processes and as the hand-written message-passing baseline, on
//! identical simulated hardware.
//!
//! ```text
//! cargo run --release --example parallel_fft
//! ```

use std::time::Instant;

use fft::{c64, max_error, Complex, Direction, DistributedFft3, Fft3, Grid3};
use mplite::apps::fft_run;
use oopp::ClusterBuilder;
use simnet::ClusterConfig;

fn sample(shape: [usize; 3]) -> Vec<Complex> {
    let n = shape[0] * shape[1] * shape[2];
    (0..n)
        .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

fn main() {
    let shape = [32usize, 32, 32];
    let data = sample(shape);
    println!(
        "3-D FFT of a {}x{}x{} complex grid ({} KiB)",
        shape[0],
        shape[1],
        shape[2],
        shape.iter().product::<usize>() * 16 / 1024
    );

    // Ground truth: single-node transform.
    let t = Instant::now();
    let local = Fft3::new(shape).transform(&Grid3::new(shape, data.clone()), Direction::Forward);
    println!("local single-node:        {:?}", t.elapsed());

    for parts in [2usize, 4, 8] {
        // --- oopp: the paper's FFT process group.
        let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(parts)).build();
        let dfft = DistributedFft3::new(
            &mut driver,
            [shape[0] as u64, shape[1] as u64, shape[2] as u64],
            parts,
        )
        .expect("create FFT group");
        dfft.scatter(&mut driver, &data).expect("scatter");
        let t = Instant::now();
        dfft.transform(&mut driver, Direction::Forward)
            .expect("transform");
        let oopp_time = t.elapsed();
        let got = dfft.gather(&mut driver).expect("gather");
        let err = max_error(&got, local.data());
        assert!(err < 1e-9, "oopp parts={parts}: error {err}");
        cluster.shutdown(driver);

        // --- mplite: the same algorithm, hand-written message passing.
        let t = Instant::now();
        let (got, _) = fft_run(
            ClusterConfig::zero_cost(parts),
            shape,
            data.clone(),
            Direction::Forward,
        );
        let mpi_time = t.elapsed();
        let err = max_error(&got, local.data());
        assert!(err < 1e-9, "mplite parts={parts}: error {err}");

        println!("{parts} processes:  oopp RMI {oopp_time:?}   message-passing {mpi_time:?}");
    }

    // Roundtrip sanity: forward then inverse restores the input.
    let (cluster, mut driver) = DistributedFft3::register(ClusterBuilder::new(4)).build();
    let dfft = DistributedFft3::new(&mut driver, [32, 32, 32], 4).unwrap();
    dfft.scatter(&mut driver, &data).unwrap();
    dfft.transform(&mut driver, Direction::Forward).unwrap();
    dfft.transform(&mut driver, Direction::Inverse).unwrap();
    let back = dfft.gather(&mut driver).unwrap();
    println!(
        "forward+inverse roundtrip max error: {:.3e}",
        max_error(&back, &data)
    );
    cluster.shutdown(driver);
}
