//! # fft — Fourier transforms for the oopp reproduction, from scratch
//!
//! The paper's motivating computation is "a Fourier transform on a very
//! large (Petascale) three-dimensional array" (§1), evaluated as a group of
//! cooperating FFT processes (§4). This crate supplies the whole stack:
//!
//! * [`Complex`] arithmetic (no external numerics crates);
//! * a naive [`dft`](mod@dft) as the testing oracle;
//! * [`Radix2`]/[`Radix4`] (iterative Cooley–Tukey) and [`Bluestein`]
//!   (arbitrary n) 1-D transforms behind the size-dispatching [`Fft`] plan,
//!   for one line, every row or every column of a matrix: each power-of-two
//!   radix is one sweep over a tile of columns, a run of values per
//!   butterfly, compiled three times — baseline, AVX2, AVX-512, each with
//!   its own run width — and run in the widest build the CPU has: the same
//!   spectra, bit for bit, in every build;
//! * [`Fft2`]/[`Fft3`] row–column 2-D/3-D transforms;
//! * [`DistributedFft3`] — the paper's §4 example: slab decomposition over
//!   a group of [`FftWorker`] object-processes exchanging transpose blocks
//!   by remote method invocation, one transpose per transform: a worker
//!   holds whichever [`Layout`] (planes or columns) its last pass left.
//!
//! ```
//! use fft::{c64, dft, Direction, Fft, max_error, Complex};
//!
//! let x: Vec<Complex> = (0..16).map(|i| c64((i as f64).sin(), 0.0)).collect();
//! let fast = Fft::new(16).forward(&x);
//! let slow = dft(&x, Direction::Forward);
//! assert!(max_error(&fast, &slow) < 1e-9);
//! ```

pub mod bluestein;
pub mod complex;
pub mod dft;
pub mod distributed;
pub mod nd;
pub mod nd2;
pub mod plan;
pub mod radix2;
pub mod radix4;
mod tile;

pub use bluestein::Bluestein;
pub use complex::{as_f64s, as_f64s_mut, c64, max_error, Complex};
pub use dft::{dft, Direction};
pub use distributed::{
    BlockInbox, BlockInboxClient, DistributedFft3, FftWorker, FftWorkerClient, Layout,
};
pub use nd::{dft3, Fft3, Grid3};
pub use nd2::{Fft2, Grid2};
pub use plan::Fft;
pub use radix2::Radix2;
pub use radix4::Radix4;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;
