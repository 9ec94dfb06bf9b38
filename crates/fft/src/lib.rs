//! # fft — Fourier transforms for the oopp reproduction, from scratch
//!
//! The paper's motivating computation is "a Fourier transform on a very
//! large (Petascale) three-dimensional array" (§1), evaluated as a group of
//! cooperating FFT processes (§4). This crate supplies the whole stack:
//!
//! * [`Complex`] arithmetic (no external numerics crates);
//! * a naive [`dft`](mod@dft) as the testing oracle;
//! * radix-2/radix-4 (iterative Cooley–Tukey) 1-D transforms of
//!   power-of-two sizes behind the size-dispatching [`Fft`] plan, for one
//!   line, every row or every column of a matrix: each radix is one sweep
//!   over a tile of columns, a run of values per butterfly, compiled three
//!   times — baseline, AVX2, AVX-512, each with its own run width — and run
//!   in the widest build the CPU has: the same spectra, bit for bit, in
//!   every build;
//! * [`Fft3`], the row–column 3-D transform: each plane's rows, then its
//!   columns, then axis 0;
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

pub mod complex;
pub mod dft;
pub mod distributed;
pub mod nd;
pub mod plan;
mod radix2;
mod radix4;
mod tile;

pub use complex::{as_f64s, as_f64s_mut, c64, max_error, Complex};
pub use dft::{dft, Direction};
pub use distributed::{
    BlockInbox, BlockInboxClient, DistributedFft3, FftWorker, FftWorkerClient, Layout,
};
pub use nd::{dft3, Fft3, Grid3};
pub use plan::Fft;

#[cfg(test)]
mod oracle;
#[cfg(test)]
mod tests;
