//! Bluestein's algorithm: an O(n log n) DFT for **arbitrary** n, built on a
//! power-of-two convolution.
//!
//! The DFT is rewritten as a chirp convolution:
//! `X_k = w_k · Σ_j (x_j w_j) · c_{k−j}` with `w_j = e^{-iπ j²/n}` and
//! `c_j = e^{+iπ j²/n}`, evaluated with two radix-2 FFTs of size
//! `m = next_pow2(2n − 1)`. The inner plan is radix-2 whatever `m` is: at
//! n = 5, 17 or 100, `m` is a power of four, and a radix-4 plan there would
//! move the spectra's last bits.

use crate::complex::Complex;
use crate::dft::Direction;
use crate::radix2::Radix2;
use crate::tile::{assert_whole_rows, row_table, sweep, table_width, Lines};

/// Precomputed Bluestein plan for size `n`.
#[derive(Debug, Clone)]
pub struct Bluestein {
    n: usize,
    m: usize,
    inner: Radix2,
    /// Forward chirp `w_j = e^{-iπ j²/n}`, length n.
    chirp: Vec<Complex>,
    /// FFT of the zero-padded conjugate chirp, length m (forward kernel).
    kernel_fft: Vec<Complex>,
}

impl Bluestein {
    /// Plan a transform of arbitrary size `n ≥ 1`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "transform size must be at least 1");
        let m = (2 * n - 1).next_power_of_two();
        let inner = Radix2::new(m);
        // j² mod 2n keeps the phase argument small for large j (j² overflows
        // f64 precision long before usize).
        let chirp: Vec<Complex> = (0..n)
            .map(|j| {
                let e = (j * j) % (2 * n);
                Complex::cis(-std::f64::consts::PI * e as f64 / n as f64)
            })
            .collect();
        // Kernel c_j = conj(chirp_j), symmetric: c_{m-j} = c_j for j in 1..n.
        let mut kernel = vec![Complex::ZERO; m];
        for (j, w) in chirp.iter().enumerate() {
            kernel[j] = w.conj();
            if j > 0 {
                kernel[m - j] = w.conj();
            }
        }
        sweep(&inner, Lines::Columns(&mut kernel, 1), Direction::Forward);
        Bluestein {
            n,
            m,
            inner,
            chirp,
            kernel_fft: kernel,
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (n ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// In-place transform of `data` (length n).
    ///
    /// # Panics
    /// If `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        let n = self.n;
        if n == 1 {
            return; // identity either way
        }
        // The inverse transform of x is conj(forward(conj(x))) / n.
        let conjugate = dir == Direction::Inverse;
        if conjugate {
            for v in data.iter_mut() {
                *v = v.conj();
            }
        }

        // a_j = x_j * chirp_j, zero-padded to m.
        let mut a = vec![Complex::ZERO; self.m];
        for j in 0..n {
            a[j] = data[j] * self.chirp[j];
        }
        // Convolve via the precomputed kernel FFT.
        sweep(&self.inner, Lines::Columns(&mut a, 1), Direction::Forward);
        for (av, kv) in a.iter_mut().zip(&self.kernel_fft) {
            *av *= *kv;
        }
        sweep(&self.inner, Lines::Columns(&mut a, 1), Direction::Inverse);
        // X_k = chirp_k * conv_k.
        for k in 0..n {
            data[k] = self.chirp[k] * a[k];
        }

        if conjugate {
            let inv = 1.0 / n as f64;
            for v in data.iter_mut() {
                *v = v.conj().scale(inv);
            }
        }
    }

    /// Transform `lines` in place, as [`Fft`](crate::Fft) hands them over.
    /// The chirp convolution works on one contiguous line: a row is one,
    /// and a column of a matrix or of a row table is gathered into one and
    /// scattered back.
    ///
    /// # Panics
    /// If `lines` is not whole lines of `n`.
    pub(crate) fn run(&self, lines: Lines<'_, '_>, dir: Direction) {
        match lines {
            Lines::Columns(line, 1) => self.process(line, dir),
            Lines::Columns(data, width) => self.columns(&mut row_table(data, self.n, width), dir),
            Lines::Table(rows) => self.columns(rows, dir),
            Lines::Rows(data) => {
                assert_whole_rows(data.len(), self.n);
                data.chunks_exact_mut(self.n)
                    .for_each(|row| self.process(row, dir));
            }
        }
    }

    /// Every column of the row table `rows`, one line at a time.
    fn columns(&self, rows: &mut [&mut [Complex]], dir: Direction) {
        let width = table_width(rows, self.n);
        let mut line = vec![Complex::ZERO; self.n];
        for col in 0..width {
            for (slot, row) in line.iter_mut().zip(rows.iter()) {
                *slot = row[col];
            }
            self.process(&mut line, dir);
            for (&v, row) in line.iter().zip(rows.iter_mut()) {
                row[col] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                c64(
                    (i as f64 * 0.7).sin() + 0.1 * i as f64,
                    (i as f64 * 1.3).cos(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_reference_dft_for_awkward_sizes() {
        for n in [1, 2, 3, 5, 6, 7, 9, 12, 17, 30, 97, 100, 121] {
            let plan = Bluestein::new(n);
            let x = signal(n);
            let mut fast = x.clone();
            plan.process(&mut fast, Direction::Forward);
            let slow = dft(&x, Direction::Forward);
            let err = max_error(&fast, &slow);
            assert!(err < 1e-7 * (n as f64).max(1.0), "n={n}: error {err}");
        }
    }

    #[test]
    fn inverse_roundtrips_for_awkward_sizes() {
        for n in [3, 7, 15, 33, 100] {
            let plan = Bluestein::new(n);
            let x = signal(n);
            let mut y = x.clone();
            plan.process(&mut y, Direction::Forward);
            plan.process(&mut y, Direction::Inverse);
            assert!(max_error(&x, &y) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn also_correct_for_powers_of_two() {
        // Bluestein is valid (if wasteful) for 2^k too; guards plan
        // selection bugs.
        let n = 16;
        let plan = Bluestein::new(n);
        let x = signal(n);
        let mut fast = x.clone();
        plan.process(&mut fast, Direction::Forward);
        assert!(max_error(&fast, &dft(&x, Direction::Forward)) < 1e-8);
    }

    #[test]
    fn size_one_identity() {
        let plan = Bluestein::new(1);
        let mut x = vec![c64(5.0, 6.0)];
        plan.process(&mut x, Direction::Forward);
        assert_eq!(x, vec![c64(5.0, 6.0)]);
        plan.process(&mut x, Direction::Inverse);
        assert_eq!(x, vec![c64(5.0, 6.0)]);
    }

    #[test]
    fn large_prime_size_stays_accurate() {
        let n = 251;
        let plan = Bluestein::new(n);
        let x = signal(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        assert!(max_error(&x, &y) < 1e-8);
    }
}
