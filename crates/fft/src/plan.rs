//! Size-dispatching FFT plans.

use crate::complex::Complex;
use crate::dft::Direction;
use crate::radix2::Radix2;
use crate::radix4::{is_power_of_four, Radix4};
use crate::tile::{sweep, Lines};

#[derive(Debug, Clone)]
enum Strategy {
    Radix2(Radix2),
    Radix4(Radix4),
}

/// A reusable 1-D FFT plan of a power-of-two size: radix-4 for powers of
/// four, radix-2 for the other powers of two.
///
/// ```
/// use fft::{Fft, Direction, Complex, c64};
///
/// let plan = Fft::new(32); // 2^5, not a power of four — radix-2
/// let x: Vec<Complex> = (0..32).map(|i| c64(i as f64, 0.0)).collect();
/// let y = plan.forward(&x);
/// let back = plan.transform(&y, Direction::Inverse);
/// assert!(fft::max_error(&x, &back) < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    strategy: Strategy,
}

impl Fft {
    /// Plan a transform of size `n`.
    ///
    /// # Panics
    /// If `n` is not a power of two (1 is one).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "transform size must be a power of two, got {n}"
        );
        let strategy = if is_power_of_four(n) && n > 1 {
            Strategy::Radix4(Radix4::new(n))
        } else {
            Strategy::Radix2(Radix2::new(n))
        };
        Fft { n, strategy }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Never empty (n ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every form below, one dispatch: the sweep of `tile.rs` with the
    /// plan's radix.
    fn run(&self, lines: Lines<'_, '_>, dir: Direction) {
        match &self.strategy {
            Strategy::Radix2(p) => sweep(p, lines, dir),
            Strategy::Radix4(p) => sweep(p, lines, dir),
        }
    }

    /// In-place transform: the one column of an `[n][1]` matrix.
    ///
    /// # Panics
    /// If `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        self.run(Lines::Columns(data, 1), dir);
    }

    /// Transform every column of the row-major `[n][width]` matrix `data`
    /// in place — how every strided axis of a 2-D or 3-D transform is run:
    /// no column is gathered into a line, and a butterfly's twiddles are
    /// read once for a run of columns.
    ///
    /// ```
    /// use fft::{c64, Complex, Direction, Fft};
    ///
    /// let plan = Fft::new(4);
    /// // Three columns, each the sequence 1, 0, 0, 0 scaled.
    /// let mut m = vec![Complex::ZERO; 4 * 3];
    /// m[..3].copy_from_slice(&[c64(1.0, 0.0), c64(2.0, 0.0), c64(3.0, 0.0)]);
    /// plan.process_columns(&mut m, 3, Direction::Forward);
    /// assert!(m.chunks(3).all(|row| row == &m[..3]));
    /// ```
    ///
    /// # Panics
    /// If `data.len() != self.len() * width`.
    pub fn process_columns(&self, data: &mut [Complex], width: usize, dir: Direction) {
        self.run(Lines::Columns(data, width), dir);
    }

    /// Transform every column of the row table `rows` in place: `n` rows of
    /// one width, each wherever it lies — the runs of a slab and the rows
    /// of a receive buffer, say — through the sweep
    /// [`process_columns`](Self::process_columns) runs, value for value.
    ///
    /// # Panics
    /// If `rows` is not `n` rows of one width.
    pub(crate) fn process_table(&self, rows: &mut [&mut [Complex]], dir: Direction) {
        self.run(Lines::Table(rows), dir);
    }

    /// Transform every row of the row-major `[rows][n]` matrix `data` in
    /// place — how the contiguous axis of a 2-D or 3-D transform is run:
    /// a few rows at a time through the sweep the columns go through.
    ///
    /// # Panics
    /// If `data` is not whole rows of `n`.
    pub fn process_rows(&self, data: &mut [Complex], dir: Direction) {
        self.run(Lines::Rows(data), dir);
    }

    /// Out-of-place transform.
    pub fn transform(&self, input: &[Complex], dir: Direction) -> Vec<Complex> {
        let mut out = input.to_vec();
        self.process(&mut out, dir);
        out
    }

    /// Out-of-place forward transform.
    pub fn forward(&self, input: &[Complex]) -> Vec<Complex> {
        self.transform(input, Direction::Forward)
    }

    /// Out-of-place inverse transform.
    pub fn inverse(&self, input: &[Complex]) -> Vec<Complex> {
        self.transform(input, Direction::Inverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};
    use crate::dft::dft;

    #[test]
    fn plan_picks_the_right_strategy() {
        let strategy = |n| Fft::new(n).strategy;
        assert!(matches!(strategy(64), Strategy::Radix4(_)), "64 = 4^3");
        assert!(
            matches!(strategy(128), Strategy::Radix2(_)),
            "2^7, not a power of 4"
        );
        assert!(matches!(strategy(1), Strategy::Radix2(_)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn a_size_that_is_not_a_power_of_two_panics() {
        Fft::new(12);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn wrong_buffer_length_panics() {
        Fft::new(8).process(&mut [Complex::ZERO; 4], Direction::Forward);
    }

    #[test]
    fn all_sizes_match_reference() {
        for n in (0..=6).map(|k| 1 << k) {
            let plan = Fft::new(n);
            let x: Vec<Complex> = (0..n)
                .map(|i| c64((i as f64).sqrt(), (i % 3) as f64 - 1.0))
                .collect();
            let err = max_error(&plan.forward(&x), &dft(&x, Direction::Forward));
            assert!(err < 1e-7, "n={n}: error {err}");
        }
    }

    #[test]
    fn rows_are_lines_for_every_strategy() {
        // Radix-4, radix-2.
        for n in [16, 8] {
            let plan = Fft::new(n);
            for dir in [Direction::Forward, Direction::Inverse] {
                let x: Vec<Complex> = (0..5 * n).map(|i| c64(i as f64, 0.5)).collect();
                let mut rows = x.clone();
                plan.process_rows(&mut rows, dir);
                let lines: Vec<Complex> =
                    x.chunks(n).flat_map(|l| plan.transform(l, dir)).collect();
                assert!(rows == lines, "n={n} {dir:?}");
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [8, 64] {
            let plan = Fft::new(n);
            let x: Vec<Complex> = (0..n).map(|i| c64(i as f64, -(i as f64))).collect();
            let back = plan.inverse(&plan.forward(&x));
            assert!(max_error(&x, &back) < 1e-8, "n={n}");
        }
    }
}
