//! Iterative radix-4 Cooley–Tukey FFT for sizes that are powers of four.
//!
//! Radix-4 butterflies do the work of two radix-2 stages with ~25% fewer
//! multiplies; [`Fft`](crate::plan::Fft) selects this path when `n = 4^k`.
//!
//! The plan stores what a transform reads in the order it reads it: the
//! digit reversal, and per stage the three twiddles of each butterfly side
//! by side, once as they are and once conjugated for the inverse. The first
//! stage's twiddles are all 1 and it multiplies nothing; `±i` is a swap and
//! a negation; the inverse's last stage multiplies its outputs by `1/n`.
//! Lines, rows and columns all go through the one sweep of `tile.rs`, a run
//! of values per butterfly.

use std::ops::Range;

use crate::complex::Complex;
use crate::dft::Direction;
use crate::tile::{runs, sweep, Butterfly, Lines, Rows, Run, Stages, Twiddle};

/// Precomputed radix-4 plan.
#[derive(Debug, Clone)]
pub struct Radix4 {
    n: usize,
    /// The base-4 digit reversal of `0..n`.
    reversal: Vec<u32>,
    /// `[w^j, w^2j, w^3j]` for `j in 0..len/4`, `w = e^{-2πi/len}`, the
    /// stages `len = 16, 64, …, n` one after the other; `[1]` holds the
    /// conjugates. Indexed by `Direction as usize`.
    twiddles: [Vec<[Twiddle; 3]>; 2],
}

/// True if `n` is a power of four.
pub fn is_power_of_four(n: usize) -> bool {
    n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2)
}

/// One butterfly: rows 1–3 times their twiddles (none in the first stage,
/// whose twiddles are all 1), then the four outputs, each times `scale`
/// when `SCALED` (the inverse's last stage). The rotation of `b - d` is by
/// `-i` forward and by `+i` inverse.
struct Quad<const INVERSE: bool, const SCALED: bool> {
    twiddles: Option<[Twiddle; 3]>,
    scale: f64,
}

impl<const INVERSE: bool, const SCALED: bool> Butterfly<4> for Quad<INVERSE, SCALED> {
    #[inline(always)]
    fn run<const R: usize>(&self, [a, mut b, mut c, mut d]: [Run<R>; 4]) -> [Run<R>; 4] {
        if let Some([wb, wc, wd]) = self.twiddles {
            [b, c, d] = [b.twiddle(wb), c.twiddle(wc), d.twiddle(wd)];
        }
        let (ac_sum, ac_diff) = (a + c, a - c);
        let (bd_sum, bd_diff) = (b + d, (b - d).rotate::<INVERSE>());
        let out = [
            ac_sum + bd_sum,
            ac_diff + bd_diff,
            ac_sum - bd_sum,
            ac_diff - bd_diff,
        ];
        if SCALED {
            out.map(|run| run.scale(self.scale))
        } else {
            out
        }
    }
}

impl Radix4 {
    /// One stage: the butterflies of every group of `4·quarter` rows.
    #[inline(always)]
    fn stage<'a, const INVERSE: bool, const SCALED: bool, const RUN: usize>(
        &self,
        mut rows: impl Rows<'a>,
        quarter: usize,
        twiddles: &[[Twiddle; 3]],
        cols: &Range<usize>,
    ) {
        let scale = 1.0 / self.n as f64;
        for _ in 0..self.n / (4 * quarter) {
            let group;
            (group, rows) = rows.split(4 * quarter);
            let (lo, hi) = group.split(2 * quarter);
            let ((q0, q1), (q2, q3)) = (lo.split(quarter), hi.split(quarter));
            let quads = q0.each().zip(q1.each()).zip(q2.each()).zip(q3.each());
            for (j, (((r0, r1), r2), r3)) in quads.enumerate() {
                let twiddles = twiddles.get(j).copied();
                let butterfly = Quad::<INVERSE, SCALED> { twiddles, scale };
                runs::<4, RUN>(butterfly, [r0, r1, r2, r3], cols);
            }
        }
    }
}

impl Stages for Radix4 {
    fn reversal(&self) -> &[u32] {
        &self.reversal
    }

    #[inline(always)]
    fn stages<'a, const INVERSE: bool, const RUN: usize>(
        &self,
        mut rows: impl Rows<'a>,
        cols: &Range<usize>,
    ) {
        let mut twiddles = &self.twiddles[INVERSE as usize][..];
        let mut quarter = 1;
        while 4 * quarter <= self.n {
            let stage;
            (stage, twiddles) = twiddles.split_at(if quarter == 1 { 0 } else { quarter });
            if INVERSE && 4 * quarter == self.n {
                self.stage::<INVERSE, true, RUN>(rows.by_ref(), quarter, stage, cols);
            } else {
                self.stage::<INVERSE, false, RUN>(rows.by_ref(), quarter, stage, cols);
            }
            quarter *= 4;
        }
    }
}

impl Radix4 {
    /// Plan a transform of size `n = 4^k`.
    ///
    /// # Panics
    /// If `n` is not a power of four.
    pub fn new(n: usize) -> Self {
        assert!(
            is_power_of_four(n),
            "Radix4 requires a power-of-four size, got {n}"
        );
        let pairs = n.trailing_zeros() / 2; // base-4 digits
        let reversal = (0..n as u32)
            .map(|mut v| {
                let mut r = 0u32;
                for _ in 0..pairs {
                    r = (r << 2) | (v & 3);
                    v >>= 2;
                }
                r
            })
            .collect();
        // Every stage reads the one table `e^{-2πi k / n}` at a stride.
        let root = |k: usize| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64);
        let mut forward = Vec::new();
        let mut len = 16;
        while len <= n {
            let stride = n / len;
            forward.extend(
                (0..len / 4)
                    .map(|j| [root(j * stride), root(2 * j * stride), root(3 * j * stride)]),
            );
            len <<= 2;
        }
        let inverse = forward.iter().map(|w| w.map(Complex::conj)).collect();
        let twiddles = [forward, inverse]
            .map(|t: Vec<[Complex; 3]>| t.into_iter().map(|w| w.map(Twiddle::new)).collect());
        Radix4 {
            n,
            reversal,
            twiddles,
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

    /// In-place transform: the one column of an `[n][1]` matrix.
    ///
    /// # Panics
    /// If `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        sweep(self, Lines::Columns(data, 1), dir);
    }

    /// Transform every column of the row-major `[n][width]` matrix `data`
    /// in place, a tile of columns at a time.
    ///
    /// # Panics
    /// If `data.len() != self.len() * width`.
    pub fn process_columns(&self, data: &mut [Complex], width: usize, dir: Direction) {
        sweep(self, Lines::Columns(data, width), dir);
    }

    /// Transform every column of the row table `rows` — `n` rows of one
    /// width, each wherever it lies — in place, as
    /// [`process_columns`](Self::process_columns) does a matrix's.
    ///
    /// # Panics
    /// If `rows` is not `n` rows of one width.
    pub(crate) fn process_table(&self, rows: &mut [&mut [Complex]], dir: Direction) {
        sweep(self, Lines::Table(rows), dir);
    }

    /// Transform every row of the row-major `[rows][n]` matrix `data` in
    /// place, a few rows at a time as the columns of a small tile.
    ///
    /// # Panics
    /// If `data` is not whole rows of `n`.
    pub fn process_rows(&self, data: &mut [Complex], dir: Direction) {
        sweep(self, Lines::Rows(data), dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};
    use crate::dft::dft;
    use crate::radix2::Radix2;

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| c64((i as f64 * 0.61).sin(), (i as f64 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn power_of_four_detector() {
        for n in [1usize, 4, 16, 64, 256, 1024] {
            assert!(is_power_of_four(n), "{n}");
        }
        for n in [0usize, 2, 8, 12, 32, 128] {
            assert!(!is_power_of_four(n), "{n}");
        }
    }

    #[test]
    fn matches_reference_dft() {
        for n in [1usize, 4, 16, 64, 256] {
            let plan = Radix4::new(n);
            let x = signal(n);
            let mut fast = x.clone();
            plan.process(&mut fast, Direction::Forward);
            let slow = dft(&x, Direction::Forward);
            let err = max_error(&fast, &slow);
            assert!(err < 1e-8 * n.max(1) as f64, "n={n}: error {err}");
        }
    }

    #[test]
    fn agrees_with_radix2_exactly_in_shape() {
        let n = 256;
        let x = signal(n);
        let mut via4 = x.clone();
        Radix4::new(n).process(&mut via4, Direction::Forward);
        let mut via2 = x.clone();
        Radix2::new(n).process(&mut via2, Direction::Forward);
        assert!(max_error(&via4, &via2) < 1e-9);
    }

    #[test]
    fn inverse_roundtrips() {
        let n = 1024;
        let plan = Radix4::new(n);
        let x = signal(n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        assert!(max_error(&x, &y) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "power-of-four")]
    fn rejects_non_power_of_four() {
        let _ = Radix4::new(8);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Radix4::new(1);
        let mut x = vec![c64(2.0, -3.0)];
        plan.process(&mut x, Direction::Forward);
        assert_eq!(x, vec![c64(2.0, -3.0)]);
    }
}
