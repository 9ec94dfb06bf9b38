//! Iterative radix-2 Cooley–Tukey FFT for power-of-two sizes.
//!
//! Laid out like [`Radix4`](crate::radix4::Radix4): the bit reversal, the
//! twiddles per stage in the order they are read, a conjugated copy for the
//! inverse, a first stage that multiplies nothing, the inverse's `1/n` in
//! the last stage, one sweep of `tile.rs` for lines, rows and columns.

use std::ops::Range;

use crate::complex::Complex;
use crate::tile::{runs, Butterfly, Rows, Run, Stages, Twiddle};

/// Precomputed machinery for power-of-two transforms.
#[derive(Debug, Clone)]
pub(crate) struct Radix2 {
    n: usize,
    /// The bit reversal of `0..n`.
    reversal: Vec<u32>,
    /// `w^j` for `j in 0..len/2`, `w = e^{-2πi/len}`, the stages
    /// `len = 4, 8, …, n` one after the other; `[1]` holds the conjugates.
    /// Indexed by `Direction as usize`.
    twiddles: [Vec<Twiddle>; 2],
}

/// One butterfly: row 1 times its twiddle (none in the first stage), then
/// sum and difference, each times `scale` when `SCALED` (the inverse's
/// last stage).
struct Pair<const SCALED: bool> {
    twiddle: Option<Twiddle>,
    scale: f64,
}

impl<const SCALED: bool> Butterfly<2> for Pair<SCALED> {
    #[inline(always)]
    fn run<const R: usize>(&self, [a, mut b]: [Run<R>; 2]) -> [Run<R>; 2] {
        if let Some(w) = self.twiddle {
            b = b.twiddle(w);
        }
        let out = [a + b, a - b];
        if SCALED {
            out.map(|run| run.scale(self.scale))
        } else {
            out
        }
    }
}

impl Radix2 {
    /// One stage: the butterflies of every group of `2·half` rows.
    #[inline(always)]
    fn stage<'a, const SCALED: bool, const RUN: usize>(
        &self,
        mut rows: impl Rows<'a>,
        half: usize,
        twiddles: &[Twiddle],
        cols: &Range<usize>,
    ) {
        let scale = 1.0 / self.n as f64;
        for _ in 0..self.n / (2 * half) {
            let group;
            (group, rows) = rows.split(2 * half);
            let (lo, hi) = group.split(half);
            for (j, (r0, r1)) in lo.each().zip(hi.each()).enumerate() {
                let twiddle = twiddles.get(j).copied();
                runs::<2, RUN>(Pair::<SCALED> { twiddle, scale }, [r0, r1], cols);
            }
        }
    }
}

impl Stages for Radix2 {
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
        let mut half = 1;
        while 2 * half <= self.n {
            let stage;
            (stage, twiddles) = twiddles.split_at(if half == 1 { 0 } else { half });
            if INVERSE && 2 * half == self.n {
                self.stage::<true, RUN>(rows.by_ref(), half, stage, cols);
            } else {
                self.stage::<false, RUN>(rows.by_ref(), half, stage, cols);
            }
            half *= 2;
        }
    }
}

impl Radix2 {
    /// Plan a transform of size `n`.
    ///
    /// # Panics
    /// If `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "Radix2 requires a power-of-two size, got {n}"
        );
        let bits = n.trailing_zeros();
        let reversal = (0..n as u32)
            .map(|i| i.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
            .collect();
        // Every stage reads the one table `e^{-2πi k / n}` at a stride.
        let root = |k: usize| Complex::cis(-std::f64::consts::TAU * k as f64 / n as f64);
        let mut forward = Vec::with_capacity(n);
        let mut len = 4;
        while len <= n {
            forward.extend((0..len / 2).map(|j| root(j * (n / len))));
            len <<= 1;
        }
        let inverse = forward.iter().map(|w| w.conj()).collect();
        let twiddles =
            [forward, inverse].map(|t: Vec<Complex>| t.into_iter().map(Twiddle::new).collect());
        Radix2 {
            n,
            reversal,
            twiddles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};
    use crate::dft::{dft, Direction};
    use crate::tile::{sweep, Lines};

    /// The sweep over one line.
    fn process(plan: &Radix2, line: &mut [Complex], dir: Direction) {
        sweep(plan, Lines::Columns(line, 1), dir);
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| c64(i as f64 * 0.5, (i as f64 * 0.3).sin()))
            .collect()
    }

    #[test]
    fn matches_reference_dft_for_all_small_powers() {
        for bits in 0..=9 {
            let n = 1 << bits;
            let plan = Radix2::new(n);
            let x = ramp(n);
            let mut fast = x.clone();
            process(&plan, &mut fast, Direction::Forward);
            let slow = dft(&x, Direction::Forward);
            assert!(
                max_error(&fast, &slow) < 1e-8 * n as f64,
                "n={n}: error {}",
                max_error(&fast, &slow)
            );
        }
    }

    #[test]
    fn inverse_roundtrips() {
        let n = 256;
        let plan = Radix2::new(n);
        let x = ramp(n);
        let mut y = x.clone();
        process(&plan, &mut y, Direction::Forward);
        process(&plan, &mut y, Direction::Inverse);
        assert!(max_error(&x, &y) < 1e-10);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = Radix2::new(1);
        let mut x = vec![c64(3.0, -4.0)];
        process(&plan, &mut x, Direction::Forward);
        assert_eq!(x, vec![c64(3.0, -4.0)]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_panics() {
        let _ = Radix2::new(12);
    }

    #[test]
    fn linearity() {
        let n = 64;
        let plan = Radix2::new(n);
        let x = ramp(n);
        let y: Vec<Complex> = (0..n).map(|i| c64((i as f64).cos(), 0.25)).collect();
        let alpha = c64(2.0, -1.0);

        let mut fx = x.clone();
        process(&plan, &mut fx, Direction::Forward);
        let mut fy = y.clone();
        process(&plan, &mut fy, Direction::Forward);
        let combined_then: Vec<Complex> =
            fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();

        let mut combined_first: Vec<Complex> =
            x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        process(&plan, &mut combined_first, Direction::Forward);

        assert!(max_error(&combined_first, &combined_then) < 1e-9);
    }
}
