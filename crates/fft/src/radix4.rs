//! Iterative radix-4 Cooley–Tukey FFT for sizes that are powers of four.
//!
//! Radix-4 butterflies do the work of two radix-2 stages with ~25% fewer
//! multiplies; [`Fft`](crate::plan::Fft) selects this path when `n = 4^k`.
//!
//! The plan stores what a transform reads in the order it reads it: the
//! exchanges of the digit reversal as a list of pairs, and per stage the
//! three twiddles of each butterfly side by side, once as they are and once
//! conjugated for the inverse. The first stage's twiddles are all 1 and it
//! multiplies nothing; `±i` is a swap and a negation.

use crate::complex::{c64, Complex};
use crate::dft::Direction;
use crate::tile::{scale_rows, swap_pairs, swap_rows, tiles};

/// Precomputed radix-4 plan.
#[derive(Debug, Clone)]
pub struct Radix4 {
    n: usize,
    /// The exchanges `(i, j)`, `i < j`, of the base-4 digit reversal.
    swaps: Vec<(u32, u32)>,
    /// `[w^j, w^2j, w^3j]` for `j in 0..len/4`, `w = e^{-2πi/len}`, the
    /// stages `len = 16, 64, …, n` one after the other; `[1]` holds the
    /// conjugates. Indexed by `Direction as usize`.
    twiddles: [Vec<[Complex; 3]>; 2],
}

/// True if `n` is a power of four.
pub fn is_power_of_four(n: usize) -> bool {
    n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2)
}

/// `group` cut into its four quarters.
fn quarters(group: &mut [Complex]) -> [&mut [Complex]; 4] {
    let (lo, hi) = group.split_at_mut(group.len() / 2);
    let (q0, q1) = lo.split_at_mut(lo.len() / 2);
    let (q2, q3) = hi.split_at_mut(hi.len() / 2);
    [q0, q1, q2, q3]
}

/// One butterfly: the twiddled `b`, `c`, `d` and `a` in, the four outputs
/// written through `a`, `b`, `c`, `d`. The rotation of `b - d` is by `-i`
/// forward and by `+i` inverse.
#[inline(always)]
fn butterfly<const INVERSE: bool>([tb, tc, td]: [Complex; 3], [a, b, c, d]: [&mut Complex; 4]) {
    let (ac_sum, ac_diff) = (*a + tc, *a - tc);
    let (bd_sum, t) = (tb + td, tb - td);
    let bd_diff = if INVERSE {
        c64(-t.im, t.re)
    } else {
        c64(t.im, -t.re)
    };
    *a = ac_sum + bd_sum;
    *b = ac_diff + bd_diff;
    *c = ac_sum - bd_sum;
    *d = ac_diff - bd_diff;
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
        let swaps = swap_pairs(n, |mut v| {
            let mut r = 0u32;
            for _ in 0..pairs {
                r = (r << 2) | (v & 3);
                v >>= 2;
            }
            r
        });
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
        Radix4 {
            n,
            swaps,
            twiddles: [forward, inverse],
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

    /// In-place transform.
    ///
    /// # Panics
    /// If `data.len() != self.len()`.
    pub fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must equal plan size");
        match dir {
            Direction::Forward => self.line::<false>(data),
            Direction::Inverse => self.line::<true>(data),
        }
    }

    /// Transform every column of the row-major `[n][width]` matrix `data`
    /// in place, a tile of columns at a time: each butterfly reads its
    /// twiddles once and sweeps the tile's run of columns.
    ///
    /// # Panics
    /// If `data.len() != self.len() * width`.
    pub fn process_columns(&self, data: &mut [Complex], width: usize, dir: Direction) {
        assert_eq!(data.len(), self.n * width, "buffer must be [n][width]");
        match dir {
            Direction::Forward => self.columns::<false>(data, width),
            Direction::Inverse => self.columns::<true>(data, width),
        }
    }

    fn line<const INVERSE: bool>(&self, data: &mut [Complex]) {
        if self.n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
        for group in data.chunks_exact_mut(4) {
            let [a, b, c, d] = group else { unreachable!() };
            butterfly::<INVERSE>([*b, *c, *d], [a, b, c, d]);
        }
        let mut twiddles = &self.twiddles[INVERSE as usize][..];
        let mut quarter = 4;
        while 4 * quarter <= self.n {
            let (stage, rest) = twiddles.split_at(quarter);
            for group in data.chunks_exact_mut(4 * quarter) {
                let [q0, q1, q2, q3] = quarters(group);
                for ((((a, b), c), d), w) in q0.iter_mut().zip(q1).zip(q2).zip(q3).zip(stage) {
                    butterfly::<INVERSE>([*b * w[0], *c * w[1], *d * w[2]], [a, b, c, d]);
                }
            }
            twiddles = rest;
            quarter *= 4;
        }
        if INVERSE {
            let inv = 1.0 / self.n as f64;
            for v in data {
                *v = v.scale(inv);
            }
        }
    }

    fn columns<const INVERSE: bool>(&self, data: &mut [Complex], width: usize) {
        if self.n <= 1 {
            return;
        }
        for cols in tiles(width) {
            swap_rows(data, width, &cols, &self.swaps);
            for group in data.chunks_exact_mut(4 * width) {
                let [r0, r1, r2, r3] = quarters(group).map(|r| &mut r[cols.clone()]);
                for (((a, b), c), d) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
                    butterfly::<INVERSE>([*b, *c, *d], [a, b, c, d]);
                }
            }
            let mut twiddles = &self.twiddles[INVERSE as usize][..];
            let mut quarter = 4;
            while 4 * quarter <= self.n {
                let (stage, rest) = twiddles.split_at(quarter);
                for group in data.chunks_exact_mut(4 * quarter * width) {
                    let [q0, q1, q2, q3] = quarters(group).map(|q| q.chunks_exact_mut(width));
                    for ((((r0, r1), r2), r3), w) in q0.zip(q1).zip(q2).zip(q3).zip(stage) {
                        let [r0, r1, r2, r3] = [r0, r1, r2, r3].map(|r| &mut r[cols.clone()]);
                        for (((a, b), c), d) in r0.iter_mut().zip(r1).zip(r2).zip(r3) {
                            butterfly::<INVERSE>([*b * w[0], *c * w[1], *d * w[2]], [a, b, c, d]);
                        }
                    }
                }
                twiddles = rest;
                quarter *= 4;
            }
            if INVERSE {
                scale_rows(data, width, &cols, 1.0 / self.n as f64);
            }
        }
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
