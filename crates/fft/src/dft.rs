//! The O(n²) reference DFT — ground truth for every fast transform here.

use crate::complex::Complex;

/// Transform direction. The forward transform uses kernel `e^{-2πi jk/n}`
/// (the paper's `sign = -1`), the inverse uses `e^{+2πi jk/n}` **and
/// divides by n**, so `inverse(forward(x)) == x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward transform (sign = −1).
    Forward = 0,
    /// Inverse transform (sign = +1, normalized by 1/n).
    Inverse = 1,
}

impl Direction {
    /// The sign in the exponent.
    pub fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// Naive DFT: exact definition, O(n²). Used to validate the fast paths and
/// as the base-case oracle in property tests.
pub fn dft(input: &[Complex], dir: Direction) -> Vec<Complex> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = dir.sign();
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut acc = Complex::ZERO;
        for (j, &x) in input.iter().enumerate() {
            let theta = sign * std::f64::consts::TAU * (j as f64) * (k as f64) / (n as f64);
            acc += x * Complex::cis(theta);
        }
        out.push(acc);
    }
    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for v in &mut out {
            *v = v.scale(inv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c64, max_error};

    #[test]
    fn dft_of_empty_and_singleton() {
        assert!(dft(&[], Direction::Forward).is_empty());
        let x = [c64(2.5, -1.0)];
        assert_eq!(dft(&x, Direction::Forward), vec![x[0]]);
        assert_eq!(dft(&x, Direction::Inverse), vec![x[0]]);
    }

    #[test]
    fn dft_of_delta_is_constant() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::ONE;
        let y = dft(&x, Direction::Forward);
        for v in y {
            assert!((v - Complex::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_constant_is_delta() {
        let x = vec![Complex::ONE; 8];
        let y = dft(&x, Direction::Forward);
        assert!((y[0] - c64(8.0, 0.0)).abs() < 1e-12);
        for v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dft_of_single_tone_peaks_at_its_frequency() {
        let n = 16;
        let freq = 3;
        let x: Vec<Complex> = (0..n)
            .map(|j| Complex::cis(std::f64::consts::TAU * freq as f64 * j as f64 / n as f64))
            .collect();
        let y = dft(&x, Direction::Forward);
        for (k, v) in y.iter().enumerate() {
            if k == freq {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at bin {k}: {v:?}");
            }
        }
    }

    #[test]
    fn inverse_undoes_forward() {
        let x: Vec<Complex> = (0..12).map(|i| c64(i as f64, (i * i % 5) as f64)).collect();
        let y = dft(&x, Direction::Forward);
        let back = dft(&y, Direction::Inverse);
        assert!(max_error(&x, &back) < 1e-10);
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Forward.sign(), -1.0);
        assert_eq!(Direction::Inverse.sign(), 1.0);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> = (0..10)
            .map(|i| c64((i as f64).sin(), (i as f64).cos()))
            .collect();
        let y = dft(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|v| v.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|v| v.norm_sqr()).sum();
        assert!((ey - ex * x.len() as f64).abs() < 1e-9);
    }
}
