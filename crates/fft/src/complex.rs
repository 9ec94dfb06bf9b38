//! Complex arithmetic, from scratch (no external numerics crates).

use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A double-precision complex number.
///
/// `#[repr(C)]`: exactly two `f64`s, `re` then `im`, no padding — the
/// layout [`as_f64s`] relies on, and the interleaved form blocks of complex
/// values take on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor.
pub const fn c64(re: f64, im: f64) -> Complex {
    Complex { re, im }
}

// The premise of the two casts below, checked at compile time: two
// `f64`s' size, at `f64`'s alignment.
const _: () = assert!(
    std::mem::size_of::<Complex>() == 2 * std::mem::size_of::<f64>()
        && std::mem::align_of::<Complex>() == std::mem::align_of::<f64>()
);

/// `data` as interleaved `re, im` doubles, where it lies: what a
/// [`wire::Writer::put_f64s`] sends for a slice of complex values.
pub fn as_f64s(data: &[Complex]) -> &[f64] {
    // SAFETY: `Complex` is `#[repr(C)]` over two `f64`s — 16 bytes at
    // `f64` alignment, asserted above — so `data` is `2 * data.len()`
    // initialised, `f64`-aligned doubles with no padding between them; the
    // returned borrow takes over `data`'s lifetime.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<f64>(), 2 * data.len()) }
}

/// [`as_f64s`] for writing: where an
/// [`F64sView::copy_to`](wire::collections::F64sView::copy_to) lands
/// received doubles in a slice of complex values.
pub fn as_f64s_mut(data: &mut [Complex]) -> &mut [f64] {
    // SAFETY: as in `as_f64s`; any two `f64`s are a valid `Complex`, and the
    // exclusive borrow of `data` is held by the returned slice.
    unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<f64>(), 2 * data.len()) }
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = c64(0.0, 0.0);
    /// 1 + 0i.
    pub const ONE: Complex = c64(1.0, 0.0);
    /// 0 + 1i.
    pub const I: Complex = c64(0.0, 1.0);

    /// `e^{iθ}` — the unit phasor at angle `theta`.
    pub fn cis(theta: f64) -> Complex {
        c64(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Complex {
        c64(self.re * k, self.im * k)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

/// Maximum absolute componentwise difference between two spectra — the
/// error metric used by the FFT tests.
pub fn max_error(a: &[Complex], b: &[Complex]) -> f64 {
    assert_eq!(a.len(), b.len(), "spectra differ in length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_operations() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -1.0);
        assert_eq!(a + b, c64(4.0, 1.0));
        assert_eq!(a - b, c64(-2.0, 3.0));
        assert_eq!(a * b, c64(5.0, 5.0)); // (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
        assert_eq!(a.scale(2.0), c64(2.0, 4.0));
    }

    #[test]
    fn conj_norm_abs_arg() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::TAU / 16.0;
            let z = Complex::cis(theta);
            assert!((z.abs() - 1.0).abs() < 1e-15);
        }
        assert!((Complex::cis(std::f64::consts::PI) - c64(-1.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn assign_ops_and_sum() {
        let mut z = Complex::ONE;
        z += Complex::I;
        z -= c64(1.0, 0.0);
        z = z * c64(0.0, 1.0);
        assert_eq!(z, c64(-1.0, 0.0));
    }

    #[test]
    fn max_error_metric() {
        let a = [Complex::ONE, Complex::I];
        let b = [Complex::ONE, c64(0.0, 1.5)];
        assert!((max_error(&a, &b) - 0.5).abs() < 1e-15);
        assert_eq!(max_error(&a, &a), 0.0);
    }
}
