//! Complex arithmetic, from scratch (no external numerics crates).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

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

/// `data` as interleaved `re, im` doubles, where it lies: what a
/// [`wire::Writer::put_f64s`] sends for a slice of complex values.
pub fn as_f64s(data: &[Complex]) -> &[f64] {
    // SAFETY: `Complex` is `#[repr(C)]` over two `f64`s, so `data` is
    // `2 * data.len()` initialised, `f64`-aligned doubles with no padding
    // between them; the returned borrow takes over `data`'s lifetime.
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

    /// A real number as a complex.
    pub const fn from_re(re: f64) -> Complex {
        c64(re, 0.0)
    }

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

    /// Argument in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Dividing by zero yields infinities, as with `f64`.
    pub fn recip(self) -> Complex {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Complex {
        c64(self.re * k, self.im * k)
    }

    /// True when either component is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
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

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z * w^{-1} by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, k: f64) -> Complex {
        self.scale(k)
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

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, Add::add)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
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
        assert_eq!(-a, c64(-1.0, -2.0));
        assert_eq!(a * 2.0, c64(2.0, 4.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
    }

    #[test]
    fn conj_norm_abs_arg() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!((c64(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(Complex::ONE.arg(), 0.0);
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
    fn recip_is_inverse() {
        let z = c64(2.5, -1.5);
        assert!((z * z.recip() - Complex::ONE).abs() < 1e-15);
    }

    #[test]
    fn assign_ops_and_sum() {
        let mut z = Complex::ONE;
        z += Complex::I;
        z -= c64(1.0, 0.0);
        z *= c64(0.0, 1.0);
        assert_eq!(z, c64(-1.0, 0.0));
        let total: Complex = [Complex::ONE, Complex::I, c64(1.0, 1.0)].into_iter().sum();
        assert_eq!(total, c64(2.0, 2.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(c64(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(c64(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn max_error_metric() {
        let a = [Complex::ONE, Complex::I];
        let b = [Complex::ONE, c64(0.0, 1.5)];
        assert!((max_error(&a, &b) - 0.5).abs() < 1e-15);
        assert_eq!(max_error(&a, &a), 0.0);
    }
}
