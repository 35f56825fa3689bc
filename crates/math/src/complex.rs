//! A minimal double-precision complex number type.
//!
//! The workspace deliberately avoids pulling in a full numerics stack; the
//! only complex arithmetic needed is what two-qubit gate theory and the
//! state-vector simulator require.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Example
///
/// ```
/// use twoqan_math::Complex;
///
/// let i = Complex::i();
/// assert_eq!(i * i, Complex::new(-1.0, 0.0));
/// assert!((Complex::from_polar(1.0, std::f64::consts::PI).re + 1.0).abs() < 1e-12);
/// ```
/// `repr(C)` so a `[Complex]` slice is a well-defined interleaved
/// `re, im, re, im, …` buffer of `f64` — the statevector SIMD kernels
/// reinterpret amplitude runs this way.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity `0 + 0i`.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// The multiplicative identity `1 + 0i`.
    #[inline]
    pub const fn one() -> Self {
        Self::new(1.0, 0.0)
    }

    /// The imaginary unit `i`.
    #[inline]
    pub const fn i() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Builds a complex number from polar coordinates `r · e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — a unit-modulus phase factor.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared modulus `|z|²`.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the number is exactly zero; callers are
    /// expected to guard against dividing by zero.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "attempted to invert a zero complex number");
        Self::new(self.re / d, -self.im / d)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.abs().sqrt(), self.arg() / 2.0)
    }

    /// Raises the number to a real power using the principal branch.
    #[inline]
    pub fn powf(self, p: f64) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return Self::zero();
        }
        Self::from_polar(self.abs().powf(p), self.arg() * p)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }

    /// Returns `true` if both parts are within `tol` of the other value.
    #[inline]
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() < tol && (self.im - other.im).abs() < tol
    }
}

impl From<f64> for Complex {
    #[inline]
    fn from(re: f64) -> Self {
        Self::new(re, 0.0)
    }
}

impl Add for Complex {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Self;
    #[inline]
    // Division by a complex number *is* multiplication by its inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Self;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// Shorthand constructor, `c64(re, im)`.
#[inline]
pub fn c64(re: f64, im: f64) -> Complex {
    Complex::new(re, im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic_identities() {
        let a = c64(1.5, -2.0);
        let b = c64(-0.25, 3.0);
        assert_eq!(a + b, c64(1.25, 1.0));
        assert_eq!(a - b, c64(1.75, -5.0));
        assert!(
            ((a * b) - c64(1.5 * -0.25 - (-2.0) * 3.0, 1.5 * 3.0 + (-2.0) * -0.25)).abs() < 1e-12
        );
        assert!((a * a.inv() - Complex::one()).abs() < 1e-12);
        assert!((a / a - Complex::one()).abs() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
        let w = Complex::cis(PI / 2.0);
        assert!(w.approx_eq(Complex::i(), 1e-12));
    }

    #[test]
    fn sqrt_and_powf() {
        let z = c64(-4.0, 0.0);
        let r = z.sqrt();
        assert!((r * r - z).abs() < 1e-10);
        let w = c64(0.3, 0.4);
        let p = w.powf(2.0);
        assert!((p - w * w).abs() < 1e-10);
        assert_eq!(Complex::zero().powf(0.25), Complex::zero());
    }

    #[test]
    fn conj_and_norm() {
        let z = c64(3.0, -4.0);
        assert_eq!(z.conj(), c64(3.0, 4.0));
        assert!((z.norm_sqr() - 25.0).abs() < 1e-12);
        assert!((z.abs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn sum_of_complex() {
        let s: Complex = [c64(1.0, 1.0), c64(2.0, -3.0), c64(-0.5, 0.5)]
            .into_iter()
            .sum();
        assert!(s.approx_eq(c64(2.5, -1.5), 1e-12));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1.000000+2.000000i");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1.000000-2.000000i");
    }
}
