//! A small complex-number type.
//!
//! The whole workspace operates on baseband IQ samples, so a dedicated,
//! dependency-free complex type keeps every crate self-contained. The layout
//! is `{ re, im }` in `f64`; all arithmetic is `#[inline]` and the type is
//! `Copy`, so the optimizer treats it like a pair of scalars.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number (an IQ sample): `re + j*im`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cx {
    /// In-phase (real) component.
    pub re: f64,
    /// Quadrature (imaginary) component.
    pub im: f64,
}

/// Shorthand constructor: `cx(re, im)`.
#[inline]
pub fn cx(re: f64, im: f64) -> Cx {
    Cx { re, im }
}

impl Cx {
    /// The additive identity.
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };

    /// `e^{jθ}` — the unit phasor at angle `theta` (radians).
    #[inline]
    pub fn expj(theta: f64) -> Cx {
        let (s, c) = theta.sin_cos();
        Cx { re: c, im: s }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Cx {
        Cx {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²` — cheaper than [`Cx::abs`], use for power.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Cx {
        Cx {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Rotates by angle `theta` (multiplies by `e^{jθ}`).
    #[inline]
    pub fn rotate(self, theta: f64) -> Cx {
        self * Cx::expj(theta)
    }

    /// Returns `true` when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Cx {
    type Output = Cx;
    #[inline]
    fn add(self, rhs: Cx) -> Cx {
        cx(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cx {
    #[inline]
    fn add_assign(&mut self, rhs: Cx) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cx {
    type Output = Cx;
    #[inline]
    fn sub(self, rhs: Cx) -> Cx {
        cx(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cx {
    #[inline]
    fn sub_assign(&mut self, rhs: Cx) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: Cx) -> Cx {
        cx(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cx {
    #[inline]
    fn mul_assign(&mut self, rhs: Cx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: f64) -> Cx {
        self.scale(rhs)
    }
}

impl Mul<Cx> for f64 {
    type Output = Cx;
    #[inline]
    fn mul(self, rhs: Cx) -> Cx {
        rhs.scale(self)
    }
}

impl Div<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn div(self, rhs: f64) -> Cx {
        self.scale(1.0 / rhs)
    }
}

impl Div for Cx {
    type Output = Cx;
    #[inline]
    fn div(self, rhs: Cx) -> Cx {
        let d = rhs.norm_sq();
        cx(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Cx {
    type Output = Cx;
    #[inline]
    fn neg(self) -> Cx {
        cx(-self.re, -self.im)
    }
}

impl Sum for Cx {
    fn sum<I: Iterator<Item = Cx>>(iter: I) -> Cx {
        iter.fold(Cx::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn close(a: Cx, b: Cx) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn expj_quadrants() {
        assert!(close(Cx::expj(0.0), Cx::ONE));
        assert!(close(Cx::expj(FRAC_PI_2), cx(0.0, 1.0)));
        assert!(close(Cx::expj(PI), -Cx::ONE));
        assert!(close(Cx::expj(-FRAC_PI_2), cx(0.0, -1.0)));
    }

    #[test]
    fn mul_matches_polar() {
        let a = Cx::expj(0.3).scale(2.0);
        let b = Cx::expj(1.1).scale(0.5);
        let p = a * b;
        assert!((p.abs() - 1.0).abs() < 1e-12);
        assert!((p.arg() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = cx(3.0, -4.0);
        let b = cx(-1.5, 0.25);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn conj_and_norm() {
        let z = cx(3.0, 4.0);
        assert_eq!(z.norm_sq(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!(close(z * z.conj(), cx(25.0, 0.0)));
    }

    #[test]
    fn rotate_by_pi_negates() {
        let z = cx(1.0, 2.0);
        assert!(close(z.rotate(PI), -z));
    }

    #[test]
    fn sum_of_phasors_cancels() {
        // The four quarter-turn phasors sum to zero.
        let s: Cx = (0..4).map(|k| Cx::expj(k as f64 * FRAC_PI_2)).sum();
        assert!(s.abs() < 1e-12);
    }
}
