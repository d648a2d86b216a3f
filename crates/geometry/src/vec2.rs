//! Two-dimensional vectors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A 2-D vector (or point) with `f64` components.
///
/// Used throughout the workspace for image-plane coordinates (pixels) and
/// planar world coordinates.
///
/// # Example
/// ```
/// use hdc_geometry::Vec2;
/// let v = Vec2::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };
    /// Unit vector along x.
    pub const X: Vec2 = Vec2 { x: 1.0, y: 0.0 };
    /// Unit vector along y.
    pub const Y: Vec2 = Vec2 { x: 0.0, y: 1.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Creates a vector with both components equal to `v`.
    pub const fn splat(v: f64) -> Self {
        Vec2 { x: v, y: v }
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Euclidean length.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (cheaper than [`Vec2::norm`]).
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Returns the unit vector in the same direction, or `None` for the zero
    /// vector.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= crate::EPS {
            None
        } else {
            Some(self / n)
        }
    }

    /// Rotates the vector by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Angle of the vector from the +x axis in `(-pi, pi]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Component-wise linear interpolation toward `other`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    pub fn min(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Vec2) -> Vec2 {
        Vec2::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` when both components are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Mul<Vec2> for f64 {
    type Output = Vec2;
    fn mul(self, rhs: Vec2) -> Vec2 {
        rhs * self
    }
}

impl MulAssign<f64> for Vec2 {
    fn mul_assign(&mut self, rhs: f64) {
        *self = *self * rhs;
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl DivAssign<f64> for Vec2 {
    fn div_assign(&mut self, rhs: f64) {
        *self = *self / rhs;
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Sum for Vec2 {
    fn sum<I: Iterator<Item = Vec2>>(iter: I) -> Vec2 {
        iter.fold(Vec2::ZERO, |acc, v| acc + v)
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl From<Vec2> for (f64, f64) {
    fn from(v: Vec2) -> Self {
        (v.x, v.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a + b, Vec2::new(4.0, 1.0));
        assert_eq!(a - b, Vec2::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec2::new(0.5, 1.0));
        assert_eq!(-a, Vec2::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn rotation_quarter_turn() {
        let v = Vec2::X.rotated(std::f64::consts::FRAC_PI_2);
        assert!(approx_eq(v.x, 0.0, 1e-12));
        assert!(approx_eq(v.y, 1.0, 1e-12));
    }

    #[test]
    fn normalization() {
        let v = Vec2::new(3.0, 4.0).normalized().unwrap();
        assert!(approx_eq(v.norm(), 1.0, 1e-12));
        assert!(Vec2::ZERO.normalized().is_none());
    }

    #[test]
    fn angle_roundtrip() {
        for deg in [-170, -90, -45, 0, 30, 90, 179] {
            let a = (deg as f64).to_radians();
            assert!(approx_eq(Vec2::new(a.cos(), a.sin()).angle(), a, 1e-12));
        }
    }

    #[test]
    fn sum_and_lerp() {
        let pts = [Vec2::new(1.0, 1.0), Vec2::new(3.0, 5.0)];
        let s: Vec2 = pts.iter().copied().sum();
        assert_eq!(s, Vec2::new(4.0, 6.0));
        assert_eq!(pts[0].lerp(pts[1], 0.5), Vec2::new(2.0, 3.0));
    }

    #[test]
    fn conversions_and_display() {
        let v: Vec2 = (1.0, 2.0).into();
        let t: (f64, f64) = v.into();
        assert_eq!(t, (1.0, 2.0));
        assert_eq!(format!("{v}"), "(1.0000, 2.0000)");
    }
}
