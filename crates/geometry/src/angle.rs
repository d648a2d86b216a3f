//! Angle newtypes and helpers.
//!
//! The paper talks about relative azimuth in degrees (0°, 65°, the ~100° dead
//! angle); controllers work in radians. The [`Degrees`] / [`Radians`]
//! newtypes keep the two from being confused (C-NEWTYPE).

use std::f64::consts::{PI, TAU};
use std::fmt;

/// An angle expressed in degrees.
///
/// # Example
/// ```
/// use hdc_geometry::{Degrees, Radians};
/// let d = Degrees::new(180.0);
/// let r: Radians = d.to_radians();
/// assert!((r.value() - std::f64::consts::PI).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Degrees(f64);

/// An angle expressed in radians.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Radians(f64);

impl Degrees {
    /// Wraps a raw degree value.
    pub const fn new(v: f64) -> Self {
        Degrees(v)
    }

    /// The raw degree value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to radians.
    pub fn to_radians(self) -> Radians {
        Radians(self.0.to_radians())
    }
}

impl Radians {
    /// Wraps a raw radian value.
    pub const fn new(v: f64) -> Self {
        Radians(v)
    }

    /// The raw radian value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to degrees.
    pub fn to_degrees(self) -> Degrees {
        Degrees(self.0.to_degrees())
    }

    /// Wraps into `(-pi, pi]`.
    pub fn normalized(self) -> Radians {
        Radians(normalize_angle(self.0))
    }
}

impl fmt::Display for Degrees {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}°", self.0)
    }
}

impl fmt::Display for Radians {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} rad", self.0)
    }
}

impl From<Degrees> for Radians {
    fn from(d: Degrees) -> Self {
        d.to_radians()
    }
}

impl From<Radians> for Degrees {
    fn from(r: Radians) -> Self {
        r.to_degrees()
    }
}

/// Wraps an angle in radians into `(-pi, pi]`.
///
/// # Example
/// ```
/// use hdc_geometry::normalize_angle;
/// use std::f64::consts::PI;
/// assert!((normalize_angle(3.0 * PI) - PI).abs() < 1e-12);
/// ```
pub fn normalize_angle(a: f64) -> f64 {
    let mut x = a % TAU;
    if x <= -PI {
        x += TAU;
    } else if x > PI {
        x -= TAU;
    }
    x
}

/// Signed smallest difference `b - a` between two angles, in `(-pi, pi]`.
///
/// Useful for heading controllers: the result is the shortest rotation that
/// takes heading `a` to heading `b`.
pub fn signed_angle_diff(a: f64, b: f64) -> f64 {
    normalize_angle(b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn degree_radian_roundtrip() {
        for deg in [-180.0, -65.0, 0.0, 45.0, 65.0, 100.0, 179.0] {
            let d = Degrees::new(deg);
            let back = d.to_radians().to_degrees();
            assert!(approx_eq(back.value(), deg, 1e-12));
        }
    }

    #[test]
    fn normalize_wraps() {
        assert!(approx_eq(normalize_angle(TAU + 0.1), 0.1, 1e-12));
        assert!(approx_eq(normalize_angle(-TAU - 0.1), -0.1, 1e-12));
        assert!(approx_eq(normalize_angle(PI), PI, 1e-12));
        assert!(approx_eq(normalize_angle(-PI), PI, 1e-12));
    }

    #[test]
    fn diff_is_shortest_path() {
        let a = 0.9 * PI;
        let b = -0.9 * PI;
        // going from +162° to -162° the short way is +36°, not -324°
        assert!(approx_eq(signed_angle_diff(a, b), 0.2 * PI, 1e-12));
        assert!(approx_eq(signed_angle_diff(b, a), -0.2 * PI, 1e-12));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Degrees::new(65.0)), "65.00°");
        assert_eq!(format!("{}", Radians::new(1.0)), "1.0000 rad");
    }
}
