//! Volumetric primitives used to model the signaller's body.

use crate::Vec3;

/// A sphere in 3-D space (used for the signaller's head).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere3 {
    /// Centre point.
    pub center: Vec3,
    /// Radius in metres.
    pub radius: f64,
}

impl Sphere3 {
    /// Creates a sphere.
    ///
    /// # Panics
    /// Panics in debug builds if `radius` is negative.
    pub fn new(center: Vec3, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "negative sphere radius");
        Sphere3 { center, radius }
    }

    /// Whether the point is inside or on the sphere.
    pub fn contains(&self, p: Vec3) -> bool {
        self.center.distance(p) <= self.radius
    }
}

/// A capsule (line segment with radius) in 3-D space.
///
/// Limbs and torso of the synthetic signaller are modelled as capsules; their
/// perspective projections become the silhouette the vision pipeline sees.
///
/// # Example
/// ```
/// use hdc_geometry::{Capsule3, Vec3};
/// let arm = Capsule3::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 0.6), 0.05);
/// assert!((arm.length() - 0.6).abs() < 1e-12);
/// assert!(arm.contains(Vec3::new(0.03, 0.0, 0.3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capsule3 {
    /// Segment start.
    pub a: Vec3,
    /// Segment end.
    pub b: Vec3,
    /// Radius in metres.
    pub radius: f64,
}

impl Capsule3 {
    /// Creates a capsule from segment endpoints and radius.
    ///
    /// # Panics
    /// Panics in debug builds if `radius` is negative.
    pub fn new(a: Vec3, b: Vec3, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "negative capsule radius");
        Capsule3 { a, b, radius }
    }

    /// Length of the core segment.
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Closest point on the core segment to `p`.
    pub fn closest_point_on_segment(&self, p: Vec3) -> Vec3 {
        let ab = self.b - self.a;
        let len_sq = ab.norm_sq();
        if len_sq <= crate::EPS {
            return self.a;
        }
        let t = crate::clamp((p - self.a).dot(ab) / len_sq, 0.0, 1.0);
        self.a + ab * t
    }

    /// Distance from `p` to the capsule surface (negative inside).
    pub fn signed_distance(&self, p: Vec3) -> f64 {
        self.closest_point_on_segment(p).distance(p) - self.radius
    }

    /// Whether the point is inside or on the capsule.
    pub fn contains(&self, p: Vec3) -> bool {
        self.signed_distance(p) <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn sphere_contains() {
        let s = Sphere3::new(Vec3::new(1.0, 1.0, 1.0), 0.5);
        assert!(s.contains(Vec3::new(1.0, 1.0, 1.4)));
        assert!(!s.contains(Vec3::new(1.0, 1.0, 1.6)));
    }

    #[test]
    fn capsule_distance_midpoint() {
        let c = Capsule3::new(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), 0.25);
        assert!(approx_eq(
            c.signed_distance(Vec3::new(1.0, 1.0, 0.0)),
            0.75,
            1e-12
        ));
        assert!(c.contains(Vec3::new(1.0, 0.2, 0.0)));
        assert!(!c.contains(Vec3::new(1.0, 0.3, 0.0)));
    }

    #[test]
    fn capsule_distance_beyond_ends() {
        let c = Capsule3::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 0.1);
        // past end b the closest point clamps to b
        assert!(approx_eq(
            c.signed_distance(Vec3::new(2.0, 0.0, 0.0)),
            0.9,
            1e-12
        ));
        assert!(approx_eq(
            c.signed_distance(Vec3::new(-1.0, 0.0, 0.0)),
            0.9,
            1e-12
        ));
    }

    #[test]
    fn degenerate_capsule_is_sphere() {
        let c = Capsule3::new(Vec3::ZERO, Vec3::ZERO, 0.5);
        assert!(c.contains(Vec3::new(0.4, 0.0, 0.0)));
        assert!(!c.contains(Vec3::new(0.6, 0.0, 0.0)));
        assert_eq!(c.length(), 0.0);
    }
}
