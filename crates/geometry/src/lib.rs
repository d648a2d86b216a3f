//! Geometric substrate for the `hdc` workspace.
//!
//! Provides the small amount of linear algebra and computational geometry the
//! rest of the reproduction needs, implemented from scratch:
//!
//! * [`Vec2`] / [`Vec3`] vectors and [`Mat3`] matrices,
//! * rigid-body [`Iso3`] transforms,
//! * a [`PinholeCamera`] model used to render the synthetic signaller,
//! * [`Capsule3`] primitives used as limb volumes for silhouettes.
//!
//! # Example
//!
//! ```
//! use hdc_geometry::{Vec3, PinholeCamera, CameraIntrinsics};
//!
//! let intr = CameraIntrinsics::new(640, 480, 500.0);
//! let cam = PinholeCamera::look_at(Vec3::new(0.0, -3.0, 1.5), Vec3::new(0.0, 0.0, 1.0), intr);
//! let px = cam.project(Vec3::new(0.0, 0.0, 1.0)).expect("point in front of camera");
//! assert!((px.x - 320.0).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
pub mod azimuth;
mod camera;
mod capsule;
mod mat3;
mod transform;
mod vec2;
mod vec3;

pub use angle::{normalize_angle, signed_angle_diff, Degrees, Radians};
pub use camera::{CameraIntrinsics, PinholeCamera, ProjectedCapsule, ProjectedDisk};
pub use capsule::{Capsule3, Sphere3};
pub use mat3::Mat3;
pub use transform::Iso3;
pub use vec2::Vec2;
pub use vec3::Vec3;

/// Numerical tolerance used by approximate comparisons across the crate.
pub const EPS: f64 = 1e-9;

/// Returns `true` when two floats are within `tol` of each other.
///
/// # Example
/// ```
/// assert!(hdc_geometry::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Linear interpolation between `a` and `b` by factor `t` (`t = 0` gives `a`).
///
/// # Example
/// ```
/// assert_eq!(hdc_geometry::lerp(2.0, 4.0, 0.5), 3.0);
/// ```
pub fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// Clamps `x` into `[lo, hi]`.
///
/// # Panics
/// Panics in debug builds if `lo > hi`.
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
    x.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_endpoints() {
        assert_eq!(lerp(-1.0, 5.0, 0.0), -1.0);
        assert_eq!(lerp(-1.0, 5.0, 1.0), 5.0);
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(10.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-10.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(1.0, 1.0000000001, 1e-6));
        assert!(!approx_eq(1.0, 1.1, 1e-6));
    }
}
