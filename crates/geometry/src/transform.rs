//! Rigid-body transforms (rotation + translation).

use crate::{Mat3, Vec3};

/// A rigid-body isometry in 3-D: `p ↦ R·p + t`.
///
/// Used for body→world poses of the drone and signaller, and for the camera
/// extrinsics (world→camera).
///
/// # Example
/// ```
/// use hdc_geometry::{Iso3, Mat3, Vec3};
/// let pose = Iso3::new(Mat3::rotation_z(std::f64::consts::FRAC_PI_2), Vec3::new(1.0, 0.0, 0.0));
/// let p = pose.apply(Vec3::X);
/// assert!((p.x - 1.0).abs() < 1e-12 && (p.y - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iso3 {
    rotation: Mat3,
    translation: Vec3,
}

impl Iso3 {
    /// The identity transform.
    pub const IDENTITY: Iso3 = Iso3 {
        rotation: Mat3::IDENTITY,
        translation: Vec3::ZERO,
    };

    /// Creates a transform from a rotation and a translation.
    pub fn new(rotation: Mat3, translation: Vec3) -> Self {
        Iso3 {
            rotation,
            translation,
        }
    }

    /// The rotation part.
    pub fn rotation(&self) -> Mat3 {
        self.rotation
    }

    /// The translation part.
    pub fn translation(&self) -> Vec3 {
        self.translation
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Vec3) -> Vec3 {
        self.rotation * p + self.translation
    }

    /// The inverse transform (assumes the rotation part is orthonormal).
    pub fn inverse(&self) -> Iso3 {
        let rt = self.rotation.transpose();
        Iso3 {
            rotation: rt,
            translation: -(rt * self.translation),
        }
    }
}

impl Default for Iso3 {
    fn default() -> Self {
        Iso3::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// Composition `a ∘ b`: apply `b` first, then `a`.
    fn compose(a: &Iso3, b: &Iso3) -> Iso3 {
        Iso3::new(
            a.rotation * b.rotation,
            a.rotation * b.translation + a.translation,
        )
    }

    fn assert_vec_eq(a: Vec3, b: Vec3) {
        assert!(approx_eq(a.x, b.x, 1e-12), "{a} != {b}");
        assert!(approx_eq(a.y, b.y, 1e-12), "{a} != {b}");
        assert!(approx_eq(a.z, b.z, 1e-12), "{a} != {b}");
    }

    #[test]
    fn identity_fixes_points() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_eq(Iso3::IDENTITY.apply(p), p);
    }

    #[test]
    fn inverse_undoes_apply() {
        // a rotation about z after one about x by 1.2 rad
        let (s, c) = 1.2f64.sin_cos();
        let t = Iso3::new(
            Mat3::rotation_z(0.4) * Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]),
            Vec3::new(1.0, -2.0, 0.5),
        );
        let p = Vec3::new(0.3, 0.7, -1.1);
        assert_vec_eq(t.inverse().apply(t.apply(p)), p);
        assert_vec_eq(t.apply(t.inverse().apply(p)), p);
    }

    #[test]
    fn compose_applies_right_first() {
        let rot = Iso3::new(Mat3::rotation_z(std::f64::consts::FRAC_PI_2), Vec3::ZERO);
        let tr = Iso3::new(Mat3::IDENTITY, Vec3::X);
        // rotate then translate
        let both = compose(&tr, &rot);
        assert_vec_eq(both.apply(Vec3::X), Vec3::new(1.0, 1.0, 0.0));
        // translate then rotate
        let both2 = compose(&rot, &tr);
        assert_vec_eq(both2.apply(Vec3::X), Vec3::new(0.0, 2.0, 0.0));
    }
}
