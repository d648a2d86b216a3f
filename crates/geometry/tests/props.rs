//! Property-based tests for the geometry substrate.

use hdc_geometry::{approx_eq, normalize_angle, signed_angle_diff, Iso3, Mat3, Vec2, Vec3};
use proptest::prelude::*;

fn finite_f64(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop::num::f64::NORMAL.prop_map(move |x| {
        let span = range.end - range.start;
        range.start + (x.abs() % span)
    })
}

fn vec2_strategy() -> impl Strategy<Value = Vec2> {
    (finite_f64(-100.0..100.0), finite_f64(-100.0..100.0)).prop_map(|(x, y)| Vec2::new(x, y))
}

fn vec3_strategy() -> impl Strategy<Value = Vec3> {
    (
        finite_f64(-100.0..100.0),
        finite_f64(-100.0..100.0),
        finite_f64(-100.0..100.0),
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    #[test]
    fn vec2_rotation_preserves_norm(v in vec2_strategy(), angle in finite_f64(-10.0..10.0)) {
        let r = v.rotated(angle);
        prop_assert!(approx_eq(r.norm(), v.norm(), 1e-6 * (1.0 + v.norm())));
    }

    #[test]
    fn vec2_dot_is_commutative(a in vec2_strategy(), b in vec2_strategy()) {
        prop_assert_eq!(a.dot(b), b.dot(a));
    }

    #[test]
    fn vec2_cross_antisymmetric(a in vec2_strategy(), b in vec2_strategy()) {
        prop_assert!(approx_eq(a.cross(b), -b.cross(a), 1e-6));
    }

    #[test]
    fn vec3_cross_orthogonal(a in vec3_strategy(), b in vec3_strategy()) {
        let c = a.cross(b);
        let scale = a.norm() * b.norm() + 1.0;
        prop_assert!(approx_eq(c.dot(a), 0.0, 1e-6 * scale * scale));
        prop_assert!(approx_eq(c.dot(b), 0.0, 1e-6 * scale * scale));
    }

    #[test]
    fn triangle_inequality(a in vec3_strategy(), b in vec3_strategy()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    #[test]
    fn angle_normalization_in_range(a in finite_f64(-50.0..50.0)) {
        let n = normalize_angle(a);
        prop_assert!(n > -std::f64::consts::PI - 1e-12);
        prop_assert!(n <= std::f64::consts::PI + 1e-12);
        // normalisation preserves the angle modulo 2π
        prop_assert!(approx_eq((a - n).rem_euclid(std::f64::consts::TAU), 0.0, 1e-6)
            || approx_eq((a - n).rem_euclid(std::f64::consts::TAU), std::f64::consts::TAU, 1e-6));
    }

    #[test]
    fn angle_diff_bounded(a in finite_f64(-10.0..10.0), b in finite_f64(-10.0..10.0)) {
        let d = signed_angle_diff(a, b);
        prop_assert!(d.abs() <= std::f64::consts::PI + 1e-12);
    }

    #[test]
    fn rotation_matrices_are_rotations(ax in finite_f64(-5.0..5.0), ay in finite_f64(-5.0..5.0), az in finite_f64(-5.0..5.0)) {
        let (sy, cy) = ay.sin_cos();
        let (sx, cx) = ax.sin_cos();
        let rotation_y = Mat3::from_rows([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]]);
        let rotation_x = Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]);
        let r = Mat3::rotation_z(az) * rotation_y * rotation_x;
        // orthonormal with determinant +1: a proper rotation
        let t = r * r.transpose();
        for row in 0..3 {
            for col in 0..3 {
                let want = if row == col { 1.0 } else { 0.0 };
                prop_assert!((t.at(row, col) - want).abs() <= 1e-9);
            }
        }
        prop_assert!((r.det() - 1.0).abs() <= 1e-9);
    }

    #[test]
    fn iso3_inverse_roundtrip(t in vec3_strategy(), angle in finite_f64(-5.0..5.0), p in vec3_strategy()) {
        let iso = Iso3::new(Mat3::rotation_z(angle), t);
        let back = iso.inverse().apply(iso.apply(p));
        prop_assert!(back.distance(p) < 1e-6 * (1.0 + p.norm() + t.norm()));
    }
}
