//! 3×3 matrices for rotations and camera math.

use crate::{Vec3, EPS};
use std::fmt;
use std::ops::Mul;

/// A 3×3 row-major matrix.
///
/// Primarily used for rotation matrices (world→camera, body→world) and the
/// inertia-free kinematics in the drone simulator.
///
/// # Example
/// ```
/// use hdc_geometry::{Mat3, Vec3};
/// let r = Mat3::rotation_z(std::f64::consts::FRAC_PI_2);
/// let v = r * Vec3::X;
/// assert!((v.y - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat3 {
    /// Row-major entries `m[row][col]`.
    m: [[f64; 3]; 3],
}

impl Mat3 {
    /// The identity matrix.
    pub const IDENTITY: Mat3 = Mat3 {
        m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    };

    /// Builds a matrix from row-major entries.
    pub const fn from_rows(m: [[f64; 3]; 3]) -> Self {
        Mat3 { m }
    }

    /// Builds a matrix whose *rows* are the given vectors.
    pub fn from_row_vectors(r0: Vec3, r1: Vec3, r2: Vec3) -> Self {
        Mat3 {
            m: [[r0.x, r0.y, r0.z], [r1.x, r1.y, r1.z], [r2.x, r2.y, r2.z]],
        }
    }

    /// Entry accessor, `row` and `col` in `0..3`.
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of range.
    pub fn at(&self, row: usize, col: usize) -> f64 {
        self.m[row][col]
    }

    /// Rotation about the z axis by `angle` radians.
    pub fn rotation_z(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    }

    /// Matrix transpose. For rotation matrices this is the inverse.
    pub fn transpose(&self) -> Mat3 {
        let m = &self.m;
        Mat3::from_rows([
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        ])
    }

    /// Determinant.
    pub fn det(&self) -> f64 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Matrix inverse, or `None` when singular.
    pub fn inverse(&self) -> Option<Mat3> {
        let d = self.det();
        if d.abs() <= EPS {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / d;
        let c = |r0: usize, r1: usize, c0: usize, c1: usize| {
            m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
        };
        Some(Mat3::from_rows([
            [
                c(1, 2, 1, 2) * inv_det,
                -c(0, 2, 1, 2) * inv_det,
                c(0, 1, 1, 2) * inv_det,
            ],
            [
                -c(1, 2, 0, 2) * inv_det,
                c(0, 2, 0, 2) * inv_det,
                -c(0, 1, 0, 2) * inv_det,
            ],
            [
                c(1, 2, 0, 1) * inv_det,
                -c(0, 2, 0, 1) * inv_det,
                c(0, 1, 0, 1) * inv_det,
            ],
        ]))
    }
}

impl Default for Mat3 {
    fn default() -> Self {
        Mat3::IDENTITY
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }
}

impl Mul for Mat3 {
    type Output = Mat3;
    fn mul(self, rhs: Mat3) -> Mat3 {
        let mut out = [[0.0; 3]; 3];
        for (r, row) in out.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = (0..3).map(|k| self.m[r][k] * rhs.m[k][c]).sum();
            }
        }
        Mat3::from_rows(out)
    }
}

impl fmt::Display for Mat3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in &self.m {
            writeln!(f, "[{:+.4} {:+.4} {:+.4}]", row[0], row[1], row[2])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::FRAC_PI_2;

    /// Rotation about the x axis by `angle` radians.
    fn rotation_x(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    }

    /// Rotation about the y axis by `angle` radians.
    fn rotation_y(angle: f64) -> Mat3 {
        let (s, c) = angle.sin_cos();
        Mat3::from_rows([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    }

    /// Whether `m` is orthonormal with determinant +1 (a proper rotation),
    /// within tolerance `tol`.
    fn is_rotation(m: &Mat3, tol: f64) -> bool {
        let t = *m * m.transpose();
        let ortho = (0..3)
            .all(|r| (0..3).all(|c| (t.at(r, c) - if r == c { 1.0 } else { 0.0 }).abs() <= tol));
        ortho && (m.det() - 1.0).abs() <= tol
    }

    fn assert_vec_eq(a: Vec3, b: Vec3) {
        assert!(approx_eq(a.x, b.x, 1e-12), "{a} != {b}");
        assert!(approx_eq(a.y, b.y, 1e-12), "{a} != {b}");
        assert!(approx_eq(a.z, b.z, 1e-12), "{a} != {b}");
    }

    #[test]
    fn identity_is_neutral() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_vec_eq(Mat3::IDENTITY * v, v);
        assert_eq!(Mat3::default(), Mat3::IDENTITY);
    }

    #[test]
    fn rotations_move_axes() {
        assert_vec_eq(Mat3::rotation_z(FRAC_PI_2) * Vec3::X, Vec3::Y);
        assert_vec_eq(rotation_x(FRAC_PI_2) * Vec3::Y, Vec3::Z);
        assert_vec_eq(rotation_y(FRAC_PI_2) * Vec3::Z, Vec3::X);
    }

    #[test]
    fn rotation_inverse_is_transpose() {
        let r = Mat3::rotation_z(0.7) * rotation_x(-0.3);
        let inv = r.inverse().unwrap();
        let tr = r.transpose();
        for row in 0..3 {
            for col in 0..3 {
                assert!(approx_eq(inv.at(row, col), tr.at(row, col), 1e-12));
            }
        }
        assert!(is_rotation(&r, 1e-12));
    }

    #[test]
    fn singular_has_no_inverse() {
        let s = Mat3::from_rows([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 0.0]]);
        assert!(s.inverse().is_none());
        assert!(!is_rotation(&s, 1e-9));
    }

    #[test]
    fn det_of_rotation_is_one() {
        let r = rotation_y(1.1);
        assert!(approx_eq(r.det(), 1.0, 1e-12));
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat3::from_rows([[2.0, 1.0, 0.5], [0.0, 3.0, -1.0], [1.0, 0.0, 1.0]]);
        let inv = a.inverse().unwrap();
        let id = a * inv;
        for r in 0..3 {
            for c in 0..3 {
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!(approx_eq(id.at(r, c), expect, 1e-12));
            }
        }
    }

    #[test]
    fn column_row_constructors() {
        let b = Mat3::from_row_vectors(Vec3::X, Vec3::Y, Vec3::Z);
        assert_eq!(b, Mat3::IDENTITY);
    }
}
