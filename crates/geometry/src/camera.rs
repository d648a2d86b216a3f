//! Pinhole camera model.
//!
//! The drone's downward/forward-looking camera is modelled as an ideal
//! pinhole. Image coordinates follow the usual convention: origin at the
//! top-left pixel, `u` rightward, `v` downward.

use crate::{Capsule3, Iso3, Mat3, Sphere3, Vec2, Vec3};

/// Intrinsic camera parameters.
///
/// # Example
/// ```
/// use hdc_geometry::CameraIntrinsics;
/// let intr = CameraIntrinsics::new(640, 480, 500.0);
/// assert_eq!(intr.principal_point().x, 320.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraIntrinsics {
    width: u32,
    height: u32,
    focal_px: f64,
    cx: f64,
    cy: f64,
}

impl CameraIntrinsics {
    /// Creates intrinsics with the principal point at the image centre.
    ///
    /// # Panics
    /// Panics if `width`, `height` or `focal_px` is zero/non-positive.
    pub fn new(width: u32, height: u32, focal_px: f64) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        assert!(focal_px > 0.0, "focal length must be positive");
        CameraIntrinsics {
            width,
            height,
            focal_px,
            cx: width as f64 / 2.0,
            cy: height as f64 / 2.0,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Focal length in pixels.
    pub fn focal_px(&self) -> f64 {
        self.focal_px
    }

    /// Principal point (image centre).
    pub fn principal_point(&self) -> Vec2 {
        Vec2::new(self.cx, self.cy)
    }
}

/// Perspective projection of a sphere: a disk in the image plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedDisk {
    /// Disk centre in pixels.
    pub center: Vec2,
    /// Disk radius in pixels.
    pub radius: f64,
    /// Depth of the sphere centre along the optical axis, in metres.
    pub depth: f64,
}

/// Perspective projection of a capsule: a tapered 2-D capsule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedCapsule {
    /// Projection of endpoint `a` in pixels.
    pub a: Vec2,
    /// Radius at `a` in pixels.
    pub radius_a: f64,
    /// Projection of endpoint `b` in pixels.
    pub b: Vec2,
    /// Radius at `b` in pixels.
    pub radius_b: f64,
}

/// An ideal pinhole camera: extrinsic pose plus intrinsics.
///
/// The camera frame is right-handed with `+z` forward (optical axis), `+x`
/// right, `+y` down, so projected coordinates map directly to image pixels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinholeCamera {
    world_to_cam: Iso3,
    intrinsics: CameraIntrinsics,
    near: f64,
}

impl PinholeCamera {
    /// Default near-plane distance in metres.
    pub const DEFAULT_NEAR: f64 = 0.05;

    /// Creates a camera from an explicit world→camera transform.
    pub fn new(world_to_cam: Iso3, intrinsics: CameraIntrinsics) -> Self {
        PinholeCamera {
            world_to_cam,
            intrinsics,
            near: Self::DEFAULT_NEAR,
        }
    }

    /// Creates a camera at `eye` looking toward `target`, world-up `+z`.
    ///
    /// # Panics
    /// Panics if `eye == target` or the view direction is parallel to the
    /// world up axis (gimbal-lock configuration) — callers should offset the
    /// eye slightly for exactly-nadir shots.
    pub fn look_at(eye: Vec3, target: Vec3, intrinsics: CameraIntrinsics) -> Self {
        let forward = (target - eye)
            .normalized()
            .expect("camera eye and target must differ");
        let right = forward
            .cross(Vec3::Z)
            .normalized()
            .expect("view direction must not be parallel to world up");
        // +y down completes the right-handed (x right, y down, z forward) frame
        let down = forward.cross(right).normalized().expect("orthogonal frame");
        let rot = Mat3::from_row_vectors(right, down, forward);
        let world_to_cam = Iso3::new(rot, -(rot * eye));
        PinholeCamera {
            world_to_cam,
            intrinsics,
            near: Self::DEFAULT_NEAR,
        }
    }

    /// The camera intrinsics.
    pub fn intrinsics(&self) -> CameraIntrinsics {
        self.intrinsics
    }

    /// The world→camera transform.
    pub fn world_to_cam(&self) -> Iso3 {
        self.world_to_cam
    }

    /// Camera position in world coordinates.
    pub fn position(&self) -> Vec3 {
        self.world_to_cam.inverse().translation()
    }

    /// Transforms a world point into the camera frame.
    pub fn to_camera_frame(&self, p: Vec3) -> Vec3 {
        self.world_to_cam.apply(p)
    }

    /// Projects a world point to pixel coordinates.
    ///
    /// Returns `None` when the point lies behind (or on) the near plane.
    /// Points outside the image bounds are still returned.
    pub fn project(&self, p: Vec3) -> Option<Vec2> {
        let c = self.to_camera_frame(p);
        if c.z <= self.near {
            return None;
        }
        let f = self.intrinsics.focal_px;
        Some(Vec2::new(
            f * c.x / c.z + self.intrinsics.cx,
            f * c.y / c.z + self.intrinsics.cy,
        ))
    }

    /// Projects a sphere to a disk.
    ///
    /// Returns `None` when the sphere centre is behind the near plane.
    pub fn project_sphere(&self, s: &Sphere3) -> Option<ProjectedDisk> {
        let c = self.to_camera_frame(s.center);
        if c.z <= self.near {
            return None;
        }
        let f = self.intrinsics.focal_px;
        Some(ProjectedDisk {
            center: Vec2::new(
                f * c.x / c.z + self.intrinsics.cx,
                f * c.y / c.z + self.intrinsics.cy,
            ),
            radius: f * s.radius / c.z,
            depth: c.z,
        })
    }

    /// Projects a capsule to a tapered 2-D capsule, clipping against the near
    /// plane when one endpoint is behind the camera.
    ///
    /// Returns `None` when the whole capsule is behind the near plane.
    pub fn project_capsule(&self, cap: &Capsule3) -> Option<ProjectedCapsule> {
        let mut a = self.to_camera_frame(cap.a);
        let mut b = self.to_camera_frame(cap.b);
        if a.z <= self.near && b.z <= self.near {
            return None;
        }
        // Clip the segment at the near plane if needed.
        if a.z <= self.near {
            let t = (self.near + 1e-6 - a.z) / (b.z - a.z);
            a = a.lerp(b, t);
        } else if b.z <= self.near {
            let t = (self.near + 1e-6 - b.z) / (a.z - b.z);
            b = b.lerp(a, t);
        }
        let f = self.intrinsics.focal_px;
        let pp = self.intrinsics.principal_point();
        let pa = Vec2::new(f * a.x / a.z, f * a.y / a.z) + pp;
        let pb = Vec2::new(f * b.x / b.z, f * b.y / b.z) + pp;
        Some(ProjectedCapsule {
            a: pa,
            radius_a: f * cap.radius / a.z,
            b: pb,
            radius_b: f * cap.radius / b.z,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    /// Whether a pixel coordinate falls inside the image.
    fn in_frame(c: &PinholeCamera, px: Vec2) -> bool {
        px.x >= 0.0
            && px.y >= 0.0
            && px.x < c.intrinsics.width as f64
            && px.y < c.intrinsics.height as f64
    }

    fn cam() -> PinholeCamera {
        PinholeCamera::look_at(
            Vec3::new(0.0, -3.0, 1.5),
            Vec3::new(0.0, 0.0, 1.5),
            CameraIntrinsics::new(640, 480, 500.0),
        )
    }

    #[test]
    fn center_projects_to_principal_point() {
        let c = cam();
        let px = c.project(Vec3::new(0.0, 0.0, 1.5)).unwrap();
        assert!(approx_eq(px.x, 320.0, 1e-9));
        assert!(approx_eq(px.y, 240.0, 1e-9));
    }

    #[test]
    fn point_behind_camera_invisible() {
        let c = cam();
        assert!(c.project(Vec3::new(0.0, -5.0, 1.5)).is_none());
    }

    #[test]
    fn up_in_world_is_up_in_image() {
        let c = cam();
        // a point above the target should have smaller v (image y grows down)
        let above = c.project(Vec3::new(0.0, 0.0, 2.0)).unwrap();
        assert!(above.y < 240.0);
        // a point to the camera's right (east, +x when looking north) has larger u
        let east = c.project(Vec3::new(0.5, 0.0, 1.5)).unwrap();
        assert!(east.x > 320.0);
    }

    #[test]
    fn farther_is_smaller() {
        let intr = CameraIntrinsics::new(640, 480, 500.0);
        let near_cam =
            PinholeCamera::look_at(Vec3::new(0.0, -3.0, 1.0), Vec3::new(0.0, 0.0, 1.0), intr);
        let far_cam =
            PinholeCamera::look_at(Vec3::new(0.0, -6.0, 1.0), Vec3::new(0.0, 0.0, 1.0), intr);
        let s = Sphere3::new(Vec3::new(0.0, 0.0, 1.0), 0.1);
        let d_near = near_cam.project_sphere(&s).unwrap();
        let d_far = far_cam.project_sphere(&s).unwrap();
        assert!(d_near.radius > d_far.radius);
        assert!(approx_eq(d_near.radius, 2.0 * d_far.radius, 1e-9));
    }

    #[test]
    fn capsule_projection_tapers_with_depth() {
        let c = cam();
        // capsule pointing away from the camera: far end projects smaller
        let cap = Capsule3::new(Vec3::new(0.0, 0.0, 1.5), Vec3::new(0.0, 2.0, 1.5), 0.1);
        let p = c.project_capsule(&cap).unwrap();
        assert!(p.radius_a > p.radius_b);
    }

    #[test]
    fn capsule_fully_behind_camera_is_culled() {
        let c = cam();
        let cap = Capsule3::new(Vec3::new(0.0, -5.0, 1.5), Vec3::new(0.0, -6.0, 1.5), 0.1);
        assert!(c.project_capsule(&cap).is_none());
    }

    #[test]
    fn capsule_partially_behind_is_clipped() {
        let c = cam();
        let cap = Capsule3::new(Vec3::new(0.0, -5.0, 1.5), Vec3::new(0.0, 0.0, 1.5), 0.1);
        let p = c.project_capsule(&cap).expect("front part visible");
        assert!(p.a.is_finite() && p.b.is_finite());
    }

    #[test]
    fn camera_position_recovered() {
        let eye = Vec3::new(1.0, -3.0, 2.0);
        let c = PinholeCamera::look_at(eye, Vec3::ZERO, CameraIntrinsics::new(64, 64, 50.0));
        let p = c.position();
        assert!(approx_eq(p.x, eye.x, 1e-9));
        assert!(approx_eq(p.y, eye.y, 1e-9));
        assert!(approx_eq(p.z, eye.z, 1e-9));
    }

    #[test]
    fn in_frame_bounds() {
        let c = cam();
        assert!(in_frame(&c, Vec2::new(0.0, 0.0)));
        assert!(in_frame(&c, Vec2::new(639.9, 479.9)));
        assert!(!in_frame(&c, Vec2::new(640.0, 100.0)));
        assert!(!in_frame(&c, Vec2::new(-0.1, 100.0)));
    }
}
