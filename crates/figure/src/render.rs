//! Rendering posed signallers into grayscale frames.

use crate::pose::{MarshallingSign, Pose};
use crate::skeleton::{BodyPart, Signaller};
use hdc_geometry::{CameraIntrinsics, PinholeCamera, Vec2, Vec3};
use hdc_raster::draw::{self, SpanSink};
use hdc_raster::GrayImage;

/// The viewing geometry of one frame, in the paper's own parameters:
/// relative azimuth, drone altitude and horizontal distance (Figure 4 uses
/// altitude 5 m, distance 3 m, azimuth 0° and 65°).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewSpec {
    /// Relative azimuth of the drone with respect to the signaller's facing
    /// direction, in degrees: 0° is full-on, 90° is a pure side view.
    pub azimuth_deg: f64,
    /// Drone (camera) altitude above ground, metres.
    pub altitude_m: f64,
    /// Horizontal distance from drone to signaller, metres.
    pub distance_m: f64,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Focal length in pixels.
    pub focal_px: f64,
}

impl ViewSpec {
    /// The reproduction's standard camera (640×480, ~53° horizontal FOV) at
    /// the given geometry. Matches the paper's evaluation setup: a low-cost
    /// drone camera looking at a signaller 2–5 m below-and-ahead.
    pub fn paper_default(azimuth_deg: f64, altitude_m: f64, distance_m: f64) -> Self {
        ViewSpec {
            azimuth_deg,
            altitude_m,
            distance_m,
            width: 640,
            height: 480,
            focal_px: 640.0,
        }
    }

    /// The camera implied by this view, positioned at the relative azimuth
    /// around a signaller standing at the origin facing `+y`, aimed at the
    /// signaller's chest.
    ///
    /// # Panics
    /// Panics if `distance_m` is zero or negative (the camera would coincide
    /// with the signaller or the look-at would degenerate).
    pub fn camera(&self) -> PinholeCamera {
        assert!(self.distance_m > 0.0, "camera distance must be positive");
        // Signaller faces +y; azimuth 0 puts the camera straight ahead.
        let ground = hdc_geometry::azimuth::azimuth_ground_offset(
            self.azimuth_deg.to_radians(),
            self.distance_m,
        );
        let eye = Vec3::from_xy(ground, self.altitude_m);
        let target = Vec3::new(0.0, 0.0, 1.2); // chest height
        PinholeCamera::look_at(
            eye,
            target,
            CameraIntrinsics::new(self.width, self.height, self.focal_px),
        )
    }

    /// A signaller at the origin facing `+y`, holding `pose`.
    pub fn signaller(&self, pose: Pose) -> Signaller {
        Signaller::new(Vec2::ZERO, std::f64::consts::FRAC_PI_2, pose)
    }
}

/// Renders a posed signaller through a camera into a fresh grayscale frame
/// (background 0, silhouette 255).
pub fn render_signaller(signaller: &Signaller, camera: &PinholeCamera) -> GrayImage {
    let intr = camera.intrinsics();
    let mut img = GrayImage::new(intr.width(), intr.height());
    paint_signaller(signaller, camera, &mut img);
    img
}

/// Paints a signaller's silhouette into an existing frame (for multi-actor
/// scenes).
pub fn paint_signaller(signaller: &Signaller, camera: &PinholeCamera, img: &mut GrayImage) {
    paint_silhouette(signaller, camera, &mut draw::Paint::new(img, 255));
}

/// Rasterises a signaller's silhouette into any span sink: grey rows
/// ([`paint_signaller`]) or the words of a packed mask, which then holds
/// exactly the foreground of the painted frame.
pub fn paint_silhouette<S: SpanSink + ?Sized>(
    signaller: &Signaller,
    camera: &PinholeCamera,
    sink: &mut S,
) {
    for part in signaller.body_parts() {
        match part {
            BodyPart::Capsule(c) => {
                if let Some(p) = camera.project_capsule(&c) {
                    draw::tapered_capsule(sink, p.a, p.radius_a, p.b, p.radius_b);
                }
            }
            BodyPart::Sphere(s) => {
                if let Some(d) = camera.project_sphere(&s) {
                    draw::disk(sink, d.center, d.radius);
                }
            }
        }
    }
}

/// Convenience for the experiments: renders one marshalling sign under a
/// view specification.
///
/// # Example
/// ```
/// use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
/// let img = render_sign(MarshallingSign::Yes, &ViewSpec::paper_default(0.0, 5.0, 3.0));
/// let lit = img.pixels().iter().filter(|p| **p > 0).count();
/// assert!(lit > 500, "figure occupies a useful number of pixels, got {lit}");
/// ```
pub fn render_sign(sign: MarshallingSign, view: &ViewSpec) -> GrayImage {
    let signaller = view.signaller(Pose::for_sign(sign));
    render_signaller(&signaller, &view.camera())
}

/// Renders an arbitrary pose under a view specification.
pub fn render_pose(pose: Pose, view: &ViewSpec) -> GrayImage {
    let signaller = view.signaller(pose);
    render_signaller(&signaller, &view.camera())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(img: &GrayImage) -> usize {
        img.pixels().iter().filter(|p| **p > 0).count()
    }

    #[test]
    fn frontal_view_shows_figure() {
        let img = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        );
        assert!(lit(&img) > 1000, "figure visible: {} px", lit(&img));
    }

    #[test]
    fn farther_is_smaller() {
        let near = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 2.0, 3.0),
        );
        let far = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 8.0, 3.0),
        );
        assert!(
            lit(&near) > 2 * lit(&far),
            "{} vs {}",
            lit(&near),
            lit(&far)
        );
    }

    #[test]
    fn side_view_is_narrower() {
        let front = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        let side = render_sign(
            MarshallingSign::No,
            &ViewSpec::paper_default(90.0, 5.0, 3.0),
        );
        // foreshortening: the side view covers fewer pixels (arms overlap torso)
        assert!(
            lit(&side) < lit(&front),
            "{} vs {}",
            lit(&side),
            lit(&front)
        );
    }

    #[test]
    fn different_signs_render_differently() {
        let v = ViewSpec::paper_default(0.0, 5.0, 3.0);
        let yes = render_sign(MarshallingSign::Yes, &v);
        let no = render_sign(MarshallingSign::No, &v);
        let diff = yes
            .pixels()
            .iter()
            .zip(no.pixels())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 500, "signs must differ in silhouette: {diff}");
    }

    #[test]
    fn azimuth_symmetry_for_symmetric_sign() {
        // Yes is left-right symmetric: ±azimuth give mirror images with equal
        // pixel counts (within rasterisation noise)
        let l = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(-40.0, 5.0, 3.0),
        );
        let r = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(40.0, 5.0, 3.0),
        );
        let (ll, lr) = (lit(&l) as f64, lit(&r) as f64);
        assert!((ll - lr).abs() / ll < 0.05, "{ll} vs {lr}");
    }

    #[test]
    fn paint_into_shared_frame() {
        let v = ViewSpec::paper_default(0.0, 5.0, 3.0);
        let cam = v.camera();
        let mut img = GrayImage::new(v.width, v.height);
        let a = v.signaller(Pose::neutral());
        let mut b = v.signaller(Pose::neutral());
        b = Signaller::new(
            Vec2::new(1.5, 0.0),
            std::f64::consts::FRAC_PI_2,
            Pose::neutral(),
        )
        .with_dimensions(*b.dimensions());
        paint_signaller(&a, &cam, &mut img);
        let after_one = lit(&img);
        paint_signaller(&b, &cam, &mut img);
        assert!(lit(&img) > after_one, "second actor adds pixels");
    }

    #[test]
    #[should_panic(expected = "distance must be positive")]
    fn zero_distance_rejected() {
        let mut v = ViewSpec::paper_default(0.0, 5.0, 3.0);
        v.distance_m = 0.0;
        let _ = v.camera();
    }

    #[test]
    fn figure_inside_frame_at_paper_geometries() {
        // every altitude of the paper's sweep keeps the signaller in frame
        for alt in [2.0, 3.0, 4.0, 5.0] {
            let img = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, alt, 3.0));
            assert!(lit(&img) > 800, "altitude {alt}: {} px", lit(&img));
            // nothing on the border rows/cols ⇒ fully framed
            let w = img.width();
            let h = img.height();
            let mut border = 0;
            for x in 0..w {
                if img.get(x, 0) != Some(0) || img.get(x, h - 1) != Some(0) {
                    border += 1;
                }
            }
            assert_eq!(border, 0, "altitude {alt} clips the figure vertically");
        }
    }
}
