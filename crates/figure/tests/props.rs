//! Property-based tests for the synthetic signaller.

use hdc_figure::{render_pose, BodyPart, Pose, Signaller, ViewSpec};
use hdc_geometry::Vec2;
use proptest::prelude::*;

fn plausible_pose() -> impl Strategy<Value = Pose> {
    (
        0.0f64..2.9,
        0.0f64..2.2,
        0.0f64..2.9,
        0.0f64..2.2,
        0.05f64..0.3,
    )
        .prop_map(|(la, lf, ra, rf, st)| Pose {
            left_abduction: la,
            left_flexion: lf,
            right_abduction: ra,
            right_flexion: rf,
            stance_half_width: st,
        })
}

proptest! {
    #[test]
    fn body_parts_always_nine_and_finite(pose in plausible_pose(), heading in -4.0f64..4.0, x in -20.0f64..20.0, y in -20.0f64..20.0) {
        let s = Signaller::new(Vec2::new(x, y), heading, pose);
        let parts = s.body_parts();
        prop_assert_eq!(parts.len(), 9);
        for p in parts {
            match p {
                BodyPart::Capsule(c) => {
                    prop_assert!(c.a.is_finite() && c.b.is_finite());
                    prop_assert!(c.radius > 0.0);
                }
                BodyPart::Sphere(sp) => {
                    prop_assert!(sp.center.is_finite());
                    prop_assert!(sp.radius > 0.0);
                }
            }
        }
    }

    #[test]
    fn feet_on_ground_head_on_top(pose in plausible_pose()) {
        let s = Signaller::new(Vec2::ZERO, 0.0, pose);
        let mut min_z = f64::INFINITY;
        let mut max_z = f64::NEG_INFINITY;
        for p in s.body_parts() {
            match p {
                BodyPart::Capsule(c) => {
                    min_z = min_z.min(c.a.z).min(c.b.z);
                    max_z = max_z.max(c.a.z).max(c.b.z);
                }
                BodyPart::Sphere(sp) => {
                    max_z = max_z.max(sp.center.z + sp.radius);
                }
            }
        }
        prop_assert!(min_z.abs() < 1e-9, "feet at ground level, got {}", min_z);
        prop_assert!(max_z > 1.5 && max_z < 2.6, "stature bounds: {}", max_z);
    }

    #[test]
    fn every_plausible_pose_renders_visibly(pose in plausible_pose(), az in 0.0f64..90.0) {
        let frame = render_pose(pose, &ViewSpec::paper_default(az, 5.0, 3.0));
        let lit = frame.pixels().iter().filter(|p| **p > 0).count();
        prop_assert!(lit > 300, "figure nearly invisible at azimuth {}: {} px", az, lit);
    }

    #[test]
    fn lerp_stays_plausible(a in plausible_pose(), b in plausible_pose(), t in 0.0f64..1.0) {
        let mid = a.lerp(&b, t);
        // every joint angle within the anatomically plausible bounds
        let ok = |v: f64| (-0.3..=3.3).contains(&v);
        prop_assert!(ok(mid.left_abduction) && ok(mid.right_abduction));
        prop_assert!((-0.3..=2.8).contains(&mid.left_flexion));
        prop_assert!((-0.3..=2.8).contains(&mid.right_flexion));
        prop_assert!(mid.stance_half_width > 0.0);
    }

    #[test]
    fn heading_only_rotates_the_silhouette(pose in plausible_pose(), h1 in -3.0f64..3.0, h2 in -3.0f64..3.0) {
        // total silhouette "mass" (pixel count from a fixed overhead-ish view)
        // varies with heading, but the 3-D parts' sizes do not
        let s1 = Signaller::new(Vec2::ZERO, h1, pose);
        let s2 = Signaller::new(Vec2::ZERO, h2, pose);
        let len = |s: &Signaller| -> f64 {
            s.body_parts()
                .iter()
                .map(|p| match p {
                    BodyPart::Capsule(c) => c.length(),
                    BodyPart::Sphere(_) => 0.0,
                })
                .sum()
        };
        prop_assert!((len(&s1) - len(&s2)).abs() < 1e-9);
    }
}
