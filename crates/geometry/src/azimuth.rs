//! Azimuth geometry around a signaller, shared by the renderer, the
//! recognition sweeps and the cohort layer.
//!
//! The convention is fixed once, here: the signaller stands at the origin of
//! their own frame facing `+y`; a viewpoint's *relative azimuth* is the angle
//! between the facing direction and the direction to the viewpoint, so
//! azimuth `0` is straight ahead and positive azimuths sweep clockwise when
//! seen from above. The paper's Figure 4 places the recogniser's dead angle
//! around ~100° of relative azimuth; the constants below pin that band so
//! the sweep, the fault injectors and the cohort placement all agree on it.

use crate::Vec2;

/// Centre of the recogniser's dead angle, radians (~100°, the paper's
/// Figure 4). The `facing-bias-dead-angle` scenario and the cohort's default
/// observer offset both use this exact value.
pub const DEAD_ANGLE_CENTER_RAD: f64 = 1.75;

/// Lower edge of the dead-angle band, degrees of relative azimuth.
pub const DEAD_ANGLE_MIN_DEG: f64 = 90.0;

/// Upper edge of the dead-angle band, degrees of relative azimuth.
pub const DEAD_ANGLE_MAX_DEG: f64 = 120.0;

/// Folds any relative azimuth in degrees into `[0, 180]` — recognition is
/// bilaterally symmetric in azimuth, so only the magnitude matters.
pub fn fold_azimuth_deg(azimuth_deg: f64) -> f64 {
    let a = azimuth_deg.rem_euclid(360.0);
    if a > 180.0 {
        360.0 - a
    } else {
        a
    }
}

/// Whether a relative azimuth (degrees) falls inside the dead-angle band.
pub fn in_dead_angle_deg(azimuth_deg: f64) -> bool {
    let a = fold_azimuth_deg(azimuth_deg);
    (DEAD_ANGLE_MIN_DEG..=DEAD_ANGLE_MAX_DEG).contains(&a)
}

/// Ground-plane offset of a viewpoint at relative azimuth `azimuth_rad` and
/// horizontal range `range_m` from a signaller at the origin facing `+y`.
/// Azimuth `0` puts the viewpoint straight ahead at `(0, range_m)`.
pub fn azimuth_ground_offset(azimuth_rad: f64, range_m: f64) -> Vec2 {
    Vec2::new(range_m * azimuth_rad.sin(), range_m * azimuth_rad.cos())
}

/// Rotates a viewpoint's ground offset from a pivot counter-clockwise by
/// `angle_rad` — how a cohort places an observer at an azimuth offset from
/// the session owner around the same human.
pub fn rotate_about(point: Vec2, pivot: Vec2, angle_rad: f64) -> Vec2 {
    pivot + (point - pivot).rotated(angle_rad)
}

/// The relative azimuth (radians, in `(-pi, pi]`) of a viewpoint at ground
/// position `viewpoint` as seen by a signaller at `signaller` whose facing
/// heading is `heading_rad` (world frame, `Vec2::angle` convention).
pub fn relative_azimuth_rad(signaller: Vec2, heading_rad: f64, viewpoint: Vec2) -> f64 {
    let bearing = (viewpoint - signaller).angle();
    crate::normalize_angle(heading_rad - bearing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn dead_angle_center_sits_inside_the_band() {
        let deg = DEAD_ANGLE_CENTER_RAD.to_degrees();
        assert!(
            in_dead_angle_deg(deg),
            "centre {deg:.1}° must be inside [{DEAD_ANGLE_MIN_DEG}, {DEAD_ANGLE_MAX_DEG}]"
        );
        assert!(!in_dead_angle_deg(0.0), "frontal views are not dead");
        assert!(!in_dead_angle_deg(180.0), "a pure back view is readable");
    }

    #[test]
    fn folding_is_symmetric_and_periodic() {
        assert!(approx_eq(fold_azimuth_deg(-105.0), 105.0, 1e-12));
        assert!(approx_eq(fold_azimuth_deg(255.0), 105.0, 1e-12));
        assert!(approx_eq(fold_azimuth_deg(465.0), 105.0, 1e-12));
        assert!(in_dead_angle_deg(-100.0), "the band is two-sided");
    }

    #[test]
    fn ground_offset_matches_the_render_convention() {
        // azimuth 0: straight ahead of a +y-facing signaller
        let front = azimuth_ground_offset(0.0, 3.0);
        assert!(approx_eq(front.x, 0.0, 1e-12) && approx_eq(front.y, 3.0, 1e-12));
        // azimuth 90°: off the signaller's right-hand side (+x)
        let side = azimuth_ground_offset(FRAC_PI_2, 3.0);
        assert!(approx_eq(side.x, 3.0, 1e-12) && approx_eq(side.y, 0.0, 1e-9));
    }

    #[test]
    fn rotate_about_preserves_range_and_shifts_bearing() {
        let pivot = Vec2::new(12.0, 8.0);
        let p = pivot + Vec2::new(3.0, 0.0);
        let q = rotate_about(p, pivot, FRAC_PI_2);
        assert!(approx_eq(q.distance(pivot), 3.0, 1e-12));
        assert!(approx_eq((q - pivot).angle(), FRAC_PI_2, 1e-12));
    }

    #[test]
    fn relative_azimuth_closes_the_loop_with_rotate_about() {
        // a human facing a drone head-on sees azimuth 0; rotating the
        // viewpoint about the human by delta shifts the azimuth by -delta
        let human = Vec2::new(2.0, 1.0);
        let drone = human + Vec2::new(0.7f64.cos(), 0.7f64.sin()) * 3.0;
        let heading = (drone - human).angle();
        assert!(approx_eq(
            relative_azimuth_rad(human, heading, drone),
            0.0,
            1e-12
        ));
        let moved = rotate_about(drone, human, DEAD_ANGLE_CENTER_RAD);
        assert!(approx_eq(
            relative_azimuth_rad(human, heading, moved),
            -DEAD_ANGLE_CENTER_RAD,
            1e-9
        ));
    }

    #[test]
    fn normalization_wraps_the_back_hemisphere() {
        let human = Vec2::ZERO;
        let behind = Vec2::new(0.0, -3.0);
        // facing +y, a viewpoint straight behind is at ±180°
        let az = relative_azimuth_rad(human, FRAC_PI_2, behind);
        assert!(approx_eq(az.abs(), PI, 1e-12));
    }
}
