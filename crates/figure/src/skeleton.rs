//! The articulated skeleton: body dimensions and world-frame body parts.

use crate::pose::Pose;
use hdc_geometry::{Capsule3, Mat3, Sphere3, Vec2, Vec3};
use serde::{Deserialize, Serialize};

/// Anthropometric dimensions of the signaller, in metres.
///
/// Defaults approximate a 1.8 m adult. The silhouette is a union of capsules
/// (limbs, torso) and a sphere (head).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BodyDimensions {
    /// Height of the hip line above ground.
    pub hip_height: f64,
    /// Height of the shoulder line above ground.
    pub shoulder_height: f64,
    /// Half-distance between the shoulders.
    pub shoulder_half_width: f64,
    /// Half-distance between the hips.
    pub hip_half_width: f64,
    /// Head-sphere centre height above ground.
    pub head_height: f64,
    /// Head-sphere radius.
    pub head_radius: f64,
    /// Upper-arm length.
    pub upper_arm: f64,
    /// Forearm (+hand) length.
    pub forearm: f64,
    /// Torso capsule radius.
    pub torso_radius: f64,
    /// Arm capsule radius.
    pub arm_radius: f64,
    /// Leg capsule radius.
    pub leg_radius: f64,
}

impl BodyDimensions {
    /// Typical adult proportions (stature ≈ 1.8 m).
    pub fn adult() -> Self {
        BodyDimensions {
            hip_height: 0.95,
            shoulder_height: 1.45,
            shoulder_half_width: 0.21,
            hip_half_width: 0.11,
            head_height: 1.66,
            head_radius: 0.11,
            upper_arm: 0.31,
            forearm: 0.35,
            torso_radius: 0.15,
            arm_radius: 0.05,
            leg_radius: 0.08,
        }
    }

    /// Total stature (top of head).
    pub fn stature(&self) -> f64 {
        self.head_height + self.head_radius
    }

    /// Uniformly scales every dimension by `factor` (a shorter or taller
    /// person with identical proportions).
    ///
    /// # Panics
    /// Panics if `factor` is not positive.
    pub fn scaled(&self, factor: f64) -> BodyDimensions {
        assert!(factor > 0.0, "scale factor must be positive");
        BodyDimensions {
            hip_height: self.hip_height * factor,
            shoulder_height: self.shoulder_height * factor,
            shoulder_half_width: self.shoulder_half_width * factor,
            hip_half_width: self.hip_half_width * factor,
            head_height: self.head_height * factor,
            head_radius: self.head_radius * factor,
            upper_arm: self.upper_arm * factor,
            forearm: self.forearm * factor,
            torso_radius: self.torso_radius * factor,
            arm_radius: self.arm_radius * factor,
            leg_radius: self.leg_radius * factor,
        }
    }

    /// Varies the body *proportions* (not overall size): multiplies limb
    /// lengths by `limb_factor` and trunk/limb girths by `girth_factor`.
    /// Models the anthropometric diversity of real orchard crews.
    ///
    /// # Panics
    /// Panics if either factor is not positive.
    pub fn with_proportions(&self, limb_factor: f64, girth_factor: f64) -> BodyDimensions {
        assert!(
            limb_factor > 0.0 && girth_factor > 0.0,
            "factors must be positive"
        );
        BodyDimensions {
            upper_arm: self.upper_arm * limb_factor,
            forearm: self.forearm * limb_factor,
            torso_radius: self.torso_radius * girth_factor,
            arm_radius: self.arm_radius * girth_factor,
            leg_radius: self.leg_radius * girth_factor,
            ..*self
        }
    }
}

impl Default for BodyDimensions {
    fn default() -> Self {
        BodyDimensions::adult()
    }
}

/// One solid of the signaller's body.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BodyPart {
    /// A capsule limb or torso segment.
    Capsule(Capsule3),
    /// The head sphere.
    Sphere(Sphere3),
}

/// A posed signaller placed in the world.
///
/// The signaller's local frame: origin at the feet midpoint, `+z` up, facing
/// along the world direction given by `heading` (radians, 0 = +x east).
/// Arms articulate in the frontal plane (lateral × vertical), so a camera at
/// relative azimuth 0 — directly ahead — sees the sign fully extended.
///
/// # Example
/// ```
/// use hdc_figure::{Signaller, Pose, MarshallingSign};
/// use hdc_geometry::Vec2;
/// let s = Signaller::new(Vec2::ZERO, std::f64::consts::FRAC_PI_2, Pose::for_sign(MarshallingSign::Yes));
/// let parts = s.body_parts();
/// assert_eq!(parts.len(), 9); // torso, girdle, head, 2 legs, 2×2 arm segments
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signaller {
    position: Vec2,
    heading: f64,
    pose: Pose,
    dims: BodyDimensions,
}

impl Signaller {
    /// Creates a signaller at a ground position with a facing direction.
    pub fn new(position: Vec2, heading: f64, pose: Pose) -> Self {
        Signaller {
            position,
            heading,
            pose,
            dims: BodyDimensions::adult(),
        }
    }

    /// Replaces the body dimensions (builder style).
    pub fn with_dimensions(mut self, dims: BodyDimensions) -> Self {
        self.dims = dims;
        self
    }

    /// Ground position.
    pub fn position(&self) -> Vec2 {
        self.position
    }

    /// Facing direction in radians (world frame, 0 = +x).
    pub fn heading(&self) -> f64 {
        self.heading
    }

    /// Current pose.
    pub fn pose(&self) -> &Pose {
        &self.pose
    }

    /// Sets a new pose.
    pub fn set_pose(&mut self, pose: Pose) {
        self.pose = pose;
    }

    /// Body dimensions.
    pub fn dimensions(&self) -> &BodyDimensions {
        &self.dims
    }

    /// Chest point (useful as a camera look-at target).
    pub fn chest(&self) -> Vec3 {
        self.local_to_world(Vec3::new(
            0.0,
            0.0,
            (self.dims.hip_height + self.dims.shoulder_height) / 2.0,
        ))
    }

    fn local_to_world(&self, p: Vec3) -> Vec3 {
        // Local frame: +y = facing, +x = signaller's right side as seen from
        // the front (i.e. lateral axis), +z up. World rotation about z maps
        // local +y onto the heading direction.
        let rot = Mat3::rotation_z(self.heading - std::f64::consts::FRAC_PI_2);
        rot * p + Vec3::from_xy(self.position, 0.0)
    }

    /// The arm segments for one side: `side = +1` (lateral +x) or `-1`.
    fn arm(&self, side: f64, abduction: f64, flexion: f64) -> [Capsule3; 2] {
        let d = &self.dims;
        let shoulder = Vec3::new(side * d.shoulder_half_width, 0.0, d.shoulder_height);
        // Frontal-plane direction: 0 = down, π/2 = lateral, π = up.
        let upper_dir = Vec3::new(side * abduction.sin(), 0.0, -abduction.cos());
        let elbow = shoulder + upper_dir * d.upper_arm;
        // Flexion rotates the forearm further in the same frontal plane,
        // toward the midline/head (continuing the abduction rotation).
        let fore_angle = abduction + flexion;
        let fore_dir = Vec3::new(side * fore_angle.sin(), 0.0, -fore_angle.cos());
        let wrist = elbow + fore_dir * d.forearm;
        [
            Capsule3::new(shoulder, elbow, d.arm_radius),
            Capsule3::new(elbow, wrist, d.arm_radius),
        ]
    }

    /// All body solids in world coordinates: torso, shoulder girdle, head,
    /// left and right leg, then the left and right arm's upper and lower
    /// segments.
    pub fn body_parts(&self) -> [BodyPart; 9] {
        let d = &self.dims;
        // Torso: hip midline to neck.
        let torso = Capsule3::new(
            Vec3::new(0.0, 0.0, d.hip_height),
            Vec3::new(0.0, 0.0, d.shoulder_height),
            d.torso_radius,
        );
        // Shoulder girdle: connects the two shoulder joints through the
        // torso so the silhouette stays a single blob with the arms attached.
        let girdle = Capsule3::new(
            Vec3::new(-d.shoulder_half_width, 0.0, d.shoulder_height),
            Vec3::new(d.shoulder_half_width, 0.0, d.shoulder_height),
            d.arm_radius * 1.6,
        );
        let head = Sphere3::new(Vec3::new(0.0, 0.0, d.head_height), d.head_radius);
        // Legs: hip → foot, feet apart by the stance width.
        let leg = |side: f64| {
            let hip = Vec3::new(side * d.hip_half_width, 0.0, d.hip_height);
            let foot = Vec3::new(side * self.pose.stance_half_width, 0.0, 0.0);
            BodyPart::Capsule(Capsule3::new(hip, foot, d.leg_radius))
        };
        let [left_upper, left_fore] =
            self.arm(-1.0, self.pose.left_abduction, self.pose.left_flexion);
        let [right_upper, right_fore] =
            self.arm(1.0, self.pose.right_abduction, self.pose.right_flexion);
        let local = [
            BodyPart::Capsule(torso),
            BodyPart::Capsule(girdle),
            BodyPart::Sphere(head),
            leg(-1.0),
            leg(1.0),
            BodyPart::Capsule(left_upper),
            BodyPart::Capsule(left_fore),
            BodyPart::Capsule(right_upper),
            BodyPart::Capsule(right_fore),
        ];

        // Transform to world.
        local.map(|part| match part {
            BodyPart::Capsule(c) => BodyPart::Capsule(Capsule3::new(
                self.local_to_world(c.a),
                self.local_to_world(c.b),
                c.radius,
            )),
            BodyPart::Sphere(s) => {
                BodyPart::Sphere(Sphere3::new(self.local_to_world(s.center), s.radius))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::MarshallingSign;

    fn wrist_height(sig: &Signaller, right: bool) -> f64 {
        // the wrist is the far endpoint of the last arm capsule on that side
        let parts = sig.body_parts();
        let arm_caps: Vec<&Capsule3> = parts
            .iter()
            .filter_map(|p| match p {
                BodyPart::Capsule(c) => Some(c),
                _ => None,
            })
            .collect();
        // arms are the last 4 capsules: left upper, left fore, right upper, right fore
        let idx = if right {
            arm_caps.len() - 1
        } else {
            arm_caps.len() - 3
        };
        arm_caps[idx].b.z
    }

    #[test]
    fn part_count() {
        // torso + girdle + head + 2 legs + 2×2 arm segments
        let s = Signaller::new(Vec2::ZERO, 0.0, Pose::neutral());
        assert_eq!(s.body_parts().len(), 9);
    }

    #[test]
    fn stature_reasonable() {
        let d = BodyDimensions::adult();
        assert!((d.stature() - 1.77).abs() < 0.1);
    }

    #[test]
    fn yes_raises_both_wrists_above_head() {
        let s = Signaller::new(Vec2::ZERO, 1.0, Pose::for_sign(MarshallingSign::Yes));
        let head = s.dimensions().head_height;
        assert!(wrist_height(&s, true) > head, "right wrist above head");
        assert!(wrist_height(&s, false) > head, "left wrist above head");
    }

    #[test]
    fn no_raises_only_one_wrist() {
        let s = Signaller::new(Vec2::ZERO, 1.0, Pose::for_sign(MarshallingSign::No));
        let shoulder = s.dimensions().shoulder_height;
        assert!(wrist_height(&s, true) > shoulder, "right wrist up");
        assert!(wrist_height(&s, false) < shoulder, "left wrist down");
    }

    #[test]
    fn neutral_wrists_hang_low() {
        let s = Signaller::new(Vec2::ZERO, 1.0, Pose::neutral());
        let hip = s.dimensions().hip_height;
        assert!(wrist_height(&s, true) < hip);
        assert!(wrist_height(&s, false) < hip);
    }

    #[test]
    fn position_translates_all_parts() {
        let at_origin = Signaller::new(Vec2::ZERO, 0.3, Pose::neutral());
        let moved = Signaller::new(Vec2::new(10.0, -5.0), 0.3, Pose::neutral());
        let a = at_origin.body_parts();
        let b = moved.body_parts();
        for (pa, pb) in a.iter().zip(&b) {
            match (pa, pb) {
                (BodyPart::Sphere(sa), BodyPart::Sphere(sb)) => {
                    let delta = sb.center - sa.center;
                    assert!((delta.x - 10.0).abs() < 1e-12);
                    assert!((delta.y + 5.0).abs() < 1e-12);
                    assert!(delta.z.abs() < 1e-12);
                }
                (BodyPart::Capsule(ca), BodyPart::Capsule(cb)) => {
                    let delta = cb.a - ca.a;
                    assert!((delta.x - 10.0).abs() < 1e-12);
                }
                _ => panic!("part order changed"),
            }
        }
    }

    #[test]
    fn heading_rotates_frontal_plane() {
        // facing +y (heading π/2): the frontal plane is the x-z plane, so a
        // raised arm should displace in x, not y.
        let s = Signaller::new(
            Vec2::ZERO,
            std::f64::consts::FRAC_PI_2,
            Pose::for_sign(MarshallingSign::Yes),
        );
        let parts = s.body_parts();
        let wrists: Vec<Vec3> = parts
            .iter()
            .filter_map(|p| match p {
                BodyPart::Capsule(c) => Some(c.b),
                _ => None,
            })
            .collect();
        // all capsule endpoints stay near the y=0 plane
        for w in wrists {
            assert!(
                w.y.abs() < 1e-9,
                "frontal plane should be x-z, got y={}",
                w.y
            );
        }
    }

    #[test]
    fn chest_between_hip_and_shoulder() {
        let s = Signaller::new(Vec2::new(2.0, 3.0), 0.0, Pose::neutral());
        let c = s.chest();
        assert!(c.z > s.dimensions().hip_height && c.z < s.dimensions().shoulder_height);
        assert!((c.xy().distance(Vec2::new(2.0, 3.0))) < 1e-9);
    }

    #[test]
    fn scaling_is_uniform() {
        let d = BodyDimensions::adult();
        let s = d.scaled(1.1);
        assert!((s.stature() - d.stature() * 1.1).abs() < 1e-12);
        assert!((s.upper_arm - d.upper_arm * 1.1).abs() < 1e-12);
        assert!((s.torso_radius - d.torso_radius * 1.1).abs() < 1e-12);
    }

    #[test]
    fn proportions_change_limbs_not_stature() {
        let d = BodyDimensions::adult();
        let p = d.with_proportions(1.15, 0.9);
        assert_eq!(p.stature(), d.stature());
        assert!((p.upper_arm - d.upper_arm * 1.15).abs() < 1e-12);
        assert!((p.torso_radius - d.torso_radius * 0.9).abs() < 1e-12);
        assert_eq!(p.shoulder_height, d.shoulder_height);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        BodyDimensions::adult().scaled(0.0);
    }

    #[test]
    fn custom_dimensions_apply() {
        let mut d = BodyDimensions::adult();
        d.head_radius = 0.2;
        let s = Signaller::new(Vec2::ZERO, 0.0, Pose::neutral()).with_dimensions(d);
        let has_big_head = s.body_parts().iter().any(|p| match p {
            BodyPart::Sphere(sp) => (sp.radius - 0.2).abs() < 1e-12,
            _ => false,
        });
        assert!(has_big_head);
    }
}
