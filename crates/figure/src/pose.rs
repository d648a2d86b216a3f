//! Poses: joint angles for the marshalling signs and distractor postures.

use rand::Rng;
use std::fmt;

/// The static marshalling signs of the paper's human→drone language
/// (Section III, Figure 3), plus the neutral stance.
///
/// * [`MarshallingSign::AttentionGained`] — hands raised to protect the face
///   (the "human-reflex" sign acknowledging the drone's poke),
/// * [`MarshallingSign::Yes`] — both arms straight up (Swiss emergency "Y"),
/// * [`MarshallingSign::No`] — one arm up, one arm down (the diagonal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MarshallingSign {
    /// Both forearms raised in front of the face: "you have my attention".
    AttentionGained,
    /// Both arms straight up: affirmative.
    Yes,
    /// One arm up, one arm down: negative.
    No,
}

impl MarshallingSign {
    /// All three signs, in a fixed order.
    pub const ALL: [MarshallingSign; 3] = [
        MarshallingSign::AttentionGained,
        MarshallingSign::Yes,
        MarshallingSign::No,
    ];

    /// Canonical label used in sign databases and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            MarshallingSign::AttentionGained => "AttentionGained",
            MarshallingSign::Yes => "Yes",
            MarshallingSign::No => "No",
        }
    }

    /// The sign whose [`label`](Self::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.label() == label)
    }
}

impl fmt::Display for MarshallingSign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Joint angles of the signaller, all in radians.
///
/// Arms move in the signaller's frontal (coronal) plane, which is what makes
/// the signs readable from the front and degenerate from the side:
///
/// * `abduction` — angle of the upper arm from "straight down": `0` hangs at
///   the side, `π/2` points horizontally outward, `π` points straight up.
/// * `elbow_flexion` — in-plane bend of the forearm toward the midline/head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Left-arm abduction angle.
    pub left_abduction: f64,
    /// Left elbow flexion.
    pub left_flexion: f64,
    /// Right-arm abduction angle.
    pub right_abduction: f64,
    /// Right elbow flexion.
    pub right_flexion: f64,
    /// Lateral stance half-width of the feet in metres.
    pub stance_half_width: f64,
}

impl Pose {
    /// Neutral stance: arms hanging, feet slightly apart.
    pub fn neutral() -> Pose {
        Pose {
            left_abduction: 0.12,
            left_flexion: 0.05,
            right_abduction: 0.12,
            right_flexion: 0.05,
            stance_half_width: 0.12,
        }
    }

    /// The pose for a marshalling sign.
    pub fn for_sign(sign: MarshallingSign) -> Pose {
        match sign {
            // Hands up in front of the face, elbows kept low: the compact
            // "protect the face" reflex. Upper arms barely lifted, forearms
            // folded sharply upward so the hands sit beside the head.
            MarshallingSign::AttentionGained => Pose {
                left_abduction: 0.35,
                left_flexion: 2.45,
                right_abduction: 0.35,
                right_flexion: 2.45,
                stance_half_width: 0.12,
            },
            // Both arms straight up and slightly outward: the "Y".
            MarshallingSign::Yes => Pose {
                left_abduction: 2.45,
                left_flexion: 0.0,
                right_abduction: 2.45,
                right_flexion: 0.0,
                stance_half_width: 0.12,
            },
            // Right arm straight up, left arm down-and-out: the diagonal.
            MarshallingSign::No => Pose {
                left_abduction: 0.65,
                left_flexion: 0.0,
                right_abduction: 2.85,
                right_flexion: 0.0,
                stance_half_width: 0.12,
            },
        }
    }

    /// A waving distractor: one arm out horizontally with a bent elbow.
    pub fn waving() -> Pose {
        Pose {
            left_abduction: 0.12,
            left_flexion: 0.05,
            right_abduction: 1.55,
            right_flexion: 1.1,
            stance_half_width: 0.12,
        }
    }

    /// Hands-on-hips distractor (akimbo).
    pub fn akimbo() -> Pose {
        Pose {
            left_abduction: 0.55,
            left_flexion: 1.5,
            right_abduction: 0.55,
            right_flexion: 1.5,
            stance_half_width: 0.15,
        }
    }

    /// Joint-wise linear interpolation toward `other` (`t = 0` gives `self`).
    ///
    /// The building block for *dynamic* marshalling signals: animate between
    /// key poses and render each interpolated frame.
    pub fn lerp(&self, other: &Pose, t: f64) -> Pose {
        let l = |a: f64, b: f64| a + (b - a) * t;
        Pose {
            left_abduction: l(self.left_abduction, other.left_abduction),
            left_flexion: l(self.left_flexion, other.left_flexion),
            right_abduction: l(self.right_abduction, other.right_abduction),
            right_flexion: l(self.right_flexion, other.right_flexion),
            stance_half_width: l(self.stance_half_width, other.stance_half_width),
        }
    }

    /// One frame of the dynamic *wave-off* gesture (aviation marshalling:
    /// abort!): the right arm sweeps between low and overhead as `phase`
    /// advances through a cycle (`phase` in cycles, i.e. 1.0 = one full wave).
    pub fn wave_off_phase(phase: f64) -> Pose {
        let s = (std::f64::consts::TAU * phase).sin(); // -1..1
        Pose {
            left_abduction: 0.15,
            left_flexion: 0.05,
            right_abduction: 1.55 + 0.85 * s, // sweeps ~0.7..2.4 rad
            right_flexion: 0.1,
            stance_half_width: 0.12,
        }
    }

    /// Adds zero-mean uniform jitter of `±magnitude` radians to every joint —
    /// models the variation between real humans holding "the same" sign.
    pub fn jittered<R: Rng>(&self, magnitude: f64, rng: &mut R) -> Pose {
        let mut j = |v: f64| v + rng.gen_range(-magnitude..=magnitude);
        Pose {
            left_abduction: j(self.left_abduction),
            left_flexion: j(self.left_flexion),
            right_abduction: j(self.right_abduction),
            right_flexion: j(self.right_flexion),
            stance_half_width: (self.stance_half_width + rng.gen_range(-0.02..=0.02)).max(0.02),
        }
    }
}

impl Default for Pose {
    fn default() -> Self {
        Pose::neutral()
    }
}

/// The full set of postures used by the experiments: the three signs plus
/// labelled distractors (used to measure false-positive behaviour).
#[derive(Debug, Clone)]
pub struct PoseLibrary;

impl PoseLibrary {
    /// `(label, pose)` pairs for every posture in the library.
    pub fn all() -> Vec<(&'static str, Pose)> {
        vec![
            (
                "AttentionGained",
                Pose::for_sign(MarshallingSign::AttentionGained),
            ),
            ("Yes", Pose::for_sign(MarshallingSign::Yes)),
            ("No", Pose::for_sign(MarshallingSign::No)),
            ("neutral", Pose::neutral()),
            ("waving", Pose::waving()),
            ("akimbo", Pose::akimbo()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Whether every joint angle is within anatomically plausible bounds.
    fn is_plausible(p: &Pose) -> bool {
        let ok = |v: f64| (-0.3..=3.3).contains(&v);
        ok(p.left_abduction)
            && ok(p.right_abduction)
            && (-0.3..=2.8).contains(&p.left_flexion)
            && (-0.3..=2.8).contains(&p.right_flexion)
            && p.stance_half_width > 0.0
    }

    #[test]
    fn sign_labels() {
        assert_eq!(MarshallingSign::Yes.label(), "Yes");
        assert_eq!(MarshallingSign::No.to_string(), "No");
        assert_eq!(MarshallingSign::ALL.len(), 3);
        for sign in MarshallingSign::ALL {
            assert_eq!(MarshallingSign::from_label(sign.label()), Some(sign));
        }
        assert_eq!(MarshallingSign::from_label("yes"), None);
    }

    #[test]
    fn all_sign_poses_plausible() {
        for sign in MarshallingSign::ALL {
            assert!(is_plausible(&Pose::for_sign(sign)), "{sign}");
        }
        assert!(is_plausible(&Pose::neutral()));
        assert!(is_plausible(&Pose::waving()));
        assert!(is_plausible(&Pose::akimbo()));
    }

    #[test]
    fn signs_are_distinct_poses() {
        let a = Pose::for_sign(MarshallingSign::AttentionGained);
        let y = Pose::for_sign(MarshallingSign::Yes);
        let n = Pose::for_sign(MarshallingSign::No);
        assert_ne!(a, y);
        assert_ne!(y, n);
        assert_ne!(a, n);
    }

    #[test]
    fn no_is_asymmetric() {
        let n = Pose::for_sign(MarshallingSign::No);
        assert!(n.right_abduction > 2.0, "one arm up");
        assert!(n.left_abduction < 1.0, "one arm down");
    }

    #[test]
    fn yes_is_symmetric() {
        let y = Pose::for_sign(MarshallingSign::Yes);
        assert_eq!(y.left_abduction, y.right_abduction);
        assert!(y.left_abduction > 2.0, "both arms up");
    }

    #[test]
    fn jitter_stays_near_base() {
        let base = Pose::for_sign(MarshallingSign::Yes);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let j = base.jittered(0.05, &mut rng);
            assert!((j.left_abduction - base.left_abduction).abs() <= 0.05 + 1e-12);
            assert!(j.stance_half_width > 0.0);
        }
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Pose::neutral();
        let b = Pose::for_sign(MarshallingSign::Yes);
        assert_eq!(a.lerp(&b, 0.0), a);
        assert_eq!(a.lerp(&b, 1.0), b);
        let mid = a.lerp(&b, 0.5);
        assert!(
            (mid.right_abduction - (a.right_abduction + b.right_abduction) / 2.0).abs() < 1e-12
        );
    }

    #[test]
    fn wave_off_sweeps_the_right_arm() {
        let down = Pose::wave_off_phase(0.75); // sin = -1 → lowest
        let up = Pose::wave_off_phase(0.25); // sin = +1 → highest
        assert!(up.right_abduction - down.right_abduction > 1.5);
        assert!(is_plausible(&down) && is_plausible(&up));
        // periodicity
        let p0 = Pose::wave_off_phase(0.1);
        let p1 = Pose::wave_off_phase(1.1);
        assert!((p0.right_abduction - p1.right_abduction).abs() < 1e-9);
    }

    #[test]
    fn library_contents() {
        assert_eq!(PoseLibrary::all().len(), 6);
    }
}
