//! Roles and training levels from the paper's user stories.
//!
//! Section II: requirements were assembled "via the creation of user-stories
//! based around three characters, orchard supervisor, orchard worker and
//! orchard visitor, corresponding roughly to well trained, partially trained
//! and non-trained persons". The [`RoleProfile`] numbers parameterise the
//! stochastic human agents used by the protocol experiments.

use rand::Rng;
use std::fmt;

/// The three user-story characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Orchard supervisor: well trained in the sign language.
    Supervisor,
    /// Orchard worker: partially trained.
    Worker,
    /// Orchard visitor: untrained.
    Visitor,
}

impl Role {
    /// All roles in training order.
    pub const ALL: [Role; 3] = [Role::Supervisor, Role::Worker, Role::Visitor];

    /// The role's training level.
    pub fn training(&self) -> TrainingLevel {
        match self {
            Role::Supervisor => TrainingLevel::Trained,
            Role::Worker => TrainingLevel::PartiallyTrained,
            Role::Visitor => TrainingLevel::Untrained,
        }
    }

    /// The behavioural profile for this role.
    pub fn profile(&self) -> RoleProfile {
        match self {
            Role::Supervisor => RoleProfile {
                attend_probability: 0.98,
                correct_sign_probability: 0.99,
                answer_probability: 0.98,
                min_latency_s: 0.5,
                max_latency_s: 1.5,
                max_facing_error_deg: 5.0,
                pose_jitter_rad: 0.03,
            },
            Role::Worker => RoleProfile {
                attend_probability: 0.90,
                correct_sign_probability: 0.92,
                answer_probability: 0.90,
                min_latency_s: 0.8,
                max_latency_s: 3.0,
                max_facing_error_deg: 15.0,
                pose_jitter_rad: 0.06,
            },
            Role::Visitor => RoleProfile {
                attend_probability: 0.45,
                correct_sign_probability: 0.55,
                answer_probability: 0.50,
                min_latency_s: 1.5,
                max_latency_s: 6.0,
                max_facing_error_deg: 45.0,
                pose_jitter_rad: 0.12,
            },
        }
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Supervisor => "supervisor",
            Role::Worker => "worker",
            Role::Visitor => "visitor",
        };
        f.write_str(s)
    }
}

/// Degree of training in the sign language.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrainingLevel {
    /// Knows all signs and the protocol.
    Trained,
    /// Knows the signs, slower and less reliable.
    PartiallyTrained,
    /// May not know the signs at all.
    Untrained,
}

/// Behavioural parameters of a role (used by the stochastic human agent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoleProfile {
    /// Probability of noticing and responding to a poke.
    pub attend_probability: f64,
    /// Probability the shown sign is the intended one (vs a wrong/garbled sign).
    pub correct_sign_probability: f64,
    /// Probability of answering an area request at all.
    pub answer_probability: f64,
    /// Minimum response latency, seconds.
    pub min_latency_s: f64,
    /// Maximum response latency, seconds.
    pub max_latency_s: f64,
    /// Maximum error between the person's facing and the drone bearing when
    /// signing, degrees (drives the vision dead-angle in the loop).
    pub max_facing_error_deg: f64,
    /// Joint-angle jitter when holding a sign, radians.
    pub pose_jitter_rad: f64,
}

impl RoleProfile {
    /// Samples a response latency.
    pub fn sample_latency<R: Rng>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.min_latency_s..=self.max_latency_s)
    }

    /// Samples a facing error in radians (symmetric about zero).
    pub fn sample_facing_error<R: Rng>(&self, rng: &mut R) -> f64 {
        let m = self.max_facing_error_deg.to_radians();
        rng.gen_range(-m..=m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn training_levels_ordered() {
        assert_eq!(Role::Supervisor.training(), TrainingLevel::Trained);
        assert_eq!(Role::Worker.training(), TrainingLevel::PartiallyTrained);
        assert_eq!(Role::Visitor.training(), TrainingLevel::Untrained);
        assert!(TrainingLevel::Trained < TrainingLevel::Untrained);
    }

    #[test]
    fn profiles_degrade_with_training() {
        let s = Role::Supervisor.profile();
        let w = Role::Worker.profile();
        let v = Role::Visitor.profile();
        assert!(s.attend_probability > w.attend_probability);
        assert!(w.attend_probability > v.attend_probability);
        assert!(s.correct_sign_probability > v.correct_sign_probability);
        assert!(s.max_latency_s < v.max_latency_s);
        assert!(s.max_facing_error_deg < v.max_facing_error_deg);
    }

    #[test]
    fn latency_within_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let p = Role::Worker.profile();
        for _ in 0..100 {
            let l = p.sample_latency(&mut rng);
            assert!(l >= p.min_latency_s && l <= p.max_latency_s);
        }
    }

    #[test]
    fn facing_error_bounded() {
        let mut rng = SmallRng::seed_from_u64(2);
        let p = Role::Visitor.profile();
        let max = p.max_facing_error_deg.to_radians();
        for _ in 0..100 {
            let e = p.sample_facing_error(&mut rng);
            assert!(e.abs() <= max + 1e-12);
        }
    }

    #[test]
    fn display() {
        assert_eq!(Role::Visitor.to_string(), "visitor");
        assert_eq!(Role::ALL.len(), 3);
    }
}
