//! Safety monitoring: the paper's "fundamental safety aspects first".
//!
//! The monitor watches the geometric relationship between drone and human
//! plus the flight envelope, and reports violations. The session wires a
//! violation to the protocol abort and the drone's all-red danger landing
//! (requirement R2).

use hdc_drone::DroneState;
use hdc_geometry::Vec2;
use std::fmt;

/// A detected safety violation.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyViolation {
    /// Drone closer to the human than the minimum separation without
    /// granted access.
    SeparationBreach {
        /// Horizontal distance at the time of the breach, metres.
        distance_m: f64,
        /// The minimum allowed.
        minimum_m: f64,
    },
    /// Drone left the permitted operating area.
    GeofenceBreach {
        /// Offending ground position.
        position: Vec2,
    },
    /// Drone above the permitted ceiling.
    CeilingBreach {
        /// Offending altitude, metres.
        altitude_m: f64,
    },
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::SeparationBreach {
                distance_m,
                minimum_m,
            } => {
                write!(
                    f,
                    "separation breach: {distance_m:.2} m < minimum {minimum_m:.2} m"
                )
            }
            SafetyViolation::GeofenceBreach { position } => {
                write!(f, "geofence breach at {position}")
            }
            SafetyViolation::CeilingBreach { altitude_m } => {
                write!(f, "ceiling breach at {altitude_m:.2} m")
            }
        }
    }
}

/// The safety monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SafetyMonitor {
    /// Minimum horizontal drone-human separation without granted access, m.
    pub min_separation_m: f64,
    /// Optional rectangular geofence `(min corner, max corner)`.
    pub geofence: Option<(Vec2, Vec2)>,
    /// Altitude ceiling, metres.
    pub max_altitude_m: f64,
    /// Whether the human has granted access (suspends the separation rule).
    pub access_granted: bool,
}

impl Default for SafetyMonitor {
    fn default() -> Self {
        SafetyMonitor {
            min_separation_m: 2.0,
            geofence: None,
            max_altitude_m: 30.0,
            access_granted: false,
        }
    }
}

impl SafetyMonitor {
    /// Checks the current state against all rules; returns the first
    /// violation found (separation is checked first — it is the one that
    /// hurts people).
    pub fn check(&self, drone: &DroneState, human_position: Vec2) -> Option<SafetyViolation> {
        if drone.rotors_on && !self.access_granted {
            let d = drone.position.xy().distance(human_position);
            if d < self.min_separation_m {
                return Some(SafetyViolation::SeparationBreach {
                    distance_m: d,
                    minimum_m: self.min_separation_m,
                });
            }
        }
        if let Some((lo, hi)) = self.geofence {
            let p = drone.position.xy();
            if p.x < lo.x || p.y < lo.y || p.x > hi.x || p.y > hi.y {
                return Some(SafetyViolation::GeofenceBreach { position: p });
            }
        }
        if drone.position.z > self.max_altitude_m {
            return Some(SafetyViolation::CeilingBreach {
                altitude_m: drone.position.z,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_geometry::Vec3;

    fn flying_at(p: Vec3) -> DroneState {
        DroneState {
            position: p,
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        }
    }

    #[test]
    fn separation_enforced() {
        let m = SafetyMonitor::default();
        let v = m.check(&flying_at(Vec3::new(1.0, 0.0, 4.0)), Vec2::ZERO);
        assert!(matches!(v, Some(SafetyViolation::SeparationBreach { .. })));
        assert!(m
            .check(&flying_at(Vec3::new(3.0, 0.0, 4.0)), Vec2::ZERO)
            .is_none());
    }

    #[test]
    fn granted_access_suspends_separation() {
        let m = SafetyMonitor {
            access_granted: true,
            ..Default::default()
        };
        assert!(m
            .check(&flying_at(Vec3::new(0.5, 0.0, 4.0)), Vec2::ZERO)
            .is_none());
    }

    #[test]
    fn grounded_drone_is_never_a_separation_threat() {
        let m = SafetyMonitor::default();
        let parked = DroneState::parked(Vec3::new(0.5, 0.0, 0.0));
        assert!(m.check(&parked, Vec2::ZERO).is_none());
    }

    #[test]
    fn geofence_enforced() {
        let m = SafetyMonitor {
            geofence: Some((Vec2::new(-10.0, -10.0), Vec2::new(10.0, 10.0))),
            ..Default::default()
        };
        assert!(m
            .check(&flying_at(Vec3::new(11.0, 0.0, 4.0)), Vec2::new(50.0, 50.0))
            .is_some());
        assert!(m
            .check(&flying_at(Vec3::new(9.0, 0.0, 4.0)), Vec2::new(50.0, 50.0))
            .is_none());
    }

    #[test]
    fn ceiling_enforced() {
        let m = SafetyMonitor::default();
        let v = m.check(&flying_at(Vec3::new(20.0, 0.0, 31.0)), Vec2::ZERO);
        assert!(matches!(v, Some(SafetyViolation::CeilingBreach { .. })));
    }

    #[test]
    fn violation_display() {
        let v = SafetyViolation::SeparationBreach {
            distance_m: 1.5,
            minimum_m: 2.0,
        };
        assert_eq!(v.to_string(), "separation breach: 1.50 m < minimum 2.00 m");
    }
}
