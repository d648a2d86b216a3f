//! Waypoint controller: proportional velocity command toward a target.

use crate::kinematics::DroneState;
use hdc_geometry::Vec3;

/// A proportional controller producing velocity commands toward a waypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaypointController {
    /// Proportional gain (1/s): commanded speed per metre of error.
    pub gain: f64,
    /// Cruise speed cap, m/s.
    pub cruise_speed: f64,
    /// Arrival radius, metres.
    pub arrival_radius: f64,
}

impl WaypointController {
    /// A controller with sensible defaults for orchard work.
    pub fn new() -> Self {
        WaypointController {
            gain: 1.2,
            cruise_speed: 5.0,
            arrival_radius: 0.25,
        }
    }

    /// Velocity command to move from the current state toward `target`.
    ///
    /// Inside the arrival radius the command is zero (hover).
    pub fn velocity_command(&self, state: &DroneState, target: Vec3) -> Vec3 {
        let err = target - state.position;
        if err.norm() <= self.arrival_radius {
            return Vec3::ZERO;
        }
        let cmd = err * self.gain;
        if cmd.norm() > self.cruise_speed {
            cmd.normalized().expect("non-zero error") * self.cruise_speed
        } else {
            cmd
        }
    }

    /// Heading command: face the direction of horizontal travel, or keep the
    /// current heading when stationary over the target.
    pub fn heading_command(&self, state: &DroneState, target: Vec3) -> f64 {
        let err = (target - state.position).xy();
        if err.norm() <= self.arrival_radius {
            state.heading
        } else {
            err.angle()
        }
    }

    /// Whether the state has arrived at the target.
    pub fn arrived(&self, state: &DroneState, target: Vec3) -> bool {
        state.position.distance(target) <= self.arrival_radius
    }
}

impl Default for WaypointController {
    fn default() -> Self {
        WaypointController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinematics::{Kinematics, KinematicsLimits};

    #[test]
    fn command_points_at_target() {
        let c = WaypointController::new();
        let s = DroneState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        };
        let cmd = c.velocity_command(&s, Vec3::new(10.0, 0.0, 0.0));
        assert!(cmd.x > 0.0);
        assert!(cmd.y.abs() < 1e-12 && cmd.z.abs() < 1e-12);
        assert!(
            (cmd.norm() - c.cruise_speed).abs() < 1e-9,
            "far target → cruise speed"
        );
    }

    #[test]
    fn command_slows_near_target() {
        let c = WaypointController::new();
        let s = DroneState {
            position: Vec3::new(9.5, 0.0, 0.0),
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        };
        let cmd = c.velocity_command(&s, Vec3::new(10.0, 0.0, 0.0));
        assert!(cmd.norm() < c.cruise_speed, "proportional slow-down");
        assert!(cmd.norm() > 0.0);
    }

    #[test]
    fn hover_inside_radius() {
        let c = WaypointController::new();
        let s = DroneState {
            position: Vec3::new(10.0, 0.1, 0.0),
            velocity: Vec3::ZERO,
            heading: 0.7,
            rotors_on: true,
        };
        let t = Vec3::new(10.0, 0.0, 0.0);
        assert_eq!(c.velocity_command(&s, t), Vec3::ZERO);
        assert_eq!(c.heading_command(&s, t), 0.7, "keep heading when arrived");
        assert!(c.arrived(&s, t));
    }

    #[test]
    fn closed_loop_reaches_waypoint() {
        let c = WaypointController::new();
        let k = Kinematics::new(KinematicsLimits::default());
        let mut s = DroneState {
            position: Vec3::new(0.0, 0.0, 3.0),
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        };
        let target = Vec3::new(12.0, -7.0, 5.0);
        let mut t = 0.0;
        while !c.arrived(&s, target) && t < 60.0 {
            let v = c.velocity_command(&s, target);
            let h = c.heading_command(&s, target);
            k.step(&mut s, v, h, Vec3::ZERO, 0.05);
            t += 0.05;
        }
        assert!(c.arrived(&s, target), "did not arrive in {t} s");
        assert!(t < 20.0, "took {t} s");
    }

    #[test]
    fn heading_faces_travel_direction() {
        let c = WaypointController::new();
        let s = DroneState {
            position: Vec3::ZERO,
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        };
        let h = c.heading_command(&s, Vec3::new(0.0, 5.0, 0.0));
        assert!((h - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }
}
