//! Point-mass drone kinematics with acceleration and speed limits.

use hdc_geometry::{signed_angle_diff, Vec3};

/// Instantaneous state of the drone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneState {
    /// World position (z = altitude above ground), metres.
    pub position: Vec3,
    /// World velocity, m/s.
    pub velocity: Vec3,
    /// Heading (yaw) in radians, 0 = +x east, counter-clockwise.
    pub heading: f64,
    /// Whether the rotors are spinning.
    pub rotors_on: bool,
}

impl DroneState {
    /// A parked drone at a ground position.
    pub fn parked(position: Vec3) -> Self {
        DroneState {
            position,
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: false,
        }
    }

    /// Whether the drone is on the ground (altitude ≈ 0).
    pub fn is_grounded(&self) -> bool {
        self.position.z <= 1e-6
    }
}

impl Default for DroneState {
    fn default() -> Self {
        DroneState::parked(Vec3::ZERO)
    }
}

/// Physical limits of the platform (H520-class hexacopter defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinematicsLimits {
    /// Maximum horizontal speed, m/s.
    pub max_speed: f64,
    /// Maximum vertical speed (both directions), m/s.
    pub max_vertical_speed: f64,
    /// Maximum acceleration, m/s².
    pub max_accel: f64,
    /// Maximum yaw rate, rad/s.
    pub max_yaw_rate: f64,
}

impl Default for KinematicsLimits {
    fn default() -> Self {
        KinematicsLimits {
            max_speed: 13.0,
            max_vertical_speed: 2.5,
            max_accel: 4.0,
            max_yaw_rate: 1.6,
        }
    }
}

/// Velocity-command kinematics: the flight controller requests a velocity
/// and a yaw rate; the model applies acceleration limits, speed caps and a
/// ground constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kinematics {
    limits: KinematicsLimits,
}

impl Kinematics {
    /// Creates a model with the given limits.
    pub fn new(limits: KinematicsLimits) -> Self {
        Kinematics { limits }
    }

    /// The limits in force.
    pub fn limits(&self) -> KinematicsLimits {
        self.limits
    }

    /// Advances the state by `dt` seconds toward the commanded velocity and
    /// heading, adding `wind` as a velocity disturbance.
    ///
    /// With rotors off the drone cannot move (it sits where it is).
    ///
    /// # Panics
    /// Panics in debug builds if `dt` is not positive.
    pub fn step(
        &self,
        state: &mut DroneState,
        commanded_velocity: Vec3,
        commanded_heading: f64,
        wind: Vec3,
        dt: f64,
    ) {
        debug_assert!(dt > 0.0, "time step must be positive");
        if !state.rotors_on {
            state.velocity = Vec3::ZERO;
            return;
        }

        // clamp command to platform limits
        let mut cmd = commanded_velocity;
        let h = cmd.xy();
        if h.norm() > self.limits.max_speed {
            let h = h.normalized().expect("non-zero") * self.limits.max_speed;
            cmd = Vec3::from_xy(h, cmd.z);
        }
        cmd.z = cmd.z.clamp(
            -self.limits.max_vertical_speed,
            self.limits.max_vertical_speed,
        );

        // acceleration limit toward the commanded velocity
        let dv = cmd - state.velocity;
        let max_dv = self.limits.max_accel * dt;
        let dv = if dv.norm() > max_dv {
            dv.normalized().expect("non-zero") * max_dv
        } else {
            dv
        };
        state.velocity += dv;

        // yaw rate limit
        let dh = signed_angle_diff(state.heading, commanded_heading);
        let max_dh = self.limits.max_yaw_rate * dt;
        state.heading = hdc_geometry::normalize_angle(state.heading + dh.clamp(-max_dh, max_dh));

        // integrate with wind; never go below ground
        state.position += (state.velocity + wind) * dt;
        if state.position.z < 0.0 {
            state.position.z = 0.0;
            state.velocity.z = state.velocity.z.max(0.0);
        }
    }
}

impl Default for Kinematics {
    fn default() -> Self {
        Kinematics::new(KinematicsLimits::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flying_state() -> DroneState {
        DroneState {
            position: Vec3::new(0.0, 0.0, 5.0),
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        }
    }

    #[test]
    fn rotors_off_means_no_motion() {
        let k = Kinematics::default();
        let mut s = DroneState::parked(Vec3::ZERO);
        k.step(&mut s, Vec3::new(5.0, 0.0, 1.0), 1.0, Vec3::ZERO, 0.1);
        assert_eq!(s.position, Vec3::ZERO);
        assert_eq!(s.velocity, Vec3::ZERO);
    }

    #[test]
    fn acceleration_is_limited() {
        let k = Kinematics::default();
        let mut s = flying_state();
        k.step(&mut s, Vec3::new(10.0, 0.0, 0.0), 0.0, Vec3::ZERO, 0.1);
        // max 4 m/s² × 0.1 s = 0.4 m/s
        assert!((s.velocity.norm() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn speed_is_capped() {
        let k = Kinematics::default();
        let mut s = flying_state();
        for _ in 0..2000 {
            k.step(&mut s, Vec3::new(100.0, 0.0, 0.0), 0.0, Vec3::ZERO, 0.05);
        }
        assert!(s.velocity.xy().norm() <= k.limits().max_speed + 1e-9);
    }

    #[test]
    fn vertical_speed_capped() {
        let k = Kinematics::default();
        let mut s = flying_state();
        for _ in 0..200 {
            k.step(&mut s, Vec3::new(0.0, 0.0, 50.0), 0.0, Vec3::ZERO, 0.05);
        }
        assert!(s.velocity.z <= k.limits().max_vertical_speed + 1e-9);
    }

    #[test]
    fn yaw_rate_limited_and_wraps() {
        let k = Kinematics::default();
        let mut s = flying_state();
        k.step(&mut s, Vec3::ZERO, 3.0, Vec3::ZERO, 0.1);
        assert!((s.heading - 0.16).abs() < 1e-9, "1.6 rad/s × 0.1 s");
        // command across the wrap: from -3 to +3 rad goes the short way
        s.heading = -3.0;
        k.step(&mut s, Vec3::ZERO, 3.0, Vec3::ZERO, 0.1);
        assert!(
            s.heading < -3.0 + 1e-9 || s.heading > 3.0 - 0.2,
            "wrapped the short way: {}",
            s.heading
        );
    }

    #[test]
    fn ground_is_solid() {
        let k = Kinematics::default();
        let mut s = flying_state();
        s.position.z = 0.05;
        for _ in 0..100 {
            k.step(&mut s, Vec3::new(0.0, 0.0, -5.0), 0.0, Vec3::ZERO, 0.05);
        }
        assert_eq!(s.position.z, 0.0);
        assert!(s.is_grounded());
    }

    #[test]
    fn wind_displaces() {
        let k = Kinematics::default();
        let mut calm = flying_state();
        let mut windy = flying_state();
        for _ in 0..100 {
            k.step(&mut calm, Vec3::ZERO, 0.0, Vec3::ZERO, 0.05);
            k.step(&mut windy, Vec3::ZERO, 0.0, Vec3::new(2.0, 0.0, 0.0), 0.05);
        }
        assert!(windy.position.x > calm.position.x + 5.0);
    }

    #[test]
    fn parked_and_grounded() {
        let s = DroneState::parked(Vec3::new(1.0, 2.0, 0.0));
        assert!(s.is_grounded());
        assert!(!s.rotors_on);
        assert_eq!(s.velocity, Vec3::ZERO);
        assert_eq!(DroneState::default().position, Vec3::ZERO);
    }
}
