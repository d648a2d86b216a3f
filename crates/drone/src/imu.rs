//! IMU sensor model and flight-state estimation.
//!
//! Paper, Section II: *"The integration of an appropriate sensor like an IMU
//! to indicate actual flight is yet to be discussed in greater detail."* The
//! point of the sensor is honesty: the navigation lights should reflect what
//! the drone is actually doing, not what it was commanded to do. This module
//! supplies:
//!
//! * [`Imu`] — a 6-axis sensor model with bias, noise and gravity,
//! * [`FlightStateEstimator`] — a debounced estimator deriving
//!   [`FlightState`] from IMU samples (plus rotor telemetry),
//!
//! and experiment E14 wires the estimate to the light logic.

use crate::kinematics::DroneState;
use hdc_geometry::Vec3;
use rand::Rng;

/// Standard gravity, m/s².
pub const GRAVITY: f64 = 9.80665;

/// One IMU sample: specific force and angular rate in the body frame
/// (yaw-only attitude in this simulator, so the frame share z with world).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuSample {
    /// Specific force (accelerometer), m/s². Hovering reads ≈ +g on z.
    pub accel: Vec3,
    /// Angular rate (gyro) about z, rad/s.
    pub yaw_rate: f64,
}

/// A 6-axis IMU with constant bias and white noise.
#[derive(Debug, Clone)]
pub struct Imu {
    /// Accelerometer bias, m/s².
    pub accel_bias: Vec3,
    /// Accelerometer noise standard deviation, m/s².
    pub accel_noise: f64,
    /// Gyro bias, rad/s.
    pub gyro_bias: f64,
    /// Gyro noise standard deviation, rad/s.
    pub gyro_noise: f64,
    prev_velocity: Vec3,
    prev_heading: f64,
    initialized: bool,
}

impl Imu {
    /// An ideal IMU (no bias, no noise).
    pub fn ideal() -> Self {
        Imu {
            accel_bias: Vec3::ZERO,
            accel_noise: 0.0,
            gyro_bias: 0.0,
            gyro_noise: 0.0,
            prev_velocity: Vec3::ZERO,
            prev_heading: 0.0,
            initialized: false,
        }
    }

    /// A consumer-grade MEMS IMU (typical bias/noise magnitudes).
    pub fn mems() -> Self {
        Imu {
            accel_bias: Vec3::new(0.05, -0.03, 0.08),
            accel_noise: 0.08,
            gyro_bias: 0.002,
            gyro_noise: 0.005,
            ..Imu::ideal()
        }
    }

    /// Samples the IMU given the current true state and the time step used
    /// to difference velocity into acceleration.
    ///
    /// # Panics
    /// Panics in debug builds if `dt` is not positive.
    pub fn sample<R: Rng>(&mut self, state: &DroneState, dt: f64, rng: &mut R) -> ImuSample {
        debug_assert!(dt > 0.0, "dt must be positive");
        let accel_true = if self.initialized {
            (state.velocity - self.prev_velocity) / dt
        } else {
            Vec3::ZERO
        };
        let yaw_rate_true = if self.initialized {
            hdc_geometry::signed_angle_diff(self.prev_heading, state.heading) / dt
        } else {
            0.0
        };
        self.prev_velocity = state.velocity;
        self.prev_heading = state.heading;
        self.initialized = true;

        let mut gauss = |sd: f64| -> f64 {
            if sd <= 0.0 {
                return 0.0;
            }
            let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
            z * sd
        };
        // accelerometers measure specific force: kinematic accel minus gravity
        // (z-up world frame: hovering reads +g on z)
        let specific = accel_true + Vec3::new(0.0, 0.0, GRAVITY);
        ImuSample {
            accel: specific
                + self.accel_bias
                + Vec3::new(
                    gauss(self.accel_noise),
                    gauss(self.accel_noise),
                    gauss(self.accel_noise),
                ),
            yaw_rate: yaw_rate_true + self.gyro_bias + gauss(self.gyro_noise),
        }
    }
}

/// A barometric altimeter with white noise.
///
/// Constant-rate climbs and descents produce *zero* acceleration, so an
/// IMU alone cannot hold the climbing/descending estimate — the barometer
/// supplies the direct vertical-velocity observation a real flight stack
/// fuses in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Barometer {
    /// Altitude noise standard deviation, metres.
    pub noise_m: f64,
}

impl Barometer {
    /// An ideal barometer.
    pub fn ideal() -> Self {
        Barometer { noise_m: 0.0 }
    }

    /// A consumer barometer (~2 cm short-term noise).
    pub fn consumer() -> Self {
        Barometer { noise_m: 0.02 }
    }

    /// Samples the altitude.
    pub fn sample<R: Rng>(&self, state: &DroneState, rng: &mut R) -> f64 {
        if self.noise_m <= 0.0 {
            return state.position.z;
        }
        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
        state.position.z + z * self.noise_m
    }
}

/// The flight state derived from sensing (what the lights should indicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightState {
    /// On the ground, rotors stopped.
    Grounded,
    /// Rotors turning, no significant motion (hover or idle on ground).
    Hovering,
    /// Net upward motion.
    Climbing,
    /// Net downward motion.
    Descending,
    /// Horizontal transit.
    Translating,
}

/// Debounced flight-state estimator over IMU samples and rotor telemetry.
///
/// Integrates vertical specific force (minus gravity) into a vertical
/// velocity estimate with a leaky integrator (suppresses bias drift), plus
/// a horizontal acceleration activity detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightStateEstimator {
    vertical_velocity: f64,
    horizontal_activity: f64,
    state: FlightState,
    /// Leak factor per second for the velocity integrator.
    pub leak_per_s: f64,
    /// Vertical-speed threshold for climb/descent, m/s.
    pub vertical_threshold: f64,
    /// Horizontal-activity threshold, m/s².
    pub horizontal_threshold: f64,
    /// Consecutive agreeing samples needed to switch state.
    pub debounce: u32,
    /// Barometer blending gain, 1/s (complementary filter).
    pub baro_blend_per_s: f64,
    pending: Option<(FlightState, u32)>,
    prev_altitude: Option<f64>,
}

impl FlightStateEstimator {
    /// Creates an estimator with defaults tuned for the simulator's drones.
    pub fn new() -> Self {
        FlightStateEstimator {
            vertical_velocity: 0.0,
            horizontal_activity: 0.0,
            state: FlightState::Grounded,
            leak_per_s: 0.8,
            vertical_threshold: 0.3,
            horizontal_threshold: 0.5,
            debounce: 3,
            baro_blend_per_s: 3.0,
            pending: None,
            prev_altitude: None,
        }
    }

    /// The current estimate.
    pub fn state(&self) -> FlightState {
        self.state
    }

    /// The estimated vertical velocity, m/s.
    pub fn vertical_velocity(&self) -> f64 {
        self.vertical_velocity
    }

    /// Feeds one IMU sample plus an optional barometric altitude and rotor
    /// telemetry. With a barometer the vertical velocity is a complementary
    /// fusion (accelerometer for bandwidth, baro differencing for DC), so
    /// constant-rate climbs and descents hold.
    pub fn update_fused(
        &mut self,
        sample: &ImuSample,
        altitude_m: Option<f64>,
        rotors_on: bool,
        dt: f64,
    ) -> FlightState {
        // integrate vertical specific force minus gravity
        let az = sample.accel.z - GRAVITY;
        self.vertical_velocity += az * dt;
        match altitude_m {
            Some(alt) => {
                if let Some(prev) = self.prev_altitude {
                    let v_baro = (alt - prev) / dt;
                    let k = (self.baro_blend_per_s * dt).min(1.0);
                    self.vertical_velocity += (v_baro - self.vertical_velocity) * k;
                }
                self.prev_altitude = Some(alt);
            }
            None => {
                // no DC reference: leak to suppress bias drift
                self.vertical_velocity *= (1.0 - self.leak_per_s * dt).max(0.0);
            }
        }
        // horizontal activity: low-passed |a_xy|
        let axy = sample.accel.xy().norm();
        let alpha = (2.0 * dt).min(1.0);
        self.horizontal_activity += (axy - self.horizontal_activity) * alpha;

        let raw = if !rotors_on {
            FlightState::Grounded
        } else if self.vertical_velocity > self.vertical_threshold {
            FlightState::Climbing
        } else if self.vertical_velocity < -self.vertical_threshold {
            FlightState::Descending
        } else if self.horizontal_activity > self.horizontal_threshold {
            FlightState::Translating
        } else {
            FlightState::Hovering
        };

        // debounce
        if raw == self.state {
            self.pending = None;
        } else {
            match self.pending {
                Some((p, n)) if p == raw => {
                    if n + 1 >= self.debounce {
                        self.state = raw;
                        self.pending = None;
                    } else {
                        self.pending = Some((p, n + 1));
                    }
                }
                _ => self.pending = Some((raw, 1)),
            }
        }
        self.state
    }
}

impl Default for FlightStateEstimator {
    fn default() -> Self {
        FlightStateEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drone::{Drone, DroneConfig};
    use crate::patterns::FlightPattern;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_phase(
        drone: &mut Drone,
        imu: &mut Imu,
        est: &mut FlightStateEstimator,
        rng: &mut SmallRng,
        steps: usize,
    ) -> Vec<FlightState> {
        let mut states = Vec::new();
        for _ in 0..steps {
            drone.tick(0.05);
            let s = imu.sample(drone.state(), 0.05, rng);
            states.push(est.update_fused(&s, None, drone.state().rotors_on, 0.05));
        }
        states
    }

    #[test]
    fn ideal_imu_reads_gravity_at_rest() {
        let mut imu = Imu::ideal();
        let mut rng = SmallRng::seed_from_u64(1);
        let state = DroneState::parked(Vec3::ZERO);
        let _ = imu.sample(&state, 0.05, &mut rng); // initialise
        let s = imu.sample(&state, 0.05, &mut rng);
        assert!((s.accel.z - GRAVITY).abs() < 1e-9);
        assert!(s.accel.xy().norm() < 1e-9);
        assert_eq!(s.yaw_rate, 0.0);
    }

    #[test]
    fn estimator_tracks_takeoff_and_landing() {
        let mut drone = Drone::new(DroneConfig::default());
        let mut imu = Imu::ideal();
        let mut est = FlightStateEstimator::new();
        let mut rng = SmallRng::seed_from_u64(2);

        assert_eq!(est.state(), FlightState::Grounded);
        // prime the IMU from rest so the take-off onset is observable
        // (differencing sensors need one sample of history)
        let _ = imu.sample(drone.state(), 0.05, &mut rng);
        drone.execute_pattern(FlightPattern::TakeOff {
            target_altitude: 4.0,
        });
        let climb_states = run_phase(&mut drone, &mut imu, &mut est, &mut rng, 60);
        assert!(
            climb_states.contains(&FlightState::Climbing),
            "climb detected: {climb_states:?}"
        );

        // hover a while: estimate decays back to hovering
        let hover_states = run_phase(&mut drone, &mut imu, &mut est, &mut rng, 80);
        assert_eq!(*hover_states.last().unwrap(), FlightState::Hovering);

        drone.execute_pattern(FlightPattern::Landing);
        let descent_states = run_phase(&mut drone, &mut imu, &mut est, &mut rng, 200);
        assert!(descent_states.contains(&FlightState::Descending));
        assert_eq!(*descent_states.last().unwrap(), FlightState::Grounded);
    }

    #[test]
    fn mems_noise_does_not_flap_the_estimate() {
        // a hovering drone with a noisy IMU must not oscillate between states
        let mut drone = Drone::new(DroneConfig::default());
        drone.execute_pattern(FlightPattern::TakeOff {
            target_altitude: 4.0,
        });
        while drone.is_executing() {
            drone.tick(0.05);
        }
        let mut imu = Imu::mems();
        let mut est = FlightStateEstimator::new();
        let mut rng = SmallRng::seed_from_u64(3);
        // settle
        let _ = run_phase(&mut drone, &mut imu, &mut est, &mut rng, 60);
        let states = run_phase(&mut drone, &mut imu, &mut est, &mut rng, 200);
        let switches = states.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= 4,
            "estimate flapped {switches} times: noisy debounce too weak"
        );
    }

    #[test]
    fn rotors_off_is_authoritative() {
        let mut est = FlightStateEstimator::new();
        let sample = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY + 3.0), // looks like a climb
            yaw_rate: 0.0,
        };
        for _ in 0..10 {
            est.update_fused(&sample, None, false, 0.05);
        }
        assert_eq!(est.state(), FlightState::Grounded);
    }

    #[test]
    fn debounce_delays_switching() {
        let mut est = FlightStateEstimator::new();
        let hover = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY),
            yaw_rate: 0.0,
        };
        let climb = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY + 8.0),
            yaw_rate: 0.0,
        };
        for _ in 0..20 {
            est.update_fused(&hover, None, true, 0.05);
        }
        assert_eq!(est.state(), FlightState::Hovering);
        // one climb-looking sample is not enough
        est.update_fused(&climb, None, true, 0.05);
        assert_eq!(est.state(), FlightState::Hovering);
        for _ in 0..6 {
            est.update_fused(&climb, None, true, 0.05);
        }
        assert_eq!(est.state(), FlightState::Climbing);
    }

    #[test]
    fn barometer_fusion_holds_constant_rate_descent() {
        // constant-rate descent: zero acceleration, so the IMU-only path
        // decays to Hovering — the baro fusion must hold Descending
        let mut est_imu = FlightStateEstimator::new();
        let mut est_baro = FlightStateEstimator::new();
        let level = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY),
            yaw_rate: 0.0,
        };
        let mut alt = 10.0;
        let mut imu_only_final = FlightState::Hovering;
        let mut fused_final = FlightState::Hovering;
        for _ in 0..200 {
            alt -= 0.8 * 0.05; // 0.8 m/s descent
            imu_only_final = est_imu.update_fused(&level, None, true, 0.05);
            fused_final = est_baro.update_fused(&level, Some(alt), true, 0.05);
        }
        assert_eq!(
            fused_final,
            FlightState::Descending,
            "baro holds the estimate"
        );
        assert_ne!(
            imu_only_final,
            FlightState::Descending,
            "IMU-only decays (documents why the baro exists)"
        );
    }

    #[test]
    fn noisy_barometer_still_usable() {
        use crate::kinematics::DroneState;
        let baro = Barometer::consumer();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut est = FlightStateEstimator::new();
        let level = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY),
            yaw_rate: 0.0,
        };
        let mut state = DroneState {
            position: Vec3::new(0.0, 0.0, 10.0),
            velocity: Vec3::new(0.0, 0.0, -0.8),
            heading: 0.0,
            rotors_on: true,
        };
        let mut last = FlightState::Hovering;
        for _ in 0..200 {
            state.position.z -= 0.8 * 0.05;
            let alt = baro.sample(&state, &mut rng);
            last = est.update_fused(&level, Some(alt), true, 0.05);
        }
        assert_eq!(last, FlightState::Descending);
        assert!(
            est.vertical_velocity() < -0.4,
            "v_z estimate {}",
            est.vertical_velocity()
        );
    }

    #[test]
    fn ideal_barometer_reads_truth() {
        use crate::kinematics::DroneState;
        let baro = Barometer::ideal();
        let mut rng = SmallRng::seed_from_u64(8);
        let state = DroneState::parked(Vec3::new(0.0, 0.0, 3.5));
        assert_eq!(baro.sample(&state, &mut rng), 3.5);
    }

    #[test]
    fn translation_detected() {
        let mut est = FlightStateEstimator::new();
        let hover = ImuSample {
            accel: Vec3::new(0.0, 0.0, GRAVITY),
            yaw_rate: 0.0,
        };
        for _ in 0..10 {
            est.update_fused(&hover, None, true, 0.05);
        }
        let lateral = ImuSample {
            accel: Vec3::new(2.0, 0.0, GRAVITY),
            yaw_rate: 0.0,
        };
        for _ in 0..20 {
            est.update_fused(&lateral, None, true, 0.05);
        }
        assert_eq!(est.state(), FlightState::Translating);
    }
}
