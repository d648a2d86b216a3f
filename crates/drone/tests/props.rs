//! Property-based tests for the drone substrate.

use hdc_drone::{
    DroneState, FlightPattern, FlightStateEstimator, ImuSample, Kinematics, KinematicsLimits,
    LedColor, LedMode, LedRing, PatternClassifier, PatternExecutor, GRAVITY,
};
use hdc_geometry::{Vec2, Vec3};
use proptest::prelude::*;

fn any_pattern() -> impl Strategy<Value = FlightPattern> {
    prop_oneof![
        (1.0f64..8.0).prop_map(|a| FlightPattern::TakeOff { target_altitude: a }),
        Just(FlightPattern::Landing),
        (3.0f64..30.0, -20.0f64..20.0).prop_map(|(x, y)| FlightPattern::Cruise {
            to: Vec3::new(x, y, 5.0)
        }),
        (-3.0f64..3.0, -3.0f64..3.0)
            .prop_filter("non-zero direction", |(x, y)| x.abs() + y.abs() > 0.1)
            .prop_map(|(x, y)| FlightPattern::Poke {
                toward: Vec2::new(x, y)
            }),
        Just(FlightPattern::Nod),
        Just(FlightPattern::Turn),
        (0.8f64..3.0, 0.8f64..3.0).prop_map(|(w, d)| FlightPattern::RectangleRequest {
            half_width: w,
            half_depth: d
        }),
    ]
}

proptest! {
    #[test]
    fn every_pattern_is_legible(pattern in any_pattern(), heading in -3.0f64..3.0) {
        let exec = PatternExecutor::default();
        let start = match pattern {
            FlightPattern::TakeOff { .. } => Vec3::ZERO,
            _ => Vec3::new(0.0, 0.0, 5.0),
        };
        let traj = exec.generate(pattern, start, heading);
        let got = PatternClassifier::default().classify(&traj);
        prop_assert_eq!(got, Some(pattern.kind()));
    }

    #[test]
    fn trajectories_are_finite_and_timed(pattern in any_pattern()) {
        let exec = PatternExecutor::default();
        let start = Vec3::new(1.0, 2.0, 4.0);
        let traj = exec.generate(pattern, start, 0.5);
        prop_assert!(!traj.is_empty());
        prop_assert!(traj.duration() >= 0.0);
        let mut prev_t = f64::NEG_INFINITY;
        for p in traj.samples() {
            prop_assert!(p.position.is_finite());
            prop_assert!(p.heading.is_finite());
            prop_assert!(p.t >= prev_t, "time must be monotone");
            prev_t = p.t;
            prop_assert!(p.position.z >= -1e-9, "never underground");
        }
    }

    #[test]
    fn kinematics_respects_limits(
        cmds in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0, -5.0f64..5.0), 1..80),
        dt in 0.01f64..0.2,
    ) {
        let limits = KinematicsLimits::default();
        let k = Kinematics::new(limits);
        let mut s = DroneState {
            position: Vec3::new(0.0, 0.0, 5.0),
            velocity: Vec3::ZERO,
            heading: 0.0,
            rotors_on: true,
        };
        for (vx, vy, vz) in cmds {
            let prev_v = s.velocity;
            k.step(&mut s, Vec3::new(vx, vy, vz), 1.0, Vec3::ZERO, dt);
            // acceleration limit — except at ground contact, where the
            // impulsive normal force legitimately zeroes the sink rate
            let touched_down = s.position.z == 0.0 && prev_v.z < 0.0;
            if !touched_down {
                let dv = (s.velocity - prev_v).norm();
                prop_assert!(dv <= limits.max_accel * dt + 1e-9);
            }
            // vertical speed limit (horizontal cap is on the command)
            prop_assert!(s.velocity.z.abs() <= limits.max_vertical_speed + 1e-9);
            prop_assert!(s.position.z >= 0.0);
        }
    }

    #[test]
    fn navigation_ring_covers_all_bearings(heading in -7.0f64..7.0, bearing in -7.0f64..7.0) {
        let ring = LedRing::new(LedMode::Navigation);
        let c = ring.color_toward(heading, bearing);
        prop_assert!(matches!(c, LedColor::Red | LedColor::Green | LedColor::White));
        // danger overrides everything
        let danger = LedRing::new(LedMode::Danger);
        prop_assert_eq!(danger.color_toward(heading, bearing), LedColor::Red);
    }

    #[test]
    fn ring_sides_are_consistent(heading in -7.0f64..7.0) {
        // port (left, +90° bearing offset) is red-ish, starboard green-ish
        let ring = LedRing::new(LedMode::Navigation);
        let port = ring.color_toward(heading, heading + std::f64::consts::FRAC_PI_2);
        let starboard = ring.color_toward(heading, heading - std::f64::consts::FRAC_PI_2);
        prop_assert_eq!(port, LedColor::Red);
        prop_assert_eq!(starboard, LedColor::Green);
    }

    #[test]
    fn estimator_never_panics_and_grounds_on_rotors_off(
        samples in prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0, -30.0f64..30.0), 1..60),
    ) {
        let mut est = FlightStateEstimator::new();
        for (ax, ay, az) in samples {
            let s = ImuSample { accel: Vec3::new(ax, ay, az + GRAVITY), yaw_rate: 0.0 };
            let state = est.update_fused(&s, None, false, 0.05);
            prop_assert_eq!(state, hdc_drone::FlightState::Grounded);
        }
    }
}
