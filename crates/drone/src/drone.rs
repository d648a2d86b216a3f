//! The drone facade: state, signalling, energy and pattern execution.

use crate::battery::BatteryModel;
use crate::controller::WaypointController;
use crate::kinematics::{DroneState, Kinematics, KinematicsLimits};
use crate::led::{LedMode, LedRing};
use crate::patterns::{FlightPattern, PatternExecutor, PatternKind, TimedPose, Trajectory};
use crate::wind::WindModel;
use hdc_geometry::Vec3;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration of a simulated drone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroneConfig {
    /// Platform limits.
    pub limits: KinematicsLimits,
    /// Waypoint controller gains.
    pub controller: WaypointController,
    /// Wind environment.
    pub wind: WindModel,
    /// Initial ground position.
    pub home: Vec3,
    /// RNG seed for the wind process.
    pub seed: u64,
    /// Battery pack capacity, watt-hours (fault injection: a sagging pack
    /// flies the same platform with less energy).
    pub battery_wh: f64,
}

impl Default for DroneConfig {
    fn default() -> Self {
        DroneConfig {
            limits: KinematicsLimits::default(),
            controller: WaypointController::default(),
            wind: WindModel::calm(),
            home: Vec3::ZERO,
            seed: 7,
            battery_wh: 71.0,
        }
    }
}

/// Discrete events emitted by the drone.
#[derive(Debug, Clone, PartialEq)]
pub enum DroneEvent {
    /// Rotors spun up.
    RotorsStarted,
    /// Rotors stopped (on the ground).
    RotorsStopped,
    /// Navigation lights switched on.
    LightsNavigation,
    /// All lights extinguished (only ever after rotors stop — Figure 2).
    LightsOut,
    /// Ring switched to all-red danger.
    LightsDanger,
    /// A pattern started executing.
    PatternStarted(PatternKind),
    /// A pattern finished.
    PatternComplete(PatternKind),
    /// A safety function fired (reason attached).
    SafetyTriggered(String),
    /// Battery fell below the return-home reserve.
    BatteryReserve,
}

/// The event text session logs print and the golden digests hash, e.g.
/// `PatternStarted(Poke)` or `SafetyTriggered("low battery")` (the reason
/// quoted and escaped); spelled out so a change to `Debug` moves no digest.
impl fmt::Display for DroneEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DroneEvent::RotorsStarted => f.write_str("RotorsStarted"),
            DroneEvent::RotorsStopped => f.write_str("RotorsStopped"),
            DroneEvent::LightsNavigation => f.write_str("LightsNavigation"),
            DroneEvent::LightsOut => f.write_str("LightsOut"),
            DroneEvent::LightsDanger => f.write_str("LightsDanger"),
            DroneEvent::PatternStarted(k) => write!(f, "PatternStarted({})", kind_name(*k)),
            DroneEvent::PatternComplete(k) => write!(f, "PatternComplete({})", kind_name(*k)),
            DroneEvent::SafetyTriggered(reason) => write!(f, "SafetyTriggered({reason:?})"),
            DroneEvent::BatteryReserve => f.write_str("BatteryReserve"),
        }
    }
}

/// A pattern kind's identifier as the event text spells it.
fn kind_name(kind: PatternKind) -> &'static str {
    match kind {
        PatternKind::TakeOff => "TakeOff",
        PatternKind::Landing => "Landing",
        PatternKind::Cruise => "Cruise",
        PatternKind::Poke => "Poke",
        PatternKind::Nod => "Nod",
        PatternKind::Turn => "Turn",
        PatternKind::RectangleRequest => "RectangleRequest",
    }
}

/// A simulated drone: kinematic state, LED ring, battery, wind, and a
/// pattern/waypoint execution engine.
///
/// Flight patterns are flown as scripted playback of the analytic
/// [`PatternExecutor`] trajectories (the patterns *are* the message — they
/// must be exact); free waypoint transits go through the proportional
/// controller and the acceleration-limited kinematics.
#[derive(Debug, Clone)]
pub struct Drone {
    config: DroneConfig,
    kinematics: Kinematics,
    executor: PatternExecutor,
    state: DroneState,
    ring: LedRing,
    battery: BatteryModel,
    time: f64,
    rng: SmallRng,
    executing: Option<(FlightPattern, Trajectory, f64)>,
    waypoint: Option<Vec3>,
    events: Vec<DroneEvent>,
    trace: Trajectory,
    safety_engaged: bool,
}

impl Drone {
    /// Creates a parked drone. Per the paper's fail-safe default the ring
    /// starts in danger mode until the machine is healthy and flying.
    pub fn new(config: DroneConfig) -> Self {
        Drone {
            kinematics: Kinematics::new(config.limits),
            executor: PatternExecutor::default(),
            state: DroneState::parked(config.home),
            ring: LedRing::default(),
            battery: BatteryModel::new(config.battery_wh),
            time: 0.0,
            rng: SmallRng::seed_from_u64(config.seed),
            executing: None,
            waypoint: None,
            events: Vec::new(),
            trace: Trajectory::default(),
            safety_engaged: false,
            config,
        }
    }

    /// Current kinematic state.
    pub fn state(&self) -> &DroneState {
        &self.state
    }

    /// The LED ring.
    pub fn ring(&self) -> &LedRing {
        &self.ring
    }

    /// Mutable access to the LED ring (fault injection: channel/brightness
    /// degradation).
    pub fn ring_mut(&mut self) -> &mut LedRing {
        &mut self.ring
    }

    /// The battery.
    pub fn battery(&self) -> &BatteryModel {
        &self.battery
    }

    /// Simulation time, seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Whether a safety function has engaged (latched until reset on ground).
    pub fn safety_engaged(&self) -> bool {
        self.safety_engaged
    }

    /// Whether a pattern is currently executing.
    pub fn is_executing(&self) -> bool {
        self.executing.is_some()
    }

    /// Whether a waypoint transit is pending (controller still converging).
    pub fn has_waypoint(&self) -> bool {
        self.waypoint.is_some()
    }

    /// The recorded flight trace (for observers / experiments).
    pub fn trace(&self) -> &Trajectory {
        &self.trace
    }

    /// Clears the recorded trace, returning it.
    pub fn take_trace(&mut self) -> Trajectory {
        std::mem::take(&mut self.trace)
    }

    /// Drains the pending event queue.
    pub fn drain_events(&mut self) -> Vec<DroneEvent> {
        std::mem::take(&mut self.events)
    }

    fn emit(&mut self, e: DroneEvent) {
        self.events.push(e);
    }

    /// Starts a flight pattern from the current pose.
    ///
    /// Take-off spins the rotors up and switches the navigation lights on
    /// first; other patterns require the drone to be airborne (ignored with
    /// an event otherwise — a real machine would reject the command).
    pub fn execute_pattern(&mut self, pattern: FlightPattern) {
        match pattern {
            FlightPattern::TakeOff { .. } => {
                if !self.state.rotors_on {
                    self.state.rotors_on = true;
                    self.emit(DroneEvent::RotorsStarted);
                }
                if !self.safety_engaged {
                    self.ring.set_mode(LedMode::Navigation);
                    self.emit(DroneEvent::LightsNavigation);
                }
            }
            _ => {
                if !self.state.rotors_on {
                    self.emit(DroneEvent::SafetyTriggered(
                        "pattern commanded while grounded".into(),
                    ));
                    return;
                }
            }
        }
        let traj = self
            .executor
            .generate(pattern, self.state.position, self.state.heading);
        self.emit(DroneEvent::PatternStarted(pattern.kind()));
        self.executing = Some((pattern, traj, 0.0));
        self.waypoint = None;
    }

    /// Commands a free transit to a waypoint (controller + kinematics).
    pub fn goto(&mut self, target: Vec3) {
        self.waypoint = Some(target);
        self.executing = None;
    }

    /// Fires a safety function: all-red ring immediately, abort whatever is
    /// executing, and land on the spot (the paper's safety posture).
    pub fn trigger_safety(&mut self, reason: impl Into<String>) {
        self.safety_engaged = true;
        self.ring.set_mode(LedMode::Danger);
        self.emit(DroneEvent::LightsDanger);
        self.emit(DroneEvent::SafetyTriggered(reason.into()));
        self.waypoint = None;
        if self.state.rotors_on && !self.state.is_grounded() {
            let traj = self.executor.generate(
                FlightPattern::Landing,
                self.state.position,
                self.state.heading,
            );
            self.executing = Some((FlightPattern::Landing, traj, 0.0));
            self.emit(DroneEvent::PatternStarted(PatternKind::Landing));
        }
    }

    fn finish_landing(&mut self) {
        // Figure 2 ordering: rotors off first, only then lights out.
        if self.state.rotors_on {
            self.state.rotors_on = false;
            self.emit(DroneEvent::RotorsStopped);
        }
        if self.ring.mode() != LedMode::Danger || !self.safety_engaged {
            self.ring.set_mode(LedMode::Off);
            self.emit(DroneEvent::LightsOut);
        }
    }

    /// Advances the simulation by `dt` seconds.
    ///
    /// # Panics
    /// Panics if `dt` is not positive.
    pub fn tick(&mut self, dt: f64) {
        assert!(dt > 0.0, "time step must be positive");
        self.time += dt;

        // --- motion ---
        if let Some((pattern, traj, progress)) = self.executing.take() {
            let new_progress = progress + dt;
            // scripted playback: look up the pose at new_progress; derive
            // velocity from the position delta so sensors (IMU) and the
            // battery model see the true motion
            let pose = sample_at(&traj, new_progress);
            let prev = self.state.position;
            self.state.position = pose.position;
            self.state.heading = pose.heading;
            self.state.velocity = (pose.position - prev) / dt;
            if new_progress >= traj.duration() {
                self.emit(DroneEvent::PatternComplete(pattern.kind()));
                if matches!(pattern, FlightPattern::Landing) {
                    self.finish_landing();
                }
            } else {
                self.executing = Some((pattern, traj, new_progress));
            }
        } else if let Some(target) = self.waypoint {
            let wind = self.config.wind.sample(self.time, &mut self.rng);
            let v = self.config.controller.velocity_command(&self.state, target);
            let h = self.config.controller.heading_command(&self.state, target);
            self.kinematics.step(&mut self.state, v, h, wind, dt);
            if self.config.controller.arrived(&self.state, target) {
                self.waypoint = None;
            }
        }

        // --- energy ---
        let brightness = if self.ring.mode() == LedMode::Off {
            0.0
        } else {
            self.ring.brightness
        };
        let was_reserve = self.battery.below_reserve();
        self.battery.drain(
            dt,
            self.state.velocity.norm(),
            self.state.rotors_on,
            brightness,
        );
        if !was_reserve && self.battery.below_reserve() {
            self.emit(DroneEvent::BatteryReserve);
            self.trigger_safety("battery below reserve");
        }

        // --- trace ---
        self.trace.push(TimedPose {
            t: self.time,
            position: self.state.position,
            heading: self.state.heading,
        });
    }

    /// Advances time and energy by `dt` seconds without simulating motion.
    ///
    /// The event-driven scheduler calls this to coalesce idle spans — no
    /// pattern executing and no waypoint pending — into one jump. The power
    /// draw of an idle drone is constant, so one `coast(dt)` drains what `n`
    /// idle `tick(dt / n)` calls would (up to float summation order); the
    /// observable differences are the skipped per-tick trace samples (the
    /// trace is only classified over pattern flights, which never coast) and
    /// a reserve crossing detected at the end of the span instead of
    /// mid-span.
    ///
    /// # Panics
    /// Panics if `dt` is not positive, or if called while a pattern or
    /// waypoint transit is active (those need true ticks).
    pub fn coast(&mut self, dt: f64) {
        assert!(dt > 0.0, "time step must be positive");
        assert!(
            self.executing.is_none() && self.waypoint.is_none(),
            "coast is only valid while idle"
        );
        self.time += dt;
        let brightness = if self.ring.mode() == LedMode::Off {
            0.0
        } else {
            self.ring.brightness
        };
        let was_reserve = self.battery.below_reserve();
        self.battery.drain(
            dt,
            self.state.velocity.norm(),
            self.state.rotors_on,
            brightness,
        );
        if !was_reserve && self.battery.below_reserve() {
            self.emit(DroneEvent::BatteryReserve);
            self.trigger_safety("battery below reserve");
        }
    }
}

/// Interpolated pose lookup on a trajectory at time `t` (clamped to ends).
fn sample_at(traj: &Trajectory, t: f64) -> TimedPose {
    let s = traj.samples();
    debug_assert!(!s.is_empty(), "pattern trajectories are never empty");
    if t <= s[0].t {
        return s[0];
    }
    if t >= s[s.len() - 1].t {
        return s[s.len() - 1];
    }
    let idx = s.partition_point(|p| p.t < t);
    let a = s[idx - 1];
    let b = s[idx];
    let span = b.t - a.t;
    let frac = if span > 0.0 { (t - a.t) / span } else { 0.0 };
    TimedPose {
        t,
        position: a.position.lerp(b.position, frac),
        heading: a.heading + hdc_geometry::signed_angle_diff(a.heading, b.heading) * frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::led::LedColor;
    use crate::patterns::PatternClassifier;
    use hdc_geometry::Vec2;

    fn run_until_idle(drone: &mut Drone, max_s: f64) {
        let mut t = 0.0;
        while drone.is_executing() && t < max_s {
            drone.tick(0.05);
            t += 0.05;
        }
        assert!(t < max_s, "pattern did not finish in {max_s} s");
    }

    fn airborne() -> Drone {
        let mut d = Drone::new(DroneConfig::default());
        d.execute_pattern(FlightPattern::TakeOff {
            target_altitude: 5.0,
        });
        run_until_idle(&mut d, 30.0);
        d.drain_events();
        d.take_trace();
        d
    }

    #[test]
    fn takeoff_sequence() {
        let mut d = Drone::new(DroneConfig::default());
        assert_eq!(d.ring().mode(), LedMode::Danger, "fail-safe default");
        d.execute_pattern(FlightPattern::TakeOff {
            target_altitude: 3.0,
        });
        run_until_idle(&mut d, 30.0);
        assert!((d.state().position.z - 3.0).abs() < 0.1);
        let events = d.drain_events();
        assert!(events.contains(&DroneEvent::RotorsStarted));
        assert!(events.contains(&DroneEvent::LightsNavigation));
        assert!(events.contains(&DroneEvent::PatternComplete(PatternKind::TakeOff)));
        assert_eq!(d.ring().mode(), LedMode::Navigation);
    }

    #[test]
    fn landing_extinguishes_lights_after_rotors() {
        let mut d = airborne();
        d.execute_pattern(FlightPattern::Landing);
        run_until_idle(&mut d, 30.0);
        assert!(d.state().is_grounded());
        assert!(!d.state().rotors_on);
        assert_eq!(d.ring().mode(), LedMode::Off);
        let events = d.drain_events();
        let rotors_idx = events
            .iter()
            .position(|e| *e == DroneEvent::RotorsStopped)
            .unwrap();
        let lights_idx = events
            .iter()
            .position(|e| *e == DroneEvent::LightsOut)
            .unwrap();
        assert!(
            rotors_idx < lights_idx,
            "Figure 2: rotors stop, then lights out"
        );
    }

    #[test]
    fn grounded_pattern_rejected() {
        let mut d = Drone::new(DroneConfig::default());
        d.execute_pattern(FlightPattern::Nod);
        assert!(!d.is_executing());
        let events = d.drain_events();
        assert!(matches!(
            events.first(),
            Some(DroneEvent::SafetyTriggered(_))
        ));
    }

    #[test]
    fn safety_trigger_forces_red_and_landing() {
        let mut d = airborne();
        d.execute_pattern(FlightPattern::Nod);
        d.tick(0.1);
        d.trigger_safety("human too close");
        assert_eq!(d.ring().mode(), LedMode::Danger);
        assert!(d.safety_engaged());
        run_until_idle(&mut d, 30.0);
        assert!(d.state().is_grounded());
        // danger stays latched on the ring (no LightsOut downgrade)
        assert_eq!(d.ring().mode(), LedMode::Danger);
    }

    #[test]
    fn observer_reads_executed_patterns() {
        let classifier = PatternClassifier::default();
        for p in [
            FlightPattern::Nod,
            FlightPattern::Turn,
            FlightPattern::Poke { toward: Vec2::Y },
            FlightPattern::RectangleRequest {
                half_width: 2.0,
                half_depth: 1.5,
            },
        ] {
            let mut d = airborne();
            d.execute_pattern(p);
            run_until_idle(&mut d, 60.0);
            let trace = d.take_trace();
            assert_eq!(
                classifier.classify(&trace),
                Some(p.kind()),
                "{:?}",
                p.kind()
            );
        }
    }

    #[test]
    fn waypoint_transit_with_kinematics() {
        let mut d = airborne();
        let target = Vec3::new(15.0, -8.0, 5.0);
        d.goto(target);
        let mut t = 0.0;
        while d.state().position.distance(target) > 0.3 && t < 60.0 {
            d.tick(0.05);
            t += 0.05;
        }
        assert!(
            d.state().position.distance(target) <= 0.3,
            "arrived in {t} s"
        );
        // the transit trace reads as a cruise
        let classifier = PatternClassifier::default();
        assert_eq!(classifier.classify(d.trace()), Some(PatternKind::Cruise));
    }

    #[test]
    fn battery_drains_while_flying() {
        let mut d = airborne();
        let soc0 = d.battery().state_of_charge();
        for _ in 0..200 {
            d.tick(0.05);
        }
        assert!(d.battery().state_of_charge() < soc0);
    }

    #[test]
    fn ring_observer_color_during_flight() {
        let d = airborne();
        // navigation mode: port observer sees red
        let c = d.ring().color_toward(
            d.state().heading,
            d.state().heading + std::f64::consts::FRAC_PI_2,
        );
        assert_eq!(c, LedColor::Red);
    }

    #[test]
    fn coast_drains_like_idle_ticks_and_latches_reserve() {
        // Same hover, same span: one coast vs. a hundred idle ticks.
        let mut ticked = airborne();
        let mut coasted = ticked.clone();
        for _ in 0..100 {
            ticked.tick(0.1);
        }
        coasted.coast(10.0);
        let a = ticked.battery().state_of_charge();
        let b = coasted.battery().state_of_charge();
        assert!((a - b).abs() < 1e-9, "drain must coalesce: {a} vs {b}");
        assert!((ticked.time() - coasted.time()).abs() < 1e-9);
        // trace is the one permitted divergence: coast records nothing
        assert!(coasted.trace().samples().is_empty());

        // a coast across the reserve threshold still fires the failsafe
        let mut sagging = airborne();
        sagging.drain_events();
        sagging.coast(3600.0 * 24.0);
        assert!(sagging.battery().below_reserve());
        assert!(sagging.safety_engaged());
        assert!(sagging.drain_events().contains(&DroneEvent::BatteryReserve));
    }

    #[test]
    #[should_panic(expected = "only valid while idle")]
    fn coast_rejects_active_patterns() {
        let mut d = airborne();
        d.execute_pattern(FlightPattern::Nod);
        d.coast(1.0);
    }

    #[test]
    fn events_drain_once() {
        let mut d = Drone::new(DroneConfig::default());
        d.execute_pattern(FlightPattern::TakeOff {
            target_altitude: 1.0,
        });
        let first = d.drain_events();
        assert!(!first.is_empty());
        assert!(d.drain_events().is_empty());
    }
}
