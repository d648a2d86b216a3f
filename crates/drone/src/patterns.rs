//! Flight patterns: execution and observer-side classification.
//!
//! Section III defines three standard patterns (take-off, cruise flight,
//! landing) and four communicative ones (*poke* to attract attention, *nod*
//! for yes, *turn* for no, and flying a *rectangle* to request the area the
//! collaborator occupies). The patterns are "unmistakable ... an embodied
//! statement of intent", i.e. a human watching the trajectory can read the
//! intent back. [`PatternExecutor`] produces the trajectories;
//! [`PatternClassifier`] is the watching human.

use hdc_geometry::{signed_angle_diff, Vec2, Vec3};
use std::fmt;

/// A timestamped pose sample along a trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedPose {
    /// Time since the pattern started, seconds.
    pub t: f64,
    /// World position.
    pub position: Vec3,
    /// Heading, radians.
    pub heading: f64,
}

/// An executed flight trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    samples: Vec<TimedPose>,
}

impl Trajectory {
    /// Wraps raw samples.
    pub fn new(samples: Vec<TimedPose>) -> Self {
        Trajectory { samples }
    }

    /// The samples in time order.
    pub fn samples(&self) -> &[TimedPose] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trajectory is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total duration, seconds.
    pub fn duration(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => b.t - a.t,
            _ => 0.0,
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: TimedPose) {
        self.samples.push(sample);
    }
}

impl FromIterator<TimedPose> for Trajectory {
    fn from_iter<T: IntoIterator<Item = TimedPose>>(iter: T) -> Self {
        Trajectory::new(iter.into_iter().collect())
    }
}

/// The seven flight patterns of the drone→human language.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightPattern {
    /// Vertical lift-off to flying height (standard).
    TakeOff {
        /// Altitude to climb to, metres.
        target_altitude: f64,
    },
    /// Vertical descent to the ground (standard; Figure 2).
    Landing,
    /// Horizontal flight to a destination at constant altitude (standard).
    Cruise {
        /// Destination position.
        to: Vec3,
    },
    /// Short forward-back lunges toward the collaborator: attract attention.
    Poke {
        /// Ground direction toward the collaborator.
        toward: Vec2,
    },
    /// Vertical dips: "yes".
    Nod,
    /// Yaw left-right swings on the spot: "no".
    Turn,
    /// Flying a rectangle to signify the area the drone wishes to occupy.
    RectangleRequest {
        /// Half-width (x) of the requested area, metres.
        half_width: f64,
        /// Half-depth (y) of the requested area, metres.
        half_depth: f64,
    },
}

/// Pattern identity without parameters (classifier output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Vertical climb.
    TakeOff,
    /// Vertical descent to ground.
    Landing,
    /// Straight horizontal transit.
    Cruise,
    /// Forward-back lunges.
    Poke,
    /// Vertical dips (yes).
    Nod,
    /// Yaw swings (no).
    Turn,
    /// Closed rectangular circuit (area request).
    RectangleRequest,
}

impl FlightPattern {
    /// The parameter-free identity of the pattern.
    pub fn kind(&self) -> PatternKind {
        match self {
            FlightPattern::TakeOff { .. } => PatternKind::TakeOff,
            FlightPattern::Landing => PatternKind::Landing,
            FlightPattern::Cruise { .. } => PatternKind::Cruise,
            FlightPattern::Poke { .. } => PatternKind::Poke,
            FlightPattern::Nod => PatternKind::Nod,
            FlightPattern::Turn => PatternKind::Turn,
            FlightPattern::RectangleRequest { .. } => PatternKind::RectangleRequest,
        }
    }
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PatternKind::TakeOff => "take-off",
            PatternKind::Landing => "landing",
            PatternKind::Cruise => "cruise",
            PatternKind::Poke => "poke",
            PatternKind::Nod => "nod (yes)",
            PatternKind::Turn => "turn (no)",
            PatternKind::RectangleRequest => "rectangle (area request)",
        };
        f.write_str(s)
    }
}

/// Generates the analytic reference trajectory of each pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternExecutor {
    /// Sampling interval, seconds.
    pub dt: f64,
    /// Climb rate, m/s.
    pub climb_rate: f64,
    /// Descent rate, m/s.
    pub descent_rate: f64,
    /// Cruise speed, m/s.
    pub cruise_speed: f64,
    /// Lunge amplitude of the poke, metres.
    pub poke_amplitude: f64,
    /// Dip amplitude of the nod, metres.
    pub nod_amplitude: f64,
    /// Swing amplitude of the turn, radians.
    pub turn_amplitude: f64,
    /// Number of repetitions for the oscillatory patterns.
    pub repetitions: usize,
}

impl Default for PatternExecutor {
    fn default() -> Self {
        PatternExecutor {
            dt: 0.05,
            climb_rate: 1.0,
            descent_rate: 0.8,
            cruise_speed: 5.0,
            poke_amplitude: 0.8,
            nod_amplitude: 0.4,
            turn_amplitude: 0.8,
            repetitions: 3,
        }
    }
}

impl PatternExecutor {
    /// Generates the trajectory of `pattern` starting from `start` with
    /// heading `heading`.
    ///
    /// # Panics
    /// Panics if the executor's `dt` is not positive.
    pub fn generate(&self, pattern: FlightPattern, start: Vec3, heading: f64) -> Trajectory {
        assert!(self.dt > 0.0, "sampling interval must be positive");
        match pattern {
            FlightPattern::TakeOff { target_altitude } => {
                let climb = (target_altitude - start.z).max(0.0);
                let dur = climb / self.climb_rate;
                self.sample(dur, |t| {
                    (
                        Vec3::new(start.x, start.y, start.z + self.climb_rate * t.min(dur)),
                        heading,
                    )
                })
            }
            FlightPattern::Landing => {
                let dur = start.z / self.descent_rate;
                self.sample(dur, |t| {
                    (
                        Vec3::new(start.x, start.y, (start.z - self.descent_rate * t).max(0.0)),
                        heading,
                    )
                })
            }
            FlightPattern::Cruise { to } => {
                let dist = start.distance(to);
                let dur = dist / self.cruise_speed;
                let travel_heading = (to - start).xy().angle();
                self.sample(dur, |t| {
                    (start.lerp(to, (t / dur).min(1.0)), travel_heading)
                })
            }
            FlightPattern::Poke { toward } => {
                let dir = toward.normalized().unwrap_or(Vec2::X);
                let face = dir.angle();
                let period = 1.6;
                let dur = period * self.repetitions as f64;
                self.sample(dur, |t| {
                    let s = (std::f64::consts::TAU * t / period).sin().max(0.0);
                    let off = dir * (self.poke_amplitude * s);
                    (start + Vec3::from_xy(off, 0.0), face)
                })
            }
            FlightPattern::Nod => {
                let period = 1.2;
                let dur = period * self.repetitions as f64;
                self.sample(dur, |t| {
                    let s = (std::f64::consts::TAU * t / period).sin();
                    (
                        Vec3::new(
                            start.x,
                            start.y,
                            (start.z - self.nod_amplitude * s.max(0.0)).max(0.0),
                        ),
                        heading,
                    )
                })
            }
            FlightPattern::Turn => {
                let period = 1.6;
                let dur = period * self.repetitions as f64;
                self.sample(dur, |t| {
                    let s = (std::f64::consts::TAU * t / period).sin();
                    (start, heading + self.turn_amplitude * s)
                })
            }
            FlightPattern::RectangleRequest {
                half_width,
                half_depth,
            } => {
                // perimeter circuit: start at one corner, go around, return
                let corners = [
                    Vec2::new(-half_width, -half_depth),
                    Vec2::new(half_width, -half_depth),
                    Vec2::new(half_width, half_depth),
                    Vec2::new(-half_width, half_depth),
                    Vec2::new(-half_width, -half_depth),
                ];
                let mut lengths = Vec::new();
                let mut total = 0.0;
                for w in corners.windows(2) {
                    let l = w[0].distance(w[1]);
                    lengths.push(l);
                    total += l;
                }
                let dur = total / self.cruise_speed;
                self.sample(dur, |t| {
                    let mut dist = (self.cruise_speed * t).min(total - 1e-9);
                    let mut seg = 0;
                    while seg < lengths.len() && dist > lengths[seg] {
                        dist -= lengths[seg];
                        seg += 1;
                    }
                    let seg = seg.min(lengths.len() - 1);
                    let a = corners[seg];
                    let b = corners[seg + 1];
                    let p = a.lerp(b, (dist / lengths[seg]).min(1.0));
                    ((start + Vec3::from_xy(p, 0.0)), (b - a).angle())
                })
            }
        }
    }

    fn sample<F: Fn(f64) -> (Vec3, f64)>(&self, duration: f64, f: F) -> Trajectory {
        let steps = ((duration / self.dt).ceil() as usize).max(1);
        (0..=steps)
            .map(|i| {
                let t = (i as f64 * self.dt).min(duration);
                let (position, heading) = f(t);
                TimedPose {
                    t,
                    position,
                    heading,
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------

/// The human-observer model: reads a trajectory back into a pattern.
///
/// Feature-based: net and oscillatory motion in the vertical, horizontal and
/// yaw axes. The features are deliberately the ones a person can see.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternClassifier {
    /// Minimum net altitude change to read climb/descent, metres.
    pub vertical_net_threshold: f64,
    /// Minimum net horizontal displacement to read a transit, metres.
    pub horizontal_net_threshold: f64,
    /// Minimum oscillation amplitude to count, metres (or radians for yaw).
    pub oscillation_threshold: f64,
    /// Minimum number of oscillation cycles to read a repeated gesture.
    pub min_cycles: usize,
}

impl Default for PatternClassifier {
    fn default() -> Self {
        PatternClassifier {
            vertical_net_threshold: 0.5,
            horizontal_net_threshold: 2.0,
            oscillation_threshold: 0.15,
            min_cycles: 2,
        }
    }
}

/// Counts oscillation cycles: pairs of alternating excursions beyond
/// ±threshold around the series mean.
fn oscillation_cycles(values: &[f64], threshold: f64) -> usize {
    if values.is_empty() {
        return 0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let mut crossings = 0usize;
    let mut state = 0i8; // -1 below, +1 above, 0 inside band
    for v in values {
        let s = if v - mean > threshold {
            1
        } else if v - mean < -threshold {
            -1
        } else {
            0
        };
        if s != 0 && s != state {
            if state != 0 {
                crossings += 1;
            }
            state = s;
        }
    }
    crossings
}

/// Counts single-sided pulses: excursions above `threshold` over the series
/// minimum (for gestures that only move one way, like the poke's lunges or
/// the nod's dips).
fn pulse_count(values: &[f64], threshold: f64) -> usize {
    if values.is_empty() {
        return 0;
    }
    let base = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut pulses = 0;
    let mut high = false;
    for v in values {
        let is_high = v - base > threshold;
        if is_high && !high {
            pulses += 1;
        }
        high = is_high;
    }
    pulses
}

impl PatternClassifier {
    /// Classifies a trajectory, or `None` for an unreadable one.
    pub fn classify(&self, traj: &Trajectory) -> Option<PatternKind> {
        let s = traj.samples();
        if s.len() < 3 {
            return None;
        }
        let first = s.first().unwrap();
        let last = s.last().unwrap();

        let dz_net = last.position.z - first.position.z;
        let horiz_net = last.position.xy().distance(first.position.xy());
        let zs: Vec<f64> = s.iter().map(|p| p.position.z).collect();
        let z_pulses = pulse_count(
            &zs.iter().map(|z| -z).collect::<Vec<f64>>(),
            self.oscillation_threshold,
        );

        // yaw oscillation (unwrapped increments)
        let mut yaw = vec![0.0];
        for w in s.windows(2) {
            let d = signed_angle_diff(w[0].heading, w[1].heading);
            yaw.push(yaw.last().unwrap() + d);
        }
        let yaw_cycles = oscillation_cycles(&yaw, self.oscillation_threshold);

        // horizontal positions relative to start, projected on the dominant axis
        let rel: Vec<Vec2> = s
            .iter()
            .map(|p| p.position.xy() - first.position.xy())
            .collect();
        let max_r = rel.iter().map(|v| v.norm()).fold(0.0, f64::max);
        let principal = rel
            .iter()
            .max_by(|a, b| a.norm_sq().partial_cmp(&b.norm_sq()).unwrap())
            .and_then(|v| v.normalized())
            .unwrap_or(Vec2::X);
        let proj: Vec<f64> = rel.iter().map(|v| v.dot(principal)).collect();
        let horiz_pulses = pulse_count(&proj, self.oscillation_threshold);

        // enclosed area (shoelace over the horizontal track)
        let mut area2 = 0.0;
        for w in rel.windows(2) {
            area2 += w[0].cross(w[1]);
        }
        let enclosed_area = (area2 / 2.0).abs();

        // --- decision tree, most specific first ---
        // vertical transits
        if dz_net > self.vertical_net_threshold && horiz_net < self.horizontal_net_threshold {
            return Some(PatternKind::TakeOff);
        }
        if dz_net < -self.vertical_net_threshold
            && last.position.z < 0.1
            && horiz_net < self.horizontal_net_threshold
        {
            return Some(PatternKind::Landing);
        }
        // closed rectangle: clearly enclosed area, returns to start
        if enclosed_area > 0.4 && horiz_net < 1.0 && max_r > 0.8 {
            return Some(PatternKind::RectangleRequest);
        }
        // repeated gestures
        if yaw_cycles >= self.min_cycles && max_r < 0.5 && dz_net.abs() < 0.3 {
            return Some(PatternKind::Turn);
        }
        if z_pulses >= self.min_cycles && dz_net.abs() < 0.3 && max_r < 0.5 {
            return Some(PatternKind::Nod);
        }
        if horiz_pulses >= self.min_cycles && horiz_net < 1.0 && dz_net.abs() < 0.3 {
            return Some(PatternKind::Poke);
        }
        // transit
        if horiz_net >= self.horizontal_net_threshold {
            return Some(PatternKind::Cruise);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_patterns() -> Vec<FlightPattern> {
        vec![
            FlightPattern::TakeOff {
                target_altitude: 3.0,
            },
            FlightPattern::Landing,
            FlightPattern::Cruise {
                to: Vec3::new(20.0, 5.0, 5.0),
            },
            FlightPattern::Poke {
                toward: Vec2::new(0.0, 1.0),
            },
            FlightPattern::Nod,
            FlightPattern::Turn,
            FlightPattern::RectangleRequest {
                half_width: 2.0,
                half_depth: 1.5,
            },
        ]
    }

    fn start_for(p: &FlightPattern) -> Vec3 {
        match p {
            FlightPattern::TakeOff { .. } => Vec3::ZERO,
            _ => Vec3::new(0.0, 0.0, 5.0),
        }
    }

    #[test]
    fn every_pattern_reads_back_unmistakably() {
        // the legibility requirement of Section III
        let exec = PatternExecutor::default();
        let classifier = PatternClassifier::default();
        for p in all_patterns() {
            let traj = exec.generate(p, start_for(&p), 0.3);
            let got = classifier.classify(&traj);
            assert_eq!(got, Some(p.kind()), "{:?} misread as {:?}", p.kind(), got);
        }
    }

    #[test]
    fn takeoff_ends_at_altitude() {
        let exec = PatternExecutor::default();
        let traj = exec.generate(
            FlightPattern::TakeOff {
                target_altitude: 4.0,
            },
            Vec3::ZERO,
            0.0,
        );
        assert!((traj.samples().last().unwrap().position.z - 4.0).abs() < 1e-9);
        assert!((traj.duration() - 4.0).abs() < 0.1, "4 m at 1 m/s");
    }

    #[test]
    fn landing_reaches_ground_vertically() {
        let exec = PatternExecutor::default();
        let start = Vec3::new(2.0, 3.0, 4.0);
        let traj = exec.generate(FlightPattern::Landing, start, 1.0);
        let last = traj.samples().last().unwrap();
        assert!(last.position.z < 1e-9);
        assert!(
            last.position.xy().distance(start.xy()) < 1e-9,
            "landing is vertical"
        );
    }

    #[test]
    fn cruise_is_straight_and_faces_travel() {
        let exec = PatternExecutor::default();
        let to = Vec3::new(10.0, 10.0, 5.0);
        let traj = exec.generate(FlightPattern::Cruise { to }, Vec3::new(0.0, 0.0, 5.0), 0.0);
        let expected_heading = std::f64::consts::FRAC_PI_4;
        for p in traj.samples() {
            assert!((p.heading - expected_heading).abs() < 1e-9);
        }
        assert!(traj.samples().last().unwrap().position.distance(to) < 0.3);
    }

    #[test]
    fn poke_returns_to_station() {
        let exec = PatternExecutor::default();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let traj = exec.generate(FlightPattern::Poke { toward: Vec2::Y }, start, 0.0);
        let last = traj.samples().last().unwrap();
        assert!(
            last.position.distance(start) < 0.1,
            "poke ends where it began"
        );
        // lunges only go toward the person (positive y), never behind
        for p in traj.samples() {
            assert!(p.position.y >= -1e-9);
        }
    }

    #[test]
    fn nod_dips_never_climb() {
        let exec = PatternExecutor::default();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let traj = exec.generate(FlightPattern::Nod, start, 0.0);
        for p in traj.samples() {
            assert!(
                p.position.z <= 5.0 + 1e-9,
                "nod dips below hover, not above"
            );
        }
    }

    #[test]
    fn turn_keeps_position() {
        let exec = PatternExecutor::default();
        let start = Vec3::new(1.0, 2.0, 5.0);
        let traj = exec.generate(FlightPattern::Turn, start, 0.5);
        for p in traj.samples() {
            assert_eq!(p.position, start);
        }
        // heading actually swings both ways
        let hs: Vec<f64> = traj.samples().iter().map(|p| p.heading).collect();
        let max = hs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = hs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 0.5 + 0.5 && min < 0.5 - 0.5);
    }

    #[test]
    fn rectangle_closes_and_encloses_area() {
        let exec = PatternExecutor::default();
        let start = Vec3::new(0.0, 0.0, 5.0);
        let traj = exec.generate(
            FlightPattern::RectangleRequest {
                half_width: 2.0,
                half_depth: 1.0,
            },
            start,
            0.0,
        );
        let first = traj.samples().first().unwrap().position;
        let last = traj.samples().last().unwrap().position;
        assert!(first.distance(last) < 0.3, "circuit closes");
        // altitude constant throughout
        for p in traj.samples() {
            assert!((p.position.z - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn wind_jitter_does_not_fool_the_observer() {
        // Section III: patterns only vary if caught in gusts — moderate
        // jitter must not change the reading
        let exec = PatternExecutor::default();
        let classifier = PatternClassifier::default();
        for p in all_patterns() {
            let traj = exec.generate(p, start_for(&p), 0.3);
            // deterministic pseudo-noise ±4 cm
            let noisy: Trajectory = traj
                .samples()
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let n = ((i as f64 * 12.9898).sin() * 43758.5453).fract() - 0.5;
                    TimedPose {
                        t: s.t,
                        position: s.position + Vec3::new(n * 0.08, -n * 0.08, n * 0.04),
                        heading: s.heading + n * 0.03,
                    }
                })
                .collect();
            assert_eq!(
                classifier.classify(&noisy),
                Some(p.kind()),
                "{:?} lost in jitter",
                p.kind()
            );
        }
    }

    #[test]
    fn degenerate_trajectories_unreadable() {
        let classifier = PatternClassifier::default();
        assert_eq!(classifier.classify(&Trajectory::default()), None);
        let hover: Trajectory = (0..100)
            .map(|i| TimedPose {
                t: i as f64 * 0.05,
                position: Vec3::new(0.0, 0.0, 5.0),
                heading: 0.0,
            })
            .collect();
        assert_eq!(classifier.classify(&hover), None, "hovering says nothing");
    }

    #[test]
    fn kind_mapping() {
        assert_eq!(FlightPattern::Nod.kind(), PatternKind::Nod);
        assert_eq!(
            FlightPattern::RectangleRequest {
                half_width: 1.0,
                half_depth: 1.0
            }
            .kind(),
            PatternKind::RectangleRequest
        );
        assert_eq!(PatternKind::Turn.to_string(), "turn (no)");
    }

    #[test]
    fn trajectory_helpers() {
        let t: Trajectory = (0..5)
            .map(|i| TimedPose {
                t: i as f64,
                position: Vec3::ZERO,
                heading: 0.0,
            })
            .collect();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.duration(), 4.0);
        let mut t2 = Trajectory::default();
        t2.push(TimedPose {
            t: 0.0,
            position: Vec3::ZERO,
            heading: 0.0,
        });
        assert_eq!(t2.len(), 1);
        assert_eq!(t2.duration(), 0.0);
    }
}
