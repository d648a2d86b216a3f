//! The all-round LED ring (Figure 1) and the discarded vertical array.
//!
//! Paper, Section II: a ring of 10 tri-colour LEDs indicates the horizontal
//! flight direction with red/green/white navigation colours (FAA-style); the
//! whole ring turns red when a safety function triggers — and all-red "can
//! be achieved as a default setting", which is why [`LedRing::default`]
//! starts in danger mode (fail-safe). There was no consensus on an all-green
//! ring; [`LedMode::AllClear`] exists but nothing in the protocol uses it.
//!
//! The additional vertical array (take-off animated bottom→top, landing
//! top→bottom) confused users and "will be discarded in future versions";
//! [`VerticalArray`] implements it anyway so experiment E9 can reproduce the
//! confusion quantitatively with an observer model.

use hdc_geometry::normalize_angle;
use rand::Rng;
use std::fmt;

/// Number of LEDs on the all-round ring.
pub const RING_LED_COUNT: usize = 10;

/// Colour of one tri-colour LED.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LedColor {
    /// LED off.
    Off,
    /// Red (port / danger).
    Red,
    /// Green (starboard).
    Green,
    /// White (nose and tail strobes).
    White,
}

impl fmt::Display for LedColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LedColor::Off => "off",
            LedColor::Red => "red",
            LedColor::Green => "green",
            LedColor::White => "white",
        };
        f.write_str(s)
    }
}

/// Operating mode of the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LedMode {
    /// All LEDs extinguished (rotors stopped after landing, Figure 2 step 3).
    Off,
    /// Navigation layout: red port, green starboard, white nose/tail.
    Navigation,
    /// All-red: safety function triggered (also the fail-safe default).
    Danger,
    /// All-green: proposed but without consensus; unused by the protocol.
    AllClear,
}

/// The colours of all ring LEDs at one instant, indexed clockwise from the
/// nose (LED 0 at body azimuth 0°, 36° apart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Colour per LED.
    pub leds: [LedColor; RING_LED_COUNT],
}

impl RingSnapshot {
    /// Counts LEDs showing `color`.
    pub fn count(&self, color: LedColor) -> usize {
        self.leds.iter().filter(|c| **c == color).count()
    }
}

impl fmt::Display for RingSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.leds.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", &c.to_string()[..1])?;
        }
        Ok(())
    }
}

/// The 10-LED all-round ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedRing {
    mode: LedMode,
    /// Brightness 0–1 (feeds the battery model; the paper flags illumination
    /// power as an open issue).
    pub brightness: f64,
}

impl LedRing {
    /// A ring in the given mode at full brightness.
    pub fn new(mode: LedMode) -> Self {
        LedRing {
            mode,
            brightness: 1.0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> LedMode {
        self.mode
    }

    /// Switches mode.
    pub fn set_mode(&mut self, mode: LedMode) {
        self.mode = mode;
    }

    /// Body-frame colours. LED `i` sits at body azimuth `i × 36°` measured
    /// clockwise from the nose.
    ///
    /// Navigation layout: LEDs on the starboard side (azimuth 36°–144°)
    /// green, port side (216°–324°) red, nose (0°) and tail (180°) white —
    /// the FAA-style convention the paper builds on.
    pub fn snapshot(&self) -> RingSnapshot {
        let mut leds = [LedColor::Off; RING_LED_COUNT];
        match self.mode {
            LedMode::Off => {}
            LedMode::Danger => leds = [LedColor::Red; RING_LED_COUNT],
            LedMode::AllClear => leds = [LedColor::Green; RING_LED_COUNT],
            LedMode::Navigation => {
                for (i, led) in leds.iter_mut().enumerate() {
                    let az = i as f64 * 36.0;
                    *led = if az == 0.0 || az == 180.0 {
                        LedColor::White
                    } else if az < 180.0 {
                        LedColor::Green // starboard
                    } else {
                        LedColor::Red // port
                    };
                }
            }
        }
        RingSnapshot { leds }
    }

    /// The colour an observer at world bearing `observer_bearing` (radians,
    /// from the drone, 0 = +x) sees on the nearest-facing LED, given the
    /// drone's `heading`.
    ///
    /// This is how a ground observer reads the flight direction: green means
    /// they are on the drone's starboard side, red port, white nose/tail.
    pub fn color_toward(&self, heading: f64, observer_bearing: f64) -> LedColor {
        let snapshot = self.snapshot();
        // body azimuth of the observer, clockwise from the nose
        let rel = normalize_angle(heading - observer_bearing);
        let clockwise_deg = rel.to_degrees().rem_euclid(360.0);
        let idx = ((clockwise_deg / 36.0).round() as usize) % RING_LED_COUNT;
        snapshot.leds[idx]
    }
}

impl Default for LedRing {
    /// Danger mode: the paper's fail-safe default setting.
    fn default() -> Self {
        LedRing::new(LedMode::Danger)
    }
}

// ---------------------------------------------------------------------------

/// Number of LEDs on the vertical leg array.
pub const VERTICAL_LED_COUNT: usize = 5;

/// Direction of the vertical-array animation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerticalAnimation {
    /// Bottom→top sweep: taking off.
    TakeOff,
    /// Top→bottom sweep: landing.
    Landing,
}

/// The vertical LED array on the drone's legs (discarded in the paper after
/// user feedback; kept here for experiment E9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerticalArray {
    animation: VerticalAnimation,
    /// Sweep period, seconds.
    pub period_s: f64,
}

impl VerticalArray {
    /// Creates the array with a 1-second sweep.
    pub fn new(animation: VerticalAnimation) -> Self {
        VerticalArray {
            animation,
            period_s: 1.0,
        }
    }

    /// The animation direction.
    pub fn animation(&self) -> VerticalAnimation {
        self.animation
    }

    /// LED states at time `t`: exactly one LED lit, index 0 = bottom.
    pub fn frame(&self, t: f64) -> [bool; VERTICAL_LED_COUNT] {
        let phase = (t / self.period_s).rem_euclid(1.0);
        let step = (phase * VERTICAL_LED_COUNT as f64) as usize % VERTICAL_LED_COUNT;
        let idx = match self.animation {
            VerticalAnimation::TakeOff => step,
            VerticalAnimation::Landing => VERTICAL_LED_COUNT - 1 - step,
        };
        let mut leds = [false; VERTICAL_LED_COUNT];
        leds[idx] = true;
        leds
    }

    /// Observer model for experiment E9: samples `samples` frames at the
    /// given `interval_s`, flips each observed LED with probability
    /// `flip_prob` (foliage occlusion, glare), then infers the sweep
    /// direction from the phase slope of the lit index.
    ///
    /// Returns `None` when the samples are too corrupted to even guess.
    pub fn observe_direction<R: Rng>(
        &self,
        samples: usize,
        interval_s: f64,
        flip_prob: f64,
        rng: &mut R,
    ) -> Option<VerticalAnimation> {
        let mut indices: Vec<(f64, f64)> = Vec::with_capacity(samples);
        for k in 0..samples {
            let t = k as f64 * interval_s;
            let mut frame = self.frame(t);
            for led in frame.iter_mut() {
                if rng.gen::<f64>() < flip_prob {
                    *led = !*led;
                }
            }
            // observer reads the mean lit position (may be ambiguous)
            let lit: Vec<usize> = frame
                .iter()
                .enumerate()
                .filter(|(_, on)| **on)
                .map(|(i, _)| i)
                .collect();
            if lit.len() == 1 {
                indices.push((t, lit[0] as f64));
            }
        }
        if indices.len() < 2 {
            return None;
        }
        // phase-unwrapped slope of the lit index over time
        let mut score = 0.0;
        for w in indices.windows(2) {
            let (t0, i0) = w[0];
            let (t1, i1) = w[1];
            if t1 - t0 > self.period_s * 0.9 {
                continue; // gap too long to compare phases
            }
            let mut d = i1 - i0;
            // unwrap: the sweep restarts at the ends
            if d > VERTICAL_LED_COUNT as f64 / 2.0 {
                d -= VERTICAL_LED_COUNT as f64;
            } else if d < -(VERTICAL_LED_COUNT as f64) / 2.0 {
                d += VERTICAL_LED_COUNT as f64;
            }
            score += d;
        }
        if score > 0.0 {
            Some(VerticalAnimation::TakeOff)
        } else if score < 0.0 {
            Some(VerticalAnimation::Landing)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_danger() {
        let ring = LedRing::default();
        assert_eq!(ring.mode(), LedMode::Danger);
        assert_eq!(ring.snapshot().count(LedColor::Red), RING_LED_COUNT);
    }

    #[test]
    fn navigation_layout() {
        let ring = LedRing::new(LedMode::Navigation);
        let s = ring.snapshot();
        assert_eq!(s.leds[0], LedColor::White, "nose");
        assert_eq!(s.leds[5], LedColor::White, "tail");
        for i in 1..5 {
            assert_eq!(s.leds[i], LedColor::Green, "starboard LED {i}");
        }
        for i in 6..10 {
            assert_eq!(s.leds[i], LedColor::Red, "port LED {i}");
        }
        assert_eq!(s.count(LedColor::Green), 4);
        assert_eq!(s.count(LedColor::Red), 4);
        assert_eq!(s.count(LedColor::White), 2);
    }

    #[test]
    fn off_and_allclear() {
        assert_eq!(
            LedRing::new(LedMode::Off).snapshot().count(LedColor::Off),
            10
        );
        assert_eq!(
            LedRing::new(LedMode::AllClear)
                .snapshot()
                .count(LedColor::Green),
            10
        );
    }

    #[test]
    fn observer_reads_side_colors() {
        let ring = LedRing::new(LedMode::Navigation);
        // drone flying east (heading 0): an observer to the north (bearing
        // π/2) is on the drone's port side → red; south observer sees green
        let north = ring.color_toward(0.0, std::f64::consts::FRAC_PI_2);
        let south = ring.color_toward(0.0, -std::f64::consts::FRAC_PI_2);
        assert_eq!(north, LedColor::Red);
        assert_eq!(south, LedColor::Green);
        // head-on and tail-on observers see white
        assert_eq!(ring.color_toward(0.0, 0.0), LedColor::White);
        assert_eq!(
            ring.color_toward(0.0, std::f64::consts::PI),
            LedColor::White
        );
    }

    #[test]
    fn observed_color_rotates_with_heading() {
        let ring = LedRing::new(LedMode::Navigation);
        // same observer, drone turns: colour changes
        let before = ring.color_toward(0.0, std::f64::consts::FRAC_PI_2);
        let after = ring.color_toward(std::f64::consts::PI, std::f64::consts::FRAC_PI_2);
        assert_ne!(before, after);
    }

    #[test]
    fn display_forms() {
        assert_eq!(LedColor::Red.to_string(), "red");
        let s = LedRing::new(LedMode::Danger).snapshot().to_string();
        assert_eq!(s, "r r r r r r r r r r");
    }

    #[test]
    fn vertical_sweep_directions() {
        let up = VerticalArray::new(VerticalAnimation::TakeOff);
        assert_eq!(up.frame(0.0), [true, false, false, false, false]);
        assert_eq!(up.frame(0.5), [false, false, true, false, false]);
        let down = VerticalArray::new(VerticalAnimation::Landing);
        assert_eq!(down.frame(0.0), [false, false, false, false, true]);
        assert_eq!(down.frame(0.5), [false, false, true, false, false]);
    }

    #[test]
    fn sweep_is_periodic() {
        let up = VerticalArray::new(VerticalAnimation::TakeOff);
        assert_eq!(up.frame(0.3), up.frame(1.3));
        assert_eq!(up.frame(0.3), up.frame(10.3));
    }

    #[test]
    fn clean_observation_is_correct() {
        let mut rng = SmallRng::seed_from_u64(5);
        for anim in [VerticalAnimation::TakeOff, VerticalAnimation::Landing] {
            let arr = VerticalArray::new(anim);
            let got = arr.observe_direction(10, 0.1, 0.0, &mut rng);
            assert_eq!(got, Some(anim), "noise-free observation must be exact");
        }
    }

    #[test]
    fn noisy_sparse_observation_degrades() {
        // the paper's user feedback: hard to distinguish. With heavy noise
        // and sparse sampling, accuracy approaches chance.
        let mut rng = SmallRng::seed_from_u64(6);
        let arr = VerticalArray::new(VerticalAnimation::TakeOff);
        let trials = 200;
        let correct = (0..trials)
            .filter(|_| {
                arr.observe_direction(3, 0.45, 0.35, &mut rng) == Some(VerticalAnimation::TakeOff)
            })
            .count();
        let acc = correct as f64 / trials as f64;
        assert!(
            acc < 0.75,
            "heavily corrupted observation should not be reliable, got {acc}"
        );
    }
}
