//! RGB status signalling for take-off/landing — the paper's proposed
//! replacement for the discarded vertical array.
//!
//! Paper, Section II: *"Since in vertical take-off/landing situations
//! directional lights are not necessary, a combination of RGB light signals
//! may be used to indicate these flight patterns, this is left for further
//! work."* This module does that further work: a colour-coded status signal
//! whose reading is **order-free** — an observer needs any single clean
//! glance, not a correctly-ordered sequence of glances — which removes the
//! phase-aliasing failure that sank the vertical array (experiments E9/E13).

use crate::led::VerticalAnimation;
use rand::Rng;
use std::fmt;

/// The hue the whole ring pulses with during a vertical manoeuvre.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatusHue {
    /// Pulsing green: taking off (leaving the ground, gaining energy).
    TakeOffGreen,
    /// Pulsing amber: landing (coming down — caution near ground).
    LandingAmber,
}

impl fmt::Display for StatusHue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StatusHue::TakeOffGreen => "pulsing green (take-off)",
            StatusHue::LandingAmber => "pulsing amber (landing)",
        };
        f.write_str(s)
    }
}

impl StatusHue {
    /// The hue encoding a vertical animation's meaning.
    pub fn for_animation(anim: VerticalAnimation) -> StatusHue {
        match anim {
            VerticalAnimation::TakeOff => StatusHue::TakeOffGreen,
            VerticalAnimation::Landing => StatusHue::LandingAmber,
        }
    }

    /// The meaning of the hue.
    pub fn animation(&self) -> VerticalAnimation {
        match self {
            StatusHue::TakeOffGreen => VerticalAnimation::TakeOff,
            StatusHue::LandingAmber => VerticalAnimation::Landing,
        }
    }
}

/// The RGB status signal: the ring pulses a single hue at `pulse_hz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RgbStatusSignal {
    hue: StatusHue,
    /// Pulse frequency, Hz (brightness modulation — attention without
    /// encoding information in the temporal order).
    pub pulse_hz: f64,
}

impl RgbStatusSignal {
    /// Creates the signal for a manoeuvre.
    pub fn new(hue: StatusHue) -> Self {
        RgbStatusSignal { hue, pulse_hz: 2.0 }
    }

    /// Convenience: signal matching a vertical animation.
    pub fn for_animation(anim: VerticalAnimation) -> Self {
        RgbStatusSignal::new(StatusHue::for_animation(anim))
    }

    /// The encoded hue.
    pub fn hue(&self) -> StatusHue {
        self.hue
    }

    /// Brightness at time `t`, in `[0.3, 1.0]` (never fully dark — the hue
    /// stays readable at any instant).
    pub fn brightness(&self, t: f64) -> f64 {
        0.65 + 0.35 * (std::f64::consts::TAU * self.pulse_hz * t).sin()
    }

    /// Observer model (the E13 counterpart of
    /// [`crate::VerticalArray::observe_direction`]): takes `samples` glances,
    /// each independently misread with probability `misread_prob` (the same
    /// corruption budget as the array's per-LED flips), and majority-votes
    /// the hue. Returns `None` on a tie or when every glance failed.
    pub fn observe_hue<R: Rng>(
        &self,
        samples: usize,
        misread_prob: f64,
        rng: &mut R,
    ) -> Option<StatusHue> {
        let mut votes: i32 = 0;
        for _ in 0..samples {
            let seen = if rng.gen::<f64>() < misread_prob {
                // a misread glance returns the *other* hue
                match self.hue {
                    StatusHue::TakeOffGreen => StatusHue::LandingAmber,
                    StatusHue::LandingAmber => StatusHue::TakeOffGreen,
                }
            } else {
                self.hue
            };
            votes += match seen {
                StatusHue::TakeOffGreen => 1,
                StatusHue::LandingAmber => -1,
            };
        }
        match votes.cmp(&0) {
            std::cmp::Ordering::Greater => Some(StatusHue::TakeOffGreen),
            std::cmp::Ordering::Less => Some(StatusHue::LandingAmber),
            std::cmp::Ordering::Equal => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn hue_animation_bijection() {
        for anim in [VerticalAnimation::TakeOff, VerticalAnimation::Landing] {
            assert_eq!(StatusHue::for_animation(anim).animation(), anim);
        }
    }

    #[test]
    fn brightness_pulses_but_never_dark() {
        let s = RgbStatusSignal::new(StatusHue::TakeOffGreen);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..100 {
            let b = s.brightness(i as f64 * 0.01);
            lo = lo.min(b);
            hi = hi.max(b);
        }
        assert!(lo >= 0.3 - 1e-9, "minimum brightness {lo}");
        assert!(hi <= 1.0 + 1e-9);
        assert!(hi - lo > 0.5, "visible pulsing");
    }

    #[test]
    fn clean_observation_exact() {
        let mut rng = SmallRng::seed_from_u64(1);
        for hue in [StatusHue::TakeOffGreen, StatusHue::LandingAmber] {
            let s = RgbStatusSignal::new(hue);
            assert_eq!(s.observe_hue(3, 0.0, &mut rng), Some(hue));
        }
    }

    #[test]
    fn majority_vote_beats_per_glance_noise() {
        // with 30% misreads, 3 glances give ~0.784 majority-correct; 200
        // trials must comfortably beat chance (the array inverts here, E9)
        let mut rng = SmallRng::seed_from_u64(2);
        let s = RgbStatusSignal::new(StatusHue::LandingAmber);
        let trials = 400;
        let correct = (0..trials)
            .filter(|_| s.observe_hue(3, 0.3, &mut rng) == Some(StatusHue::LandingAmber))
            .count();
        let acc = correct as f64 / trials as f64;
        assert!(acc > 0.7, "colour reading accuracy {acc}");
    }

    #[test]
    fn display() {
        assert_eq!(
            StatusHue::TakeOffGreen.to_string(),
            "pulsing green (take-off)"
        );
    }
}
