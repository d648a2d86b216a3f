//! Per-stage timing instrumentation and real-time budget checks.
//!
//! The paper reports end-to-end recognition times (38 ms at 0°, 27 ms at 65°)
//! and argues optimised native code will clear 30 fps, 60 fps with hardware
//! offload. [`StageTimings`] records where the time goes; [`FrameBudget`]
//! expresses the fps bars.

use std::fmt;
use std::time::Duration;

/// Wall-clock time spent in each pipeline stage, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimings {
    /// Thresholding / segmentation.
    pub segment_us: u64,
    /// Connected components + largest-blob isolation.
    pub component_us: u64,
    /// Contour tracing.
    pub contour_us: u64,
    /// Signature extraction (centroid distances, resample, z-norm).
    pub signature_us: u64,
    /// SAX encode + database match.
    pub classify_us: u64,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total_us(&self) -> u64 {
        self.segment_us + self.component_us + self.contour_us + self.signature_us + self.classify_us
    }

    /// Total as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_micros(self.total_us())
    }

    /// Equivalent sustained frame rate (frames per second) if every frame
    /// took this long. Returns `f64::INFINITY` for a zero total.
    pub fn fps_equivalent(&self) -> f64 {
        let t = self.total_us();
        if t == 0 {
            f64::INFINITY
        } else {
            1_000_000.0 / t as f64
        }
    }
}

impl fmt::Display for StageTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment {}µs | blob {}µs | contour {}µs | signature {}µs | classify {}µs | total {}µs ({:.1} fps)",
            self.segment_us,
            self.component_us,
            self.contour_us,
            self.signature_us,
            self.classify_us,
            self.total_us(),
            self.fps_equivalent()
        )
    }
}

/// A per-frame processing budget (e.g. 33.3 ms for 30 fps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBudget {
    budget_us: u64,
}

impl FrameBudget {
    /// Budget for a target frame rate.
    ///
    /// # Panics
    /// Panics if `fps` is not positive.
    pub fn from_fps(fps: f64) -> Self {
        assert!(fps > 0.0, "frame rate must be positive");
        FrameBudget {
            budget_us: (1_000_000.0 / fps) as u64,
        }
    }

    /// The paper's soft real-time bar: 30 fps.
    pub fn thirty_fps() -> Self {
        FrameBudget::from_fps(30.0)
    }

    /// The paper's hardware-offload bar: 60 fps.
    pub fn sixty_fps() -> Self {
        FrameBudget::from_fps(60.0)
    }

    /// The budget in microseconds.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a frame's timings fit the budget.
    fn fits(b: &FrameBudget, t: &StageTimings) -> bool {
        t.total_us() <= b.budget_us()
    }

    fn sample() -> StageTimings {
        StageTimings {
            segment_us: 100,
            component_us: 200,
            contour_us: 300,
            signature_us: 150,
            classify_us: 250,
        }
    }

    #[test]
    fn totals() {
        let t = sample();
        assert_eq!(t.total_us(), 1000);
        assert_eq!(t.total(), Duration::from_millis(1));
        assert!((t.fps_equivalent() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn zero_total_is_infinite_fps() {
        assert_eq!(StageTimings::default().fps_equivalent(), f64::INFINITY);
    }

    #[test]
    fn budgets() {
        let b30 = FrameBudget::thirty_fps();
        assert_eq!(b30.budget_us(), 33_333);
        let b60 = FrameBudget::sixty_fps();
        assert!(b60.budget_us() < b30.budget_us());
        let t = sample(); // 1 ms
        assert!(fits(&b30, &t));
        assert!(fits(&b60, &t));
    }

    #[test]
    fn over_budget_detected() {
        let slow = StageTimings {
            segment_us: 40_000,
            ..Default::default()
        };
        assert!(!fits(&FrameBudget::thirty_fps(), &slow));
        assert!(fits(&FrameBudget::from_fps(10.0), &slow));
    }

    #[test]
    #[should_panic(expected = "frame rate")]
    fn bad_fps_panics() {
        FrameBudget::from_fps(0.0);
    }

    #[test]
    fn display_mentions_fps() {
        let s = sample().to_string();
        assert!(s.contains("total 1000µs"));
        assert!(s.contains("fps"));
    }
}
