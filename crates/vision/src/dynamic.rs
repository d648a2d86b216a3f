//! Dynamic marshalling signals (the paper's future work, Section V).
//!
//! *"The flexibility of the system with respect to other static and,
//! possibly later, dynamic marshalling signals should also be examined."*
//!
//! This module adds the first dynamic signal: the aviation **wave-off**
//! (one arm sweeping repeatedly — *abort, go away*). The approach stays in
//! the paper's computational budget: per frame only two scalars are
//! extracted from the silhouette (bounding-box aspect ratio and the lateral
//! offset of the mass centroid within the box); the *temporal* series of
//! those scalars is what gets analysed — oscillation means waving, a flat
//! series means a held static sign.

use hdc_raster::{
    largest_component, largest_component_with, Bitmap, Component, Connectivity, LabelScratch,
};
use std::collections::VecDeque;

/// Per-frame scalar features of the silhouette.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameFeatures {
    /// Bounding-box width / height.
    pub aspect: f64,
    /// Centroid x within the bounding box, normalised to `[0, 1]`.
    pub centroid_x: f64,
}

impl FrameFeatures {
    /// The features of a frame's largest silhouette component; `None` for
    /// a degenerate (empty) box.
    ///
    /// This is how the negotiation loop reads the wave-off channel: it
    /// labels each frame once through
    /// [`crate::RecognitionPipeline::read_with`] and takes these features
    /// from that component, the one the static channel goes on to trace.
    pub fn of(comp: &Component) -> Option<FrameFeatures> {
        let w = comp.width() as f64;
        let h = comp.height() as f64;
        if h <= 0.0 || w <= 0.0 {
            return None;
        }
        Some(FrameFeatures {
            aspect: w / h,
            centroid_x: ((comp.centroid.x - comp.bbox.0 as f64) / w).clamp(0.0, 1.0),
        })
    }
}

/// Extracts the dynamic-gesture features from a frame's mask.
///
/// Returns `None` when no usable blob exists.
///
/// Allocates labelling buffers per call; [`DynamicRecognizer::features`] is
/// the scratch-reusing equivalent.
pub fn frame_features(mask: &Bitmap) -> Option<FrameFeatures> {
    let (_, comp) = largest_component(mask, Connectivity::Eight)?;
    FrameFeatures::of(&comp)
}

/// Decision over a temporal window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynamicDecision {
    /// The wave-off gesture: repeated arm sweeps.
    WaveOff,
    /// A stable posture (hand off to the static-sign pipeline).
    StaticHold,
    /// Not enough evidence either way.
    Inconclusive,
}

/// Configuration of the dynamic recogniser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// Analysis window length, seconds.
    pub window_s: f64,
    /// Minimum oscillation cycles within the window to call a wave.
    pub min_cycles: usize,
    /// Minimum peak-to-peak aspect amplitude for a cycle to count.
    pub min_amplitude: f64,
    /// Maximum aspect standard deviation for a *static* hold.
    pub static_max_sd: f64,
    /// Minimum frames in the window before deciding anything.
    pub min_frames: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            window_s: 3.0,
            min_cycles: 2,
            min_amplitude: 0.12,
            static_max_sd: 0.03,
            min_frames: 8,
        }
    }
}

/// Sliding-window recogniser for dynamic gestures.
///
/// Feed timestamped masks with [`DynamicRecognizer::push`]; query with
/// [`DynamicRecognizer::decision`].
///
/// # Example
/// ```
/// use hdc_vision::dynamic::{DynamicConfig, DynamicDecision, DynamicRecognizer};
/// use hdc_figure::{render_pose, Pose, ViewSpec};
/// use hdc_raster::threshold::binarize;
///
/// let mut rec = DynamicRecognizer::new(DynamicConfig::default());
/// let view = ViewSpec::paper_default(0.0, 5.0, 3.0);
/// for i in 0..30 {
///     let t = i as f64 * 0.1;
///     let frame = render_pose(Pose::wave_off_phase(t), &view); // 1 Hz wave
///     rec.push(t, &binarize(&frame, 128));
/// }
/// assert_eq!(rec.decision(), DynamicDecision::WaveOff);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicRecognizer {
    config: DynamicConfig,
    window: VecDeque<(f64, FrameFeatures)>,
    /// Largest-component output mask, reused across frames.
    blob: Bitmap,
    /// Component-labelling buffers, reused across frames.
    label: LabelScratch,
    /// Aspect series of the window, rebuilt (without reallocating) per
    /// decision.
    aspects: Vec<f64>,
}

impl DynamicRecognizer {
    /// Creates an empty recogniser.
    pub fn new(config: DynamicConfig) -> Self {
        DynamicRecognizer {
            config,
            window: VecDeque::new(),
            blob: Bitmap::new(1, 1),
            label: LabelScratch::new(),
            aspects: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// Number of frames currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Clears the window (e.g. when the negotiation partner changes).
    pub fn reset(&mut self) {
        self.window.clear();
    }

    /// Pushes a timestamped frame; frames older than the window fall out.
    ///
    /// Returns whether usable features were extracted. Equivalent to
    /// `push_features(t, features(mask))`.
    ///
    /// Labelling runs through the recogniser's reused scratch buffers, so
    /// once the window and buffers have reached their high-water marks the
    /// per-frame loop performs no heap allocation (pinned by the
    /// `zero_alloc_dynamic` test).
    pub fn push(&mut self, t: f64, mask: &Bitmap) -> bool {
        let f = self.features(mask);
        self.push_features(t, f)
    }

    /// Extracts the frame's features through the recogniser's reused
    /// labelling buffers — [`frame_features`] without the per-call
    /// allocation. Leaves the window untouched.
    ///
    /// This is the [`DynamicRecognizer::push`] path, for callers holding a
    /// byte mask. The buffers grow to frame size on first use, so a caller
    /// that already labels its frames elsewhere (the negotiation loop reads
    /// [`FrameFeatures::of`] off the static channel's component and calls
    /// [`DynamicRecognizer::push_features`]) never pays for them.
    pub fn features(&mut self, mask: &Bitmap) -> Option<FrameFeatures> {
        let comp =
            largest_component_with(mask, Connectivity::Eight, &mut self.blob, &mut self.label);
        comp.as_ref().and_then(FrameFeatures::of)
    }

    /// Pushes features already extracted from a timestamped frame (a caller
    /// that has seen an identical frame before reuses its features instead
    /// of labelling the mask again). `None` — no usable blob — leaves the
    /// window untouched, exactly as [`DynamicRecognizer::push`] does.
    ///
    /// Returns whether features were pushed.
    pub fn push_features(&mut self, t: f64, features: Option<FrameFeatures>) -> bool {
        let Some(f) = features else {
            return false;
        };
        self.window.push_back((t, f));
        while let Some((t0, _)) = self.window.front() {
            if t - t0 > self.config.window_s {
                self.window.pop_front();
            } else {
                break;
            }
        }
        true
    }

    /// Counts alternating excursions beyond ±`half_amp` around the mean.
    fn cycles(values: &[f64], half_amp: f64) -> usize {
        if values.is_empty() {
            return 0;
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let mut crossings = 0usize;
        let mut state = 0i8;
        for v in values {
            let s = if v - mean > half_amp {
                1
            } else if v - mean < -half_amp {
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

    /// The decision over the current window.
    ///
    /// Takes `&mut self` only to reuse the internal aspect buffer (the
    /// window itself is not modified), keeping repeated decisions
    /// allocation-free in steady state.
    pub fn decision(&mut self) -> DynamicDecision {
        if self.window.len() < self.config.min_frames {
            return DynamicDecision::Inconclusive;
        }
        self.aspects.clear();
        self.aspects
            .extend(self.window.iter().map(|(_, f)| f.aspect));
        let aspects = &self.aspects;
        let mean = aspects.iter().sum::<f64>() / aspects.len() as f64;
        let sd = (aspects.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>()
            / aspects.len() as f64)
            .sqrt();
        let cycles = Self::cycles(aspects, self.config.min_amplitude / 2.0);
        if cycles >= self.config.min_cycles {
            return DynamicDecision::WaveOff;
        }
        if sd <= self.config.static_max_sd {
            return DynamicDecision::StaticHold;
        }
        DynamicDecision::Inconclusive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_figure::{render_pose, MarshallingSign, Pose, ViewSpec};
    use hdc_raster::threshold::binarize;

    fn mask_of(pose: Pose) -> Bitmap {
        let frame = render_pose(pose, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        binarize(&frame, 128)
    }

    #[test]
    fn features_extracted_from_figure() {
        let f = frame_features(&mask_of(Pose::neutral())).unwrap();
        assert!(f.aspect > 0.1 && f.aspect < 2.0, "aspect {}", f.aspect);
        assert!((0.2..=0.8).contains(&f.centroid_x));
        assert!(frame_features(&Bitmap::new(8, 8)).is_none());
    }

    #[test]
    fn wave_widens_and_narrows_the_box() {
        let wide = frame_features(&mask_of(Pose::wave_off_phase(0.0))).unwrap(); // arm horizontal-ish
        let tall = frame_features(&mask_of(Pose::wave_off_phase(0.25))).unwrap(); // arm overhead
        assert!(
            (wide.aspect - tall.aspect).abs() > 0.1,
            "sweep must modulate the aspect: {} vs {}",
            wide.aspect,
            tall.aspect
        );
    }

    #[test]
    fn wave_off_detected_at_one_hertz() {
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        for i in 0..30 {
            let t = i as f64 * 0.1;
            assert!(rec.push(t, &mask_of(Pose::wave_off_phase(t))));
        }
        assert_eq!(rec.decision(), DynamicDecision::WaveOff);
    }

    #[test]
    fn held_static_signs_read_as_static() {
        for sign in MarshallingSign::ALL {
            let mut rec = DynamicRecognizer::new(DynamicConfig::default());
            let pose = Pose::for_sign(sign);
            for i in 0..20 {
                rec.push(i as f64 * 0.1, &mask_of(pose));
            }
            assert_eq!(rec.decision(), DynamicDecision::StaticHold, "{sign}");
        }
    }

    #[test]
    fn too_few_frames_is_inconclusive() {
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        for i in 0..4 {
            rec.push(i as f64 * 0.1, &mask_of(Pose::neutral()));
        }
        assert_eq!(rec.decision(), DynamicDecision::Inconclusive);
        assert_eq!(rec.len(), 4);
        rec.reset();
        assert!(rec.is_empty());
    }

    #[test]
    fn slow_posture_change_is_not_a_wave() {
        // transitioning from neutral to Yes once is not an oscillation
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        let from = Pose::neutral();
        let to = Pose::for_sign(MarshallingSign::Yes);
        for i in 0..20 {
            let t = i as f64 * 0.1;
            rec.push(t, &mask_of(from.lerp(&to, (t / 2.0).min(1.0))));
        }
        assert_ne!(rec.decision(), DynamicDecision::WaveOff);
    }

    #[test]
    fn push_features_of_a_mask_is_push() {
        // a wave, a hold and a no-blob frame, interleaved: splitting push
        // into features + push_features must change nothing
        let empty = Bitmap::new(8, 8);
        let mut whole = DynamicRecognizer::new(DynamicConfig::default());
        let mut split = DynamicRecognizer::new(DynamicConfig::default());
        for i in 0..60 {
            let t = i as f64 * 0.1;
            let mask = match i % 7 {
                0 => empty.clone(),
                k if k < 4 => mask_of(Pose::wave_off_phase(t)),
                _ => mask_of(Pose::for_sign(MarshallingSign::Yes)),
            };
            let features = split.features(&mask);
            assert_eq!(features, frame_features(&mask), "frame {i}");
            assert_eq!(whole.push(t, &mask), split.push_features(t, features));
            assert_eq!(whole.window, split.window, "frame {i}");
            assert_eq!(whole.decision(), split.decision(), "frame {i}");
        }
    }

    #[test]
    fn window_slides() {
        let mut rec = DynamicRecognizer::new(DynamicConfig::default());
        // wave for 3 s, then hold still for 4 s: the wave must age out
        for i in 0..30 {
            let t = i as f64 * 0.1;
            rec.push(t, &mask_of(Pose::wave_off_phase(t)));
        }
        assert_eq!(rec.decision(), DynamicDecision::WaveOff);
        for i in 30..75 {
            let t = i as f64 * 0.1;
            rec.push(t, &mask_of(Pose::for_sign(MarshallingSign::No)));
        }
        assert_eq!(rec.decision(), DynamicDecision::StaticHold);
    }
}
