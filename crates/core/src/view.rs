//! Per-view memoisation and calibrate-once for the negotiation loop.
//!
//! The paper's protocol is built on *held* signs answered by a hovering
//! drone, so most camera frames repeat the previous one exactly.
//! [`render_signaller`] is a pure function of the signaller (position,
//! heading, pose, body dimensions) and the eye position: the intrinsics are
//! fixed and the camera aims at the signaller's chest. Two views whose
//! inputs agree bit for bit ([`ViewKey`]) are therefore byte-identical
//! frames, with identical masks, wave-off features and static decisions.
//! A [`ViewMemo`] remembers the last view's inputs and those two results —
//! never its pixels — so a repeated view skips render, binarise, labelling
//! and recognition, and its results flow through exactly the code a fresh
//! frame's would.
//!
//! Calibration is just as pure in its [`ViewSpec`]:
//! [`calibrated_pipeline`] calibrates each spec once per thread and shares
//! the result, so building a session no longer re-renders the enrolment
//! views.

use hdc_figure::{render_signaller, BodyDimensions, Pose, Signaller, ViewSpec};
use hdc_geometry::{CameraIntrinsics, PinholeCamera, Vec3};
use hdc_raster::GrayImage;
use hdc_vision::dynamic::{DynamicRecognizer, FrameFeatures};
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use std::cell::RefCell;
use std::sync::Arc;

/// The camera every drone of the loop carries.
fn loop_intrinsics() -> CameraIntrinsics {
    CameraIntrinsics::new(640, 480, 640.0)
}

/// Renders `signaller` as seen from `eye` by the loop's camera, aimed at
/// the signaller's chest.
pub(crate) fn render_view(signaller: &Signaller, eye: Vec3) -> GrayImage {
    let camera = PinholeCamera::look_at(eye, signaller.chest(), loop_intrinsics());
    render_signaller(signaller, &camera)
}

/// The exact render inputs of one camera view, compared bit for bit
/// (`f64::to_bits`), so `-0.0` and `0.0`, or two NaN payloads, never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewKey([u64; 22]);

impl ViewKey {
    /// The key of `signaller` seen from `eye` through [`loop_intrinsics`].
    fn of(signaller: &Signaller, eye: Vec3) -> Self {
        // exhaustive destructuring: a new pose or body field must join the key
        let Pose {
            left_abduction,
            left_flexion,
            right_abduction,
            right_flexion,
            stance_half_width,
        } = *signaller.pose();
        let BodyDimensions {
            hip_height,
            shoulder_height,
            shoulder_half_width,
            hip_half_width,
            head_height,
            head_radius,
            upper_arm,
            forearm,
            torso_radius,
            arm_radius,
            leg_radius,
        } = *signaller.dimensions();
        let position = signaller.position();
        ViewKey(
            [
                position.x,
                position.y,
                signaller.heading(),
                left_abduction,
                left_flexion,
                right_abduction,
                right_flexion,
                stance_half_width,
                hip_height,
                shoulder_height,
                shoulder_half_width,
                hip_half_width,
                head_height,
                head_radius,
                upper_arm,
                forearm,
                torso_radius,
                arm_radius,
                leg_radius,
                eye.x,
                eye.y,
                eye.z,
            ]
            .map(f64::to_bits),
        )
    }
}

/// What one camera view yields for the two recognition channels.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ViewRead {
    /// The wave-off channel's features of the frame's mask.
    pub features: Option<FrameFeatures>,
    /// The static channel's decision, when the reader needed it.
    pub decision: Option<Option<String>>,
}

impl ViewRead {
    /// Reads one delivered frame: the features of its binarised mask and,
    /// if `needs_decision`, its static decision.
    pub fn frame(
        frame: &GrayImage,
        dynamic: &mut DynamicRecognizer,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> Self {
        let features = dynamic.features(&hdc_raster::threshold::binarize(frame, 128));
        let decision = needs_decision.then(|| pipeline.recognize(frame).decision);
        ViewRead { features, decision }
    }
}

/// The last view one camera saw, and how often a view was served from it.
#[derive(Debug, Default)]
pub(crate) struct ViewMemo {
    last: Option<(ViewKey, ViewRead)>,
    reused: u64,
}

impl ViewMemo {
    /// The read of `signaller` seen from `eye`. Served from the memo when
    /// the last view had exactly these inputs and (if `needs_decision`) its
    /// static decision was read; otherwise rendered, read through `dynamic`
    /// and `pipeline`, and remembered.
    pub fn view(
        &mut self,
        signaller: &Signaller,
        eye: Vec3,
        dynamic: &mut DynamicRecognizer,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> ViewRead {
        let key = ViewKey::of(signaller, eye);
        if let Some(read) = self.lookup(key, needs_decision) {
            return read;
        }
        let read = ViewRead::frame(
            &render_view(signaller, eye),
            dynamic,
            pipeline,
            needs_decision,
        );
        self.last = Some((key, read.clone()));
        read
    }

    /// The remembered read of `key`, counting the reuse.
    fn lookup(&mut self, key: ViewKey, needs_decision: bool) -> Option<ViewRead> {
        match &self.last {
            Some((k, read)) if *k == key && (!needs_decision || read.decision.is_some()) => {
                self.reused += 1;
                Some(read.clone())
            }
            _ => None,
        }
    }

    /// Views served from the memo so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

/// Calibrated pipelines this thread keeps, at most — far more geometries
/// than any one farm or sweep uses at a time.
const CALIBRATED_CAPACITY: usize = 16;

/// A default-configured pipeline calibrated from `canonical`'s views.
///
/// Calibration renders and enrols every sign and is pure in its view spec,
/// so each thread calibrates a spec once (keyed by its exact bits) and
/// shares the result.
pub(crate) fn calibrated_pipeline(canonical: &ViewSpec) -> Arc<RecognitionPipeline> {
    thread_local! {
        static CALIBRATED: RefCell<Vec<([u64; 6], Arc<RecognitionPipeline>)>> =
            const { RefCell::new(Vec::new()) };
    }
    let ViewSpec {
        azimuth_deg,
        altitude_m,
        distance_m,
        width,
        height,
        focal_px,
    } = *canonical;
    let key = [
        azimuth_deg.to_bits(),
        altitude_m.to_bits(),
        distance_m.to_bits(),
        u64::from(width),
        u64::from(height),
        focal_px.to_bits(),
    ];
    CALIBRATED.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some((_, pipeline)) = cache.iter().find(|(k, _)| *k == key) {
            return Arc::clone(pipeline);
        }
        let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
        pipeline.calibrate_from_views(canonical);
        let pipeline = Arc::new(pipeline);
        if cache.len() == CALIBRATED_CAPACITY {
            cache.remove(0);
        }
        cache.push((key, Arc::clone(&pipeline)));
        pipeline
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_figure::MarshallingSign;
    use hdc_geometry::Vec2;

    fn signaller() -> Signaller {
        Signaller::new(
            Vec2::new(12.0, 8.0),
            0.3,
            Pose::for_sign(MarshallingSign::Yes),
        )
    }

    #[test]
    fn keys_compare_bits_not_values() {
        let eye = Vec3::new(10.0, 6.0, 4.0);
        let s = signaller();
        assert_eq!(ViewKey::of(&s, eye), ViewKey::of(&s, eye));
        // -0.0 == 0.0 as floats, but they are different inputs
        let zero = Signaller::new(Vec2::new(0.0, 8.0), 0.3, *s.pose());
        let neg_zero = Signaller::new(Vec2::new(-0.0, 8.0), 0.3, *s.pose());
        assert_ne!(ViewKey::of(&zero, eye), ViewKey::of(&neg_zero, eye));
        // NaN != NaN as floats, but the same NaN is the same input
        let nan = Signaller::new(Vec2::new(12.0, 8.0), f64::NAN, *s.pose());
        assert_eq!(ViewKey::of(&nan, eye), ViewKey::of(&nan, eye));
        let moved = Vec3::new(10.0, 6.0, 4.0 + 1e-12);
        assert_ne!(ViewKey::of(&s, eye), ViewKey::of(&s, moved));
        let taller = signaller().with_dimensions(BodyDimensions::adult().scaled(1.1));
        assert_ne!(ViewKey::of(&s, eye), ViewKey::of(&taller, eye));
    }

    #[test]
    fn memo_serves_only_the_last_view_with_what_it_read() {
        // 3 m ahead of the signaller's face, at the negotiation altitude
        let eye = Vec3::new(12.0 + 3.0 * 0.3f64.cos(), 8.0 + 3.0 * 0.3f64.sin(), 4.0);
        let s = signaller();
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.0, 3.0));
        let mut dynamic = crate::session::session_dynamic_recognizer();
        let mut memo = ViewMemo::default();
        let mut view = |memo: &mut ViewMemo, eye: Vec3, needs_decision: bool| {
            memo.view(&s, eye, &mut dynamic, &pipeline, needs_decision)
        };

        let blind = view(&mut memo, eye, false);
        assert_eq!(blind.decision, None, "no decision was asked for");
        assert_eq!(memo.reused(), 0, "an empty memo misses");
        assert_eq!(view(&mut memo, eye, false), blind);
        assert_eq!(memo.reused(), 1);

        // the blind read carries no decision: asking for one re-reads
        let sighted = view(&mut memo, eye, true);
        assert_eq!(sighted.decision, Some(Some("Yes".to_owned())));
        assert_eq!(sighted.features, blind.features);
        assert_eq!(memo.reused(), 1);
        assert_eq!(view(&mut memo, eye, true), sighted);
        assert_eq!(view(&mut memo, eye, false), sighted);
        assert_eq!(memo.reused(), 3);

        // only the last view is remembered
        let aside = Vec3::new(eye.x, eye.y + 0.5, eye.z);
        view(&mut memo, aside, true);
        view(&mut memo, eye, true);
        assert_eq!(memo.reused(), 3);
    }

    #[test]
    fn calibration_is_shared_per_spec() {
        let spec = ViewSpec::paper_default(0.0, 4.0, 3.0);
        let a = calibrated_pipeline(&spec);
        let b = calibrated_pipeline(&spec);
        assert!(Arc::ptr_eq(&a, &b), "one calibration per spec per thread");
        let c = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.5, 3.0));
        assert!(!Arc::ptr_eq(&a, &c));
        let mut fresh = RecognitionPipeline::new(PipelineConfig::default());
        fresh.calibrate_from_views(&spec);
        assert_eq!(a.config(), fresh.config());
        assert_eq!(a.template_count(), fresh.template_count());
    }
}
