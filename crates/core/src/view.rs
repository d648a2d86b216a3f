//! Per-view memoisation, the one-pass view read, and calibrate-once for the
//! negotiation loop.
//!
//! The paper's protocol is built on *held* signs answered by a hovering
//! drone, so most camera frames repeat the previous one exactly.
//! [`paint_view`] is a pure function of the signaller (position,
//! heading, pose, body dimensions) and the eye position: the intrinsics are
//! fixed and the camera aims at the signaller's chest. Two views whose
//! inputs agree bit for bit ([`ViewKey`]) are therefore byte-identical
//! frames, with identical masks, wave-off features and static decisions.
//! A [`ViewMemo`] remembers the last view's inputs and those two results —
//! never its pixels — so a repeated view skips render, binarise, labelling
//! and recognition, and its results flow through exactly the code a fresh
//! frame's would.
//!
//! A memo miss (a view whose inputs changed — the frames where a sign
//! changes) reads the view once, and never as a grey frame. The silhouette
//! is pure 0/255 and the loop segments at `Fixed(128)`, so its segmented
//! mask is just its foreground: [`paint_view_mask`] rasterises the
//! signaller's row spans straight into one per-thread packed mask, and
//! [`RecognitionPipeline::read_mask_with`] labels it through one
//! per-thread [`FrameScratch`]. The wave-off channel takes its
//! [`FrameFeatures`] from the largest component, and the static channel
//! (when asked) traces that same blob to its decision. That component is
//! bit-identical to the one the wave-off detector would label in
//! `binarize(paint_view(..), 128)`, so nothing is rendered or read twice.
//! A faulted owner frame, which the fault layer may have rewritten, is
//! still a grey frame ([`paint_view`]); [`ViewRead::frame`] segments and
//! reads it through the same per-thread scratch.
//!
//! Memory: the mask and scratch are per thread, not per session, so
//! resident memory does not grow with the number of live sessions, and the
//! miss path holds no grey frame at all. A silhouette that is one
//! component is traced where it was rasterised, so the scratch never grows
//! a second frame-sized blob for it: each pool worker's thread keeps one
//! packed mask, not two. Each camera keeps only its
//! [`ViewMemo`] — a key and two small results — and a
//! [`DynamicRecognizer`](hdc_vision::dynamic::DynamicRecognizer) whose
//! labelling buffers stay empty, because the loop never hands it a mask.
//!
//! Calibration is just as pure in its [`ViewSpec`]:
//! [`calibrated_pipeline`] calibrates each spec once per process and shares
//! the result with every thread, so building a session, on any worker, no
//! longer re-renders the enrolment views.

use hdc_figure::{paint_signaller, paint_silhouette, BodyDimensions, Pose, Signaller, ViewSpec};
use hdc_geometry::{CameraIntrinsics, PinholeCamera, Vec3};
use hdc_raster::{BitMask, GrayImage};
use hdc_vision::dynamic::FrameFeatures;
use hdc_vision::{FrameRead, FrameScratch, PipelineConfig, RecognitionPipeline};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, PoisonError};

/// The loop's camera: 640×480, 640 px focal length, at `eye`, aimed at the
/// signaller's chest.
fn view_camera(signaller: &Signaller, eye: Vec3) -> PinholeCamera {
    PinholeCamera::look_at(
        eye,
        signaller.chest(),
        CameraIntrinsics::new(640, 480, 640.0),
    )
}

/// Paints `signaller` as seen from `eye` by the loop's camera into `frame`,
/// which is re-dimensioned and cleared first — so a reused frame holds
/// exactly what a fresh render would.
pub fn paint_view(signaller: &Signaller, eye: Vec3, frame: &mut GrayImage) {
    let camera = view_camera(signaller, eye);
    let intrinsics = camera.intrinsics();
    frame.reset_dimensions(intrinsics.width(), intrinsics.height());
    frame.fill(0);
    paint_signaller(signaller, &camera, frame);
}

/// Rasterises the silhouette [`paint_view`] would paint straight into
/// `mask`, re-dimensioned and cleared first: bit for bit the packed
/// `binarize(paint_view(..), 128)`, with no frame in between.
pub fn paint_view_mask(signaller: &Signaller, eye: Vec3, mask: &mut BitMask) {
    let camera = view_camera(signaller, eye);
    let intrinsics = camera.intrinsics();
    mask.reset_dimensions(intrinsics.width(), intrinsics.height());
    mask.fill(false);
    paint_silhouette(signaller, &camera, mask);
}

/// [`paint_view`] into a fresh frame — the form a fault layer, which may
/// keep or rewrite the frame, is handed.
pub(crate) fn render_view(signaller: &Signaller, eye: Vec3) -> GrayImage {
    let mut frame = GrayImage::new(1, 1);
    paint_view(signaller, eye, &mut frame);
    frame
}

/// The buffers a view read runs through, one set per thread.
struct ViewScratch {
    /// The packed silhouette a memo miss is rasterised into.
    mask: BitMask,
    /// Segmentation, labelling and recognition buffers.
    recognition: FrameScratch,
}

thread_local! {
    static VIEW_SCRATCH: RefCell<ViewScratch> = RefCell::new(ViewScratch {
        mask: BitMask::new(1, 1),
        recognition: FrameScratch::new(),
    });
}

/// The exact render inputs of one camera view, compared bit for bit
/// (`f64::to_bits`), so `-0.0` and `0.0`, or two NaN payloads, never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ViewKey([u64; 22]);

impl ViewKey {
    /// The key of `signaller` seen from `eye` through the loop's camera.
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
pub struct ViewRead {
    /// The wave-off channel's features of the frame's largest silhouette
    /// component; `None` when the frame has no foreground.
    pub features: Option<FrameFeatures>,
    /// The static channel's decision, when the reader needed it.
    pub decision: Option<Option<String>>,
}

impl ViewRead {
    /// Reads one delivered frame through the per-thread scratch: the
    /// features of its largest silhouette component and, if
    /// `needs_decision`, its static decision — one labelling for both.
    pub fn frame(frame: &GrayImage, pipeline: &RecognitionPipeline, needs_decision: bool) -> Self {
        VIEW_SCRATCH.with(|scratch| {
            let recognition = &mut scratch.borrow_mut().recognition;
            Self::of(pipeline.read_with(recognition, frame, needs_decision))
        })
    }

    /// Reads a rasterised silhouette mask ([`paint_view_mask`]) through the
    /// per-thread scratch: [`ViewRead::frame`] of the frame it is the
    /// foreground of.
    ///
    /// # Panics
    /// Panics unless `pipeline` has the loop's segmentation (see
    /// [`RecognitionPipeline::read_mask_with`]).
    pub fn mask(mask: &BitMask, pipeline: &RecognitionPipeline, needs_decision: bool) -> Self {
        VIEW_SCRATCH.with(|scratch| {
            let recognition = &mut scratch.borrow_mut().recognition;
            Self::of(pipeline.read_mask_with(recognition, mask, needs_decision))
        })
    }

    /// Rasterises `signaller` as seen from `eye` into the per-thread mask
    /// and reads it there: [`ViewRead::frame`] of [`paint_view`]'s frame,
    /// without the frame. This is the memo-miss path.
    ///
    /// # Panics
    /// Panics unless `pipeline` has the loop's segmentation (see
    /// [`RecognitionPipeline::read_mask_with`]).
    pub fn view(
        signaller: &Signaller,
        eye: Vec3,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> Self {
        VIEW_SCRATCH.with(|scratch| {
            let ViewScratch { mask, recognition } = &mut *scratch.borrow_mut();
            paint_view_mask(signaller, eye, mask);
            Self::of(pipeline.read_mask_with(recognition, mask, needs_decision))
        })
    }

    /// What both channels take from one labelling.
    fn of(read: FrameRead<'_>) -> Self {
        ViewRead {
            features: read.component.as_ref().and_then(FrameFeatures::of),
            decision: read.result.map(|r| r.decision.map(str::to_owned)),
        }
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
    /// static decision was read; otherwise rasterised into the per-thread
    /// mask, read once through `pipeline`, and remembered.
    pub fn view(
        &mut self,
        signaller: &Signaller,
        eye: Vec3,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> ViewRead {
        let key = ViewKey::of(signaller, eye);
        if let Some(read) = self.lookup(key, needs_decision) {
            return read;
        }
        let read = ViewRead::view(signaller, eye, pipeline, needs_decision);
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

/// Calibrated pipelines the process keeps, at most — far more geometries
/// than any one farm or sweep uses at a time.
const CALIBRATED_CAPACITY: usize = 16;

/// The process's calibrated pipelines, keyed by the exact bits of their
/// view spec.
type CalibrationCache = Vec<([u64; 6], Arc<RecognitionPipeline>)>;

static CALIBRATED: Mutex<CalibrationCache> = Mutex::new(Vec::new());

/// A default-configured pipeline calibrated from `canonical`'s views.
///
/// Calibration renders and enrols every sign and is pure in its view spec,
/// so the process calibrates a spec once (keyed by its exact bits) and
/// every thread shares the result: a pool worker building sessions does not
/// calibrate again. The lock is held across a calibration, so two threads
/// asking for the same new spec still calibrate it once.
pub(crate) fn calibrated_pipeline(canonical: &ViewSpec) -> Arc<RecognitionPipeline> {
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
    // a panic mid-calibration pushes nothing, so a poisoned cache is whole
    let mut cache = CALIBRATED.lock().unwrap_or_else(PoisonError::into_inner);
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
        let mut memo = ViewMemo::default();
        let view = |memo: &mut ViewMemo, eye: Vec3, needs_decision: bool| {
            memo.view(&s, eye, &pipeline, needs_decision)
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
    fn calibrated_config_lets_one_labelling_serve_both_channels() {
        // The wave-off features are defined on `binarize(frame, 128)`; the
        // shared read takes them from the pipeline's own mask, which is that
        // mask only under a fixed 128 threshold with no opening.
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.0, 3.0));
        assert_eq!(
            pipeline.config().segmentation,
            hdc_vision::SegmentationMode::Fixed(128)
        );
        assert!(!pipeline.config().denoise);
    }

    #[test]
    fn calibration_is_shared_per_spec() {
        let spec = ViewSpec::paper_default(0.0, 4.0, 3.0);
        let a = calibrated_pipeline(&spec);
        let b = calibrated_pipeline(&spec);
        assert!(Arc::ptr_eq(&a, &b), "one calibration per spec");
        let c = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.5, 3.0));
        assert!(!Arc::ptr_eq(&a, &c));
        let mut fresh = RecognitionPipeline::new(PipelineConfig::default());
        fresh.calibrate_from_views(&spec);
        assert_eq!(a.config(), fresh.config());
        assert_eq!(a.template_count(), fresh.template_count());
    }
}
