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
//! frame's would. The static decision is a [`MarshallingSign`]: a read
//! turns the pipeline's label into a sign once, so the memo, the shared
//! table, the debounce and the log hand on a `Copy` value, never a label.
//!
//! A memo miss (a view whose inputs changed — the frames where a sign
//! changes) reads the view once, and never as a grey frame. The silhouette
//! is pure 0/255 and the pipeline segments at
//! [`SEGMENTATION_THRESHOLD`](hdc_vision::SEGMENTATION_THRESHOLD) (128,
//! below 255), so its segmented mask is just its foreground:
//! [`paint_view_mask`] rasterises the
//! signaller's row spans straight into a [`ViewWorker`]'s packed mask, and
//! [`RecognitionPipeline::read_mask_with`] labels it through the worker's
//! [`FrameScratch`]. The wave-off channel takes its [`FrameFeatures`] from
//! the largest component, and the static channel (when asked) traces that
//! same blob to its decision. That component is bit-identical to the one
//! the wave-off detector would label in `binarize(paint_view(..), 128)`, so
//! nothing is rendered or read twice. A faulted owner frame, which the
//! fault layer may rewrite, is still a grey frame: [`paint_view`] paints it
//! into the worker's grey frame, reused from view to view, and it is read
//! through the same scratch.
//!
//! A view is a pure function of its key and of the calibration, so a read
//! is valid for every camera on the same calibrated pipeline, not only for
//! the camera that made it. A memo miss therefore first asks its worker's
//! table of reads, keyed on the view's inputs and the calibration spec's
//! bits, and only a miss there reads the view. Each camera's own memo
//! counts and remembers exactly as it would without the table, so only the
//! work changes. The worker is an argument of every read, never hidden
//! state: whoever runs a session decides which worker it reads through and
//! how long the worker's reads live (the session farm empties them per
//! farm call).
//!
//! Memory: the mask, the faulted path's grey frame and the scratch belong
//! to a worker, not a camera, so resident memory grows with the number of
//! workers, not of cameras, and the memo-miss path holds no grey frame at
//! all; the grey frame exists only in a worker that has read a faulted
//! owner view. A silhouette that is one component is traced where it was
//! rasterised, so the scratch never grows a second frame-sized blob for
//! it. A worker also keeps at most [`SHARED_CAPACITY`] reads (features and
//! a decision each, no pixels), emptied when full. Each camera keeps only
//! its [`ViewMemo`] — a key and two small results — and a
//! [`DynamicRecognizer`](hdc_vision::dynamic::DynamicRecognizer) whose
//! labelling buffers stay empty, because the loop never hands it a mask.
//!
//! Calibration is just as pure in its [`ViewSpec`]:
//! [`calibrated_pipeline`] calibrates each spec once per process and shares
//! the result with every thread, so building a session, on any worker, no
//! longer re-renders the enrolment views.

use crate::session::FrameFate;
use hdc_figure::{
    paint_signaller, paint_silhouette, BodyDimensions, MarshallingSign, Pose, Signaller, ViewSpec,
};
use hdc_geometry::{CameraIntrinsics, PinholeCamera, Vec3};
use hdc_raster::{BitMask, GrayImage};
use hdc_vision::dynamic::FrameFeatures;
use hdc_vision::{FrameRead, FrameScratch, PipelineConfig, RecognitionPipeline};
use std::collections::HashMap;
use std::ops::Deref;
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

/// The buffers and the table of reads that camera views are read through.
///
/// A worker is scratch, never input: every read through it equals the read
/// a fresh worker would make, so which worker serves a view — fresh, or one
/// that has read other sessions' views before — never changes a result,
/// only the work. It holds
/// - the packed mask a memo miss is rasterised into ([`ViewRead::view`]);
/// - the segmentation, labelling and recognition buffers ([`FrameScratch`]);
/// - the grey frame a faulted owner view is painted into, so a fault layer
///   can rewrite it;
/// - a table of at most `SHARED_CAPACITY` (256) reads, keyed on a view's inputs
///   and its calibration spec's bits, that every camera reading through
///   this worker asks before it reads a view (`ViewMemo::view`).
///
/// Every buffer starts empty and grows to frame size on first use. Its
/// `Debug` shows none of its contents, so a structure holding a worker
/// prints the same whatever the worker has read.
pub struct ViewWorker {
    mask: BitMask,
    recognition: FrameScratch,
    /// Painted only by a faulted owner view, so `None` until the first.
    frame: Option<GrayImage>,
    reads: HashMap<SharedKey, ViewRead>,
    /// Views served from the table, ever.
    hits: u64,
}

impl ViewWorker {
    /// A worker whose buffers and table are empty.
    pub fn new() -> Self {
        ViewWorker {
            mask: BitMask::new(1, 1),
            recognition: FrameScratch::new(),
            frame: None,
            reads: HashMap::new(),
            hits: 0,
        }
    }

    /// Views served from this worker's table of reads so far. Which views a
    /// worker serves depends on what it read before, so the count belongs
    /// with wall-time metrics, never with a session's results.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Empties the table of reads and keeps the buffers, so no read this
    /// worker stored serves the views that follow.
    pub fn forget_reads(&mut self) {
        self.reads.clear();
    }

    /// Paints `signaller` as seen from `eye` into this worker's grey frame,
    /// hands the frame to `fault`, which may rewrite it, and — unless
    /// `fault` drops it — reads what is left through `pipeline`, with its
    /// static decision. The faulted owner's path: no memo, no table.
    pub(crate) fn read_faulted(
        &mut self,
        signaller: &Signaller,
        eye: Vec3,
        pipeline: &RecognitionPipeline,
        fault: impl FnOnce(&mut GrayImage) -> FrameFate,
    ) -> (FrameFate, Option<ViewRead>) {
        let frame = self.frame.get_or_insert_with(|| GrayImage::new(1, 1));
        paint_view(signaller, eye, frame);
        let fate = fault(frame);
        let read = (fate != FrameFate::Drop)
            .then(|| ViewRead::of(pipeline.read_with(&mut self.recognition, frame, true)));
        (fate, read)
    }

    /// The stored read of `key`, as a fresh [`ViewRead::view`] with this
    /// `needs_decision` would return it: a sighted read serves a blind
    /// request without its decision, and a blind one never serves a
    /// sighted request.
    fn stored(&mut self, key: &SharedKey, needs_decision: bool) -> Option<ViewRead> {
        let stored = self.reads.get(key)?;
        if needs_decision && stored.decision.is_none() {
            return None;
        }
        self.hits += 1;
        Some(ViewRead {
            features: stored.features,
            decision: stored.decision.filter(|_| needs_decision),
        })
    }

    /// Stores a fresh read of `key` (a sighted read replaces a blind one);
    /// [`ViewWorker::stored`] has already missed it. A full table is
    /// emptied first.
    fn store(&mut self, key: SharedKey, read: ViewRead) {
        if self.reads.len() == SHARED_CAPACITY {
            self.reads.clear();
        }
        self.reads.insert(key, read);
    }
}

impl Default for ViewWorker {
    fn default() -> Self {
        ViewWorker::new()
    }
}

impl std::fmt::Debug for ViewWorker {
    /// Nothing of the contents: they are scratch and a cache, never state.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewWorker").finish_non_exhaustive()
    }
}

/// The exact render inputs of one camera view, compared bit for bit
/// (`f64::to_bits`), so `-0.0` and `0.0`, or two NaN payloads, never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
///
/// A read is plain data (`Copy`), so the memo, the shared table and every
/// camera hand it on without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewRead {
    /// The wave-off channel's features of the frame's largest silhouette
    /// component; `None` when the frame has no foreground.
    pub features: Option<FrameFeatures>,
    /// The static channel's decision — a recognised sign, or `None` when
    /// the frame was rejected — when the reader needed it.
    pub decision: Option<Option<MarshallingSign>>,
}

impl ViewRead {
    /// Reads one delivered frame through `worker`'s scratch: the features
    /// of its largest silhouette component and, if `needs_decision`, its
    /// static decision — one labelling for both.
    pub fn frame(
        worker: &mut ViewWorker,
        frame: &GrayImage,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> Self {
        Self::of(pipeline.read_with(&mut worker.recognition, frame, needs_decision))
    }

    /// Reads a rasterised silhouette mask ([`paint_view_mask`]) through
    /// `worker`'s scratch: [`ViewRead::frame`] of the frame it is the
    /// foreground of.
    pub fn mask(
        worker: &mut ViewWorker,
        mask: &BitMask,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> Self {
        Self::of(pipeline.read_mask_with(&mut worker.recognition, mask, needs_decision))
    }

    /// Rasterises `signaller` as seen from `eye` into `worker`'s mask and
    /// reads it there: [`ViewRead::frame`] of [`paint_view`]'s frame,
    /// without the frame. This is the memo-miss path.
    pub fn view(
        worker: &mut ViewWorker,
        signaller: &Signaller,
        eye: Vec3,
        pipeline: &RecognitionPipeline,
        needs_decision: bool,
    ) -> Self {
        let ViewWorker {
            mask, recognition, ..
        } = worker;
        paint_view_mask(signaller, eye, mask);
        Self::of(pipeline.read_mask_with(recognition, mask, needs_decision))
    }

    /// What both channels take from one labelling: the one place a
    /// pipeline label becomes a [`MarshallingSign`]. The loop's pipelines
    /// are calibrated on the signs' own views, so every label names one.
    fn of(read: FrameRead<'_>) -> Self {
        let sign = |label| MarshallingSign::from_label(label).expect("a sign's label");
        ViewRead {
            features: read.component.as_ref().and_then(FrameFeatures::of),
            decision: read.result.map(|r| r.decision.map(sign)),
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
    /// static decision was read; otherwise served from `worker`'s table
    /// when it holds the view, or rasterised into `worker`'s mask and read
    /// once through `pipeline`, and stored in the table. Either way the
    /// memo remembers it.
    pub fn view(
        &mut self,
        worker: &mut ViewWorker,
        signaller: &Signaller,
        eye: Vec3,
        pipeline: &Calibrated,
        needs_decision: bool,
    ) -> ViewRead {
        let key = ViewKey::of(signaller, eye);
        if let Some(read) = self.lookup(key, needs_decision) {
            return read;
        }
        let shared = (key, pipeline.spec);
        let read = worker.stored(&shared, needs_decision).unwrap_or_else(|| {
            let read = ViewRead::view(worker, signaller, eye, pipeline, needs_decision);
            worker.store(shared, read);
            read
        });
        self.last = Some((key, read));
        read
    }

    /// The remembered read of `key`, counting the reuse.
    fn lookup(&mut self, key: ViewKey, needs_decision: bool) -> Option<ViewRead> {
        match &self.last {
            Some((k, read)) if *k == key && (!needs_decision || read.decision.is_some()) => {
                self.reused += 1;
                Some(*read)
            }
            _ => None,
        }
    }

    /// Views served from the memo so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

/// Reads a worker's table holds, at most; a full table is emptied. A
/// 25-session farm of perfbench's `farm_mixed` misses its cameras' memos
/// about 120 times, so the table rarely fills within one farm.
const SHARED_CAPACITY: usize = 256;

/// A view's inputs and the bits of the spec its pipeline was calibrated
/// from: everything its read depends on.
type SharedKey = (ViewKey, SpecBits);

/// Calibrated pipelines the process keeps, at most — far more geometries
/// than any one farm or sweep uses at a time.
const CALIBRATED_CAPACITY: usize = 16;

/// The exact bits of a [`ViewSpec`].
type SpecBits = [u64; 6];

/// A pipeline calibrated from a view spec, and that spec's bits.
#[derive(Clone)]
pub(crate) struct Calibrated {
    spec: SpecBits,
    pipeline: Arc<RecognitionPipeline>,
}

impl Deref for Calibrated {
    type Target = RecognitionPipeline;

    fn deref(&self) -> &RecognitionPipeline {
        &self.pipeline
    }
}

impl std::fmt::Debug for Calibrated {
    /// The spec's bits only: the pipeline is a pure function of them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calibrated")
            .field("spec", &self.spec)
            .finish_non_exhaustive()
    }
}

/// The process's calibrated pipelines.
static CALIBRATED: Mutex<Vec<Calibrated>> = Mutex::new(Vec::new());

/// A default-configured pipeline calibrated from `canonical`'s views.
///
/// Calibration renders and enrols every sign and is pure in its view spec,
/// so the process calibrates a spec once (keyed by its exact bits) and
/// every thread shares the result: a pool worker building sessions does not
/// calibrate again. The lock is held across a calibration, so two threads
/// asking for the same new spec still calibrate it once.
pub(crate) fn calibrated_pipeline(canonical: &ViewSpec) -> Calibrated {
    let ViewSpec {
        azimuth_deg,
        altitude_m,
        distance_m,
        width,
        height,
        focal_px,
    } = *canonical;
    let spec = [
        azimuth_deg.to_bits(),
        altitude_m.to_bits(),
        distance_m.to_bits(),
        u64::from(width),
        u64::from(height),
        focal_px.to_bits(),
    ];
    // a panic mid-calibration pushes nothing, so a poisoned cache is whole
    let mut cache = CALIBRATED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(calibrated) = cache.iter().find(|c| c.spec == spec) {
        return calibrated.clone();
    }
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(canonical);
    let calibrated = Calibrated {
        spec,
        pipeline: Arc::new(pipeline),
    };
    if cache.len() == CALIBRATED_CAPACITY {
        cache.remove(0);
    }
    cache.push(calibrated.clone());
    calibrated
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut worker = ViewWorker::new();
        let mut memo = ViewMemo::default();
        let mut view = |memo: &mut ViewMemo, eye: Vec3, needs_decision: bool| {
            memo.view(&mut worker, &s, eye, &pipeline, needs_decision)
        };

        let blind = view(&mut memo, eye, false);
        assert_eq!(blind.decision, None, "no decision was asked for");
        assert_eq!(memo.reused(), 0, "an empty memo misses");
        assert_eq!(view(&mut memo, eye, false), blind);
        assert_eq!(memo.reused(), 1);

        // the blind read carries no decision: asking for one re-reads
        let sighted = view(&mut memo, eye, true);
        assert_eq!(sighted.decision, Some(Some(MarshallingSign::Yes)));
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
    fn shared_reads_serve_other_cameras_until_forgotten() {
        let eye = Vec3::new(12.0 + 3.0 * 0.3f64.cos(), 8.0 + 3.0 * 0.3f64.sin(), 4.0);
        let s = signaller();
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.0, 3.0));
        let other = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.5, 3.0));
        let (mut worker, mut fresh) = (ViewWorker::new(), ViewWorker::new());
        // each read comes from a camera that has never seen the view
        let mut view = |pipeline: &Calibrated, needs_decision: bool| {
            ViewMemo::default().view(&mut worker, &s, eye, pipeline, needs_decision)
        };

        let blind = view(&pipeline, false);
        assert_eq!(blind, ViewRead::view(&mut fresh, &s, eye, &pipeline, false));
        // a blind read never serves a sighted request
        let sighted = view(&pipeline, true);
        assert_eq!(
            sighted,
            ViewRead::view(&mut fresh, &s, eye, &pipeline, true)
        );
        // the sighted read replaced it and serves both, each as fresh
        assert_eq!(view(&pipeline, true), sighted);
        assert_eq!(view(&pipeline, false), blind);
        // another calibration spec is another key
        view(&other, false);
        assert_eq!(worker.hits(), 2);
        assert_eq!(fresh.hits(), 0, "a direct read never asks the table");

        // a forgotten table serves nothing, and the count goes on
        worker.forget_reads();
        ViewMemo::default().view(&mut worker, &s, eye, &pipeline, true);
        assert_eq!(worker.hits(), 2);
        ViewMemo::default().view(&mut worker, &s, eye, &pipeline, true);
        assert_eq!(worker.hits(), 3);
    }

    #[test]
    fn shared_reads_equal_fresh_reads_in_any_order_of_requests() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let specs = [
            calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.0, 3.0)),
            calibrated_pipeline(&ViewSpec::paper_default(0.0, 5.0, 3.0)),
        ];
        let poses = [
            Pose::neutral(),
            Pose::for_sign(MarshallingSign::Yes),
            Pose::for_sign(MarshallingSign::No),
        ];
        let eyes = [Vec3::new(15.0, 8.0, 4.0), Vec3::new(12.0, 11.0, 5.0)];
        let mut cameras: [ViewMemo; 3] = Default::default();
        let (mut worker, mut fresh, mut served) = (ViewWorker::new(), ViewWorker::new(), 0);
        for _ in 0..200 {
            let s = Signaller::new(
                Vec2::new(12.0, 8.0),
                0.3,
                poses[rng.gen_range(0..poses.len())],
            );
            let eye = eyes[rng.gen_range(0..eyes.len())];
            let pipeline = &specs[rng.gen_range(0..specs.len())];
            let needs_decision = rng.gen::<bool>();
            let camera = &mut cameras[rng.gen_range(0..3)];
            let (before, reused) = (worker.hits(), camera.reused());
            let read = camera.view(&mut worker, &s, eye, pipeline, needs_decision);
            let expected = ViewRead::view(&mut fresh, &s, eye, pipeline, needs_decision);
            if camera.reused() > reused {
                // the camera's own last read, which may carry a decision
                // nobody asked for
                assert_eq!(read.features, expected.features);
                assert!(!needs_decision || read.decision == expected.decision);
            } else {
                served += worker.hits() - before;
                assert_eq!(read, expected);
            }
        }
        assert_eq!(worker.hits(), served);
        assert!(served > 10, "only {served} reads came from the table");
    }

    #[test]
    fn a_full_table_is_emptied() {
        let blind = ViewRead {
            features: None,
            decision: None,
        };
        let mut worker = ViewWorker::new();
        for i in 0..=SHARED_CAPACITY as u64 {
            worker.store((ViewKey([i; 22]), [0; 6]), blind);
        }
        assert_eq!(worker.reads.len(), 1);
        assert_eq!(worker.stored(&(ViewKey([0; 22]), [0; 6]), false), None);
        let last = (ViewKey([SHARED_CAPACITY as u64; 22]), [0; 6]);
        assert_eq!(worker.stored(&last, false), Some(blind));
    }

    #[test]
    fn a_worker_prints_none_of_its_contents() {
        let mut worker = ViewWorker::new();
        let before = format!("{worker:?}");
        let pipeline = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.0, 3.0));
        let eye = Vec3::new(15.0, 8.0, 4.0);
        ViewMemo::default().view(&mut worker, &signaller(), eye, &pipeline, true);
        assert_eq!(format!("{worker:?}"), before);
    }

    #[test]
    fn calibrated_config_lets_one_labelling_serve_both_channels() {
        // The wave-off features are defined on `binarize(frame, 128)`; the
        // shared read takes them from the pipeline's own mask, which is that
        // mask only because the pipeline segments at 128 too.
        assert_eq!(hdc_vision::SEGMENTATION_THRESHOLD, 128);
    }

    #[test]
    fn calibration_is_shared_per_spec() {
        let spec = ViewSpec::paper_default(0.0, 4.0, 3.0);
        let a = calibrated_pipeline(&spec);
        let b = calibrated_pipeline(&spec);
        assert!(
            Arc::ptr_eq(&a.pipeline, &b.pipeline),
            "one calibration per spec"
        );
        let c = calibrated_pipeline(&ViewSpec::paper_default(0.0, 4.5, 3.0));
        assert!(!Arc::ptr_eq(&a.pipeline, &c.pipeline));
        assert_ne!(a.spec, c.spec);
        let mut fresh = RecognitionPipeline::new(PipelineConfig::default());
        fresh.calibrate_from_views(&spec);
        assert_eq!(a.config(), fresh.config());
        assert_eq!(a.template_count(), fresh.template_count());
    }
}
