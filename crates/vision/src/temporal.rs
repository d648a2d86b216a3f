//! Temporal-coherence gating for stream recognition.
//!
//! The paper's viability argument (Section IV) needs sustained ≥30 fps
//! recognition of a *mostly static* marshaller: a held sign produces long
//! runs of nearly identical frames, yet the ungated stream path pays the
//! full silhouette→signature→SAX pipeline on every one of them. This module
//! skips that recompute when the input provably (or tolerably) hasn't
//! changed, via a per-stream [`StreamRecognizer`] that borrows the previous
//! frame, caches its last fully computed [`Recognition`] and answers each
//! new frame through a ladder of two reuse checks:
//!
//! 1. **Strict gate** ([`GateMode::Strict`]): reuse the cached decision only
//!    when the frame is *byte-identical* to the previous one. Identity is
//!    one slice compare (`frame.pixels() == prev.pixels()`), which stops
//!    at the first differing chunk: a repeat pays one vectorised `memcmp`
//!    of the frame, and a changed camera frame, whose sensor noise already
//!    reaches its first rows, bails out almost at once. No hash runs in
//!    front of it: a byte-serial hash of even a sparse row sample costs
//!    about half a full compare, and could only ever skip a compare that
//!    fails early anyway. The output is provably unchanged: a strictly
//!    gated stream returns exactly the ungated [`Recognition`] of every
//!    frame.
//! 2. **Incremental mask gate** ([`GateMode::Incremental`]): first the
//!    same identity compare as the strict gate — camera oversampling makes
//!    byte-identical repeats the most common frame of all, and identity
//!    implies every tolerance holds. Otherwise binarise the frame straight
//!    into mask words, XOR-popcount the packed mask against the cached
//!    mask per tile, and reuse the cached decision while every tile stays
//!    within [`TemporalConfig::max_tile_mask_diff`] bit flips.
//!
//! **Misses are exact.** When every rung misses, the fresh mask is adopted
//! as the cache by a buffer swap and labelling, contour, signature and the
//! SAX search run on it: the frame gets exactly the [`Recognition`] the
//! ungated pipeline computes for it, and the cached mask is exactly its
//! segmentation.
//!
//! **The previous frame is borrowed, never copied,** so the caller keeps
//! it alive until the next frame or [`StreamRecognizer::reset`]. A stream's
//! gate state is its cached decision, mask and tile buffer: about 40 KB at
//! 640×480, never a frame.
//!
//! **Boundedness of incremental mode.** A mask hit leaves the cached mask
//! pinned to the last miss, so consecutive hits are each compared against
//! that one mask rather than chained through each other: the tolerance
//! bounds the silhouette drift absolutely instead of letting it
//! accumulate. The measured decision divergence against the ungated oracle
//! on the benchmark workload is recorded in `BENCH_stream.json` and
//! bounded by test.

use crate::pipeline::{FrameFailure, FrameResult, FrameScratch, RecognitionPipeline};
use crate::timing::StageTimings;
use hdc_raster::diff::mask_tile_diff_into;
use hdc_raster::{BitMask, GrayImage};

/// The owned, timing-free outcome of recognising one frame: everything in
/// [`FrameResult`] except the wall-clock stage timings (so two runs over
/// the same frame compare equal, `f64` bits included) and the borrowed
/// labels. It is what a [`StreamRecognizer`] caches and returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// The accepted sign label, or `None` when nothing matched.
    pub decision: Option<String>,
    /// Exact distance of the best database match regardless of threshold.
    pub best_distance: Option<f64>,
    /// Label of the best database match regardless of threshold.
    pub best_label: Option<String>,
    /// Exact distance to the best template of a different label.
    pub runner_up: Option<f64>,
    /// Failure reason when no signature could be extracted.
    pub failure: Option<FrameFailure>,
}

impl Recognition {
    /// Projects a borrowed per-frame result into its owned, timing-free
    /// form.
    pub fn from_frame_result(r: &FrameResult<'_>) -> Self {
        let mut out = Recognition {
            decision: None,
            best_distance: None,
            best_label: None,
            runner_up: None,
            failure: None,
        };
        out.refresh_from(r);
        out
    }

    /// Overwrites this recognition with the projection of `r`, writing each
    /// label into the string already held for it: the gate's cached
    /// decision refreshes without allocating once its label buffers have
    /// grown.
    fn refresh_from(&mut self, r: &FrameResult<'_>) {
        refresh_label(&mut self.decision, r.decision);
        self.best_distance = r.best.as_ref().map(|b| b.distance);
        refresh_label(&mut self.best_label, r.best.as_ref().map(|b| b.label));
        self.runner_up = r.runner_up;
        self.failure = r.failure;
    }
}

/// Sets `slot` to an owned copy of `label`, reusing the string it holds.
fn refresh_label(slot: &mut Option<String>, label: Option<&str>) {
    match (slot.as_mut(), label) {
        (Some(held), Some(label)) => {
            held.clear();
            held.push_str(label);
        }
        _ => *slot = label.map(str::to_owned),
    }
}

/// Which reuse checks the gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// No gating: every frame pays the full pipeline (the ungated baseline).
    Off,
    /// Reuse only on byte-identical frames — output provably unchanged.
    Strict,
    /// Mask-level incremental reuse: binarise straight into mask words,
    /// diff the packed mask per tile against the cached mask, and reuse
    /// while every tile's bit flips stay within tolerance; a miss re-runs
    /// labelling onward on the fresh mask. Output may diverge from the
    /// ungated oracle on hits, bounded by the tile tolerance.
    Incremental,
}

/// Gate configuration. The defaults are tuned for 640×480 frames with
/// sparse salt-and-pepper sensor jitter (the `bench_stream` workload); see
/// the field docs for how to retune.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalConfig {
    /// Which reuse checks run.
    pub mode: GateMode,
    /// Tile edge length in pixels of the incremental gate's mask diff.
    pub tile: u32,
    /// Maximum differing mask bits per tile for the incremental gate to
    /// reuse the cached decision. A salt-and-pepper flip changes at most
    /// one mask bit, so this is "tolerated flipped silhouette pixels per
    /// tile"; a real pose change flips hundreds of bits in the arm tiles.
    pub max_tile_mask_diff: u64,
}

impl TemporalConfig {
    /// The ungated baseline (every frame recomputed).
    pub fn off() -> Self {
        TemporalConfig {
            mode: GateMode::Off,
            ..Self::incremental()
        }
    }

    /// Strict gating: reuse on byte-identical frames only.
    pub fn strict() -> Self {
        TemporalConfig {
            mode: GateMode::Strict,
            ..Self::incremental()
        }
    }

    /// Incremental mask-level gating with the default tolerance.
    pub fn incremental() -> Self {
        TemporalConfig {
            mode: GateMode::Incremental,
            tile: 32,
            max_tile_mask_diff: 48,
        }
    }
}

/// How the gate resolved the frames it saw: every frame lands in exactly
/// one counter, so the three always sum to the frame count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounters {
    /// Byte-identical reuse: the strict gate, or the incremental identity
    /// pre-check.
    pub strict_hits: usize,
    /// Mask-tolerance reuse (incremental mode).
    pub incremental_hits: usize,
    /// Full pipeline runs (every gate missed, or gating was off).
    pub full_runs: usize,
}

impl GateCounters {
    /// Total frames resolved.
    pub fn frames(&self) -> usize {
        self.strict_hits + self.incremental_hits + self.full_runs
    }

    /// Frames that reused the cached decision.
    pub fn hits(&self) -> usize {
        self.strict_hits + self.incremental_hits
    }

    /// Counter deltas accumulated since an earlier snapshot (per-stream
    /// attribution when one recogniser serves several streams in turn).
    pub fn since(&self, earlier: &GateCounters) -> GateCounters {
        GateCounters {
            strict_hits: self.strict_hits - earlier.strict_hits,
            incremental_hits: self.incremental_hits - earlier.incremental_hits,
            full_runs: self.full_runs - earlier.full_runs,
        }
    }

    /// Element-wise sum (aggregation across streams).
    pub fn plus(&self, other: &GateCounters) -> GateCounters {
        GateCounters {
            strict_hits: self.strict_hits + other.strict_hits,
            incremental_hits: self.incremental_hits + other.incremental_hits,
            full_runs: self.full_runs + other.full_runs,
        }
    }
}

/// Incremental recogniser for one frame stream: wraps a shared
/// [`RecognitionPipeline`] + caller-owned [`FrameScratch`] with per-stream
/// cached state (silhouette mask and the cached [`Recognition`]) and a
/// borrow of the previous frame (lifetime `'f`), which the caller keeps
/// alive. See the module docs for the reuse ladder.
///
/// All internal buffers, the cached decision's label strings included,
/// are allocated once and reused, so the recogniser is allocation-free in
/// steady state on hits and full runs alike.
///
/// # Example
/// ```
/// use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
/// use hdc_vision::temporal::{StreamRecognizer, TemporalConfig};
/// use hdc_vision::{FrameScratch, PipelineConfig, RecognitionPipeline};
///
/// let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
/// pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
/// let frame = render_sign(MarshallingSign::Yes, &ViewSpec::paper_default(0.0, 5.0, 3.0));
///
/// let mut scratch = FrameScratch::new();
/// let mut rec = StreamRecognizer::new(TemporalConfig::strict());
/// for _ in 0..3 {
///     let r = rec.recognize(&pipeline, &mut scratch, &frame);
///     assert_eq!(r.decision.as_deref(), Some("Yes"));
/// }
/// assert_eq!(rec.counters().full_runs, 1); // frames 2 and 3 reused frame 1
/// assert_eq!(rec.counters().strict_hits, 2);
/// ```
#[derive(Debug, Clone)]
pub struct StreamRecognizer<'f> {
    config: TemporalConfig,
    counters: GateCounters,
    /// The decision currently being reused; `None` until the first frame
    /// (or after a reset). While it is `Some`, the fields below that the
    /// mode uses hold this stream's state.
    cached: Option<Recognition>,
    /// The previous frame, borrowed: target of the identity check (strict
    /// and incremental modes). In strict mode a hit is identical to it, so
    /// it is also the frame the cached decision was computed from.
    prev: Option<&'f GrayImage>,
    /// The cached silhouette mask (incremental mode): the segmentation of
    /// the last missed frame, adopted by swap. Lives here, not in
    /// [`FrameScratch`], because a scratch is shared across every stream a
    /// worker serves; a serving layer spills it with the rest of the gate
    /// state by moving the whole recogniser, so an eviction never copies
    /// it.
    cached_mask: BitMask,
    /// Per-tile mask-diff output buffer (incremental mode).
    mask_tiles: Vec<u64>,
}

impl<'f> StreamRecognizer<'f> {
    /// A recogniser with empty caches.
    pub fn new(config: TemporalConfig) -> Self {
        StreamRecognizer {
            config,
            counters: GateCounters::default(),
            cached: None,
            prev: None,
            cached_mask: BitMask::new(1, 1),
            mask_tiles: Vec::new(),
        }
    }

    /// The gate configuration.
    pub fn config(&self) -> &TemporalConfig {
        &self.config
    }

    /// Cumulative gate counters (never reset; snapshot and
    /// [`GateCounters::since`] for windows).
    pub fn counters(&self) -> GateCounters {
        self.counters
    }

    /// Forgets all cached state and the borrowed frame (switching to a
    /// different stream) while keeping the grown buffers and the counters.
    pub fn reset(&mut self) {
        self.cached = None;
        self.prev = None;
    }

    /// Recognises one frame, reusing the cached decision when the active
    /// gate allows it. The returned reference borrows the cache, so hit
    /// frames allocate nothing; clone it if an owned value is needed. The
    /// gated modes keep borrowing `frame` for the next identity check.
    pub fn recognize(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &'f GrayImage,
    ) -> &Recognition {
        match self.config.mode {
            GateMode::Off => self.full_run(pipeline, scratch, frame),
            _ if self.identity_hit(frame) => self.counters.strict_hits += 1,
            GateMode::Strict => {
                self.full_run(pipeline, scratch, frame);
                self.prev = Some(frame);
            }
            GateMode::Incremental => {
                self.mask_gate(pipeline, scratch, frame);
                self.prev = Some(frame);
            }
        }
        self.cached.as_ref().expect("every path caches a decision")
    }

    /// Byte identity against the previous frame: one early-exit slice
    /// compare once a decision is cached and the dimensions agree.
    fn identity_hit(&self, frame: &GrayImage) -> bool {
        self.cached.is_some()
            && self.prev.is_some_and(|prev| {
                frame.width() == prev.width()
                    && frame.height() == prev.height()
                    && frame.pixels() == prev.pixels()
            })
    }

    /// Incremental mode after the identity check missed: segment the frame
    /// into mask words at
    /// [`SEGMENTATION_THRESHOLD`](crate::SEGMENTATION_THRESHOLD) and, when a
    /// cached mask of the same size exists, diff it per tile against the
    /// fresh one; reuse the decision if every
    /// tile is within tolerance. Otherwise — a miss, a cold start or a
    /// resolution change — adopt the fresh mask by swap and run labelling,
    /// contour, signature and SAX on it: exactly the ungated pipeline.
    fn mask_gate(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) {
        pipeline.segment_packed(frame, scratch);
        if self.cached.is_some()
            && frame.width() == self.cached_mask.width()
            && frame.height() == self.cached_mask.height()
        {
            let summary = mask_tile_diff_into(
                &scratch.mask_bits,
                &self.cached_mask,
                self.config.tile,
                &mut self.mask_tiles,
            );
            if summary.max <= self.config.max_tile_mask_diff {
                // Keep the cache pinned to the last miss (boundedness).
                self.counters.incremental_hits += 1;
                return;
            }
        }
        std::mem::swap(&mut self.cached_mask, &mut scratch.mask_bits);
        let mut timings = StageTimings::default();
        let r =
            match pipeline.signature_stages_from_packed(&self.cached_mask, scratch, &mut timings) {
                Ok(stats) => pipeline.classify_pass(scratch, stats, timings),
                Err(failure) => FrameResult::failed(timings, failure),
            };
        self.cache(&r);
    }

    /// Runs the full pipeline on the frame and caches its decision.
    fn full_run(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) {
        let r = pipeline.recognize_with(scratch, frame);
        self.cache(&r);
    }

    /// Caches a fully computed result, refreshing the cached decision in
    /// place so its label buffers are reused, and counts the full run.
    fn cache(&mut self, r: &FrameResult<'_>) {
        match &mut self.cached {
            Some(cached) => cached.refresh_from(r),
            None => self.cached = Some(Recognition::from_frame_result(r)),
        }
        self.counters.full_runs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
    use rand::{rngs::SmallRng, SeedableRng};

    fn calibrated() -> RecognitionPipeline {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        p
    }

    fn yes_frame() -> GrayImage {
        render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        )
    }

    /// The ungated oracle: one full pipeline run, projected.
    fn recognize_one(
        p: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) -> Recognition {
        Recognition::from_frame_result(&p.recognize_with(scratch, frame))
    }

    fn jittered(base: &GrayImage, seed: u64) -> GrayImage {
        let mut f = base.clone();
        let mut rng = SmallRng::seed_from_u64(seed);
        hdc_raster::noise::add_salt_pepper(&mut f, 0.001, &mut rng);
        f
    }

    #[test]
    fn off_mode_never_reuses() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::off());
        let frame = yes_frame();
        for _ in 0..4 {
            rec.recognize(&p, &mut scratch, &frame);
        }
        assert_eq!(rec.counters().full_runs, 4);
        assert_eq!(rec.counters().hits(), 0);
    }

    #[test]
    fn strict_reuses_identical_frames_only() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::strict());
        let frame = yes_frame();
        let touched = jittered(&frame, 7);

        let first = rec.recognize(&p, &mut scratch, &frame).clone();
        let hit = rec.recognize(&p, &mut scratch, &frame).clone();
        assert_eq!(first, hit);
        assert_eq!(rec.counters().strict_hits, 1);

        rec.recognize(&p, &mut scratch, &touched);
        assert_eq!(
            rec.counters().full_runs,
            2,
            "jitter must miss the strict gate"
        );
        // back to the original frame: it is no longer the reference
        rec.recognize(&p, &mut scratch, &frame);
        assert_eq!(rec.counters().full_runs, 3);
        assert_eq!(rec.counters().frames(), 4);
    }

    #[test]
    fn strict_output_matches_ungated_on_a_mixed_stream() {
        let p = calibrated();
        let mut frames = Vec::new();
        for sign in MarshallingSign::ALL {
            let f = render_sign(sign, &ViewSpec::paper_default(0.0, 5.0, 3.0));
            frames.push(f.clone());
            frames.push(f.clone()); // duplicate → strict hit
            frames.push(f);
        }
        frames.push(GrayImage::new(64, 64)); // failure frame
        frames.push(GrayImage::new(64, 64)); // duplicated failure

        let mut s1 = FrameScratch::new();
        let mut s2 = FrameScratch::new();
        let mut gated = StreamRecognizer::new(TemporalConfig::strict());
        for frame in &frames {
            let want = recognize_one(&p, &mut s1, frame);
            let got = gated.recognize(&p, &mut s2, frame).clone();
            assert_eq!(got, want);
        }
        assert!(
            gated.counters().strict_hits >= frames.len() / 2,
            "duplicates must hit"
        );
    }

    #[test]
    fn incremental_absorbs_sensor_jitter() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
        let base = yes_frame();
        let first = rec.recognize(&p, &mut scratch, &base).clone();
        let held: Vec<GrayImage> = (0..5).map(|seed| jittered(&base, seed)).collect();
        for frame in &held {
            let got = rec.recognize(&p, &mut scratch, frame).clone();
            assert_eq!(got, first, "jittered hold frames reuse the decision");
        }
        assert_eq!(rec.counters().incremental_hits, 5);
        assert_eq!(rec.counters().full_runs, 1);
    }

    #[test]
    fn incremental_recomputes_on_a_sign_change() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
        let yes = yes_frame();
        let no = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));

        assert_eq!(
            rec.recognize(&p, &mut scratch, &yes).decision.as_deref(),
            Some("Yes")
        );
        assert_eq!(
            rec.recognize(&p, &mut scratch, &no).decision.as_deref(),
            Some("No"),
            "a real sign change must not be gated away"
        );
        assert_eq!(rec.counters().incremental_hits, 0);
        assert_eq!(
            rec.counters().full_runs,
            2,
            "the sign change missed the mask gate and re-ran the pipeline"
        );
    }

    #[test]
    fn incremental_miss_on_an_off_figure_change_is_a_full_run() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut oracle_scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
        let base = yes_frame();
        rec.recognize(&p, &mut scratch, &base);

        // A 16×16 bright block in the top-left corner: one tile gains 256
        // mask bits (over tolerance) away from the figure, so the frame
        // misses and its decision is recomputed, equal to the ungated one.
        let mut blocked = base.clone();
        let w = blocked.width() as usize;
        for y in 0..16 {
            for x in 0..16 {
                blocked.pixels_mut()[y * w + x] = 255;
            }
        }
        for frame in [&blocked, &base] {
            let got = rec.recognize(&p, &mut scratch, frame).clone();
            let want = recognize_one(&p, &mut oracle_scratch, frame);
            assert_eq!(got, want);
        }
        assert_eq!(rec.counters().incremental_hits, 0);
        assert_eq!(rec.counters().full_runs, 3, "both block edges miss");
    }

    #[test]
    fn resolution_change_misses_every_gate() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let (big, small) = (GrayImage::new(64, 64), GrayImage::new(32, 32));
        for config in [TemporalConfig::strict(), TemporalConfig::incremental()] {
            let mut rec = StreamRecognizer::new(config);
            rec.recognize(&p, &mut scratch, &big);
            rec.recognize(&p, &mut scratch, &small);
            assert_eq!(rec.counters().full_runs, 2);
            assert_eq!(rec.counters().hits(), 0);
        }
    }

    #[test]
    fn reset_forgets_the_cache_but_keeps_counting() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::strict());
        let frame = yes_frame();
        rec.recognize(&p, &mut scratch, &frame);
        rec.recognize(&p, &mut scratch, &frame);
        assert_eq!(rec.counters().strict_hits, 1);
        rec.reset();
        rec.recognize(&p, &mut scratch, &frame);
        assert_eq!(rec.counters().full_runs, 2, "reset must force a recompute");
        assert_eq!(rec.counters().strict_hits, 1);
    }

    #[test]
    fn reset_releases_the_previous_frame() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let last = yes_frame();
        let same_bytes = last.clone();
        for config in [TemporalConfig::strict(), TemporalConfig::incremental()] {
            let mut rec = StreamRecognizer::new(config);
            rec.recognize(&p, &mut scratch, &last);
            rec.reset();
            // the next stream opens on a byte-identical frame of its own
            rec.recognize(&p, &mut scratch, &same_bytes);
            assert_eq!(rec.counters().full_runs, 2, "{config:?}");
            assert_eq!(rec.counters().hits(), 0, "{config:?}");
        }
    }

    #[test]
    fn counter_arithmetic() {
        let a = GateCounters {
            strict_hits: 5,
            incremental_hits: 4,
            full_runs: 3,
        };
        assert_eq!(a.frames(), 12);
        assert_eq!(a.hits(), 9);
        let b = a.plus(&a);
        assert_eq!(b.frames(), 24);
        assert_eq!(b.since(&a), a);
    }
}
