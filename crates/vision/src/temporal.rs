//! Temporal-coherence gating for stream recognition.
//!
//! The paper's viability argument (Section IV) needs sustained ≥30 fps
//! recognition of a *mostly static* marshaller: a held sign produces long
//! runs of nearly identical frames, yet the ungated stream path pays the
//! full silhouette→signature→SAX pipeline on every one of them. This module
//! skips that recompute when the input provably (or tolerably) hasn't
//! changed, via a per-stream [`StreamRecognizer`] that caches the
//! **reference frame** of its last fully computed [`Recognition`] and
//! answers each new frame through a ladder of increasingly expensive
//! checks:
//!
//! 1. **Strict gate** ([`GateMode::Strict`]): reuse the cached decision only
//!    when the frame is *byte-identical* to the reference. Identity is one
//!    slice compare (`frame.pixels() == reference.pixels()`), which stops
//!    at the first differing chunk: a repeat pays one vectorised `memcmp`
//!    of the frame, and a changed camera frame, whose sensor noise already
//!    reaches its first rows, bails out almost at once. No hash runs in
//!    front of it: a byte-serial hash of even a sparse row sample costs
//!    about half a full compare, and could only ever skip a compare that
//!    fails early anyway. The output is provably unchanged, so strict
//!    gating preserves the engine's byte-identical-at-any-worker-count
//!    determinism contract.
//! 2. **Incremental mask gate** ([`GateMode::Incremental`]): first the
//!    same identity compare as the strict gate, against the *previous*
//!    frame — camera oversampling makes byte-identical repeats the most
//!    common frame of all, and identity implies every tolerance holds.
//!    Otherwise binarise the frame straight into mask words, XOR-popcount
//!    the packed mask against the cached mask per tile, and reuse the
//!    cached decision while every tile stays within
//!    [`TemporalConfig::max_tile_mask_diff`] bit flips. On a miss,
//!    the dirty tile rows are merged into row-band spans
//!    ([`hdc_raster::diff::DirtyBands`]): when they cover at most
//!    [`TemporalConfig::max_dirty_fraction`] of the frame, the dirty rows
//!    of the fresh mask are copied into the cached mask and only
//!    labelling/contour/signature re-run on the patched full mask —
//!    above the threshold the whole mask is refreshed. Either way the
//!    cached mask ends bit-identical to a from-scratch segmentation, so
//!    staleness never accumulates across misses.
//! 3. **Signature short-circuit** (incremental mode): when the mask gate
//!    misses, recompute the signature but skip the SAX search if the new
//!    signature is within [`TemporalConfig::signature_epsilon`] (Euclidean)
//!    of the signature that produced the cached decision.
//!
//! **Boundedness of incremental mode.** The reference *signature* is only
//! replaced by a full SAX run, never chained through short-circuits, so the
//! signature presented to the classifier is always within ε of the one the
//! cached decision was computed from — tolerances bound the staleness
//! absolutely instead of accumulating drift. The measured decision
//! divergence against the ungated oracle on the benchmark workload is
//! recorded in `BENCH_stream.json` and bounded by test.

use crate::engine::Recognition;
use crate::pipeline::{FrameResult, FrameScratch, RecognitionPipeline};
use crate::timing::StageTimings;
use hdc_raster::diff::{mask_tile_diff_into, DirtyBands};
use hdc_raster::{BitMask, GrayImage};

/// Which reuse checks the gate runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// No gating: every frame pays the full pipeline (the ungated baseline).
    Off,
    /// Reuse only on byte-identical frames — output provably unchanged.
    Strict,
    /// Mask-level incremental reuse: binarise straight into mask words,
    /// diff the packed mask per tile against the cached mask, and reuse
    /// while every tile's bit flips stay within tolerance; on a miss, patch
    /// only the dirty row-bands and re-run labelling onward, with the
    /// signature short-circuit. Output may diverge from the ungated oracle,
    /// bounded by the configured tolerances.
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
    /// Maximum Euclidean distance between a freshly computed signature and
    /// the cached decision's signature for the SAX search to be skipped.
    /// Signatures are z-normalised 128-sample series; compare against the
    /// calibrated acceptance threshold (≈6) to pick a safe fraction.
    pub signature_epsilon: f64,
    /// Maximum differing mask bits per tile for the incremental gate to
    /// reuse the cached decision. A salt-and-pepper flip changes at most
    /// one mask bit, so this is "tolerated flipped silhouette pixels per
    /// tile"; a real pose change flips hundreds of bits in the arm tiles.
    pub max_tile_mask_diff: u64,
    /// Fraction of frame rows the dirty bands may cover for the incremental
    /// miss path to patch the cached mask in place; above it the whole mask
    /// is refreshed (patching most of the frame costs more than one
    /// contiguous overwrite).
    pub max_dirty_fraction: f64,
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

    /// Incremental mask-level gating with the default tolerances.
    pub fn incremental() -> Self {
        TemporalConfig {
            mode: GateMode::Incremental,
            tile: 32,
            signature_epsilon: 0.5,
            max_tile_mask_diff: 48,
            max_dirty_fraction: 0.35,
        }
    }
}

/// How the gate resolved the frames it saw: every frame lands in exactly
/// one counter, so the four always sum to the frame count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateCounters {
    /// Byte-identical reuse: the strict gate, or the incremental identity
    /// pre-check against the previous frame.
    pub strict_hits: usize,
    /// Mask-tolerance reuse (incremental mode).
    pub incremental_hits: usize,
    /// Signature recomputed, SAX search skipped (incremental mode).
    pub signature_short_circuits: usize,
    /// Full pipeline runs (every gate missed, or gating was off).
    pub full_runs: usize,
}

impl GateCounters {
    /// Total frames resolved.
    pub fn frames(&self) -> usize {
        self.strict_hits + self.incremental_hits + self.signature_short_circuits + self.full_runs
    }

    /// Frames that skipped at least the SAX search.
    pub fn hits(&self) -> usize {
        self.strict_hits + self.incremental_hits + self.signature_short_circuits
    }

    /// Counter deltas accumulated since an earlier snapshot (per-stream
    /// attribution when one recogniser serves several streams in turn).
    pub fn since(&self, earlier: &GateCounters) -> GateCounters {
        GateCounters {
            strict_hits: self.strict_hits - earlier.strict_hits,
            incremental_hits: self.incremental_hits - earlier.incremental_hits,
            signature_short_circuits: self.signature_short_circuits
                - earlier.signature_short_circuits,
            full_runs: self.full_runs - earlier.full_runs,
        }
    }

    /// Element-wise sum (aggregation across streams).
    pub fn plus(&self, other: &GateCounters) -> GateCounters {
        GateCounters {
            strict_hits: self.strict_hits + other.strict_hits,
            incremental_hits: self.incremental_hits + other.incremental_hits,
            signature_short_circuits: self.signature_short_circuits
                + other.signature_short_circuits,
            full_runs: self.full_runs + other.full_runs,
        }
    }
}

/// Dirty-coverage accounting for the incremental ladder: how dirty the
/// evaluated frames were and which miss path they took. Recorded on every
/// frame that reached the mask diff (every non-identity frame with a
/// usable cached mask); purely diagnostic, never consulted by the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirtyStats {
    /// Miss frames whose cached mask was patched on the dirty row-bands.
    pub patched: usize,
    /// Miss frames that refreshed the whole mask (dirty coverage above
    /// [`TemporalConfig::max_dirty_fraction`]).
    pub full_fallbacks: usize,
    /// Decile histogram of dirty-row coverage over evaluated frames:
    /// bucket `i` counts coverages in `[i/10, (i+1)/10)`, with full
    /// coverage landing in the last bucket.
    pub coverage_deciles: [usize; 10],
}

impl DirtyStats {
    /// Frames that reached the mask diff (the histogram total).
    pub fn evaluated(&self) -> usize {
        self.coverage_deciles.iter().sum()
    }

    fn record(&mut self, coverage: f64) {
        let bucket = ((coverage * 10.0) as usize).min(9);
        self.coverage_deciles[bucket] += 1;
    }

    /// Deltas accumulated since an earlier snapshot (mirrors
    /// [`GateCounters::since`]).
    pub fn since(&self, earlier: &DirtyStats) -> DirtyStats {
        let mut deciles = [0usize; 10];
        for (d, (a, b)) in deciles
            .iter_mut()
            .zip(self.coverage_deciles.iter().zip(&earlier.coverage_deciles))
        {
            *d = a - b;
        }
        DirtyStats {
            patched: self.patched - earlier.patched,
            full_fallbacks: self.full_fallbacks - earlier.full_fallbacks,
            coverage_deciles: deciles,
        }
    }

    /// Element-wise sum (aggregation across streams).
    pub fn plus(&self, other: &DirtyStats) -> DirtyStats {
        let mut deciles = [0usize; 10];
        for (d, (a, b)) in deciles
            .iter_mut()
            .zip(self.coverage_deciles.iter().zip(&other.coverage_deciles))
        {
            *d = a + b;
        }
        DirtyStats {
            patched: self.patched + other.patched,
            full_fallbacks: self.full_fallbacks + other.full_fallbacks,
            coverage_deciles: deciles,
        }
    }
}

/// Incremental recogniser for one frame stream: wraps a shared
/// [`RecognitionPipeline`] + caller-owned [`FrameScratch`] with per-stream
/// cached state (reference frame, signature, silhouette mask,
/// and the cached [`Recognition`]). See the module docs for the reuse ladder.
///
/// All internal buffers are allocated once and reused, so gate checks are
/// allocation-free in steady state; only a *full run* allocates (the owned
/// `Recognition` strings, exactly as the ungated path always has).
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
pub struct StreamRecognizer {
    config: TemporalConfig,
    counters: GateCounters,
    /// The decision currently being reused, if any.
    cached: Option<Recognition>,
    /// The frame the cached decision was computed against (strict mode).
    reference: GrayImage,
    has_reference: bool,
    /// Signature of the last *full SAX run* — short-circuits compare
    /// against this, never against each other (boundedness).
    reference_sig: Vec<f64>,
    has_reference_sig: bool,
    /// The previous frame (incremental mode): target of the identity
    /// pre-check, which must compare against the *last* frame — the pinned
    /// mask reference goes stale the moment jitter lands, while
    /// oversampled duplicates repeat whatever came last.
    prev: GrayImage,
    has_prev: bool,
    /// The cached silhouette mask (incremental mode): always bit-identical
    /// to segmenting the last missed frame from scratch, patched in place
    /// on dirty row-bands. Lives here, not in [`FrameScratch`], because a
    /// scratch is shared across every stream a worker serves; a serving
    /// layer spills it with the rest of the gate state by moving the
    /// whole recogniser, so an eviction never copies it.
    cached_mask: BitMask,
    has_cached_mask: bool,
    /// Per-tile mask-diff output buffer (incremental mode).
    mask_tiles: Vec<u64>,
    /// Reusable dirty row-band spans (incremental mode).
    bands: DirtyBands,
    /// Dirty-coverage accounting (incremental mode diagnostics).
    dirty: DirtyStats,
}

impl StreamRecognizer {
    /// A recogniser with empty caches.
    pub fn new(config: TemporalConfig) -> Self {
        StreamRecognizer {
            config,
            counters: GateCounters::default(),
            cached: None,
            reference: GrayImage::new(1, 1),
            has_reference: false,
            reference_sig: Vec::new(),
            has_reference_sig: false,
            prev: GrayImage::new(1, 1),
            has_prev: false,
            cached_mask: BitMask::new(1, 1),
            has_cached_mask: false,
            mask_tiles: Vec::new(),
            bands: DirtyBands::default(),
            dirty: DirtyStats::default(),
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

    /// Cumulative dirty-coverage stats (incremental mode; never reset —
    /// snapshot and [`DirtyStats::since`] for windows).
    pub fn dirty_stats(&self) -> DirtyStats {
        self.dirty
    }

    /// Forgets all cached state (switching the recogniser to a different
    /// stream) while keeping the grown buffers and the counters.
    pub fn reset(&mut self) {
        self.cached = None;
        self.has_reference = false;
        self.has_reference_sig = false;
        self.has_prev = false;
        self.has_cached_mask = false;
    }

    /// Recognises one frame, reusing the cached decision when the active
    /// gate allows it. The returned reference borrows the cache, so hit
    /// frames allocate nothing; clone it if an owned value is needed.
    pub fn recognize(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) -> &Recognition {
        match self.config.mode {
            GateMode::Off => {
                self.full_run(pipeline, scratch, frame, false);
            }
            GateMode::Strict => {
                if self.strict_hit(frame) {
                    self.counters.strict_hits += 1;
                } else {
                    self.full_run(pipeline, scratch, frame, true);
                }
            }
            GateMode::Incremental => {
                if self.identity_hit(frame) {
                    self.counters.strict_hits += 1;
                } else {
                    self.incremental_path(pipeline, scratch, frame);
                    copy_frame_into(&mut self.prev, frame);
                    self.has_prev = true;
                }
            }
        }
        self.cached.as_ref().expect("every path caches a decision")
    }

    /// Byte-identity against the reference frame: one early-exit slice
    /// compare once the cache, the reference and the dimensions agree.
    fn strict_hit(&self, frame: &GrayImage) -> bool {
        self.cached.is_some() && self.has_reference && same_frame(frame, &self.reference)
    }

    /// Byte-identity against the *previous* frame (incremental mode's
    /// pre-check): the same compare as [`StreamRecognizer::strict_hit`],
    /// different target.
    fn identity_hit(&self, frame: &GrayImage) -> bool {
        self.cached.is_some() && self.has_prev && same_frame(frame, &self.prev)
    }

    /// The incremental-mode resolution ladder after the identity pre-check
    /// missed: segment the frame into mask words, diff the fresh
    /// mask against the cached one per tile, and either reuse the decision
    /// (every tile within tolerance), patch the cached mask on the dirty
    /// row-bands, or refresh it wholesale — then re-run the geometric
    /// stages on the patched mask with the ε short-circuit.
    fn incremental_path(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) {
        let usable = self.cached.is_some()
            && self.has_cached_mask
            && frame.width() == self.cached_mask.width()
            && frame.height() == self.cached_mask.height();
        if !usable {
            // Cold start or dimension change: full run, then seed the mask
            // cache from the scratch.
            self.full_run(pipeline, scratch, frame, false);
            self.seed_mask_cache(scratch);
            return;
        }
        let threshold = pipeline.segmentation_threshold(frame);
        pipeline.segment_packed(frame, threshold, scratch);
        let summary = mask_tile_diff_into(
            &scratch.mask_bits,
            &self.cached_mask,
            self.config.tile,
            &mut self.mask_tiles,
        );
        // Tolerance 0 for the bands: a miss patches *every* row whose mask
        // changed at all, so the cache leaves this frame bit-identical to
        // from-scratch segmentation (staleness only accumulates across
        // consecutive hits, bounded per tile by the pinned cached mask).
        self.bands.rebuild(
            &self.mask_tiles,
            &summary,
            self.config.tile,
            frame.height(),
            0,
        );
        self.dirty.record(self.bands.coverage());
        if summary.max <= self.config.max_tile_mask_diff {
            // Every tile's silhouette stayed within tolerance of the
            // cached mask: reuse the decision, keep the cache pinned.
            self.counters.incremental_hits += 1;
            return;
        }
        if self.bands.coverage() <= self.config.max_dirty_fraction {
            self.dirty.patched += 1;
            for &(lo, hi) in self.bands.spans() {
                self.cached_mask.copy_rows_from(&scratch.mask_bits, lo, hi);
            }
        } else {
            self.dirty.full_fallbacks += 1;
            // Above the patch threshold the fresh mask already sits in the
            // scratch — adopt it wholesale by swapping buffers.
            std::mem::swap(&mut self.cached_mask, &mut scratch.mask_bits);
        }
        let mut timings = StageTimings::default();
        match pipeline.signature_stages_from_packed(&self.cached_mask, scratch, &mut timings) {
            Err(failure) => {
                let r = FrameResult::failed(timings, failure);
                self.cached = Some(Recognition::from_frame_result(&r));
                self.has_reference_sig = false;
                self.counters.full_runs += 1;
            }
            Ok(stats) => {
                let close_enough = self.has_reference_sig
                    && euclidean_within(
                        scratch.signature_series(),
                        &self.reference_sig,
                        self.config.signature_epsilon,
                    );
                if close_enough {
                    self.counters.signature_short_circuits += 1;
                } else {
                    let r = pipeline.classify_pass(scratch, stats, timings);
                    self.cached = Some(Recognition::from_frame_result(&r));
                    self.store_reference_sig_from(scratch);
                    self.counters.full_runs += 1;
                }
            }
        }
    }

    /// Adopts the scratch's freshly segmented mask as the incremental
    /// cache by swapping buffers (O(1), no copy). Valid even after a
    /// failed frame — segmentation runs before any component failure.
    fn seed_mask_cache(&mut self, scratch: &mut FrameScratch) {
        std::mem::swap(&mut self.cached_mask, &mut scratch.mask_bits);
        self.has_cached_mask = true;
    }

    /// Runs the full pipeline and caches the decision and its signature.
    /// `keep_reference` is set only by the strict gate, which also keeps
    /// the frame as the reference for the next identity check;
    /// `GateMode::Off` and `GateMode::Incremental` never consult the
    /// reference pixels.
    fn full_run(
        &mut self,
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
        keep_reference: bool,
    ) {
        let r = pipeline.recognize_with(scratch, frame);
        let had_signature = r.stats.is_some();
        self.cached = Some(Recognition::from_frame_result(&r));
        if had_signature {
            self.store_reference_sig_from(scratch);
        } else {
            self.has_reference_sig = false;
        }
        if keep_reference {
            copy_frame_into(&mut self.reference, frame);
            self.has_reference = true;
        }
        self.counters.full_runs += 1;
    }

    /// Records the scratch's current signature series as the reference
    /// signature (called by the full-run paths after a successful
    /// signature pass).
    fn store_reference_sig_from(&mut self, scratch: &FrameScratch) {
        self.reference_sig.clear();
        self.reference_sig
            .extend_from_slice(scratch.signature_series());
        self.has_reference_sig = true;
    }
}

/// Byte identity of two frames: dimensions, then one slice compare that
/// stops at the first differing chunk.
fn same_frame(frame: &GrayImage, other: &GrayImage) -> bool {
    frame.width() == other.width()
        && frame.height() == other.height()
        && frame.pixels() == other.pixels()
}

/// Copies `src` into the reusable buffer `dst` without reallocating when
/// the dimensions already match.
fn copy_frame_into(dst: &mut GrayImage, src: &GrayImage) {
    dst.reset_dimensions(src.width(), src.height());
    dst.pixels_mut().copy_from_slice(src.pixels());
}

/// `‖a − b‖ ≤ eps`, with an early exit once the running sum exceeds `eps²`
/// (misses bail out after a few samples instead of walking all 128).
fn euclidean_within(a: &[f64], b: &[f64], eps: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let limit = eps * eps;
    let mut sum = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        sum += d * d;
        if sum > limit {
            return false;
        }
    }
    true
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
            let want = crate::engine::RecognitionEngine::recognize_one(&p, &mut s1, frame);
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
        for seed in 0..5 {
            let got = rec
                .recognize(&p, &mut scratch, &jittered(&base, seed))
                .clone();
            assert_eq!(got, first, "jittered hold frames reuse the decision");
        }
        assert_eq!(rec.counters().incremental_hits, 5);
        assert_eq!(rec.counters().full_runs, 1);
        let dirty = rec.dirty_stats();
        assert_eq!(dirty.evaluated(), 5, "every jittered frame was diffed");
        assert_eq!(dirty.patched + dirty.full_fallbacks, 0, "no frame missed");
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
        let dirty = rec.dirty_stats();
        assert_eq!(
            dirty.patched + dirty.full_fallbacks,
            1,
            "the sign change missed the mask gate and refreshed the cache"
        );
    }

    #[test]
    fn incremental_patches_dirty_bands_on_a_local_change() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
        let base = yes_frame();
        rec.recognize(&p, &mut scratch, &base);

        // A 16×16 bright block in the top-left corner: one tile gains ~256
        // silhouette pixels (over tolerance), but only a band of rows is
        // dirty — well under the patch threshold.
        let mut blocked = base.clone();
        let w = blocked.width() as usize;
        for y in 0..16 {
            for x in 0..16 {
                blocked.pixels_mut()[y * w + x] = 255;
            }
        }
        rec.recognize(&p, &mut scratch, &blocked);
        let dirty = rec.dirty_stats();
        assert_eq!(dirty.patched, 1, "local change takes the band-patch path");
        assert_eq!(dirty.full_fallbacks, 0);
        assert_eq!(rec.counters().incremental_hits, 0);
    }

    #[test]
    fn resolution_change_misses_every_gate() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        for config in [TemporalConfig::strict(), TemporalConfig::incremental()] {
            let mut rec = StreamRecognizer::new(config);
            rec.recognize(&p, &mut scratch, &GrayImage::new(64, 64));
            rec.recognize(&p, &mut scratch, &GrayImage::new(32, 32));
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
    fn counter_arithmetic() {
        let a = GateCounters {
            strict_hits: 5,
            incremental_hits: 4,
            signature_short_circuits: 1,
            full_runs: 3,
        };
        assert_eq!(a.frames(), 13);
        assert_eq!(a.hits(), 10);
        let b = a.plus(&a);
        assert_eq!(b.frames(), 26);
        assert_eq!(b.since(&a), a);

        let mut d = DirtyStats {
            patched: 3,
            full_fallbacks: 1,
            coverage_deciles: [0; 10],
        };
        d.record(0.0);
        d.record(0.349);
        d.record(1.0); // full coverage clamps into the last bucket
        assert_eq!(d.evaluated(), 3);
        assert_eq!(d.coverage_deciles[0], 1);
        assert_eq!(d.coverage_deciles[3], 1);
        assert_eq!(d.coverage_deciles[9], 1);
        let dd = d.plus(&d);
        assert_eq!(dd.evaluated(), 6);
        assert_eq!(dd.since(&d), d);
    }

    #[test]
    fn euclidean_within_agrees_with_the_direct_formula() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.5, 2.0, 2.5];
        let d = ((0.5f64).powi(2) * 2.0).sqrt();
        assert!(euclidean_within(&a, &b, d + 1e-9));
        assert!(!euclidean_within(&a, &b, d - 1e-9));
        assert!(
            !euclidean_within(&a, &b[..2], 10.0),
            "length mismatch is a miss"
        );
    }
}
