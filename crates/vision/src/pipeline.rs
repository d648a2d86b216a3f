//! The end-to-end recognition pipeline.

use crate::signature::{
    signature_from_contour, trace_contour_packed_with, ShapeSignature, SignatureError,
    SignatureScratch, SignatureStats,
};
use crate::timing::StageTimings;
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::threshold::binarize_packed_into;
use hdc_raster::{
    largest_component_packed_lazy, BitMask, Component, Connectivity, GrayImage, LabelScratch,
};
use hdc_sax::{IndexMatch, IndexMatchRef, QueryScratch, SaxIndex, SaxParams, SaxWord};
use std::fmt;
use std::time::Instant;

/// The segmentation threshold: a frame's pixels strictly above it are
/// foreground. The synthetic frames are high-contrast, as are the paper's
/// daylight frames, so one fixed value serves every read; and since it is
/// below 255, a silhouette frame whose pixels are all 0 or 255 segments to
/// exactly its 255 pixels, which is what lets a mask rasterised straight
/// into words stand in for the frame
/// ([`RecognitionPipeline::read_mask_with`]).
pub const SEGMENTATION_THRESHOLD: u8 = 128;

/// Pipeline configuration.
///
/// The silhouette stages have one kernel family: the frame is binarised
/// straight into [`BitMask`] words (64 pixels per `u64`), then labelled
/// and traced by the word-parallel kernels. The byte-per-pixel kernels it
/// replaced survive as the oracle in `tests/packed_equivalence.rs`, which
/// checks every decision, diagnostic and signature series bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Signature length (samples after resampling).
    pub signature_len: usize,
    /// SAX parameters for the sign database.
    pub sax: SaxParams,
    /// Acceptance threshold on the exact rotation-invariant distance.
    /// Calibration replaces this with a margin-derived value.
    pub accept_threshold: f64,
    /// Ambiguity (ratio) test: the best match is accepted only when its
    /// distance is at most this fraction of the runner-up's (a different
    /// label). Near the dead angle every sign collapses to the same
    /// silhouette — the ratio test is what turns that collapse into a
    /// rejection instead of an arbitrary pick.
    pub ambiguity_ratio: f64,
    /// Minimum blob area in pixels for the signaller to count as present.
    pub min_blob_area: usize,
}

impl Default for PipelineConfig {
    /// Defaults used across the reproduction: 128-sample signatures,
    /// SAX(16, 4).
    fn default() -> Self {
        PipelineConfig {
            signature_len: 128,
            sax: SaxParams::default(),
            accept_threshold: 6.0,
            ambiguity_ratio: 0.8,
            min_blob_area: 64,
        }
    }
}

/// The outcome of recognising one frame.
#[derive(Debug, Clone)]
pub struct RecognitionResult {
    /// The accepted sign label, or `None` when nothing matched within the
    /// threshold (unknown pose, dead angle, no signaller, …).
    pub decision: Option<String>,
    /// The best database match regardless of threshold (diagnostics).
    pub best: Option<IndexMatch>,
    /// The extracted signature, when one could be computed.
    pub signature: Option<ShapeSignature>,
    /// The SAX word of the query frame, when a signature existed.
    pub word: Option<SaxWord>,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Why no signature was available (when `signature` is `None`).
    pub failure: Option<String>,
}

impl RecognitionResult {
    fn empty(timings: StageTimings, failure: String) -> Self {
        RecognitionResult {
            decision: None,
            best: None,
            signature: None,
            word: None,
            timings,
            failure: Some(failure),
        }
    }
}

/// Why a frame produced no decision, without allocating the message string
/// (the steady-state loop must stay allocation-free even on reject frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFailure {
    /// The segmented frame contained no foreground blob at all.
    NoBlob,
    /// The largest blob was below the configured minimum area.
    BlobTooSmall {
        /// Area of the largest blob, in pixels.
        area: usize,
        /// The configured minimum.
        required: usize,
    },
    /// Contour tracing / signature extraction failed.
    Signature(SignatureError),
}

impl fmt::Display for FrameFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameFailure::NoBlob => write!(f, "no foreground blob"),
            FrameFailure::BlobTooSmall { area, required } => {
                write!(f, "blob area {area} below minimum {required}")
            }
            FrameFailure::Signature(e) => e.fmt(f),
        }
    }
}

impl FrameFailure {
    /// Maps to the enrollment-path error type ([`SignatureError`]), matching
    /// what [`RecognitionPipeline::signature_of`] has always reported: an
    /// empty mask and an undersized blob both surface as signature errors.
    fn into_signature_error(self) -> SignatureError {
        match self {
            FrameFailure::NoBlob => SignatureError::EmptyMask,
            FrameFailure::BlobTooSmall { area, required } => SignatureError::BlobTooSmall {
                contour_points: area,
                required,
            },
            FrameFailure::Signature(e) => e,
        }
    }
}

/// The allocation-free outcome of [`RecognitionPipeline::recognize_with`]:
/// the label is borrowed from the sign database and the signature series
/// stays in the [`FrameScratch`] (readable via [`FrameScratch::signature_series`]).
#[derive(Debug, Clone, Copy)]
pub struct FrameResult<'a> {
    /// The accepted sign label, or `None` when nothing matched within the
    /// threshold.
    pub decision: Option<&'a str>,
    /// The best database match regardless of threshold (diagnostics).
    pub best: Option<IndexMatchRef<'a>>,
    /// Exact distance to the best template of a *different* label, when one
    /// exists (the ambiguity-test denominator).
    pub runner_up: Option<f64>,
    /// Signature metadata, when a signature was extracted.
    pub stats: Option<SignatureStats>,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Why no signature was available (when `stats` is `None`).
    pub failure: Option<FrameFailure>,
}

impl<'a> FrameResult<'a> {
    pub(crate) fn failed(timings: StageTimings, failure: FrameFailure) -> Self {
        FrameResult {
            decision: None,
            best: None,
            runner_up: None,
            stats: None,
            timings,
            failure: Some(failure),
        }
    }
}

/// The outcome of [`RecognitionPipeline::read_with`]: one labelling of the
/// frame, read by both recognition channels.
#[derive(Debug, Clone)]
pub struct FrameRead<'a> {
    /// The largest foreground component of the segmented mask; `None` when
    /// the mask has no foreground.
    pub component: Option<Component>,
    /// The static channel's outcome, when a decision was asked for.
    pub result: Option<FrameResult<'a>>,
}

/// Every buffer the recognition loop needs, allocated once and reused across
/// frames: after a warm-up frame per resolution, recognising through
/// [`RecognitionPipeline::recognize_with`] performs no heap allocation.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    /// Binarised frame, bit-packed. Crate-visible: the incremental gate
    /// diffs it against its cached mask and swaps it in on a miss.
    pub(crate) mask_bits: BitMask,
    /// The silhouette stages' buffers, borrowed beside a mask they read.
    blob: BlobScratch,
    /// SAX query buffers.
    query: QueryScratch,
}

/// The buffers of the silhouette stages that follow segmentation.
#[derive(Debug, Clone)]
struct BlobScratch {
    /// Isolated largest-component mask, bit-packed: written only when the
    /// segmented mask holds more than one component.
    bits: BitMask,
    /// Connected-component labelling buffers.
    label: LabelScratch,
    /// Contour + signature buffers.
    sig: SignatureScratch,
}

impl FrameScratch {
    /// Fresh scratch; buffers grow to frame size on first use.
    pub fn new() -> Self {
        FrameScratch {
            mask_bits: BitMask::new(1, 1),
            blob: BlobScratch {
                bits: BitMask::new(1, 1),
                label: LabelScratch::new(),
                sig: SignatureScratch::new(),
            },
            query: QueryScratch::new(),
        }
    }

    /// The z-normalised signature series of the most recently recognised
    /// frame (empty before the first successful frame).
    pub fn signature_series(&self) -> &[f64] {
        self.blob.sig.series()
    }
}

impl Default for FrameScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The full recognition pipeline: segmentation → blob isolation → contour →
/// signature → SAX database match.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct RecognitionPipeline {
    config: PipelineConfig,
    index: SaxIndex,
}

impl RecognitionPipeline {
    /// Creates a pipeline with an empty sign database.
    pub fn new(config: PipelineConfig) -> Self {
        RecognitionPipeline {
            index: SaxIndex::new(config.sax, config.signature_len),
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The underlying sign database.
    pub fn index(&self) -> &SaxIndex {
        &self.index
    }

    /// Number of enrolled sign templates.
    pub fn template_count(&self) -> usize {
        self.index.len()
    }

    /// The silhouette stages of every read, on an already-segmented packed
    /// `mask`: one labelling, then, with `sign`, area floor → contour →
    /// signature from its largest component. A mask whose only component
    /// is that blob, the usual case, is traced where it is; otherwise the
    /// blob is rebuilt into `blob.bits` first. On success the signature
    /// series is in `blob.sig` and its metadata is returned.
    fn silhouette(
        &self,
        mask: &BitMask,
        blob: &mut BlobScratch,
        sign: bool,
        timings: &mut StageTimings,
    ) -> (
        Option<Component>,
        Option<Result<SignatureStats, FrameFailure>>,
    ) {
        let t = Instant::now();
        let largest = largest_component_packed_lazy(
            mask,
            Connectivity::Eight,
            &mut blob.bits,
            &mut blob.label,
        );
        timings.component_us = t.elapsed().as_micros() as u64;
        let (component, copied) = match largest {
            Some((c, copied)) => (Some(c), copied),
            None => (None, false),
        };
        let whole = if copied { &blob.bits } else { mask };
        let signed =
            sign.then(|| self.blob_signature(component.as_ref(), whole, &mut blob.sig, timings));
        (component, signed)
    }

    /// Area floor → contour → signature of the largest component `comp`,
    /// which the packed mask `whole` holds alone.
    fn blob_signature(
        &self,
        comp: Option<&Component>,
        whole: &BitMask,
        sig: &mut SignatureScratch,
        timings: &mut StageTimings,
    ) -> Result<SignatureStats, FrameFailure> {
        let Some(comp) = comp else {
            return Err(FrameFailure::NoBlob);
        };
        if comp.area < self.config.min_blob_area {
            return Err(FrameFailure::BlobTooSmall {
                area: comp.area,
                required: self.config.min_blob_area,
            });
        }

        let t2 = Instant::now();
        let traced = trace_contour_packed_with(whole, sig);
        timings.contour_us = t2.elapsed().as_micros() as u64;
        traced.map_err(FrameFailure::Signature)?;

        let t3 = Instant::now();
        let stats = signature_from_contour(sig, self.config.signature_len);
        timings.signature_us = t3.elapsed().as_micros() as u64;
        Ok(stats)
    }

    /// Whole-frame binarise straight into the packed scratch mask
    /// `mask_bits`, one read of the frame and no byte plane
    /// ([`binarize_packed_into`]). Shared by every read and by the
    /// incremental gate's mask-level change detector (which adopts
    /// `mask_bits` as its cached mask on a miss).
    pub(crate) fn segment_packed(&self, frame: &GrayImage, scratch: &mut FrameScratch) {
        binarize_packed_into(frame, SEGMENTATION_THRESHOLD, &mut scratch.mask_bits);
    }

    /// The silhouette stages starting from an already-segmented packed
    /// mask — a miss of the incremental gate hands the fresh mask it has
    /// just adopted straight to labelling: largest component → area floor →
    /// contour → signature.
    /// On success the signature series is in the scratch.
    pub(crate) fn signature_stages_from_packed(
        &self,
        mask: &BitMask,
        scratch: &mut FrameScratch,
        timings: &mut StageTimings,
    ) -> Result<SignatureStats, FrameFailure> {
        let (_, signed) = self.silhouette(mask, &mut scratch.blob, true, timings);
        signed.expect("a signature was asked for")
    }

    /// Extracts a signature from a raw frame (enrollment path, untimed).
    ///
    /// # Errors
    /// [`SignatureError`] when no usable blob exists in the frame.
    pub fn signature_of(&self, frame: &GrayImage) -> Result<ShapeSignature, SignatureError> {
        let mut scratch = FrameScratch::new();
        let mut timings = StageTimings::default();
        self.segment_packed(frame, &mut scratch);
        let (_, signed) =
            self.silhouette(&scratch.mask_bits, &mut scratch.blob, true, &mut timings);
        let stats = signed
            .expect("a signature was asked for")
            .map_err(FrameFailure::into_signature_error)?;
        Ok(ShapeSignature {
            series: scratch.blob.sig.series().to_vec(),
            contour_len: stats.contour_len,
            centroid: stats.centroid,
            mean_radius: stats.mean_radius,
        })
    }

    /// Enrolls a canonical template frame under a label.
    ///
    /// # Errors
    /// [`SignatureError`] when the frame contains no usable signaller blob.
    pub fn enroll(
        &mut self,
        label: impl Into<String>,
        frame: &GrayImage,
    ) -> Result<(), SignatureError> {
        let sig = self.signature_of(frame)?;
        self.index.insert(label, &sig.series);
        Ok(())
    }

    /// Calibrates the acceptance threshold from the enrolled templates: a
    /// fraction of the smallest inter-template rotation-invariant distance,
    /// so that templates never collide and queries must be closer to a
    /// template than templates are to each other.
    ///
    /// Returns the new threshold. No-op (returns the current threshold) with
    /// fewer than two templates.
    pub fn calibrate_threshold(&mut self, margin_fraction: f64) -> f64 {
        let templates = self.index.templates();
        let mut min_pair = f64::INFINITY;
        for i in 0..templates.len() {
            for j in (i + 1)..templates.len() {
                let (d, _) = hdc_timeseries::min_rotated_euclidean(
                    &templates[i].series,
                    &templates[j].series,
                    1,
                )
                .expect("templates are canonical equal-length series");
                min_pair = min_pair.min(d);
            }
        }
        if min_pair.is_finite() {
            self.config.accept_threshold = min_pair * margin_fraction;
        }
        self.config.accept_threshold
    }

    /// Default margin fraction used by [`RecognitionPipeline::calibrate_from_views`].
    pub const DEFAULT_MARGIN_FRACTION: f64 = 0.95;

    /// One-call setup matching the paper's protocol: enroll the three
    /// marshalling signs from their canonical full-on (0° azimuth) views and
    /// calibrate the acceptance threshold.
    ///
    /// The paper: *"Using the 0° relative azimuth image as the canonical
    /// reference…"*.
    ///
    /// # Panics
    /// Panics if the canonical views produce no usable silhouettes (the
    /// caller supplied a degenerate view specification).
    pub fn calibrate_from_views(&mut self, canonical: &ViewSpec) {
        for sign in MarshallingSign::ALL {
            let frame = render_sign(sign, canonical);
            self.enroll(sign.label(), &frame)
                .expect("canonical view must show the signaller");
        }
        self.calibrate_threshold(Self::DEFAULT_MARGIN_FRACTION);
    }

    /// Recognises one frame, timing every stage.
    ///
    /// Thin allocating wrapper over [`RecognitionPipeline::recognize_with`]
    /// that materialises the owned diagnostics (label, signature, SAX word).
    pub fn recognize(&self, frame: &GrayImage) -> RecognitionResult {
        let mut scratch = FrameScratch::new();
        let r = self.recognize_with(&mut scratch, frame);
        if let Some(failure) = r.failure {
            return RecognitionResult::empty(r.timings, failure.to_string());
        }
        let stats = r.stats.expect("successful frames carry signature stats");
        let series = scratch.signature_series().to_vec();
        let word = self.index.encode(&series);
        RecognitionResult {
            decision: r.decision.map(str::to_owned),
            best: r.best.map(IndexMatchRef::into_owned),
            signature: Some(ShapeSignature {
                series,
                contour_len: stats.contour_len,
                centroid: stats.centroid,
                mean_radius: stats.mean_radius,
            }),
            word: Some(word),
            timings: r.timings,
            failure: None,
        }
    }

    /// Recognises one frame through caller-provided scratch buffers: the
    /// steady-state form of [`RecognitionPipeline::recognize`] that performs
    /// no heap allocation after the first frame at a given resolution.
    ///
    /// The decision logic (acceptance threshold + ambiguity ratio) is
    /// identical to `recognize`; the result borrows its labels from the sign
    /// database and leaves the signature series in the scratch
    /// ([`FrameScratch::signature_series`]). It is
    /// [`RecognitionPipeline::read_with`] asked for a decision.
    pub fn recognize_with<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) -> FrameResult<'a> {
        self.read_with(scratch, frame, true)
            .result
            .expect("a decision was asked for")
    }

    /// Reads one frame once for both recognition channels: segments it,
    /// labels the mask once and returns its largest component — what the
    /// wave-off channel's features are taken from — and, if `decide`,
    /// continues from that same blob through area floor → contour →
    /// signature → SAX match to the static decision.
    ///
    /// Like [`RecognitionPipeline::recognize_with`] (which is this entry
    /// with `decide` set) it performs no heap allocation after the first
    /// frame at a given resolution. The component is bit-identical to the
    /// largest 8-connected component of `binarize(frame, 128)` (128 being
    /// [`SEGMENTATION_THRESHOLD`]), so one labelling serves both channels.
    pub fn read_with<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
        decide: bool,
    ) -> FrameRead<'a> {
        let mut timings = StageTimings::default();
        let t = Instant::now();
        self.segment_packed(frame, scratch);
        timings.segment_us = t.elapsed().as_micros() as u64;
        let (component, signed) =
            self.silhouette(&scratch.mask_bits, &mut scratch.blob, decide, &mut timings);
        self.decide_from(scratch, component, signed, timings)
    }

    /// [`RecognitionPipeline::read_with`] of a frame that arrives already
    /// segmented: `mask` is the foreground of a silhouette frame whose
    /// pixels are all 0 or 255, such as one rasterised straight into mask
    /// words. Labelling starts from it, so the frame, the binarise and the
    /// pack are skipped; everything from the largest component on is
    /// `read_with`'s own code. A mask whose only component is the
    /// silhouette, the usual case, is its own blob: it is traced where it
    /// is, and the scratch's blob buffer is neither written nor grown.
    /// Such a frame segments to exactly its 255 pixels, since
    /// [`SEGMENTATION_THRESHOLD`] is below 255.
    pub fn read_mask_with<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        mask: &BitMask,
        decide: bool,
    ) -> FrameRead<'a> {
        let mut timings = StageTimings::default();
        let (component, signed) = self.silhouette(mask, &mut scratch.blob, decide, &mut timings);
        self.decide_from(scratch, component, signed, timings)
    }

    /// The shared back of both reads: the SAX match and decision on a
    /// signature the silhouette stages computed, if they were asked to.
    fn decide_from<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        component: Option<Component>,
        signed: Option<Result<SignatureStats, FrameFailure>>,
        timings: StageTimings,
    ) -> FrameRead<'a> {
        let result = signed.map(|signed| match signed {
            Ok(stats) => self.classify_pass(scratch, stats, timings),
            Err(failure) => FrameResult::failed(timings, failure),
        });
        FrameRead { component, result }
    }

    /// The back half of [`RecognitionPipeline::recognize_with`]: SAX search
    /// over the signature already sitting in the scratch, then the
    /// acceptance-threshold + ambiguity-ratio decision. Split out so the
    /// temporal gate ([`crate::temporal`]) can run it after the signature
    /// stages on its own cached mask.
    pub(crate) fn classify_pass<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        stats: SignatureStats,
        mut timings: StageTimings,
    ) -> FrameResult<'a> {
        let t = Instant::now();
        let matched = self
            .index
            .best_two_with(scratch.blob.sig.series(), &mut scratch.query);
        timings.classify_us = t.elapsed().as_micros() as u64;

        let (best, runner_up) = match matched {
            Some((b, r)) => (Some(b), r),
            None => (None, None),
        };
        let decision = best
            .as_ref()
            .filter(|m| {
                let within = m.distance <= self.config.accept_threshold;
                let unambiguous = runner_up
                    .map(|r| m.distance <= self.config.ambiguity_ratio * r)
                    .unwrap_or(true);
                within && unambiguous
            })
            .map(|m| m.label);

        FrameResult {
            decision,
            best,
            runner_up,
            stats: Some(stats),
            timings,
            failure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calibrated() -> RecognitionPipeline {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        p
    }

    #[test]
    fn recognises_all_three_signs_frontal() {
        let p = calibrated();
        for sign in MarshallingSign::ALL {
            let frame = render_sign(sign, &ViewSpec::paper_default(0.0, 5.0, 3.0));
            let r = p.recognize(&frame);
            assert_eq!(r.decision.as_deref(), Some(sign.label()), "{sign}");
            assert!(r.best.unwrap().distance < 1e-6, "self-match is exact");
        }
    }

    #[test]
    fn recognises_within_altitude_window() {
        // the paper's E2 claim: an altitude window around the canonical view
        // (theirs 2–5 m; our capsule figure gives 2.5–6 m — same shape,
        // shifted by the synthetic body geometry, see EXPERIMENTS.md E2)
        let p = calibrated();
        for alt in [2.5, 3.0, 4.0, 5.0, 6.0] {
            let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, alt, 3.0));
            let r = p.recognize(&frame);
            assert_eq!(r.decision.as_deref(), Some("No"), "altitude {alt}");
        }
    }

    #[test]
    fn rejects_outside_altitude_window() {
        let p = calibrated();
        for alt in [1.0, 1.5, 10.0] {
            let frame = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, alt, 3.0));
            let r = p.recognize(&frame);
            assert_ne!(
                r.decision.as_deref(),
                Some("No"),
                "altitude {alt} is outside the window"
            );
        }
    }

    #[test]
    fn azimuth_window_boundaries() {
        // recognisable in the frontal cone, rejected beyond the critical
        // azimuth (paper: erratic > 65°; our figure: > ~32°)
        let p = calibrated();
        for az in [0.0, 15.0, 30.0] {
            let frame = render_sign(MarshallingSign::Yes, &ViewSpec::paper_default(az, 5.0, 3.0));
            assert_eq!(
                p.recognize(&frame).decision.as_deref(),
                Some("Yes"),
                "azimuth {az} inside the cone"
            );
        }
        for az in [40.0, 50.0, 65.0, 90.0] {
            let frame = render_sign(MarshallingSign::Yes, &ViewSpec::paper_default(az, 5.0, 3.0));
            assert_eq!(
                p.recognize(&frame).decision,
                None,
                "azimuth {az} beyond the cone"
            );
        }
    }

    #[test]
    fn rejects_empty_frame() {
        let p = calibrated();
        let r = p.recognize(&GrayImage::new(640, 480));
        assert!(r.decision.is_none());
        assert!(r.failure.as_deref() == Some("no foreground blob"));
    }

    #[test]
    fn rejects_tiny_blob() {
        let p = calibrated();
        let mut frame = GrayImage::new(640, 480);
        frame.set(10, 10, 255);
        frame.set(11, 10, 255);
        let r = p.recognize(&frame);
        assert!(r.decision.is_none());
        assert!(r.failure.unwrap().contains("below minimum"));
    }

    #[test]
    fn side_view_is_rejected() {
        // 90° azimuth: the sign collapses into the torso — the dead angle
        let p = calibrated();
        let frame = render_sign(
            MarshallingSign::No,
            &ViewSpec::paper_default(90.0, 5.0, 3.0),
        );
        let r = p.recognize(&frame);
        assert_ne!(
            r.decision.as_deref(),
            Some("No"),
            "side view must not read as No"
        );
    }

    #[test]
    fn timings_are_recorded() {
        let p = calibrated();
        let frame = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        );
        let r = p.recognize(&frame);
        assert!(r.timings.total_us() > 0);
        assert!(r.timings.segment_us > 0);
        assert!(r.timings.classify_us > 0);
    }

    #[test]
    fn calibration_sets_threshold_from_margin() {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        let before = p.config().accept_threshold;
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        let after = p.config().accept_threshold;
        assert_ne!(before, after);
        assert_eq!(p.template_count(), 3);
        assert!(after > 0.0);
    }

    #[test]
    fn scratch_path_matches_allocating_path() {
        // One reused scratch across a mixed stream of frames (different
        // signs, views, failures) must reproduce `recognize` exactly.
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut views = vec![];
        for az in [0.0, 15.0, 40.0, 90.0] {
            for sign in MarshallingSign::ALL {
                views.push(render_sign(sign, &ViewSpec::paper_default(az, 5.0, 3.0)));
            }
        }
        views.push(GrayImage::new(64, 64)); // no blob
        for frame in &views {
            let owned = p.recognize(frame);
            let lean = p.recognize_with(&mut scratch, frame);
            assert_eq!(lean.decision.map(str::to_owned), owned.decision);
            assert_eq!(lean.best.map(IndexMatchRef::into_owned), owned.best);
            assert_eq!(
                lean.failure.map(|f| f.to_string()),
                owned.failure,
                "failure strings must match the historical ones"
            );
            match (&lean.stats, &owned.signature) {
                (Some(st), Some(sig)) => {
                    assert_eq!(scratch.signature_series(), &sig.series[..]);
                    assert_eq!(st.contour_len, sig.contour_len);
                    assert_eq!(st.centroid, sig.centroid);
                    assert_eq!(st.mean_radius, sig.mean_radius);
                }
                (None, None) => {}
                _ => panic!("stats and signature must agree on availability"),
            }
        }
    }

    #[test]
    fn one_read_serves_both_channels() {
        // read_with's component is the byte labeller's largest component of
        // the fixed-128 mask, and its decision is recognize's
        use hdc_raster::{largest_component, threshold::binarize};
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let mut frames: Vec<GrayImage> = [0.0, 40.0, 90.0]
            .iter()
            .map(|&az| render_sign(MarshallingSign::No, &ViewSpec::paper_default(az, 5.0, 3.0)))
            .collect();
        // a figure with a stray speck: two components, so the mask read
        // isolates the figure instead of reading the mask where it is
        let mut specked = frames[0].clone();
        specked.set(5, 5, 255);
        frames.push(specked);
        let mut speck = GrayImage::new(640, 480);
        speck.set(10, 10, 255);
        frames.push(speck);
        frames.push(GrayImage::new(640, 480));
        for frame in &frames {
            let labelled =
                largest_component(&binarize(frame, 128), Connectivity::Eight).map(|(_, c)| c);
            let blind = p.read_with(&mut scratch, frame, false);
            assert_eq!(blind.component, labelled);
            assert!(blind.result.is_none(), "no decision was asked for");
            let sighted = p.read_with(&mut scratch, frame, true);
            assert_eq!(sighted.component, labelled);
            let r = sighted.result.expect("a decision was asked for");
            let owned = p.recognize(frame);
            assert_eq!(r.decision.map(str::to_owned), owned.decision);
            assert_eq!(r.failure.map(|f| f.to_string()), owned.failure);

            // the same frame handed over already segmented reads the same
            let mask = BitMask::from_bitmap(&binarize(frame, 128));
            for decide in [false, true] {
                let from_mask = p.read_mask_with(&mut scratch, &mask, decide);
                let from_frame = p.read_with(&mut scratch, frame, decide);
                assert_eq!(from_mask.component, from_frame.component);
                assert_eq!(
                    from_mask.result.map(|r| (r.decision, r.failure)),
                    from_frame.result.map(|r| (r.decision, r.failure))
                );
            }
        }
    }

    #[test]
    fn scratch_path_times_contour_and_signature_separately() {
        let p = calibrated();
        let mut scratch = FrameScratch::new();
        let frame = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        );
        let r = p.recognize_with(&mut scratch, &frame);
        assert!(r.failure.is_none());
        assert!(r.timings.segment_us > 0);
        // contour and signature are measured independently now (no 50/50
        // split); both stages do real work on a full silhouette, so totals
        // must be recorded — but we can only assert the sum robustly since
        // either stage may round to 0 µs on a fast machine.
        assert!(r.timings.total_us() > 0);
    }

    #[test]
    fn oblique_frame_processes_faster_than_frontal() {
        // the paper's 27 ms (65°) < 38 ms (0°) ordering comes from the
        // smaller silhouette: check the contour is shorter at 65°
        let p = calibrated();
        let f0 = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        let f65 = render_sign(
            MarshallingSign::No,
            &ViewSpec::paper_default(65.0, 5.0, 3.0),
        );
        let r0 = p.recognize(&f0);
        let r65 = p.recognize(&f65);
        let c0 = r0.signature.unwrap().contour_len;
        let c65 = r65.signature.unwrap().contour_len;
        assert!(
            c65 < c0,
            "oblique contour {c65} should be shorter than frontal {c0}"
        );
    }
}
