//! The end-to-end recognition pipeline.

use crate::signature::{
    signature_from_contour, trace_contour_packed_with, trace_contour_with, ShapeSignature,
    SignatureError, SignatureScratch, SignatureStats,
};
use crate::timing::StageTimings;
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::threshold::{binarize_bytes_into, binarize_into, otsu_threshold};
use hdc_raster::{
    largest_component_packed_with, largest_component_with, morphology, BitMask, Bitmap,
    Connectivity, GrayImage, LabelScratch,
};
use hdc_sax::{IndexMatch, IndexMatchRef, QueryScratch, SaxIndex, SaxParams, SaxWord};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

/// How frames are binarised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SegmentationMode {
    /// Fixed threshold: pixels strictly above the value are foreground.
    Fixed(u8),
    /// Otsu's adaptive threshold per frame.
    Otsu,
}

/// Which kernel family the silhouette stages run on.
///
/// Both produce bit-identical masks, contours and decisions
/// (property-tested in `tests/packed_equivalence.rs`); they differ only in
/// speed. The byte path is retained as the oracle and as the honest
/// "before" baseline for the committed benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum KernelPath {
    /// One byte per pixel ([`Bitmap`]): the original kernels.
    Byte,
    /// Byte-compare binarisation (one branch-free byte op per pixel, which
    /// the compiler vectorises) followed by a single gather-multiply pack
    /// into the [`BitMask`] layout, then the word-parallel
    /// morphology/labelling/contour kernels. Combines the fastest binariser
    /// with the fastest silhouette kernels.
    #[default]
    Hybrid,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Segmentation mode.
    pub segmentation: SegmentationMode,
    /// Kernel family for the silhouette stages (segment → morphology →
    /// component → contour). Decisions are identical either way.
    pub kernels: KernelPath,
    /// Whether to apply a morphological opening after segmentation
    /// (removes sensor speckle at the cost of one pass over the frame).
    pub denoise: bool,
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
    /// Defaults used across the reproduction: fixed threshold at 128 (the
    /// synthetic frames are high-contrast, as are the paper's daylight
    /// frames), 128-sample signatures, SAX(16, 4), opening disabled.
    fn default() -> Self {
        PipelineConfig {
            segmentation: SegmentationMode::Fixed(128),
            kernels: KernelPath::default(),
            denoise: false,
            signature_len: 128,
            sax: SaxParams::default(),
            accept_threshold: 6.0,
            ambiguity_ratio: 0.8,
            min_blob_area: 64,
        }
    }
}

/// The outcome of recognising one frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// Every buffer the recognition loop needs, allocated once and reused across
/// frames: after a warm-up frame per resolution, recognising through
/// [`RecognitionPipeline::recognize_with`] performs no heap allocation.
#[derive(Debug, Clone)]
pub struct FrameScratch {
    /// Binarised frame.
    mask: Bitmap,
    /// Morphological-opening intermediate (erosion output).
    eroded: Bitmap,
    /// Morphological-opening output.
    opened: Bitmap,
    /// Isolated largest-component mask.
    blob: Bitmap,
    /// Binarised frame as 0/1 bytes ([`KernelPath::Hybrid`]'s pack input).
    /// Crate-visible: the incremental ladder band-packs from it.
    pub(crate) mask_u8: GrayImage,
    /// Binarised frame, bit-packed ([`KernelPath::Hybrid`]).
    /// Crate-visible: the incremental ladder diffs it against its cached
    /// mask and swaps it in on a whole-mask refresh.
    pub(crate) mask_bits: BitMask,
    /// Packed morphological-opening intermediate.
    eroded_bits: BitMask,
    /// Packed morphological-opening output.
    opened_bits: BitMask,
    /// Packed isolated largest-component mask.
    blob_bits: BitMask,
    /// Connected-component labelling buffers.
    label: LabelScratch,
    /// Contour + signature buffers.
    sig: SignatureScratch,
    /// SAX query buffers.
    query: QueryScratch,
}

impl FrameScratch {
    /// Fresh scratch; buffers grow to frame size on first use.
    pub fn new() -> Self {
        FrameScratch {
            mask: Bitmap::new(1, 1),
            eroded: Bitmap::new(1, 1),
            opened: Bitmap::new(1, 1),
            blob: Bitmap::new(1, 1),
            mask_u8: GrayImage::new(1, 1),
            mask_bits: BitMask::new(1, 1),
            eroded_bits: BitMask::new(1, 1),
            opened_bits: BitMask::new(1, 1),
            blob_bits: BitMask::new(1, 1),
            label: LabelScratch::new(),
            sig: SignatureScratch::new(),
            query: QueryScratch::new(),
        }
    }

    /// The z-normalised signature series of the most recently recognised
    /// frame (empty before the first successful frame).
    pub fn signature_series(&self) -> &[f64] {
        self.sig.series()
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

    /// The shared front half of the pipeline — segment → isolate largest blob
    /// → trace contour → signature — used by both the enrollment path
    /// ([`RecognitionPipeline::signature_of`], which discards the timings)
    /// and the timed recognition path. On success the signature series is in
    /// `scratch.sig` and its metadata is returned.
    pub(crate) fn signature_stages(
        &self,
        frame: &GrayImage,
        scratch: &mut FrameScratch,
        timings: &mut StageTimings,
    ) -> Result<SignatureStats, FrameFailure> {
        let threshold = self.segmentation_threshold(frame);
        let comp = match self.config.kernels {
            KernelPath::Byte => {
                let t0 = Instant::now();
                binarize_into(frame, threshold, &mut scratch.mask);
                if self.config.denoise {
                    morphology::open_into(&scratch.mask, &mut scratch.eroded, &mut scratch.opened);
                }
                timings.segment_us = t0.elapsed().as_micros() as u64;
                let mask = if self.config.denoise {
                    &scratch.opened
                } else {
                    &scratch.mask
                };
                let t1 = Instant::now();
                let comp = largest_component_with(
                    mask,
                    Connectivity::Eight,
                    &mut scratch.blob,
                    &mut scratch.label,
                );
                timings.component_us = t1.elapsed().as_micros() as u64;
                comp
            }
            KernelPath::Hybrid => {
                let t0 = Instant::now();
                self.segment_packed(frame, threshold, scratch);
                if self.config.denoise {
                    morphology::open_packed_into(
                        &scratch.mask_bits,
                        &mut scratch.eroded_bits,
                        &mut scratch.opened_bits,
                    );
                }
                timings.segment_us = t0.elapsed().as_micros() as u64;
                let mask = if self.config.denoise {
                    &scratch.opened_bits
                } else {
                    &scratch.mask_bits
                };
                let t1 = Instant::now();
                let comp = largest_component_packed_with(
                    mask,
                    Connectivity::Eight,
                    &mut scratch.blob_bits,
                    &mut scratch.label,
                );
                timings.component_us = t1.elapsed().as_micros() as u64;
                comp
            }
        };
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
        let traced = match self.config.kernels {
            KernelPath::Byte => trace_contour_with(&scratch.blob, &mut scratch.sig),
            KernelPath::Hybrid => trace_contour_packed_with(&scratch.blob_bits, &mut scratch.sig),
        };
        timings.contour_us = t2.elapsed().as_micros() as u64;
        traced.map_err(FrameFailure::Signature)?;

        let t3 = Instant::now();
        let stats = signature_from_contour(&mut scratch.sig, self.config.signature_len);
        timings.signature_us = t3.elapsed().as_micros() as u64;
        Ok(stats)
    }

    /// The frame's segmentation threshold under the active mode.
    pub(crate) fn segmentation_threshold(&self, frame: &GrayImage) -> u8 {
        match self.config.segmentation {
            SegmentationMode::Fixed(t) => t,
            SegmentationMode::Otsu => otsu_threshold(frame),
        }
    }

    /// Whole-frame binarise into the packed scratch mask: a vectorised byte
    /// compare into `mask_u8`, then one gather-multiply pack into
    /// `mask_bits`. The segmentation half of the hybrid kernel arm, shared
    /// with the incremental ladder's mask-level change detector (which
    /// band-packs from `mask_u8` on a patch).
    pub(crate) fn segment_packed(
        &self,
        frame: &GrayImage,
        threshold: u8,
        scratch: &mut FrameScratch,
    ) {
        binarize_bytes_into(frame, threshold, &mut scratch.mask_u8);
        scratch.mask_bits.pack_from_bytes(&scratch.mask_u8);
    }

    /// The back half of the silhouette stages starting from an
    /// already-segmented (and, when denoising, already-opened) packed mask —
    /// the incremental ladder hands its patched cached mask straight to
    /// labelling: largest component → area floor → contour → signature. On
    /// success the signature series is in `scratch.sig`.
    pub(crate) fn signature_stages_from_packed(
        &self,
        mask: &BitMask,
        scratch: &mut FrameScratch,
        timings: &mut StageTimings,
    ) -> Result<SignatureStats, FrameFailure> {
        let t1 = Instant::now();
        let comp = largest_component_packed_with(
            mask,
            Connectivity::Eight,
            &mut scratch.blob_bits,
            &mut scratch.label,
        );
        timings.component_us = t1.elapsed().as_micros() as u64;
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
        let traced = trace_contour_packed_with(&scratch.blob_bits, &mut scratch.sig);
        timings.contour_us = t2.elapsed().as_micros() as u64;
        traced.map_err(FrameFailure::Signature)?;
        let t3 = Instant::now();
        let stats = signature_from_contour(&mut scratch.sig, self.config.signature_len);
        timings.signature_us = t3.elapsed().as_micros() as u64;
        Ok(stats)
    }

    /// Extracts a signature from a raw frame (enrollment path, untimed).
    ///
    /// # Errors
    /// [`SignatureError`] when no usable blob exists in the frame.
    pub fn signature_of(&self, frame: &GrayImage) -> Result<ShapeSignature, SignatureError> {
        let mut scratch = FrameScratch::new();
        let mut timings = StageTimings::default();
        let stats = self
            .signature_stages(frame, &mut scratch, &mut timings)
            .map_err(FrameFailure::into_signature_error)?;
        Ok(ShapeSignature {
            series: scratch.sig.series().to_vec(),
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
        let series = scratch.sig.series().to_vec();
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
    /// ([`FrameScratch::signature_series`]).
    pub fn recognize_with<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) -> FrameResult<'a> {
        let mut timings = StageTimings::default();
        let stats = match self.signature_stages(frame, scratch, &mut timings) {
            Ok(stats) => stats,
            Err(failure) => return FrameResult::failed(timings, failure),
        };
        self.classify_pass(scratch, stats, timings)
    }

    /// The back half of [`RecognitionPipeline::recognize_with`]: SAX search
    /// over the signature already sitting in `scratch.sig`, then the
    /// acceptance-threshold + ambiguity-ratio decision. Split out so the
    /// temporal gate ([`crate::temporal`]) can recompute a signature and
    /// still skip this stage when the signature is within its cached-ε.
    pub(crate) fn classify_pass<'a>(
        &'a self,
        scratch: &mut FrameScratch,
        stats: SignatureStats,
        mut timings: StageTimings,
    ) -> FrameResult<'a> {
        let t = Instant::now();
        let matched = self
            .index
            .best_two_with(scratch.sig.series(), &mut scratch.query);
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
    fn otsu_mode_works_too() {
        let cfg = PipelineConfig {
            segmentation: SegmentationMode::Otsu,
            ..Default::default()
        };
        let mut p = RecognitionPipeline::new(cfg);
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        let frame = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 4.0, 3.0),
        );
        let r = p.recognize(&frame);
        assert_eq!(r.decision.as_deref(), Some("Yes"));
    }

    #[test]
    fn denoise_survives_speckle() {
        use rand::{rngs::SmallRng, SeedableRng};
        let cfg = PipelineConfig {
            denoise: true,
            ..Default::default()
        };
        let mut p = RecognitionPipeline::new(cfg);
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        let mut frame = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 4.0, 3.0),
        );
        let mut rng = SmallRng::seed_from_u64(99);
        hdc_raster::noise::add_salt_pepper(&mut frame, 0.02, &mut rng);
        let r = p.recognize(&frame);
        assert_eq!(
            r.decision.as_deref(),
            Some("Yes"),
            "opening removes speckle"
        );
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
