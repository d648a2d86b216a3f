//! The recognition pipeline against a byte-per-pixel oracle.
//!
//! `RecognitionPipeline` has one silhouette path: the frame is binarised
//! straight into bit-packed mask words, then labelled and traced by the
//! word-parallel kernels. It is admissible only if it computes exactly what
//! the plain byte composition in this file computes — `binarize` (or Otsu)
//! → largest 8-connected component → blob-area floor → `extract_signature`
//! → the sign database's best two → the accept and ratio rule — with the
//! same decisions, diagnostics and signature series, bit for bit, across
//! accept frames, reject frames, noisy frames, odd widths and both
//! segmentation modes. The byte composition lives only here.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::threshold::{binarize, otsu_threshold};
use hdc_raster::{largest_component, Connectivity, GrayImage};
use hdc_sax::SaxIndex;
use hdc_vision::{
    extract_signature, FrameFailure, FrameScratch, PipelineConfig, RecognitionPipeline,
    SegmentationMode, ShapeSignature,
};

/// What the byte composition concludes about one frame.
struct ByteRead {
    decision: Option<String>,
    best: Option<(String, f64)>,
    runner_up: Option<f64>,
    failure: Option<FrameFailure>,
    signature: Option<ShapeSignature>,
}

impl ByteRead {
    fn failed(failure: FrameFailure) -> Self {
        ByteRead {
            decision: None,
            best: None,
            runner_up: None,
            failure: Some(failure),
            signature: None,
        }
    }
}

/// The threshold the pipeline's segmentation mode picks for `frame`.
fn threshold(config: &PipelineConfig, frame: &GrayImage) -> u8 {
    match config.segmentation {
        SegmentationMode::Fixed(t) => t,
        SegmentationMode::Otsu => otsu_threshold(frame),
    }
}

/// The byte oracle for the signature stages: the frame's largest
/// 8-connected blob on one byte per pixel, its area floor and its
/// centroid-distance signature.
fn byte_signature(
    config: &PipelineConfig,
    frame: &GrayImage,
) -> Result<ShapeSignature, FrameFailure> {
    let mask = binarize(frame, threshold(config, frame));
    let (blob, comp) = largest_component(&mask, Connectivity::Eight).ok_or(FrameFailure::NoBlob)?;
    if comp.area < config.min_blob_area {
        return Err(FrameFailure::BlobTooSmall {
            area: comp.area,
            required: config.min_blob_area,
        });
    }
    extract_signature(&blob, config.signature_len).map_err(FrameFailure::Signature)
}

/// The byte oracle for a whole read: [`byte_signature`], then the best two
/// templates of the pipeline's own database and the accept and ratio rule.
fn byte_recognize(pipeline: &RecognitionPipeline, frame: &GrayImage) -> ByteRead {
    let config = pipeline.config();
    let signature = match byte_signature(config, frame) {
        Ok(s) => s,
        Err(failure) => return ByteRead::failed(failure),
    };
    let (best, runner_up) = match pipeline.index().best_two(&signature.series) {
        Some((b, r)) => (Some(b), r),
        None => (None, None),
    };
    let decision = best
        .as_ref()
        .filter(|m| {
            m.distance <= config.accept_threshold
                && runner_up.is_none_or(|r| m.distance <= config.ambiguity_ratio * r)
        })
        .map(|m| m.label.clone());
    ByteRead {
        decision,
        best: best.map(|m| (m.label, m.distance)),
        runner_up,
        failure: None,
        signature: Some(signature),
    }
}

/// A pipeline calibrated on the canonical views, after checking that its
/// enrolled templates are the byte oracle's signatures of those views.
fn calibrated(config: PipelineConfig) -> RecognitionPipeline {
    let canonical = ViewSpec::paper_default(0.0, 5.0, 3.0);
    let mut pipeline = RecognitionPipeline::new(config);
    pipeline.calibrate_from_views(&canonical);
    let mut oracle = SaxIndex::new(config.sax, config.signature_len);
    for sign in MarshallingSign::ALL {
        let frame = render_sign(sign, &canonical);
        let sig = byte_signature(&config, &frame).expect("canonical view shows the signaller");
        oracle.insert(sign.label(), &sig.series);
    }
    let templates = |index: &SaxIndex| {
        index
            .templates()
            .iter()
            .map(|t| (t.label.clone(), t.series.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(templates(pipeline.index()), templates(&oracle), "templates");
    pipeline
}

fn assert_matches_byte_oracle(pipeline: &RecognitionPipeline, frames: &[GrayImage], context: &str) {
    let mut scratch = FrameScratch::new();
    for (i, frame) in frames.iter().enumerate() {
        let want = byte_recognize(pipeline, frame);
        let got = pipeline.recognize_with(&mut scratch, frame);
        assert_eq!(
            got.decision.map(str::to_owned),
            want.decision,
            "{context} frame {i}: decision"
        );
        assert_eq!(
            got.best.map(|m| (m.label.to_owned(), m.distance)),
            want.best,
            "{context} frame {i}: best match"
        );
        assert_eq!(
            got.runner_up, want.runner_up,
            "{context} frame {i}: runner-up"
        );
        assert_eq!(got.failure, want.failure, "{context} frame {i}: failure");
        match (got.stats, &want.signature) {
            (Some(a), Some(b)) => {
                assert_eq!(a.contour_len, b.contour_len, "{context} frame {i}");
                assert_eq!(a.centroid, b.centroid, "{context} frame {i}");
                assert_eq!(a.mean_radius, b.mean_radius, "{context} frame {i}");
                assert_eq!(
                    scratch.signature_series(),
                    &b.series[..],
                    "{context} frame {i}: signature series"
                );
            }
            (None, None) => {}
            other => panic!("{context} frame {i}: stats availability differs: {other:?}"),
        }
    }
}

fn view_sweep() -> Vec<GrayImage> {
    let mut frames = Vec::new();
    for sign in MarshallingSign::ALL {
        for az in [0.0, 12.0, 30.0, 45.0, 65.0, 90.0] {
            frames.push(render_sign(sign, &ViewSpec::paper_default(az, 5.0, 3.0)));
        }
        for alt in [2.5, 4.0, 8.0] {
            frames.push(render_sign(sign, &ViewSpec::paper_default(0.0, alt, 3.0)));
        }
    }
    // Reject frames: empty, sub-minimum speck, single column of pixels.
    frames.push(GrayImage::new(320, 240));
    let mut speck = GrayImage::new(320, 240);
    speck.set(10, 10, 255);
    frames.push(speck);
    let mut column = GrayImage::new(320, 240);
    for y in 40..200 {
        column.set(160, y, 255);
    }
    frames.push(column);
    frames
}

#[test]
fn packed_decisions_match_byte_decisions() {
    let pipeline = calibrated(PipelineConfig::default());
    assert_matches_byte_oracle(&pipeline, &view_sweep(), "default config");
}

#[test]
fn packed_matches_byte_under_salt_and_pepper() {
    use rand::{rngs::SmallRng, SeedableRng};
    let pipeline = calibrated(PipelineConfig::default());
    let mut rng = SmallRng::seed_from_u64(4242);
    let frames: Vec<GrayImage> = view_sweep()
        .into_iter()
        .map(|mut f| {
            hdc_raster::noise::add_salt_pepper(&mut f, 0.02, &mut rng);
            f
        })
        .collect();
    assert_matches_byte_oracle(&pipeline, &frames, "salt-pepper");
}

#[test]
fn packed_matches_byte_under_otsu() {
    let pipeline = calibrated(PipelineConfig {
        segmentation: SegmentationMode::Otsu,
        ..PipelineConfig::default()
    });
    assert_matches_byte_oracle(&pipeline, &view_sweep(), "otsu");
}

#[test]
fn packed_matches_byte_at_odd_resolutions() {
    // Frame widths that are not multiples of 64 exercise the tail-word
    // handling of every packed kernel end to end: the signs, an empty
    // frame, and a block whose right side is the last column, so the tail
    // word of most rows carries foreground.
    let pipeline = calibrated(PipelineConfig::default());
    let mut frames = Vec::new();
    for width in [130u32, 321, 333] {
        let mut v = ViewSpec::paper_default(10.0, 5.0, 3.0);
        let scale = width as f64 / v.width as f64;
        v.width = width;
        v.height = (v.height as f64 * scale) as u32;
        v.focal_px *= scale;
        for sign in MarshallingSign::ALL {
            frames.push(render_sign(sign, &v));
        }
        frames.push(GrayImage::new(width, v.height));
        let mut edge = GrayImage::new(width, v.height);
        for y in 10..v.height - 10 {
            for x in width - 40..width {
                edge.set(x, y, 255);
            }
        }
        frames.push(edge);
    }
    assert_matches_byte_oracle(&pipeline, &frames, "odd widths");
}
