//! Byte-vs-hybrid kernel equivalence at the pipeline level.
//!
//! The hybrid kernels (byte binarise, one pack, then the bit-packed
//! silhouette kernels) are only admissible if they change *nothing* but
//! speed: same decisions, same diagnostics, same signature
//! series, bit for bit, across accept frames, reject frames, noisy frames
//! and both segmentation modes. The byte path is the oracle.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::GrayImage;
use hdc_vision::{FrameScratch, KernelPath, PipelineConfig, RecognitionPipeline, SegmentationMode};

/// The byte oracle and the hybrid candidate, calibrated identically.
fn pipelines(base: PipelineConfig) -> (RecognitionPipeline, RecognitionPipeline) {
    let pipeline = |kernels| {
        let mut p = RecognitionPipeline::new(PipelineConfig { kernels, ..base });
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        p
    };
    (pipeline(KernelPath::Byte), pipeline(KernelPath::Hybrid))
}

fn assert_streams_identical(
    byte: &RecognitionPipeline,
    hybrid: &RecognitionPipeline,
    frames: &[GrayImage],
    context: &str,
) {
    let mut sb = FrameScratch::new();
    let mut sp = FrameScratch::new();
    for (i, frame) in frames.iter().enumerate() {
        let rb = byte.recognize_with(&mut sb, frame);
        let rp = hybrid.recognize_with(&mut sp, frame);
        assert_eq!(rb.decision, rp.decision, "{context} frame {i}: decision");
        assert_eq!(
            rb.best.map(|m| (m.label.to_owned(), m.distance)),
            rp.best.map(|m| (m.label.to_owned(), m.distance)),
            "{context} frame {i}: best match"
        );
        assert_eq!(rb.runner_up, rp.runner_up, "{context} frame {i}: runner-up");
        assert_eq!(rb.failure, rp.failure, "{context} frame {i}: failure");
        match (rb.stats, rp.stats) {
            (Some(a), Some(b)) => {
                assert_eq!(a.contour_len, b.contour_len, "{context} frame {i}");
                assert_eq!(a.centroid, b.centroid, "{context} frame {i}");
                assert_eq!(a.mean_radius, b.mean_radius, "{context} frame {i}");
                assert_eq!(
                    sb.signature_series(),
                    sp.signature_series(),
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
    let (byte, hybrid) = pipelines(PipelineConfig::default());
    assert_streams_identical(&byte, &hybrid, &view_sweep(), "default config");
}

#[test]
fn packed_matches_byte_with_denoise_and_noise() {
    use rand::{rngs::SmallRng, SeedableRng};
    let base = PipelineConfig {
        denoise: true,
        ..PipelineConfig::default()
    };
    let (byte, hybrid) = pipelines(base);
    let mut rng = SmallRng::seed_from_u64(4242);
    let frames: Vec<GrayImage> = view_sweep()
        .into_iter()
        .map(|mut f| {
            hdc_raster::noise::add_salt_pepper(&mut f, 0.02, &mut rng);
            f
        })
        .collect();
    assert_streams_identical(&byte, &hybrid, &frames, "denoise + salt-pepper");
}

#[test]
fn packed_matches_byte_under_otsu() {
    let base = PipelineConfig {
        segmentation: SegmentationMode::Otsu,
        ..PipelineConfig::default()
    };
    let (byte, hybrid) = pipelines(base);
    assert_streams_identical(&byte, &hybrid, &view_sweep(), "otsu");
}

#[test]
fn packed_matches_byte_at_odd_resolutions() {
    // Frame widths that are not multiples of 64 exercise the tail-word
    // handling of every packed kernel end to end.
    let (byte, hybrid) = pipelines(PipelineConfig::default());
    let mut frames = Vec::new();
    for width in [130u32, 321, 333] {
        for sign in MarshallingSign::ALL {
            let mut v = ViewSpec::paper_default(10.0, 5.0, 3.0);
            let scale = width as f64 / v.width as f64;
            v.width = width;
            v.height = (v.height as f64 * scale) as u32;
            v.focal_px *= scale;
            frames.push(render_sign(sign, &v));
        }
    }
    assert_streams_identical(&byte, &hybrid, &frames, "odd widths");
}
