//! Determinism guard for the multi-core engine: `process_batch` must be
//! byte-identical at 1, 2 and 4 workers, and equal to the serial
//! single-scratch path. (`Recognition` is timing-free precisely so this
//! comparison is exact, `f64` bits included.)

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::GrayImage;
use hdc_vision::{FrameScratch, PipelineConfig, RecognitionEngine, RecognitionPipeline};

fn calibrated() -> RecognitionPipeline {
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    p
}

/// A batch mixing every sign, a sweep of azimuths (decides, ambiguous and
/// dead-angle rejects), two resolutions, and blob failures.
fn adversarial_batch() -> Vec<GrayImage> {
    let mut frames = Vec::new();
    for az in [0.0, 10.0, 25.0, 40.0, 65.0, 90.0, 105.0] {
        for sign in MarshallingSign::ALL {
            let mut v = ViewSpec::paper_default(az, 5.0, 3.0);
            frames.push(render_sign(sign, &v));
            v.width = 320;
            v.height = 240;
            v.focal_px = 320.0;
            frames.push(render_sign(sign, &v));
        }
    }
    frames.push(GrayImage::new(32, 32)); // no blob
    let mut tiny = GrayImage::new(64, 64); // blob below the area floor
    tiny.set(5, 5, 255);
    tiny.set(6, 5, 255);
    frames.push(tiny);
    frames
}

#[test]
fn process_batch_is_identical_across_worker_counts() {
    let frames = adversarial_batch();
    // the serial path: every frame through one reused scratch, in order
    let (pipeline, mut scratch) = (calibrated(), FrameScratch::new());
    let serial: Vec<_> = frames
        .iter()
        .map(|f| RecognitionEngine::recognize_one(&pipeline, &mut scratch, f))
        .collect();
    assert!(
        serial.iter().any(|r| r.decided()) && serial.iter().any(|r| !r.decided()),
        "batch must exercise both decided and rejected frames"
    );
    for workers in [1usize, 2, 4] {
        let engine = RecognitionEngine::new(calibrated(), Some(workers));
        let batch = engine.process_batch(&frames);
        assert_eq!(
            batch, serial,
            "{workers}-worker batch must be byte-identical to the serial path"
        );
    }
}

#[test]
fn repeated_batches_on_one_engine_are_stable() {
    // worker scratch reuse across batches must not bleed into results
    let engine = RecognitionEngine::new(calibrated(), Some(2));
    let frames = adversarial_batch();
    let first = engine.process_batch(&frames);
    let second = engine.process_batch(&frames);
    assert_eq!(first, second);
}
