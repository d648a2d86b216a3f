//! The shared synthetic frame source every throughput benchmark draws from.
//!
//! `bench_recognize`'s sweep and kernel rows and `bench_stream`'s held-sign
//! streams must draw from the *same* camera and pipeline for their numbers
//! to compose, so the construction lives here once: all three marshalling
//! signs over a few frontal-cone azimuths, at a camera scaled so the
//! silhouette covers the same fraction of the frame at every resolution.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::GrayImage;
use hdc_vision::{PipelineConfig, RecognitionPipeline};

/// The three resolutions the benchmarks sweep, smallest first.
pub const RESOLUTIONS: [(u32, u32); 3] = [(320, 240), (640, 480), (1280, 960)];

/// A view at the standard geometry with the camera scaled to `width`×`height`
/// (focal length scales with width, so the silhouette covers the same
/// fraction of the frame at every resolution).
pub fn view_at(width: u32, height: u32, azimuth_deg: f64) -> ViewSpec {
    let mut v = ViewSpec::paper_default(azimuth_deg, 5.0, 3.0);
    v.width = width;
    v.height = height;
    v.focal_px = width as f64;
    v
}

/// The frame stream cycled during measurement: all three signs over a few
/// frontal-cone azimuths, so no stage is timed on a single query.
pub fn sign_stream(width: u32, height: u32) -> Vec<GrayImage> {
    let mut frames = Vec::new();
    for az in [0.0, 10.0, 20.0] {
        for sign in MarshallingSign::ALL {
            frames.push(render_sign(sign, &view_at(width, height, az)));
        }
    }
    frames
}

/// The calibrated pipeline every benchmark implementation shares.
pub fn benchmark_pipeline() -> RecognitionPipeline {
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_all_signs_at_every_resolution() {
        for (w, h) in RESOLUTIONS {
            let frames = sign_stream(w, h);
            assert_eq!(frames.len(), 9, "3 signs x 3 azimuths");
            assert!(frames.iter().all(|f| f.width() == w && f.height() == h));
        }
    }
}
