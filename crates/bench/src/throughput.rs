//! Sustained recognition throughput: seed vs hybrid.
//!
//! Measures frames per second of the full recognition pipeline at three
//! resolutions, twice per resolution:
//!
//! * **seed** — the pre-optimisation implementation, rebuilt from the
//!   reference oracles kept around for exactly this purpose
//!   ([`hdc_raster::label_components_bfs`], the allocating signature
//!   formula, [`hdc_sax::SaxIndex::best_two_reference`] with the naive
//!   all-shifts rotation distance). Every frame allocates its masks,
//!   contour, signature and rotated words from scratch.
//! * **hybrid** — [`RecognitionPipeline::recognize_with`] through one
//!   reused [`FrameScratch`]: the frame binarised straight into bit-packed
//!   silhouette words (64 px per `u64`), word-parallel labelling and
//!   contour kernels, MINDIST-pruned FFT rotation matching and zero
//!   steady-state allocation.
//!
//! The `bench_recognize` binary runs this and writes `BENCH_recognize.json`
//! so the numbers are committed alongside the code they measure.

use crate::frames::sign_stream;
pub use crate::frames::{benchmark_pipeline, RESOLUTIONS};
use hdc_raster::contour::{contour_centroid, trace_outer_contour};
use hdc_raster::threshold::binarize;
use hdc_raster::{label_components_bfs, Bitmap, Connectivity, GrayImage};
use hdc_timeseries::{resample, TimeSeries};
use hdc_vision::{FrameScratch, RecognitionPipeline, SegmentationMode, MIN_CONTOUR_POINTS};
use std::fmt::Write as _;
use std::time::Instant;

/// Throughput of one implementation at one resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Frames processed during the timed window.
    pub frames: usize,
    /// Wall-clock seconds of the timed window.
    pub seconds: f64,
    /// Frames that produced an accepted decision (sanity: both
    /// implementations must agree).
    pub decided: usize,
}

impl Throughput {
    /// Sustained frames per second.
    pub fn fps(&self) -> f64 {
        self.frames as f64 / self.seconds
    }

    /// Mean milliseconds per frame.
    pub fn ms_per_frame(&self) -> f64 {
        1000.0 * self.seconds / self.frames as f64
    }
}

/// Seed-vs-hybrid comparison at one resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionResult {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// The pre-optimisation implementation.
    pub seed: Throughput,
    /// The scratch-reuse pipeline (packed segmentation and silhouette
    /// kernels).
    pub hybrid: Throughput,
}

impl ResolutionResult {
    /// Hybrid-kernel speed-up over the seed.
    pub fn speedup_hybrid(&self) -> f64 {
        self.hybrid.fps() / self.seed.fps()
    }
}

/// The seed's `extract_signature`: fresh allocations and the
/// resample-then-`TimeSeries::znormalized` formula, exactly as before this
/// optimisation pass.
fn seed_signature(mask: &Bitmap, sample_count: usize) -> Option<Vec<f64>> {
    let contour = trace_outer_contour(mask)?;
    if contour.len() < MIN_CONTOUR_POINTS {
        return None;
    }
    let centroid = contour_centroid(&contour)?;
    let raw: Vec<f64> = contour
        .iter()
        .map(|p| p.to_vec2().distance(centroid))
        .collect();
    Some(
        TimeSeries::new(resample(&raw, sample_count))
            .znormalized()
            .into_values(),
    )
}

/// The seed's `recognize`, reassembled from the retained reference oracles:
/// allocating binarisation, BFS component labelling, allocating signature
/// extraction and the unpruned naive-rotation database search (plus the SAX
/// word encode the seed performed per frame). Returns the accepted label
/// index, or `None`.
pub fn recognize_seed(pipeline: &RecognitionPipeline, frame: &GrayImage) -> Option<usize> {
    let cfg = pipeline.config();
    let t = match cfg.segmentation {
        SegmentationMode::Fixed(t) => t,
        SegmentationMode::Otsu => hdc_raster::threshold::otsu_threshold(frame),
    };
    let mask = binarize(frame, t);

    let (labels, comps) = label_components_bfs(&mask, Connectivity::Eight);
    let comp = comps.iter().max_by_key(|c| c.area)?.clone();
    let mut blob = Bitmap::new(mask.width(), mask.height());
    for (dst, &l) in blob.pixels_mut().iter_mut().zip(labels.pixels()) {
        *dst = l == comp.label;
    }
    if comp.area < cfg.min_blob_area {
        return None;
    }

    let series = seed_signature(&blob, cfg.signature_len)?;
    let _word = pipeline.index().encode(&series);
    let (best, runner_up) = pipeline.index().best_two_reference(&series)?;
    let within = best.distance <= cfg.accept_threshold;
    let unambiguous = runner_up
        .map(|r| best.distance <= cfg.ambiguity_ratio * r)
        .unwrap_or(true);
    if within && unambiguous {
        pipeline
            .index()
            .templates()
            .iter()
            .position(|t| t.label == best.label)
    } else {
        None
    }
}

/// Cycles `frames` through `recognize` until at least `min_frames` frames
/// *and* `min_seconds` of wall clock have elapsed (after one untimed
/// warm-up cycle, which is what lets the scratch path reach its
/// allocation-free steady state).
pub fn measure<F: FnMut(&GrayImage) -> bool>(
    frames: &[GrayImage],
    min_frames: usize,
    min_seconds: f64,
    mut recognize: F,
) -> Throughput {
    for frame in frames {
        recognize(frame); // warm-up: buffers grow to frame size here
    }
    let mut processed = 0usize;
    let mut decided = 0usize;
    let start = Instant::now();
    loop {
        for frame in frames {
            if recognize(frame) {
                decided += 1;
            }
            processed += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if processed >= min_frames && elapsed >= min_seconds {
            return Throughput {
                frames: processed,
                seconds: elapsed,
                decided,
            };
        }
    }
}

/// Runs the seed-vs-hybrid comparison at one resolution; the seed path
/// runs off the pipeline's configuration and sign database.
pub fn compare_at(
    pipeline: &RecognitionPipeline,
    width: u32,
    height: u32,
    min_frames: usize,
    min_seconds: f64,
) -> ResolutionResult {
    let frames = sign_stream(width, height);
    let seed = measure(&frames, min_frames, min_seconds, |f| {
        recognize_seed(pipeline, f).is_some()
    });
    let mut scratch = FrameScratch::new();
    let hybrid = measure(&frames, min_frames, min_seconds, |f| {
        pipeline.recognize_with(&mut scratch, f).decision.is_some()
    });
    ResolutionResult {
        width,
        height,
        seed,
        hybrid,
    }
}

/// Runs the full sweep over [`RESOLUTIONS`].
pub fn run_sweep(min_frames: usize, min_seconds: f64) -> Vec<ResolutionResult> {
    let pipeline = benchmark_pipeline();
    RESOLUTIONS
        .iter()
        .map(|&(w, h)| compare_at(&pipeline, w, h, min_frames, min_seconds))
        .collect()
}

/// Renders the sweep as the JSON document committed at
/// `BENCH_recognize.json` (hand-rolled: the workspace intentionally has no
/// JSON-serialisation dependency).
pub fn to_json(results: &[ResolutionResult], kernels: &[crate::kernels::KernelResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"RecognitionPipeline sustained recognition throughput\",\n");
    s.push_str("  \"protocol\": {\n");
    s.push_str("    \"stream\": \"3 marshalling signs x 3 azimuths (0/10/20 deg), altitude 5 m, distance 3 m\",\n");
    s.push_str("    \"seed\": \"allocating binarize + BFS labelling + allocating signature + unpruned naive-rotation best_two (reference oracles)\",\n");
    s.push_str("    \"hybrid\": \"recognize_with(FrameScratch): binarise straight into bit-packed silhouette words (64 px per u64), word-parallel labelling/contour kernels, MINDIST-pruned search, FFT rotation distance, zero steady-state allocation\",\n");
    s.push_str("    \"timing\": \"one untimed warm-up cycle, then whole cycles until the frame and wall-clock floors are both met\"\n");
    s.push_str("  },\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\n      \"width\": {}, \"height\": {},\n      \"seed_fps\": {:.2}, \"seed_ms_per_frame\": {:.3}, \"seed_frames\": {}, \"seed_decided\": {},\n      \"hybrid_fps\": {:.2}, \"hybrid_ms_per_frame\": {:.3}, \"hybrid_frames\": {}, \"hybrid_decided\": {},\n      \"speedup_hybrid\": {:.2}\n    }}{}\n",
            r.width,
            r.height,
            r.seed.fps(),
            r.seed.ms_per_frame(),
            r.seed.frames,
            r.seed.decided,
            r.hybrid.fps(),
            r.hybrid.ms_per_frame(),
            r.hybrid.frames,
            r.hybrid.decided,
            r.speedup_hybrid(),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    if kernels.is_empty() {
        s.push_str("  ]\n}\n");
    } else {
        s.push_str("  ],\n");
        s.push_str("  \"kernels\": [\n");
        for (i, k) in kernels.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{ \"kernel\": \"{}\", \"byte_ns_per_frame\": {:.0}, \"packed_ns_per_frame\": {:.0}, \"speedup\": {:.2} }}{}",
                k.name,
                k.byte_ns,
                k.packed_ns,
                k.speedup(),
                if i + 1 < kernels.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_and_optimised_agree_on_decisions() {
        let frames = sign_stream(320, 240);
        let pipeline = benchmark_pipeline();
        let mut scratch = FrameScratch::new();
        for (i, frame) in frames.iter().enumerate() {
            let seed = recognize_seed(&pipeline, frame);
            let opt = pipeline.recognize_with(&mut scratch, frame);
            let opt_idx = opt.decision.map(|label| {
                pipeline
                    .index()
                    .templates()
                    .iter()
                    .position(|t| t.label == label)
                    .unwrap()
            });
            assert_eq!(seed, opt_idx, "frame {i} decision diverged");
        }
    }

    #[test]
    fn measure_counts_whole_cycles() {
        let pipeline = benchmark_pipeline();
        let frames = sign_stream(320, 240);
        let mut scratch = FrameScratch::new();
        let t = measure(&frames, 1, 0.0, |f| {
            pipeline.recognize_with(&mut scratch, f).decision.is_some()
        });
        assert_eq!(t.frames, frames.len(), "one cycle satisfies both floors");
        assert!(t.decided > 0, "frontal frames must be recognised");
        assert!(t.fps() > 0.0 && t.ms_per_frame() > 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let t = Throughput {
            frames: 90,
            seconds: 1.5,
            decided: 80,
        };
        let r = ResolutionResult {
            width: 320,
            height: 240,
            seed: t,
            hybrid: t,
        };
        let k = crate::kernels::KernelResult {
            name: "binarize",
            byte_ns: 1000.0,
            packed_ns: 250.0,
        };
        let json = to_json(&[r], &[k]);
        assert!(json.contains("\"width\": 320"));
        assert!(json.contains("\"speedup_hybrid\": 1.00"));
        assert!(!json.contains("packed_fps"));
        assert!(!json.contains("byte_fps"));
        assert!(json.contains("\"kernel\": \"binarize\""));
        assert!(json.contains("\"speedup\": 4.00"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let no_kernels = to_json(&[r], &[]);
        assert!(!no_kernels.contains("\"kernels\""));
        assert_eq!(
            no_kernels.matches('{').count(),
            no_kernels.matches('}').count()
        );
    }
}
