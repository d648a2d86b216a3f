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
//!   contour, signature and rotated series from scratch.
//! * **hybrid** — [`RecognitionPipeline::recognize_with`] through one
//!   reused [`FrameScratch`]: the frame binarised straight into bit-packed
//!   silhouette words (64 px per `u64`), word-parallel labelling and
//!   contour kernels, FFT rotation matching and zero
//!   steady-state allocation.
//!
//! The `bench_recognize` binary repeats the sweep, reduces the repeats to
//! median/min/max per resolution ([`spread_sweep`]) and writes
//! `BENCH_recognize.json`, so the numbers are committed alongside the code
//! they measure, with their spread. The same file carries the timing half
//! of the paper's Figure 4 ([`run_fig4`]).

use crate::frames::sign_stream;
pub use crate::frames::{benchmark_pipeline, RESOLUTIONS};
use crate::kernels::KernelSpread;
use crate::report::{Json, Spread};
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::contour::{contour_centroid, trace_outer_contour};
use hdc_raster::threshold::binarize;
use hdc_raster::{label_components_bfs, Bitmap, Connectivity, GrayImage};
use hdc_timeseries::{resample, TimeSeries};
use hdc_vision::{FrameScratch, RecognitionPipeline, MIN_CONTOUR_POINTS, SEGMENTATION_THRESHOLD};
use std::hint::black_box;
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

/// One resolution's seed-vs-hybrid comparison over repeats of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResolutionSpread {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Seed ms/frame across repeats.
    pub seed_ms: Spread,
    /// Hybrid ms/frame across repeats.
    pub hybrid_ms: Spread,
    /// Hybrid frames per second across repeats.
    pub hybrid_fps: Spread,
    /// Hybrid over seed throughput, each taken within one repeat.
    pub speedup: Spread,
    /// Seed frames and accepted decisions, summed over the repeats.
    pub seed_counts: (usize, usize),
    /// Hybrid frames and accepted decisions, summed over the repeats.
    pub hybrid_counts: (usize, usize),
}

/// The spread of each resolution over `repeats`, each one call of
/// [`run_sweep`].
///
/// # Panics
/// Panics when `repeats` is empty or the repeats' resolutions differ.
pub fn spread_sweep(repeats: &[Vec<ResolutionResult>]) -> Vec<ResolutionSpread> {
    repeats[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let rows: Vec<&ResolutionResult> = repeats.iter().map(|r| &r[i]).collect();
            assert!(
                rows.iter()
                    .all(|r| (r.width, r.height) == (first.width, first.height)),
                "repeats differ"
            );
            let of = |f: &dyn Fn(&ResolutionResult) -> f64| {
                Spread::of(rows.iter().map(|r| f(r)).collect())
            };
            let counts = |f: &dyn Fn(&ResolutionResult) -> Throughput| {
                rows.iter().fold((0, 0), |(frames, decided), r| {
                    (frames + f(r).frames, decided + f(r).decided)
                })
            };
            ResolutionSpread {
                width: first.width,
                height: first.height,
                seed_ms: of(&|r| r.seed.ms_per_frame()),
                hybrid_ms: of(&|r| r.hybrid.ms_per_frame()),
                hybrid_fps: of(&|r| r.hybrid.fps()),
                speedup: of(&ResolutionResult::speedup_hybrid),
                seed_counts: counts(&|r| r.seed),
                hybrid_counts: counts(&|r| r.hybrid),
            }
        })
        .collect()
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
/// extraction and the naive-rotation database search (plus the SAX
/// word encode the seed performed per frame). Returns the accepted label
/// index, or `None`.
pub fn recognize_seed(pipeline: &RecognitionPipeline, frame: &GrayImage) -> Option<usize> {
    let cfg = pipeline.config();
    let mask = binarize(frame, SEGMENTATION_THRESHOLD);

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

/// Figure 4's timing half over the repeats: ns per `recognize_with` call
/// on the "No" sign at 0° and 65° (altitude 5 m, distance 3 m, 640×480).
/// The paper reports 38 ms against 27 ms: the oblique frame, with its
/// shorter contour, is the cheaper one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Spread {
    /// ns per frame at 0°.
    pub ns_0: Spread,
    /// ns per frame at 65°.
    pub ns_65: Spread,
    /// 65° over 0°, each taken within one repeat.
    pub ratio: Spread,
}

/// Times Figure 4's pair `repeats` times. Each repeat runs `rounds` rounds
/// of `batch` calls per azimuth, the azimuth that goes first alternating
/// by round, so a host speed spell lands on both frames.
pub fn run_fig4(repeats: usize, rounds: usize, batch: usize) -> Fig4Spread {
    let pipeline = benchmark_pipeline();
    let frames = [0.0, 65.0]
        .map(|az| render_sign(MarshallingSign::No, &ViewSpec::paper_default(az, 5.0, 3.0)));
    let mut scratch = FrameScratch::new();
    for frame in &frames {
        black_box(pipeline.recognize_with(&mut scratch, frame)); // warm-up
    }
    let per_repeat: Vec<[f64; 2]> = (0..repeats)
        .map(|_| {
            let mut ns = [0u128; 2];
            for round in 0..rounds {
                for k in 0..2 {
                    let i = (round + k) % 2;
                    let start = Instant::now();
                    for _ in 0..batch {
                        black_box(pipeline.recognize_with(&mut scratch, black_box(&frames[i])));
                    }
                    ns[i] += start.elapsed().as_nanos();
                }
            }
            ns.map(|t| t as f64 / (rounds * batch) as f64)
        })
        .collect();
    let of = |f: fn(&[f64; 2]) -> f64| Spread::of(per_repeat.iter().map(f).collect());
    Fig4Spread {
        ns_0: of(|r| r[0]),
        ns_65: of(|r| r[1]),
        ratio: of(|r| r[1] / r[0]),
    }
}

/// The members of `BENCH_recognize.json` after its `execution` block: the
/// sweep's, Figure 4's and the kernels' spreads over `repeats` repeats.
pub fn recognize_report(
    results: &[ResolutionSpread],
    fig4: &Fig4Spread,
    kernels: &[KernelSpread],
    repeats: usize,
) -> Vec<(&'static str, Json)> {
    let results = results.iter().map(|r| {
        Json::Object(vec![
            ("width", u64::from(r.width).into()),
            ("height", u64::from(r.height).into()),
            ("seed_ms_per_frame", Json::spread(&r.seed_ms, 3)),
            ("seed_frames", r.seed_counts.0.into()),
            ("seed_decided", r.seed_counts.1.into()),
            ("hybrid_ms_per_frame", Json::spread(&r.hybrid_ms, 3)),
            ("hybrid_fps", Json::spread(&r.hybrid_fps, 1)),
            ("hybrid_frames", r.hybrid_counts.0.into()),
            ("hybrid_decided", r.hybrid_counts.1.into()),
            ("speedup_hybrid", Json::spread(&r.speedup, 2)),
        ])
    });
    let kernels = kernels.iter().map(|k| {
        Json::Object(vec![
            ("kernel", k.name.into()),
            ("byte_ns_per_frame", Json::spread(&k.byte_ns, 0)),
            ("packed_ns_per_frame", Json::spread(&k.packed_ns, 0)),
            ("speedup", Json::spread(&k.speedup, 2)),
        ])
    });
    vec![
        (
            "benchmark",
            "RecognitionPipeline sustained recognition throughput".into(),
        ),
        (
            "protocol",
            Json::Object(vec![
                ("stream", "3 marshalling signs x 3 azimuths (0/10/20 deg), altitude 5 m, distance 3 m".into()),
                ("seed", "allocating binarize + BFS labelling + allocating signature + naive-rotation best_two (reference oracles)".into()),
                ("hybrid", "recognize_with(FrameScratch): binarise straight into bit-packed silhouette words (64 px per u64), word-parallel labelling/contour kernels, FFT rotation distance to every template, zero steady-state allocation".into()),
                ("fig4", "Figure 4 timing: recognize_with on the 'No' sign at azimuth 0 and 65 deg, altitude 5 m, distance 3 m, 640x480; per repeat, rounds of one batch of calls per azimuth, the azimuth that goes first alternating by round; the ratio is 65 over 0 within each repeat".into()),
                ("timing", "per repeat: one untimed warm-up cycle, then whole cycles until the frame and wall-clock floors are both met; the sweep and the kernel pass each repeat, and every row reports median/min/max over the repeats, its speed-up as the ratio within each repeat".into()),
            ]),
        ),
        ("repeats", repeats.into()),
        ("results", Json::Array(results.collect())),
        (
            "fig4",
            Json::Object(vec![
                ("azimuth_0_ns_per_frame", Json::spread(&fig4.ns_0, 0)),
                ("azimuth_65_ns_per_frame", Json::spread(&fig4.ns_65, 0)),
                ("ratio_65_over_0", Json::spread(&fig4.ratio, 2)),
            ]),
        ),
        ("kernels", Json::Array(kernels.collect())),
    ]
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
        let sweep = spread_sweep(&[vec![r], vec![r]]);
        assert_eq!(sweep[0].seed_counts, (180, 160), "counts sum over repeats");
        let kernels = crate::kernels::spread_kernels(&[vec![k], vec![k]]);
        let ratio = Spread::of(vec![0.75]);
        let fig4 = Fig4Spread {
            ns_0: ratio,
            ns_65: ratio,
            ratio,
        };
        let json = Json::Object(recognize_report(&sweep, &fig4, &kernels, 2)).to_string();
        assert!(json.contains("\"width\": 320"));
        assert!(json.contains("\"repeats\": 2"));
        assert!(json.contains("\"speedup_hybrid\": {\"median\": 1.00"));
        assert!(!json.contains("packed_fps"));
        assert!(!json.contains("byte_fps"));
        assert!(json.contains("\"ratio_65_over_0\": {\"median\": 0.75"));
        assert!(json.contains("\"kernel\": \"binarize\""));
        assert!(json.contains("\"speedup\": {\"median\": 4.00"));
    }
}
