//! Multi-core engine scaling: batch throughput by worker count.
//!
//! For each benchmark resolution this measures the serial baseline —
//! [`hdc_vision::RecognitionPipeline::recognize_with`] through one reused
//! scratch on one thread, exactly the path `BENCH_recognize.json`
//! certifies — and then [`RecognitionEngine::process_batch`] at a sweep of
//! worker counts, with
//! speed-up and per-worker scaling efficiency per point. A sustained
//! multi-stream run (S simulated camera streams over the engine) rides
//! along, since stream serving is the production shape of the load.
//!
//! The `bench_engine` binary runs this and writes `BENCH_engine.json` so the
//! numbers — and the hardware they were measured on — are committed
//! alongside the code. **Scaling numbers are only as good as the host's
//! core count**: the JSON records `available_parallelism` so a flat curve
//! from a single-core container is attributable instead of misleading.

use crate::frames::{benchmark_pipeline, sign_stream, RESOLUTIONS};
use crate::throughput::{measure, Throughput};
use hdc_raster::GrayImage;
use hdc_runtime::available_workers;
use hdc_vision::{FrameScratch, MultiStreamReport, RecognitionEngine};
use std::fmt::Write as _;
use std::time::Instant;

/// Worker counts swept when no `--threads` override is given.
pub const DEFAULT_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Whole sign streams per batch: 8 × 9 = 72 frames per `process_batch`
/// call, large enough that per-batch thread setup amortises to noise.
pub const BATCH_CYCLES: usize = 8;

/// The worker counts a `--threads N` flag expands to: the default sweep
/// truncated/extended so the run covers 1..N in powers of two plus N
/// itself. `None` keeps the committed default sweep.
pub fn worker_counts_for(threads: Option<usize>) -> Vec<usize> {
    match threads {
        None => DEFAULT_WORKER_COUNTS.to_vec(),
        Some(n) => {
            let mut counts: Vec<usize> = std::iter::successors(Some(1usize), |w| Some(w * 2))
                .take_while(|&w| w < n)
                .collect();
            counts.push(n);
            counts
        }
    }
}

/// Batch throughput at one worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerPoint {
    /// Pool size.
    pub workers: usize,
    /// Measured batch throughput.
    pub throughput: Throughput,
}

/// Serial-vs-engine scaling at one resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// One thread, one scratch, no pool: the baseline.
    pub serial: Throughput,
    /// Engine batch throughput per worker count, in sweep order.
    pub points: Vec<WorkerPoint>,
}

impl ScalingResult {
    /// Aggregate speed-up of one point over the serial baseline.
    pub fn speedup(&self, point: &WorkerPoint) -> f64 {
        point.throughput.fps() / self.serial.fps()
    }

    /// Scaling efficiency: speed-up divided by worker count (1.0 = perfect).
    pub fn efficiency(&self, point: &WorkerPoint) -> f64 {
        self.speedup(point) / point.workers as f64
    }
}

/// Cycles `process_batch` over `batch` until at least `min_frames` frames
/// *and* `min_seconds` have elapsed, after one untimed warm-up batch (which
/// grows every worker's scratch to frame size).
pub fn measure_batches(
    engine: &RecognitionEngine,
    batch: &[GrayImage],
    min_frames: usize,
    min_seconds: f64,
) -> Throughput {
    engine.process_batch(batch); // warm-up
    let mut frames = 0usize;
    let mut decided = 0usize;
    let start = Instant::now();
    loop {
        decided += engine
            .process_batch(batch)
            .iter()
            .filter(|r| r.decided())
            .count();
        frames += batch.len();
        let seconds = start.elapsed().as_secs_f64();
        if frames >= min_frames && seconds >= min_seconds {
            return Throughput {
                frames,
                seconds,
                decided,
            };
        }
    }
}

/// Runs the scaling comparison at one resolution.
pub fn scale_at(
    width: u32,
    height: u32,
    worker_counts: &[usize],
    batch_cycles: usize,
    min_frames: usize,
    min_seconds: f64,
) -> ScalingResult {
    let pipeline = benchmark_pipeline();
    let stream = sign_stream(width, height);
    let batch: Vec<GrayImage> = std::iter::repeat_with(|| stream.clone())
        .take(batch_cycles.max(1))
        .flatten()
        .collect();

    let mut scratch = FrameScratch::new();
    let serial = measure(&batch, min_frames, min_seconds, |f| {
        pipeline.recognize_with(&mut scratch, f).decision.is_some()
    });

    let points = worker_counts
        .iter()
        .map(|&workers| {
            let engine = RecognitionEngine::new(pipeline.clone(), Some(workers));
            WorkerPoint {
                workers,
                throughput: measure_batches(&engine, &batch, min_frames, min_seconds),
            }
        })
        .collect();
    ScalingResult {
        width,
        height,
        serial,
        points,
    }
}

/// Runs the full scaling sweep over [`RESOLUTIONS`].
pub fn run_scaling_sweep(
    worker_counts: &[usize],
    batch_cycles: usize,
    min_frames: usize,
    min_seconds: f64,
) -> Vec<ScalingResult> {
    RESOLUTIONS
        .iter()
        .map(|&(w, h)| scale_at(w, h, worker_counts, batch_cycles, min_frames, min_seconds))
        .collect()
}

/// The committed multi-stream study: S simulated 640×480 camera streams
/// (one per sign-stream cycle, azimuth-staggered via rotation of the shared
/// stream) served by an engine with `workers` workers.
pub fn multi_stream_study(
    streams: usize,
    workers: usize,
    min_frames_per_stream: usize,
    min_seconds: f64,
) -> MultiStreamReport {
    let engine = RecognitionEngine::new(benchmark_pipeline(), Some(workers));
    let base = sign_stream(640, 480);
    let stream_set: Vec<Vec<GrayImage>> = (0..streams)
        .map(|s| {
            // stagger stream phases so workers never process identical
            // frames in lock-step
            let mut frames = base.clone();
            frames.rotate_left(s % base.len());
            frames
        })
        .collect();
    engine.run_streams(&stream_set, min_frames_per_stream, min_seconds)
}

/// Renders the scaling sweep plus the stream study as the JSON document
/// committed at `BENCH_engine.json` (hand-rolled: the workspace has no JSON
/// dependency). `threads_flag` records the CLI override, if any, so results
/// are attributable to their invocation as well as their hardware.
pub fn to_json(
    results: &[ScalingResult],
    stream_report: &MultiStreamReport,
    worker_counts: &[usize],
    threads_flag: Option<usize>,
    batch_cycles: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"benchmark\": \"RecognitionEngine multi-core batch and stream throughput\",\n");
    let _ = writeln!(
        s,
        "  \"metadata\": {{\n    \"threads_flag\": {},\n    \"available_parallelism\": {},\n    \"worker_counts\": [{}],\n    \"batch_frames\": {}\n  }},",
        threads_flag
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".to_owned()),
        available_workers(),
        worker_counts
            .iter()
            .map(|w| w.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        batch_cycles * 9
    );
    s.push_str("  \"protocol\": {\n");
    s.push_str("    \"stream\": \"3 marshalling signs x 3 azimuths (0/10/20 deg), altitude 5 m, distance 3 m\",\n");
    s.push_str("    \"serial\": \"recognize_with(FrameScratch), one thread, one scratch (the BENCH_recognize.json optimised path)\",\n");
    s.push_str("    \"engine\": \"RecognitionEngine::process_batch over a WorkPool: per-worker scratch, order-preserving index-addressed results\",\n");
    s.push_str("    \"timing\": \"one untimed warm-up batch, then whole batches until the frame and wall-clock floors are both met\",\n");
    s.push_str("    \"note\": \"scaling is bounded by available_parallelism; a flat curve on a 1-core host is expected, re-run on a multi-core host for the scaling study\"\n");
    s.push_str("  },\n");
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\n      \"width\": {}, \"height\": {},\n      \"serial_fps\": {:.2}, \"serial_ms_per_frame\": {:.3},\n      \"workers\": [\n",
            r.width,
            r.height,
            r.serial.fps(),
            r.serial.ms_per_frame()
        );
        for (j, p) in r.points.iter().enumerate() {
            let _ = writeln!(
                s,
                "        {{\"workers\": {}, \"fps\": {:.2}, \"ms_per_frame\": {:.3}, \"frames\": {}, \"decided\": {}, \"speedup\": {:.2}, \"efficiency\": {:.2}}}{}",
                p.workers,
                p.throughput.fps(),
                p.throughput.ms_per_frame(),
                p.throughput.frames,
                p.throughput.decided,
                r.speedup(p),
                r.efficiency(p),
                if j + 1 < r.points.len() { "," } else { "" }
            );
        }
        let _ = write!(
            s,
            "      ]\n    }}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"multi_stream\": {{\"streams\": {}, \"workers\": {}, \"seconds\": {:.2}, \"aggregate_fps\": {:.2}}}",
        stream_report.per_stream.len(),
        stream_report.workers,
        stream_report.seconds,
        stream_report.aggregate_fps(),
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_batch_agrees_with_serial_on_the_benchmark_stream() {
        let pipeline = benchmark_pipeline();
        let batch = sign_stream(320, 240);
        let mut scratch = FrameScratch::new();
        let serial: Vec<_> = batch
            .iter()
            .map(|f| RecognitionEngine::recognize_one(&pipeline, &mut scratch, f))
            .collect();
        let engine = RecognitionEngine::new(pipeline, Some(4));
        assert_eq!(engine.process_batch(&batch), serial);
    }

    #[test]
    fn worker_count_expansion() {
        assert_eq!(worker_counts_for(None), vec![1, 2, 4, 8]);
        assert_eq!(worker_counts_for(Some(1)), vec![1]);
        assert_eq!(worker_counts_for(Some(2)), vec![1, 2]);
        assert_eq!(worker_counts_for(Some(6)), vec![1, 2, 4, 6]);
        assert_eq!(worker_counts_for(Some(16)), vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn smoke_scaling_point_is_sane() {
        let r = scale_at(320, 240, &[1, 2], 1, 1, 0.0);
        assert_eq!(r.points.len(), 2);
        assert!(r.serial.fps() > 0.0);
        for p in &r.points {
            assert!(p.throughput.fps() > 0.0);
            assert!(r.speedup(p) > 0.0);
            assert!(r.efficiency(p) > 0.0);
            assert!(p.throughput.decided <= p.throughput.frames);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let t = Throughput {
            frames: 72,
            seconds: 1.0,
            decided: 72,
        };
        let r = ScalingResult {
            width: 640,
            height: 480,
            serial: t,
            points: vec![WorkerPoint {
                workers: 2,
                throughput: t,
            }],
        };
        let report = MultiStreamReport {
            per_stream: vec![hdc_vision::StreamStats {
                frames: 10,
                decided: 10,
                gate: Default::default(),
            }],
            seconds: 1.0,
            workers: 2,
        };
        let json = to_json(&[r], &report, &[2], Some(2), BATCH_CYCLES);
        assert!(json.contains("\"width\": 640"));
        assert!(json.contains("\"threads_flag\": 2"));
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"multi_stream\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
