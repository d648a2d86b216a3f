//! Multi-core recognition: batches and sustained multi-stream serving.
//!
//! [`RecognitionEngine`] owns one immutable [`RecognitionPipeline`] shared
//! across the workers of a [`WorkPool`], plus one [`FrameScratch`] per
//! worker, and serves two shapes of load:
//!
//! * [`RecognitionEngine::process_batch`] — N independent frames fanned out
//!   over the pool, results in input order. The determinism contract is
//!   inherited from the pool and from `recognize_with` (whose output does
//!   not depend on scratch history): the returned vector is **byte-identical
//!   at every worker count**, including the serial path.
//! * [`RecognitionEngine::run_streams`] — S simulated camera streams served
//!   concurrently for a wall-clock window, the shape of a drone fleet
//!   feeding one ground station. Each stream is an independent task cycling
//!   its own frame sequence; the report carries per-stream frame and gate
//!   counts and the aggregate throughput. A stream's frames divided by the
//!   shared window is no rate: a worker serves its streams one after
//!   another, and a stream stops at its frame floor once the window has
//!   passed.
//!
//! Results are [`Recognition`] values: the owned, *timing-free* projection
//! of [`FrameResult`]. Dropping the wall-clock stage timings is what makes
//! batch output comparable across runs and worker counts.

use crate::pipeline::{FrameResult, FrameScratch, RecognitionPipeline};
use crate::temporal::{GateCounters, StreamRecognizer, TemporalConfig};
use hdc_raster::GrayImage;
use hdc_runtime::WorkPool;
use std::time::Instant;

/// The owned, deterministic outcome of recognising one frame in a batch:
/// everything in [`FrameResult`] except the wall-clock timings (which would
/// make byte-identity across worker counts meaningless) and the borrowed
/// lifetimes (which would pin the batch to the engine borrow).
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// The accepted sign label, or `None` when nothing matched.
    pub decision: Option<String>,
    /// Exact distance of the best database match regardless of threshold.
    pub best_distance: Option<f64>,
    /// Label of the best database match regardless of threshold.
    pub best_label: Option<String>,
    /// Exact distance to the best template of a different label.
    pub runner_up: Option<f64>,
    /// Failure reason when no signature could be extracted.
    pub failure: Option<crate::pipeline::FrameFailure>,
}

impl Recognition {
    /// Projects a borrowed per-frame result into its owned, timing-free
    /// batch form.
    pub fn from_frame_result(r: &FrameResult<'_>) -> Self {
        let mut out = Recognition {
            decision: None,
            best_distance: None,
            best_label: None,
            runner_up: None,
            failure: None,
        };
        out.refresh_from(r);
        out
    }

    /// Overwrites this recognition with the projection of `r`, writing each
    /// label into the string already held for it: the temporal gate's
    /// cached decision refreshes without allocating once its label buffers
    /// have grown.
    pub(crate) fn refresh_from(&mut self, r: &FrameResult<'_>) {
        refresh_label(&mut self.decision, r.decision);
        self.best_distance = r.best.as_ref().map(|b| b.distance);
        refresh_label(&mut self.best_label, r.best.as_ref().map(|b| b.label));
        self.runner_up = r.runner_up;
        self.failure = r.failure;
    }

    /// Whether the frame produced an accepted decision.
    pub fn decided(&self) -> bool {
        self.decision.is_some()
    }
}

/// Sets `slot` to an owned copy of `label`, reusing the string it holds.
fn refresh_label(slot: &mut Option<String>, label: Option<&str>) {
    match (slot.as_mut(), label) {
        (Some(held), Some(label)) => {
            held.clear();
            held.push_str(label);
        }
        _ => *slot = label.map(str::to_owned),
    }
}

/// Work done by one simulated camera stream during a
/// [`RecognitionEngine::run_streams`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames this stream processed during the window.
    pub frames: usize,
    /// Frames that produced an accepted decision.
    pub decided: usize,
    /// How the temporal gate resolved this stream's frames (all
    /// `full_runs` when gating is off).
    pub gate: GateCounters,
}

impl StreamStats {
    /// Fraction of this stream's frames the gate resolved without a full
    /// pipeline run (0 for an empty stream) — the per-stream number a
    /// serving layer budgets against, as opposed to the fleet aggregate.
    pub fn hit_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.gate.hits() as f64 / self.frames as f64
        }
    }
}

/// The outcome of a sustained multi-stream run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStreamReport {
    /// Per-stream statistics, in stream order.
    pub per_stream: Vec<StreamStats>,
    /// Wall-clock seconds of the whole window.
    pub seconds: f64,
    /// Worker count that served the streams.
    pub workers: usize,
}

impl MultiStreamReport {
    /// Total frames across all streams.
    pub fn total_frames(&self) -> usize {
        self.per_stream.iter().map(|s| s.frames).sum()
    }

    /// Aggregate frames per second across all streams.
    pub fn aggregate_fps(&self) -> f64 {
        self.total_frames() as f64 / self.seconds
    }

    /// Total frames that produced an accepted decision, across all streams.
    pub fn decided_total(&self) -> usize {
        self.per_stream.iter().map(|s| s.decided).sum()
    }

    /// Aggregate gate counters across all streams.
    pub fn gate_totals(&self) -> GateCounters {
        self.per_stream
            .iter()
            .fold(GateCounters::default(), |acc, s| acc.plus(&s.gate))
    }
}

/// A multi-core recognition engine: one shared immutable pipeline, one
/// scratch per worker. See the module docs.
#[derive(Debug, Clone)]
pub struct RecognitionEngine {
    pipeline: RecognitionPipeline,
    pool: WorkPool,
}

impl RecognitionEngine {
    /// An engine over `pipeline` with `threads` workers (`None` → one per
    /// available hardware thread).
    pub fn new(pipeline: RecognitionPipeline, threads: Option<usize>) -> Self {
        RecognitionEngine {
            pipeline,
            pool: WorkPool::with_threads(threads),
        }
    }

    /// The shared pipeline.
    pub fn pipeline(&self) -> &RecognitionPipeline {
        &self.pipeline
    }

    /// Worker count of the underlying pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Recognises one frame into the owned batch form (the serial building
    /// block both [`RecognitionEngine::process_batch`] and external
    /// baselines share, so equivalence tests compare like with like).
    pub fn recognize_one(
        pipeline: &RecognitionPipeline,
        scratch: &mut FrameScratch,
        frame: &GrayImage,
    ) -> Recognition {
        Recognition::from_frame_result(&pipeline.recognize_with(scratch, frame))
    }

    /// Recognises every frame of the batch across the pool, results in
    /// input order — byte-identical at every worker count.
    pub fn process_batch(&self, frames: &[GrayImage]) -> Vec<Recognition> {
        self.pool.map_indexed(
            frames,
            |_| FrameScratch::new(),
            |scratch, _, frame| Self::recognize_one(&self.pipeline, scratch, frame),
        )
    }

    /// The serial reference path: the same frames through one reused
    /// scratch on the calling thread (the baseline every scaling number in
    /// `BENCH_engine.json` is measured against).
    pub fn process_serial(&self, frames: &[GrayImage]) -> Vec<Recognition> {
        let mut scratch = FrameScratch::new();
        frames
            .iter()
            .map(|f| Self::recognize_one(&self.pipeline, &mut scratch, f))
            .collect()
    }

    /// Serves `streams` concurrently until every stream has processed at
    /// least `min_frames_per_stream` frames *and* `min_seconds` of wall
    /// clock have elapsed, cycling each stream's frames.
    ///
    /// Streams are independent tasks scheduled over the pool's workers; a
    /// stream that reaches both floors stops, so slower streams keep their
    /// workers. One untimed warm-up frame per stream lets scratch buffers
    /// reach steady state before the window opens.
    ///
    /// # Panics
    /// Panics if any stream is empty.
    pub fn run_streams(
        &self,
        streams: &[Vec<GrayImage>],
        min_frames_per_stream: usize,
        min_seconds: f64,
    ) -> MultiStreamReport {
        self.run_streams_gated(
            streams,
            min_frames_per_stream,
            min_seconds,
            TemporalConfig::off(),
        )
    }

    /// [`RecognitionEngine::run_streams`] with a temporal-coherence gate:
    /// each worker owns one [`StreamRecognizer`] (reset at every stream
    /// boundary, so cached decisions never leak between streams) next to
    /// its [`FrameScratch`], and the per-stream stats record how the gate
    /// resolved each frame.
    ///
    /// In [`crate::temporal::GateMode::Strict`] the gate only reuses
    /// byte-identical frames, so decisions — and therefore the
    /// `decided` counts — are exactly those of the ungated path at every
    /// worker count (the engine's determinism contract; pinned by the
    /// `temporal_gate` tests via [`RecognitionEngine::process_streams`]).
    ///
    /// # Panics
    /// Panics if any stream is empty.
    pub fn run_streams_gated(
        &self,
        streams: &[Vec<GrayImage>],
        min_frames_per_stream: usize,
        min_seconds: f64,
        gate: TemporalConfig,
    ) -> MultiStreamReport {
        assert!(
            streams.iter().all(|s| !s.is_empty()),
            "every stream needs at least one frame"
        );
        let stream_ids: Vec<usize> = (0..streams.len()).collect();
        // Warm-up outside the timed window (serial: touches each resolution
        // once so first-frame growth is not billed to any stream).
        let mut warm = FrameScratch::new();
        for s in streams {
            Self::recognize_one(&self.pipeline, &mut warm, &s[0]);
        }

        let start = Instant::now();
        let per_stream = self.pool.map_indexed(
            &stream_ids,
            |_| (FrameScratch::new(), StreamRecognizer::new(gate)),
            |(scratch, recognizer), _, &sid| {
                let frames = &streams[sid];
                recognizer.reset(); // per-stream cache isolation
                let counters_before = recognizer.counters();
                let mut stats = StreamStats {
                    frames: 0,
                    decided: 0,
                    gate: GateCounters::default(),
                };
                loop {
                    for frame in frames {
                        if recognizer
                            .recognize(&self.pipeline, scratch, frame)
                            .decided()
                        {
                            stats.decided += 1;
                        }
                        stats.frames += 1;
                    }
                    if stats.frames >= min_frames_per_stream
                        && start.elapsed().as_secs_f64() >= min_seconds
                    {
                        break;
                    }
                }
                stats.gate = recognizer.counters().since(&counters_before);
                stats
            },
        );
        MultiStreamReport {
            per_stream,
            seconds: start.elapsed().as_secs_f64(),
            workers: self.workers(),
        }
    }

    /// Deterministically processes every stream's frame sequence `passes`
    /// times through a fresh per-stream [`StreamRecognizer`], returning
    /// every frame's [`Recognition`] in order — the wall-clock-free
    /// counterpart of [`RecognitionEngine::run_streams_gated`] that
    /// equivalence and determinism tests compare across gate modes and
    /// worker counts. Because the recogniser (the only stateful part) is
    /// per-stream, the output is byte-identical at every worker count in
    /// *every* gate mode; in strict (and off) mode it is additionally
    /// byte-identical to the ungated serial path.
    ///
    /// # Panics
    /// Panics if any stream is empty.
    pub fn process_streams(
        &self,
        streams: &[Vec<GrayImage>],
        passes: usize,
        gate: TemporalConfig,
    ) -> Vec<Vec<Recognition>> {
        assert!(
            streams.iter().all(|s| !s.is_empty()),
            "every stream needs at least one frame"
        );
        self.pool.map_indexed(
            streams,
            |_| FrameScratch::new(),
            |scratch, _, frames| {
                let mut recognizer = StreamRecognizer::new(gate);
                let mut out = Vec::with_capacity(frames.len() * passes);
                for _ in 0..passes {
                    for frame in frames {
                        out.push(recognizer.recognize(&self.pipeline, scratch, frame).clone());
                    }
                }
                out
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use hdc_figure::{render_sign, MarshallingSign, ViewSpec};

    fn engine(threads: usize) -> RecognitionEngine {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        RecognitionEngine::new(p, Some(threads))
    }

    fn mixed_frames() -> Vec<GrayImage> {
        let mut frames = Vec::new();
        for az in [0.0, 15.0, 40.0, 90.0] {
            for sign in MarshallingSign::ALL {
                frames.push(render_sign(sign, &ViewSpec::paper_default(az, 5.0, 3.0)));
            }
        }
        frames.push(GrayImage::new(64, 64)); // failure case rides along
        frames
    }

    #[test]
    fn batch_decisions_match_the_pipeline() {
        let e = engine(2);
        let frames = mixed_frames();
        let batch = e.process_batch(&frames);
        assert_eq!(batch.len(), frames.len());
        for (frame, got) in frames.iter().zip(&batch) {
            let want = e.pipeline().recognize(frame);
            assert_eq!(got.decision, want.decision);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(engine(4).process_batch(&[]).is_empty());
    }

    #[test]
    fn streams_report_all_streams() {
        let e = engine(2);
        let frame = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        );
        let streams = vec![vec![frame.clone()], vec![frame]];
        let report = e.run_streams(&streams, 3, 0.0);
        assert_eq!(report.per_stream.len(), 2);
        assert_eq!(report.workers, 2);
        for s in 0..2 {
            assert!(report.per_stream[s].frames >= 3);
            assert_eq!(
                report.per_stream[s].decided, report.per_stream[s].frames,
                "frontal Yes frames must all decide"
            );
        }
        assert!(report.aggregate_fps() > 0.0);
        assert_eq!(
            report.total_frames(),
            report.per_stream.iter().map(|s| s.frames).sum::<usize>()
        );
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_stream_rejected() {
        engine(1).run_streams(&[Vec::new()], 1, 0.0);
    }

    #[test]
    fn gated_run_attributes_counters_per_stream() {
        // The per-stream view the serving layer budgets against: each
        // stream's gate counters must cover exactly its own frames, and the
        // aggregate must be their sum — nothing double-counted, nothing
        // attributed to the wrong stream.
        let e = engine(2);
        let yes = render_sign(
            MarshallingSign::Yes,
            &ViewSpec::paper_default(0.0, 5.0, 3.0),
        );
        let no = render_sign(MarshallingSign::No, &ViewSpec::paper_default(0.0, 5.0, 3.0));
        // stream 0: pure hold (one distinct frame) — near-100% hit rate;
        // stream 1: alternating signs — the gate can never hit
        let streams = vec![vec![yes.clone(), yes.clone()], vec![yes, no]];
        let report =
            e.run_streams_gated(&streams, 4, 0.0, crate::temporal::TemporalConfig::strict());

        let mut summed = GateCounters::default();
        for (i, s) in report.per_stream.iter().enumerate() {
            assert_eq!(
                s.gate.frames(),
                s.frames,
                "stream {i}: gate counters must cover exactly its frames"
            );
            summed = summed.plus(&s.gate);
        }
        assert_eq!(report.gate_totals(), summed);
        assert_eq!(
            report.decided_total(),
            report.per_stream.iter().map(|s| s.decided).sum::<usize>()
        );

        // the hold stream hits (only its first frame recomputes), the
        // alternating stream never does — visible only per-stream
        assert!(report.per_stream[0].hit_rate() > 0.5);
        assert_eq!(report.per_stream[1].gate.hits(), 0);
        assert_eq!(report.per_stream[1].hit_rate(), 0.0);
    }
}
