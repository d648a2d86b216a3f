//! Conformance of the temporal-coherence gate (`hdc_vision::temporal`).
//!
//! Each stream runs through a fresh [`StreamRecognizer`] of its own, the
//! per-stream loop every multi-stream server runs; the ungated oracle is
//! one full pipeline run per frame ([`recognize_one`]).
//!
//! * **Strict mode is exact**: on arbitrary streams with repeated frames,
//!   the gated output is byte-identical to the ungated path (property
//!   test).
//! * **Incremental mode is decision-exact on this pool**: the mask gate
//!   only absorbs sub-tolerance silhouette deltas (here, the two profile
//!   views that genuinely resolve alike), so every accepted decision
//!   equals the ungated oracle's.
//! * **Incremental misses are exact**: on random held-sign streams with
//!   sensor jitter, repeats, sign changes, off-figure blocks and one
//!   resolution change, every frame the gate resolves by a full run gets
//!   exactly the ungated recognition, field by field (property test).
//! * Gate counters add up and hit when they should.
//! * **Identity is byte for byte**: a frame that differs from the previous
//!   one in a single pixel anywhere (an early row, the very last pixel)
//!   misses the identity check, and a byte-identical copy in a fresh
//!   buffer hits it.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_vision::temporal::{GateCounters, StreamRecognizer, TemporalConfig};
use hdc_vision::{FrameScratch, PipelineConfig, Recognition, RecognitionPipeline};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};
use std::sync::OnceLock;

fn view_at(width: u32, azimuth_deg: f64) -> ViewSpec {
    let mut v = ViewSpec::paper_default(azimuth_deg, 5.0, 3.0);
    let scale = width as f64 / v.width as f64;
    v.width = width;
    v.height = (v.height as f64 * scale) as u32;
    v.focal_px *= scale;
    v
}

/// All three signs at three azimuths (accepts, ambiguous obliques) plus an
/// empty reject frame, `width` pixels wide at the paper's aspect ratio.
fn render_pool(width: u32) -> Vec<GrayImage> {
    let mut frames = Vec::new();
    for az in [0.0, 20.0, 90.0] {
        for sign in MarshallingSign::ALL {
            frames.push(render_sign(sign, &view_at(width, az)));
        }
    }
    frames.push(GrayImage::new(width, width * 3 / 4));
    frames
}

/// The shared frame pool at 320×240.
fn frame_pool() -> &'static Vec<GrayImage> {
    static POOL: OnceLock<Vec<GrayImage>> = OnceLock::new();
    POOL.get_or_init(|| render_pool(320))
}

/// The same pool at 256×192: what a stream switches to on its resolution
/// change.
fn small_pool() -> &'static Vec<GrayImage> {
    static POOL: OnceLock<Vec<GrayImage>> = OnceLock::new();
    POOL.get_or_init(|| render_pool(256))
}

fn pipeline() -> &'static RecognitionPipeline {
    static PIPELINE: OnceLock<RecognitionPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        p
    })
}

/// The ungated oracle: one full pipeline run, projected.
fn recognize_one(scratch: &mut FrameScratch, frame: &GrayImage) -> Recognition {
    Recognition::from_frame_result(&pipeline().recognize_with(scratch, frame))
}

/// One stream's outcome: every frame's recognition in order, and how the
/// gate resolved them.
struct StreamRun {
    recognitions: Vec<Recognition>,
    gate: GateCounters,
}

impl StreamRun {
    fn decided(&self) -> usize {
        self.recognitions
            .iter()
            .filter(|r| r.decision.is_some())
            .count()
    }
}

/// Cycles each stream's frames `passes` times through a fresh recogniser
/// of its own (reuse carries across the cycle boundary).
fn gate_streams(streams: &[Vec<GrayImage>], passes: usize, gate: TemporalConfig) -> Vec<StreamRun> {
    let mut scratch = FrameScratch::new();
    streams
        .iter()
        .map(|frames| {
            let mut rec = StreamRecognizer::new(gate);
            let recognitions = (0..passes)
                .flat_map(|_| frames)
                .map(|frame| rec.recognize(pipeline(), &mut scratch, frame).clone())
                .collect();
            StreamRun {
                recognitions,
                gate: rec.counters(),
            }
        })
        .collect()
}

/// Every frame's recognition, stream by stream.
fn recognise_streams(
    streams: &[Vec<GrayImage>],
    passes: usize,
    gate: TemporalConfig,
) -> Vec<Vec<Recognition>> {
    gate_streams(streams, passes, gate)
        .into_iter()
        .map(|run| run.recognitions)
        .collect()
}

/// Streams built as `(pool index, repeat count)` runs — repeats are what
/// give the strict gate something to hit.
fn streams_strategy() -> impl Strategy<Value = Vec<Vec<GrayImage>>> {
    let run = (0usize..frame_pool().len(), 1usize..4);
    let stream = prop::collection::vec(run, 1..5);
    prop::collection::vec(stream, 1..4).prop_map(|streams| {
        streams
            .into_iter()
            .map(|runs| {
                runs.into_iter()
                    .flat_map(|(idx, reps)| {
                        std::iter::repeat_with(move || frame_pool()[idx].clone()).take(reps)
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn strict_gated_output_is_byte_identical_to_ungated(
        streams in streams_strategy(),
        passes in 1usize..3,
    ) {
        let oracle = recognise_streams(&streams, passes, TemporalConfig::off());
        let strict = recognise_streams(&streams, passes, TemporalConfig::strict());
        prop_assert_eq!(&strict, &oracle, "strict vs ungated");
    }

    #[test]
    fn incremental_decisions_match_the_ungated_oracle(
        streams in streams_strategy(),
        passes in 1usize..3,
    ) {
        // Sign changes move the whole silhouette arm, blowing past the
        // per-tile mask tolerance, so reuse only fires where the oracle
        // decides identically.
        let oracle = recognise_streams(&streams, passes, TemporalConfig::off());
        let gated = recognise_streams(&streams, passes, TemporalConfig::incremental());
        for (s, (o_stream, g_stream)) in oracle.iter().zip(&gated).enumerate() {
            prop_assert_eq!(o_stream.len(), g_stream.len());
            for (f, (o, g)) in o_stream.iter().zip(g_stream).enumerate() {
                prop_assert_eq!(
                    &o.decision, &g.decision,
                    "incremental decision diverged from the oracle (stream {}, frame {})", s, f
                );
            }
        }
    }
}

/// One frame of a held-sign stream, relative to the sign being held.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The held pool frame with fresh salt-and-pepper sensor jitter.
    Jitter(u64),
    /// Camera oversampling: the previous frame again, byte for byte.
    Repeat,
    /// Switch to holding pool frame `idx` (a sign at some azimuth, or the
    /// empty frame), jittered.
    Change(usize, u64),
    /// The held pool frame with a bright 16×16 block in one corner, off
    /// the figure.
    Block(u8),
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u64>().prop_map(Step::Jitter),
        2 => Just(Step::Repeat),
        2 => (0..frame_pool().len(), any::<u64>()).prop_map(|(i, seed)| Step::Change(i, seed)),
        2 => (0u8..4).prop_map(Step::Block),
    ]
}

/// Renders `steps` into frames, holding the first pool sign to begin with
/// and switching from the 320×240 to the 256×192 pool at `switch_at`.
fn held_stream(steps: &[Step], switch_at: usize) -> Vec<GrayImage> {
    let mut frames: Vec<GrayImage> = Vec::with_capacity(steps.len());
    let mut held = 0;
    for (i, &step) in steps.iter().enumerate() {
        let pool = if i < switch_at {
            frame_pool()
        } else {
            small_pool()
        };
        let jittered = |idx: usize, seed: u64| {
            let mut f = pool[idx].clone();
            add_salt_pepper(&mut f, 0.001, &mut SmallRng::seed_from_u64(seed));
            f
        };
        let frame = match step {
            Step::Jitter(seed) => jittered(held, seed),
            Step::Repeat => frames
                .last()
                .filter(|f| f.width() == pool[held].width())
                .cloned()
                .unwrap_or_else(|| pool[held].clone()),
            Step::Change(idx, seed) => {
                held = idx;
                jittered(held, seed)
            }
            Step::Block(corner) => {
                let mut f = pool[held].clone();
                let x0 = if corner & 1 == 0 { 0 } else { f.width() - 16 };
                let y0 = if corner & 2 == 0 { 0 } else { f.height() - 16 };
                for y in y0..y0 + 16 {
                    for x in x0..x0 + 16 {
                        f.set(x, y, 255);
                    }
                }
                f
            }
        };
        frames.push(frame);
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_incremental_full_run_equals_the_ungated_recognition(
        steps in prop::collection::vec(step(), 4..16),
        switch_at in 1usize..16,
    ) {
        let switch_at = switch_at.min(steps.len() - 1);
        let frames = held_stream(&steps, switch_at);
        let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
        let mut scratch = FrameScratch::new();
        let mut oracle_scratch = FrameScratch::new();
        for (i, frame) in frames.iter().enumerate() {
            let before = rec.counters();
            let got = rec.recognize(pipeline(), &mut scratch, frame).clone();
            let d = rec.counters().since(&before);
            prop_assert_eq!(d.frames(), 1);
            if d.full_runs == 1 {
                let want = recognize_one(&mut oracle_scratch, frame);
                prop_assert_eq!(&got.decision, &want.decision, "decision, frame {} ({:?})", i, steps[i]);
                prop_assert_eq!(got.best_distance, want.best_distance, "best distance, frame {}", i);
                prop_assert_eq!(&got.best_label, &want.best_label, "best label, frame {}", i);
                prop_assert_eq!(got.runner_up, want.runner_up, "runner-up, frame {}", i);
                prop_assert_eq!(got.failure, want.failure, "failure, frame {}", i);
            }
        }
        prop_assert!(
            rec.counters().full_runs >= 2,
            "the cold frame and the resolution change must both miss"
        );
    }
}

#[test]
fn strict_gate_hits_on_repeated_frames_and_counters_add_up() {
    let frame = frame_pool()[0].clone();
    let streams = vec![vec![frame.clone(), frame.clone(), frame]];
    let run = &gate_streams(&streams, 3, TemporalConfig::strict())[0];
    let frames = run.recognitions.len();
    assert_eq!(frames, 9);
    assert_eq!(run.gate.frames(), frames);
    // first frame computes, every later repeat and cycle is byte-identical
    assert_eq!(run.gate.full_runs, 1);
    assert_eq!(run.gate.strict_hits, frames - 1);
    assert_eq!(run.gate.incremental_hits, 0);
}

#[test]
fn ungated_streams_report_only_full_runs() {
    let streams = vec![vec![frame_pool()[0].clone()]; 2];
    for run in gate_streams(&streams, 3, TemporalConfig::off()) {
        assert_eq!(run.gate.full_runs, run.recognitions.len());
        assert_eq!(run.gate.hits(), 0);
    }
}

#[test]
fn gated_stream_decisions_match_ungated_counts_in_strict_mode() {
    // decided counts are decision-derived, so strict gating must reproduce
    // each stream's count exactly
    let streams: Vec<Vec<GrayImage>> = (0..3)
        .map(|s| {
            let mut v = frame_pool().clone();
            v.rotate_left(s);
            v
        })
        .collect();
    let ungated = gate_streams(&streams, 2, TemporalConfig::off());
    let strict = gate_streams(&streams, 2, TemporalConfig::strict());
    for (i, (u, s)) in ungated.iter().zip(&strict).enumerate() {
        assert_eq!(u.recognitions.len(), s.recognitions.len());
        assert_eq!(u.decided(), s.decided(), "stream {i}: decided count");
        assert!(u.decided() > 0, "stream {i}: the pool holds accepted signs");
    }
}

#[test]
fn incremental_counters_split_identity_from_mask_hits() {
    // consecutive distinct frames: neither the identity pre-check nor the
    // mask gate can fire — every frame is a full run
    let streams = vec![frame_pool().clone()];
    let run = &gate_streams(&streams, 3, TemporalConfig::incremental())[0];
    let frames = run.recognitions.len();
    assert_eq!(run.gate.frames(), frames);
    assert_eq!(run.gate.strict_hits, 0, "no consecutive duplicates");
    assert_eq!(run.gate.incremental_hits, 0, "structural changes must miss");
    assert_eq!(
        run.gate.full_runs, frames,
        "every frame missed and re-ran the pipeline"
    );
    // ...while oversampled duplicates resolve via the identity pre-check
    let dup = frame_pool()[0].clone();
    let run = &gate_streams(
        &[vec![dup.clone(), dup.clone(), dup]],
        2,
        TemporalConfig::incremental(),
    )[0];
    assert_eq!(run.gate.full_runs, 1);
    assert_eq!(run.gate.strict_hits, run.recognitions.len() - 1);
}

#[test]
fn identity_is_decided_on_every_byte_of_the_frame() {
    // Each frame is checked against the one before it: a change in row 1
    // (which a sampled-row check at any stride ≥ 2 starting from row 0
    // never reads), a change in the last pixel only, then a byte-identical
    // copy of that frame in a freshly allocated buffer. Both single-pixel
    // changes keep the mask, so only the identity check can tell them
    // apart from a repeat.
    let base = frame_pool()[0].clone();
    let mut row_one = base.clone();
    let w = row_one.width() as usize;
    row_one.pixels_mut()[w + 5] ^= 1;
    let mut last_pixel = row_one.clone();
    *last_pixel.pixels_mut().last_mut().unwrap() ^= 1;
    let copy = GrayImage::from_raw(
        last_pixel.width(),
        last_pixel.height(),
        last_pixel.pixels().to_vec(),
    );
    assert_ne!(last_pixel.pixels().as_ptr(), copy.pixels().as_ptr());

    for config in [TemporalConfig::strict(), TemporalConfig::incremental()] {
        let mut oracle_scratch = FrameScratch::new();
        let mut scratch = FrameScratch::new();
        let mut rec = StreamRecognizer::new(config);
        // unannotated, so the frame's lifetime is the recogniser's
        let mut delta = |frame| -> GateCounters {
            let before = rec.counters();
            let got = rec.recognize(pipeline(), &mut scratch, frame).clone();
            let want = recognize_one(&mut oracle_scratch, frame);
            assert_eq!(got.decision, want.decision, "{:?}", config.mode);
            rec.counters().since(&before)
        };
        assert_eq!(delta(&base).full_runs, 1, "{:?}: cold start", config.mode);
        for (name, frame) in [("row 1", &row_one), ("last pixel", &last_pixel)] {
            let d = delta(frame);
            assert_eq!(
                d.strict_hits, 0,
                "{:?}: a change in {name} must miss",
                config.mode
            );
            assert_eq!(d.frames(), 1);
        }
        let d = delta(&copy);
        assert_eq!(
            d.strict_hits, 1,
            "{:?}: a byte-identical copy must hit",
            config.mode
        );
        assert_eq!(d.frames(), 1);
    }
}
