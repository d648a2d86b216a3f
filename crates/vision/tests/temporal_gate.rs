//! Conformance of the temporal-coherence gate (`hdc_vision::temporal`).
//!
//! * **Strict mode is exact**: on arbitrary streams with repeated frames,
//!   the gated engine output is byte-identical to the ungated path at 1, 2
//!   and 4 workers (property test).
//! * **Incremental mode is decision-exact on this pool and deterministic**:
//!   the mask gate only absorbs sub-tolerance silhouette deltas (here, the
//!   two profile views that genuinely resolve alike), so every accepted
//!   decision equals the ungated oracle's, and the full output is
//!   byte-identical across worker counts.
//! * Gate counters add up and hit when they should.
//! * **Identity is byte for byte**: a frame that differs from the previous
//!   one in a single pixel anywhere (an early row, the very last pixel)
//!   misses the identity check, and a byte-identical copy in a fresh
//!   buffer hits it.

use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::GrayImage;
use hdc_vision::temporal::{GateCounters, StreamRecognizer, TemporalConfig};
use hdc_vision::{FrameScratch, PipelineConfig, RecognitionEngine, RecognitionPipeline};
use proptest::prelude::*;
use std::sync::OnceLock;

fn view_at(width: u32, azimuth_deg: f64) -> ViewSpec {
    let mut v = ViewSpec::paper_default(azimuth_deg, 5.0, 3.0);
    let scale = width as f64 / v.width as f64;
    v.width = width;
    v.height = (v.height as f64 * scale) as u32;
    v.focal_px *= scale;
    v
}

/// The shared frame pool: all three signs at three azimuths (accepts,
/// ambiguous obliques) plus an empty reject frame, at 320×240.
fn frame_pool() -> &'static Vec<GrayImage> {
    static POOL: OnceLock<Vec<GrayImage>> = OnceLock::new();
    POOL.get_or_init(|| {
        let mut frames = Vec::new();
        for az in [0.0, 20.0, 90.0] {
            for sign in MarshallingSign::ALL {
                frames.push(render_sign(sign, &view_at(320, az)));
            }
        }
        frames.push(GrayImage::new(320, 240));
        frames
    })
}

fn pipeline() -> &'static RecognitionPipeline {
    static PIPELINE: OnceLock<RecognitionPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let mut p = RecognitionPipeline::new(PipelineConfig::default());
        p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
        p
    })
}

fn engine(threads: usize) -> RecognitionEngine {
    RecognitionEngine::new(pipeline().clone(), Some(threads))
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
    fn strict_gated_output_is_byte_identical_to_ungated_at_any_worker_count(
        streams in streams_strategy(),
        passes in 1usize..3,
    ) {
        let oracle = engine(1).process_streams(&streams, passes, TemporalConfig::off());
        for workers in [1, 2, 4] {
            let strict = engine(workers).process_streams(&streams, passes, TemporalConfig::strict());
            prop_assert_eq!(&strict, &oracle, "strict vs ungated at {} workers", workers);
        }
    }

    #[test]
    fn incremental_decisions_match_the_ungated_oracle_at_any_worker_count(
        streams in streams_strategy(),
        passes in 1usize..3,
    ) {
        // Sign changes move the whole silhouette arm, blowing past the
        // per-tile mask tolerance, so reuse only fires where the oracle
        // decides identically; and per-stream recognisers make the full
        // output worker-count independent.
        let oracle = engine(1).process_streams(&streams, passes, TemporalConfig::off());
        let one = engine(1).process_streams(&streams, passes, TemporalConfig::incremental());
        for (s, (o_stream, g_stream)) in oracle.iter().zip(&one).enumerate() {
            for (f, (o, g)) in o_stream.iter().zip(g_stream).enumerate() {
                prop_assert_eq!(
                    &o.decision, &g.decision,
                    "incremental decision diverged from the oracle (stream {}, frame {})", s, f
                );
            }
        }
        for workers in [2, 4] {
            let many = engine(workers).process_streams(&streams, passes, TemporalConfig::incremental());
            prop_assert_eq!(&many, &one, "incremental at {} workers", workers);
        }
    }
}

#[test]
fn strict_gate_hits_on_repeated_frames_and_counters_add_up() {
    let frame = frame_pool()[0].clone();
    let streams = vec![vec![frame.clone(), frame.clone(), frame]];
    let e = engine(2);
    let report = e.run_streams_gated(&streams, 9, 0.0, TemporalConfig::strict());
    let gate = report.gate_totals();
    assert_eq!(gate.frames(), report.total_frames());
    // first frame computes, every later repeat and cycle is byte-identical
    assert_eq!(gate.full_runs, 1);
    assert_eq!(gate.strict_hits, report.total_frames() - 1);
    assert_eq!(gate.incremental_hits, 0);
}

#[test]
fn ungated_run_streams_reports_only_full_runs() {
    let streams = vec![vec![frame_pool()[0].clone()]; 2];
    let report = engine(2).run_streams(&streams, 3, 0.0);
    let gate = report.gate_totals();
    assert_eq!(gate.full_runs, report.total_frames());
    assert_eq!(gate.hits(), 0);
}

#[test]
fn gated_stream_decisions_match_ungated_counts_in_strict_mode() {
    // decided counts are decision-derived, so strict gating must reproduce
    // them exactly whatever the worker count
    let streams: Vec<Vec<GrayImage>> = (0..3)
        .map(|s| {
            let mut v = frame_pool().clone();
            v.rotate_left(s);
            v
        })
        .collect();
    let min_frames = streams[0].len() * 2;
    let ungated = engine(1).run_streams(&streams, min_frames, 0.0);
    for workers in [1, 2, 4] {
        let strict =
            engine(workers).run_streams_gated(&streams, min_frames, 0.0, TemporalConfig::strict());
        for (u, s) in ungated.per_stream.iter().zip(&strict.per_stream) {
            // frame counts differ by timing (floors), decision *rate* must not
            assert_eq!(
                u.decided * s.frames,
                s.decided * u.frames,
                "decision rate must match the ungated path"
            );
        }
    }
}

#[test]
fn incremental_counters_split_identity_from_mask_hits() {
    // consecutive distinct frames: neither the identity pre-check nor the
    // mask gate can fire — every frame is a full run
    let streams = vec![frame_pool().clone()];
    let report = engine(1).run_streams_gated(
        &streams,
        frame_pool().len() * 3,
        0.0,
        TemporalConfig::incremental(),
    );
    let gate = report.gate_totals();
    assert_eq!(gate.frames(), report.total_frames());
    assert_eq!(gate.strict_hits, 0, "no consecutive duplicates");
    assert_eq!(gate.incremental_hits, 0, "structural changes must miss");
    let dirty = report.dirty_totals();
    assert_eq!(
        dirty.evaluated(),
        dirty.patched + dirty.full_fallbacks,
        "every evaluated frame missed and refreshed the cache"
    );
    // ...while oversampled duplicates resolve via the identity pre-check
    let dup = frame_pool()[0].clone();
    let report = engine(1).run_streams_gated(
        &[vec![dup.clone(), dup.clone(), dup]],
        6,
        0.0,
        TemporalConfig::incremental(),
    );
    let gate = report.gate_totals();
    assert_eq!(gate.full_runs, 1);
    assert_eq!(gate.strict_hits, report.total_frames() - 1);
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
        let mut delta = |frame: &GrayImage| -> GateCounters {
            let before = rec.counters();
            let got = rec.recognize(pipeline(), &mut scratch, frame).clone();
            let want = RecognitionEngine::recognize_one(pipeline(), &mut oracle_scratch, frame);
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
