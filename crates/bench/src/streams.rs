//! Sustained-stream gating study: the `bench_stream` workload and report.
//!
//! The temporal gate's value proposition lives or dies on the *shape* of a
//! real marshalling stream: a human holds each sign for seconds while the
//! camera oversamples, so frames arrive as long runs of near-identical
//! images punctuated by short transitions. [`held_sign_stream`] synthesises
//! exactly that — static holds with sensor jitter, duplicated frames from
//! camera oversampling, and `Pose::lerp` transitions between signs — and
//! [`gating_study`] serves it through [`RecognitionEngine::run_streams_gated`]
//! once per gate mode so the sustained-fps comparison (ungated vs strict vs
//! incremental) is measured on the same frames, engine and floors. The
//! committed report repeats the study and records each mode's spread and
//! the per-repeat ratios to the ungated run of the same repeat, which
//! cancel the host's slow and fast spells.
//!
//! Incremental mode may diverge from the ungated oracle, so the report also
//! *measures* that divergence ([`decision_divergence`]) on the deterministic
//! [`RecognitionEngine::process_streams`] path and commits the rate next to
//! the fps numbers in `BENCH_stream.json` — a speedup quoted without its
//! error rate is not a result.

use crate::frames::view_at;
use crate::report::Spread;
use hdc_figure::{render_pose, MarshallingSign, Pose};
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_runtime::available_workers;
use hdc_vision::temporal::{GateCounters, TemporalConfig};
use hdc_vision::{MultiStreamReport, RecognitionEngine};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Shape of the synthetic held-sign stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamWorkload {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Hold segments per stream (signs cycle through the alphabet).
    pub holds: usize,
    /// Distinct jittered keyframes per hold (sensor noise re-rolls).
    pub keyframes_per_hold: usize,
    /// Byte-identical repeats of each keyframe (camera oversampling of a
    /// static scene — what the strict gate exists for).
    pub dups_per_keyframe: usize,
    /// `Pose::lerp` frames leading into each hold (every one unique — the
    /// part of the stream no gate may swallow).
    pub transition_frames: usize,
    /// Salt-and-pepper probability of the per-keyframe sensor jitter.
    pub jitter: f64,
}

impl StreamWorkload {
    /// The committed benchmark workload: VGA streams, ~1.6 s holds at the
    /// paper's 30 fps (6 sensor-noise keyframes × 8 oversampled
    /// duplicates), 4-frame transitions, 0.1% salt-and-pepper jitter.
    pub fn standard() -> Self {
        StreamWorkload {
            width: 640,
            height: 480,
            holds: 6,
            keyframes_per_hold: 6,
            dups_per_keyframe: 8,
            transition_frames: 4,
            jitter: 0.001,
        }
    }

    /// A tiny variant for CI smoke runs and tests.
    pub fn smoke() -> Self {
        StreamWorkload {
            width: 320,
            height: 240,
            holds: 2,
            keyframes_per_hold: 2,
            dups_per_keyframe: 2,
            transition_frames: 2,
            jitter: 0.001,
        }
    }

    /// Frames one stream of this shape contains.
    pub fn frames_per_stream(&self) -> usize {
        self.holds * (self.transition_frames + self.keyframes_per_hold * self.dups_per_keyframe)
    }
}

/// One synthetic camera stream: for each hold, `transition_frames` of
/// `Pose::lerp` morphing from the previous posture, then the held sign as
/// `keyframes_per_hold` jitter re-rolls × `dups_per_keyframe` byte-identical
/// repeats. `seed` offsets the sign cycle and the noise, so a fleet of
/// streams never runs in lock-step.
pub fn held_sign_stream(w: &StreamWorkload, seed: u64) -> Vec<GrayImage> {
    let view = view_at(w.width, w.height, 0.0);
    let mut rng = SmallRng::seed_from_u64(0x5eed_0000 ^ seed);
    let mut frames = Vec::with_capacity(w.frames_per_stream());
    let mut pose_from = Pose::neutral();
    for hold in 0..w.holds {
        let sign = MarshallingSign::ALL[(hold + seed as usize) % MarshallingSign::ALL.len()];
        let pose_to = Pose::for_sign(sign);
        for step in 1..=w.transition_frames {
            let t = step as f64 / (w.transition_frames + 1) as f64;
            frames.push(render_pose(pose_from.lerp(&pose_to, t), &view));
        }
        let base = render_pose(pose_to, &view);
        for _ in 0..w.keyframes_per_hold {
            let mut keyframe = base.clone();
            add_salt_pepper(&mut keyframe, w.jitter, &mut rng);
            for _ in 0..w.dups_per_keyframe {
                frames.push(keyframe.clone());
            }
        }
        pose_from = pose_to;
    }
    frames
}

/// A fleet of [`held_sign_stream`]s with per-stream seeds.
pub fn held_sign_streams(w: &StreamWorkload, streams: usize) -> Vec<Vec<GrayImage>> {
    (0..streams as u64)
        .map(|s| held_sign_stream(w, s))
        .collect()
}

/// One gate mode's sustained-serving measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRun {
    /// Mode name as committed in the JSON
    /// (`off`/`strict`/`incremental`).
    pub label: &'static str,
    /// The sustained multi-stream report for this mode.
    pub report: MultiStreamReport,
}

/// Serves the same streams once per gate mode (ungated first, so every
/// later run's speedup divides by it) with identical floors.
pub fn gating_study(
    engine: &RecognitionEngine,
    streams: &[Vec<GrayImage>],
    min_frames_per_stream: usize,
    min_seconds: f64,
) -> Vec<GateRun> {
    [
        ("off", TemporalConfig::off()),
        ("strict", TemporalConfig::strict()),
        ("incremental", TemporalConfig::incremental()),
    ]
    .into_iter()
    .map(|(label, gate)| GateRun {
        label,
        report: engine.run_streams_gated(streams, min_frames_per_stream, min_seconds, gate),
    })
    .collect()
}

/// Decision divergence of a gated run against the ungated oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Divergence {
    /// Frames compared.
    pub frames: usize,
    /// Frames whose accepted decision differed from the oracle's.
    pub divergent: usize,
}

impl Divergence {
    /// Divergent fraction (0 when nothing was compared).
    pub fn rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.divergent as f64 / self.frames as f64
        }
    }
}

/// Measures per-frame decision divergence of `gate` against the ungated
/// oracle on the deterministic [`RecognitionEngine::process_streams`] path
/// (two passes, so reuse carries across the stream's cycle boundary exactly
/// as it does in sustained serving).
pub fn decision_divergence(
    engine: &RecognitionEngine,
    streams: &[Vec<GrayImage>],
    gate: TemporalConfig,
) -> Divergence {
    let oracle = engine.process_streams(streams, 2, TemporalConfig::off());
    let gated = engine.process_streams(streams, 2, gate);
    let mut d = Divergence::default();
    for (o_stream, g_stream) in oracle.iter().zip(&gated) {
        for (o, g) in o_stream.iter().zip(g_stream) {
            d.frames += 1;
            if o.decision != g.decision {
                d.divergent += 1;
            }
        }
    }
    d
}

/// One gate mode over every repeat of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSummary {
    /// Mode name, as in [`GateRun::label`].
    pub label: &'static str,
    /// Wall seconds served, summed over the repeats.
    pub seconds: f64,
    /// Frames served, summed over the repeats.
    pub frames: usize,
    /// Gate counters, summed over the repeats.
    pub gate: GateCounters,
    /// Aggregate fps across the repeats.
    pub fps: Spread,
    /// Per repeat, this mode's fps over the ungated mode's fps of the same
    /// repeat.
    pub speedup_vs_off: Spread,
}

/// Summarises repeated [`gating_study`] runs mode by mode, in the study's
/// mode order.
///
/// # Panics
/// Panics when `repeats` is empty, or a repeat lacks the `off` mode or
/// orders its modes differently from the first.
pub fn summarize_modes(repeats: &[Vec<GateRun>]) -> Vec<ModeSummary> {
    let off_fps: Vec<f64> = repeats
        .iter()
        .map(|runs| {
            runs.iter()
                .find(|r| r.label == "off")
                .expect("every repeat serves the ungated mode")
                .report
                .aggregate_fps()
        })
        .collect();
    repeats[0]
        .iter()
        .enumerate()
        .map(|(m, first)| {
            let runs: Vec<&GateRun> = repeats.iter().map(|runs| &runs[m]).collect();
            assert!(runs.iter().all(|r| r.label == first.label), "mode order");
            let fps: Vec<f64> = runs.iter().map(|r| r.report.aggregate_fps()).collect();
            ModeSummary {
                label: first.label,
                seconds: runs.iter().map(|r| r.report.seconds).sum(),
                frames: runs.iter().map(|r| r.report.total_frames()).sum(),
                gate: runs.iter().fold(GateCounters::default(), |acc, r| {
                    acc.plus(&r.report.gate_totals())
                }),
                speedup_vs_off: Spread::of(fps.iter().zip(&off_fps).map(|(f, o)| f / o).collect()),
                fps: Spread::of(fps),
            }
        })
        .collect()
}

/// Renders the study as the JSON document committed at `BENCH_stream.json`
/// (hand-rolled: the workspace has no JSON dependency).
pub fn stream_json(
    workload: &StreamWorkload,
    streams: usize,
    workers: usize,
    threads_flag: Option<usize>,
    repeats: &[Vec<GateRun>],
    strict_divergence: Divergence,
    incremental_divergence: Divergence,
) -> String {
    let modes = summarize_modes(repeats);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"benchmark\": \"temporal-coherence gating: sustained held-sign stream serving\",\n",
    );
    let _ = writeln!(
        s,
        "  \"metadata\": {{\n    \"threads_flag\": {},\n    \"available_parallelism\": {},\n    \"workers\": {},\n    \"repeats\": {},\n    \"streams\": {},\n    \"width\": {}, \"height\": {},\n    \"holds\": {}, \"keyframes_per_hold\": {}, \"dups_per_keyframe\": {}, \"transition_frames\": {},\n    \"jitter\": {}\n  }},",
        threads_flag
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".to_owned()),
        available_workers(),
        workers,
        repeats.len(),
        streams,
        workload.width,
        workload.height,
        workload.holds,
        workload.keyframes_per_hold,
        workload.dups_per_keyframe,
        workload.transition_frames,
        workload.jitter,
    );
    s.push_str("  \"protocol\": {\n");
    s.push_str("    \"stream\": \"held marshalling signs: per hold, lerp transition frames then keyframes x byte-identical oversampled duplicates, salt-and-pepper sensor jitter per keyframe\",\n");
    s.push_str("    \"modes\": \"same engine, streams and floors; each repeat serves every gate mode once, in turn (off = ungated baseline); seconds, frames and gate counters are summed over the repeats\",\n");
    s.push_str("    \"divergence\": \"per-frame accepted-decision mismatch vs the ungated oracle on the deterministic process_streams path (2 passes)\",\n");
    s.push_str("    \"note\": \"aggregate fps is summed over the metadata's workers, so it scales with the host and its speed spells (median, min, max over the repeats); speedup_vs_off is each repeat's mode fps over that repeat's ungated fps, the gate's work saving with the spell cancelled\"\n");
    s.push_str("  },\n");
    s.push_str("  \"modes\": [\n");
    for (i, mode) in modes.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"mode\": \"{}\", \"seconds\": {:.2}, \"frames\": {}, \"aggregate_fps\": {}, \"speedup_vs_off\": {}, \"gate\": {{\"strict_hits\": {}, \"incremental_hits\": {}, \"full_runs\": {}}}}}{}",
            mode.label,
            mode.seconds,
            mode.frames,
            mode.fps.json(2),
            mode.speedup_vs_off.json(3),
            mode.gate.strict_hits,
            mode.gate.incremental_hits,
            mode.gate.full_runs,
            if i + 1 < modes.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"divergence\": {{\n    \"strict\": {{\"frames\": {}, \"divergent\": {}, \"rate\": {:.6}}},\n    \"incremental\": {{\"frames\": {}, \"divergent\": {}, \"rate\": {:.6}}}\n  }}",
        strict_divergence.frames,
        strict_divergence.divergent,
        strict_divergence.rate(),
        incremental_divergence.frames,
        incremental_divergence.divergent,
        incremental_divergence.rate(),
    );
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::benchmark_pipeline;

    fn engine() -> RecognitionEngine {
        RecognitionEngine::new(benchmark_pipeline(), Some(2))
    }

    #[test]
    fn workload_shape_matches_the_arithmetic() {
        let w = StreamWorkload::smoke();
        let stream = held_sign_stream(&w, 0);
        assert_eq!(stream.len(), w.frames_per_stream());
        assert!(stream
            .iter()
            .all(|f| f.width() == w.width && f.height() == w.height));
        // oversampled duplicates really are byte-identical (the strict
        // gate's food) and seeds decorrelate streams
        let first_hold_keyframe = w.transition_frames;
        assert_eq!(
            stream[first_hold_keyframe].pixels(),
            stream[first_hold_keyframe + 1].pixels()
        );
        assert_ne!(
            held_sign_stream(&w, 1)[first_hold_keyframe].pixels(),
            stream[first_hold_keyframe].pixels()
        );
    }

    #[test]
    fn strict_gating_never_diverges_on_the_benchmark_workload() {
        let streams = held_sign_streams(&StreamWorkload::smoke(), 2);
        let d = decision_divergence(&engine(), &streams, TemporalConfig::strict());
        assert_eq!(d.divergent, 0, "strict mode must match the oracle exactly");
        assert_eq!(d.frames, streams.iter().map(|s| s.len() * 2).sum::<usize>());
    }

    #[test]
    fn incremental_divergence_stays_bounded() {
        let streams = held_sign_streams(&StreamWorkload::smoke(), 2);
        let d = decision_divergence(&engine(), &streams, TemporalConfig::incremental());
        assert!(
            d.rate() <= 0.05,
            "incremental divergence {} ({}/{}) exceeds the 5% bound",
            d.rate(),
            d.divergent,
            d.frames
        );
    }

    #[test]
    fn study_covers_all_three_modes_and_the_gate_actually_hits() {
        let w = StreamWorkload::smoke();
        let streams = held_sign_streams(&w, 2);
        let runs = gating_study(&engine(), &streams, w.frames_per_stream(), 0.0);
        assert_eq!(
            runs.iter().map(|r| r.label).collect::<Vec<_>>(),
            ["off", "strict", "incremental"]
        );
        let strict = runs[1].report.gate_totals();
        assert!(
            strict.strict_hits > 0,
            "duplicates must hit the strict gate"
        );
        let inc = runs[2].report.gate_totals();
        assert!(
            inc.incremental_hits > 0,
            "jitter must hit the incremental mask gate"
        );
        assert!(
            inc.strict_hits > 0,
            "duplicates must hit the identity pre-check"
        );
        for run in &runs {
            assert_eq!(run.report.gate_totals().frames(), run.report.total_frames());
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let w = StreamWorkload::smoke();
        let streams = held_sign_streams(&w, 1);
        let repeats: Vec<Vec<GateRun>> = (0..2)
            .map(|_| gating_study(&engine(), &streams, 1, 0.0))
            .collect();
        let d = Divergence {
            frames: 10,
            divergent: 1,
        };
        let json = stream_json(&w, 1, 2, Some(2), &repeats, Divergence::default(), d);
        assert!(json.contains("\"mode\": \"off\""));
        assert!(json.contains("\"mode\": \"strict\""));
        assert!(!json.contains("approx"));
        assert!(json.contains("\"mode\": \"incremental\""));
        assert!(json.contains("\"divergence\""));
        assert!(json.contains("\"rate\": 0.100000"));
        assert!(json.contains("\"repeats\": 2"));
        assert!(json.contains("\"speedup_vs_off\": {\"median\": 1.000, \"min\": 1.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
