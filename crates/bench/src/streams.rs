//! Held-sign gating study: the `bench_stream` workload and report.
//!
//! The temporal gate's value proposition lives or dies on the *shape* of a
//! real marshalling stream: a human holds each sign for seconds while the
//! camera oversamples, so frames arrive as long runs of near-identical
//! images punctuated by short transitions. [`held_sign_stream`] synthesises
//! exactly that — static holds with sensor jitter, duplicated frames from
//! camera oversampling, and `Pose::lerp` transitions between signs — and
//! [`gating_study`] serves it through [`hdc_serve::serve`], the station the
//! serve goldens and `serve_fleet` run, [`SERVES_PER_RUN`] times per gate
//! mode and repeat, with capacity above the offered load so every offered
//! frame is decided. A mode's fps is its decided frames over the wall time
//! of those serve calls;
//! the committed report records each mode's spread and the per-repeat
//! ratios to the ungated run of the same repeat, which cancel the host's
//! slow and fast spells.
//!
//! Everything but wall time is a pure function of the workload: each
//! mode's frames, gate counters and serve digest repeat exactly, and the
//! study asserts that they do. Incremental mode may diverge from the
//! ungated oracle, so the report also *measures* that divergence
//! ([`decision_divergence`], per frame against the ungated mode's decide
//! events) and commits the rate next to the fps numbers in
//! `BENCH_stream.json` — a speedup quoted without its error rate is not a
//! result.

use crate::frames::view_at;
use crate::report::{Json, Spread};
use hdc_figure::{render_pose, MarshallingSign, Pose};
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_runtime::WorkPool;
use hdc_serve::{
    serve, ArrivalSpec, CostModel, EventKind, ServeConfig, ServeInput, ServeReport, StreamBudget,
};
use hdc_vision::temporal::{GateCounters, TemporalConfig};
use hdc_vision::RecognitionPipeline;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

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

/// Passes each stream makes over its frames in one serve call: two, so
/// reuse carries across the stream's cycle boundary.
pub const PASSES: usize = 2;

/// The arrivals and serving configuration of one gate mode over
/// `streams` streams of `frames_per_stream` frames: 30 fps cameras, one
/// shard and one resident recogniser per stream, and admission, queue and
/// deadline bounds no frame reaches, so every offered frame is decided by
/// its own stream's recogniser in order. (A 30 fps budget would reject
/// frames: its token takes 33 334 µs to refill, one more than the period.)
pub fn study_fleet(
    streams: usize,
    frames_per_stream: usize,
    gate: TemporalConfig,
) -> (ArrivalSpec, ServeConfig) {
    (
        ArrivalSpec {
            streams,
            frames_per_stream: PASSES * frames_per_stream,
            period_us: 33_333,
            jitter_us: 0,
            burst: None,
            seed: 0x5eed_0031,
        },
        ServeConfig {
            shards: streams,
            queue_cap: 64,
            resident_cap: 1,
            deadline_us: 3_600_000_000,
            budget: StreamBudget {
                fps: 1_000,
                burst: 64,
            },
            costs: CostModel::default(),
            gate,
            spill: false,
        },
    )
}

/// Serve calls timed together as one run of a gate mode. One call lasts
/// 0.06–0.14 s on the standard workload at two workers, short enough for
/// one host spell to move a repeat's fps by a third; eight make each timed
/// window at least about half a second.
pub const SERVES_PER_RUN: usize = 8;

/// One gate mode served [`SERVES_PER_RUN`] times back to back.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRun {
    /// Mode name as committed in the JSON
    /// (`off`/`strict`/`incremental`).
    pub label: &'static str,
    /// The deterministic serving report of one call (every call's is equal).
    pub report: ServeReport,
    /// Wall-clock seconds of all the run's serve calls.
    pub seconds: f64,
}

impl GateRun {
    /// Decided frames per wall-clock second, summed over the pool's
    /// workers.
    pub fn fps(&self) -> f64 {
        (SERVES_PER_RUN * self.report.decided()) as f64 / self.seconds
    }

    /// Gate counters summed over the streams.
    pub fn gate(&self) -> GateCounters {
        self.report
            .per_stream
            .iter()
            .fold(GateCounters::default(), |acc, s| acc.plus(&s.gate))
    }
}

/// Serves `frame_sets` (one set per stream) through every gate mode in
/// turn, `repeats` times, each mode as one run of [`SERVES_PER_RUN`] [`serve`]
/// calls on `pool` timed together (ungated first, so every later run's
/// speedup divides by it).
///
/// # Panics
/// Panics unless every call shows what the workload fixes: each decides
/// every offered frame with no rejection, shed or eviction, its per-stream
/// gate counters and serve digest equal its mode's first call's, and strict
/// gating never diverges from the ungated mode.
pub fn gating_study(
    pipeline: &RecognitionPipeline,
    frame_sets: &[Vec<GrayImage>],
    pool: &WorkPool,
    repeats: usize,
) -> Vec<Vec<GateRun>> {
    let modes = [
        ("off", TemporalConfig::off()),
        ("strict", TemporalConfig::strict()),
        ("incremental", TemporalConfig::incremental()),
    ];
    let mut study: Vec<Vec<GateRun>> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let runs: Vec<GateRun> = modes
            .iter()
            .map(|&(label, gate)| {
                let (arrivals, config) = study_fleet(frame_sets.len(), frame_sets[0].len(), gate);
                let input = ServeInput {
                    frame_sets,
                    arrivals: &arrivals,
                };
                let start = Instant::now();
                let reports: Vec<ServeReport> = (0..SERVES_PER_RUN)
                    .map(|_| serve(pipeline, &input, &config, pool))
                    .collect();
                let seconds = start.elapsed().as_secs_f64();
                for r in &reports {
                    assert!(
                        r.decided() == r.offered()
                            && r.rejected_budget() + r.rejected_queue() + r.shed() + r.evictions()
                                == 0,
                        "{label}: {} of {} offered frames decided ({} budget rejects, {} queue rejects, {} shed, {} evictions)",
                        r.decided(),
                        r.offered(),
                        r.rejected_budget(),
                        r.rejected_queue(),
                        r.shed(),
                        r.evictions()
                    );
                }
                let mut reports = reports.into_iter();
                let run = GateRun {
                    label,
                    report: reports.next().expect("a run serves at least once"),
                    seconds,
                };
                for r in reports {
                    assert_same_counts(&run, &r);
                }
                run
            })
            .collect();
        if let Some(first) = study.first() {
            for (first, run) in first.iter().zip(&runs) {
                assert_same_counts(first, &run.report);
            }
        }
        let strict = decision_divergence(&runs[0].report, &runs[1].report);
        assert_eq!(
            strict.divergent, 0,
            "strict gating must be bit-identical to the ungated oracle"
        );
        study.push(runs);
    }
    study
}

/// Asserts that `report` has `run`'s per-stream gate counters and serve
/// digest.
fn assert_same_counts(run: &GateRun, report: &ServeReport) {
    let gates = |r: &ServeReport| r.per_stream.iter().map(|s| s.gate).collect::<Vec<_>>();
    assert_eq!(
        gates(report),
        gates(&run.report),
        "{}: gate counters moved",
        run.label
    );
    assert_eq!(
        report.digest(),
        run.report.digest(),
        "{}: serve digest moved",
        run.label
    );
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

/// Compares the label of every `(stream, frame)` the gated report decides
/// with the label the ungated report decided for it; a frame the oracle
/// never decided counts as divergent.
pub fn decision_divergence(oracle: &ServeReport, gated: &ServeReport) -> Divergence {
    let want: HashMap<_, _> = decides(oracle).collect();
    let mut d = Divergence::default();
    for (key, label) in decides(gated) {
        d.frames += 1;
        if want.get(&key) != Some(&label) {
            d.divergent += 1;
        }
    }
    d
}

/// Every `(stream, frame)` a report decides, with its label.
fn decides(report: &ServeReport) -> impl Iterator<Item = ((u32, u32), &Option<String>)> {
    report.events.iter().filter_map(|e| match &e.kind {
        EventKind::Decide { label, .. } => Some(((e.stream, e.frame), label)),
        _ => None,
    })
}

/// One gate mode over every repeat of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSummary {
    /// Mode name, as in [`GateRun::label`].
    pub label: &'static str,
    /// Wall seconds served, summed over the repeats.
    pub seconds: f64,
    /// Frames decided in one serve call (the same in every call).
    pub frames: usize,
    /// Gate counters of one serve call (the same in every call).
    pub gate: GateCounters,
    /// Serve digest of one serve call (the same in every call).
    pub digest: String,
    /// Decided fps across the repeats.
    pub fps: Spread,
    /// Per repeat, this mode's fps over the ungated mode's fps of the same
    /// repeat.
    pub speedup_vs_off: Spread,
}

/// Summarises a [`gating_study`] mode by mode, in the study's mode order.
///
/// # Panics
/// Panics when `repeats` is empty.
pub fn summarize_modes(repeats: &[Vec<GateRun>]) -> Vec<ModeSummary> {
    let off_fps: Vec<f64> = repeats.iter().map(|runs| runs[0].fps()).collect();
    repeats[0]
        .iter()
        .enumerate()
        .map(|(m, first)| {
            let runs: Vec<&GateRun> = repeats.iter().map(|runs| &runs[m]).collect();
            let fps: Vec<f64> = runs.iter().map(|r| r.fps()).collect();
            ModeSummary {
                label: first.label,
                seconds: runs.iter().map(|r| r.seconds).sum(),
                frames: first.report.decided(),
                gate: first.gate(),
                digest: first.report.digest(),
                speedup_vs_off: Spread::of(fps.iter().zip(&off_fps).map(|(f, o)| f / o).collect()),
                fps: Spread::of(fps),
            }
        })
        .collect()
}

/// The members of `BENCH_stream.json` after its `execution` block.
pub fn stream_report(
    workload: &StreamWorkload,
    repeats: &[Vec<GateRun>],
    strict_divergence: Divergence,
    incremental_divergence: Divergence,
) -> Vec<(&'static str, Json)> {
    let first = &repeats[0][0].report;
    let modes = summarize_modes(repeats).into_iter().map(|mode| {
        Json::Object(vec![
            ("mode", mode.label.into()),
            ("seconds", Json::Num(mode.seconds, 2)),
            ("frames", mode.frames.into()),
            ("digest", Json::Str(mode.digest)),
            ("aggregate_fps", Json::spread(&mode.fps, 2)),
            ("speedup_vs_off", Json::spread(&mode.speedup_vs_off, 3)),
            (
                "gate",
                Json::Object(vec![
                    ("strict_hits", mode.gate.strict_hits.into()),
                    ("incremental_hits", mode.gate.incremental_hits.into()),
                    ("full_runs", mode.gate.full_runs.into()),
                ]),
            ),
        ])
    });
    let divergence = |d: Divergence| {
        Json::Object(vec![
            ("frames", d.frames.into()),
            ("divergent", d.divergent.into()),
            ("rate", Json::Num(d.rate(), 6)),
        ])
    };
    vec![
        (
            "benchmark",
            "temporal-coherence gating: held-sign streams served through hdc-serve".into(),
        ),
        (
            "metadata",
            Json::Object(vec![
                ("repeats", repeats.len().into()),
                ("streams", first.per_stream.len().into()),
                ("passes", PASSES.into()),
                ("serves_per_run", SERVES_PER_RUN.into()),
                ("width", u64::from(workload.width).into()),
                ("height", u64::from(workload.height).into()),
                ("holds", workload.holds.into()),
                ("keyframes_per_hold", workload.keyframes_per_hold.into()),
                ("dups_per_keyframe", workload.dups_per_keyframe.into()),
                ("transition_frames", workload.transition_frames.into()),
                ("jitter", Json::Num(workload.jitter, 3)),
            ]),
        ),
        (
            "protocol",
            Json::Object(vec![
                ("stream", "held marshalling signs: per hold, lerp transition frames then keyframes x byte-identical oversampled duplicates, salt-and-pepper sensor jitter per keyframe".into()),
                ("modes", "each repeat serves every gate mode in turn (off = ungated baseline) as one run of serves_per_run hdc_serve::serve calls timed together: 30 fps arrivals of every stream's frames, passes times over, one shard and one resident recogniser per stream, admission and deadline bounds no frame reaches; frames, gate counters and digest are one serve call's and equal in every call, seconds are summed over the repeats".into()),
                ("divergence", "per-frame accepted-decision mismatch of each gated mode's decide events vs the ungated mode's".into()),
                ("note", "aggregate fps is the run's decided frames (serves_per_run x frames) over its wall time, summed over the execution block's threads, so it scales with the host and its speed spells (median, min, max over the repeats); speedup_vs_off is each repeat's mode fps over that repeat's ungated fps, the gate's work saving with the spell cancelled".into()),
            ]),
        ),
        ("modes", Json::Array(modes.collect())),
        (
            "divergence",
            Json::Object(vec![
                ("strict", divergence(strict_divergence)),
                ("incremental", divergence(incremental_divergence)),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::benchmark_pipeline;

    /// The smoke study at `streams` streams and `repeats` repeats.
    fn smoke_study(streams: usize, repeats: usize) -> Vec<Vec<GateRun>> {
        let frame_sets = held_sign_streams(&StreamWorkload::smoke(), streams);
        let pool = WorkPool::with_threads(Some(2));
        gating_study(&benchmark_pipeline(), &frame_sets, &pool, repeats)
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
        let runs = &smoke_study(2, 1)[0];
        let d = decision_divergence(&runs[0].report, &runs[1].report);
        assert_eq!(d.divergent, 0, "strict mode must match the oracle exactly");
        let frames = 2 * PASSES * StreamWorkload::smoke().frames_per_stream();
        assert_eq!(d.frames, frames);
    }

    #[test]
    fn incremental_divergence_stays_bounded() {
        let runs = &smoke_study(2, 1)[0];
        let d = decision_divergence(&runs[0].report, &runs[2].report);
        assert!(
            d.rate() <= 0.05,
            "incremental divergence {} ({}/{}) exceeds the 5% bound",
            d.rate(),
            d.divergent,
            d.frames
        );
    }

    #[test]
    fn divergence_counts_a_changed_or_missing_label() {
        let runs = &smoke_study(1, 1)[0];
        let oracle = &runs[0].report;
        let mut gated = oracle.clone();
        let mut decides = gated.events.iter_mut().filter_map(|e| match &mut e.kind {
            EventKind::Decide { label, .. } => Some(label),
            _ => None,
        });
        *decides.next().expect("a decided frame") = Some("Wrong".to_owned());
        let d = decision_divergence(oracle, &gated);
        assert_eq!((d.frames, d.divergent), (oracle.decided(), 1));
        let d = decision_divergence(
            &ServeReport {
                events: Vec::new(),
                ..oracle.clone()
            },
            oracle,
        );
        assert_eq!(d.divergent, d.frames, "nothing to compare with");
    }

    #[test]
    fn study_covers_all_three_modes_and_the_gate_actually_hits() {
        let runs = &smoke_study(2, 1)[0];
        assert_eq!(
            runs.iter().map(|r| r.label).collect::<Vec<_>>(),
            ["off", "strict", "incremental"]
        );
        let strict = runs[1].gate();
        assert!(
            strict.strict_hits > 0,
            "duplicates must hit the strict gate"
        );
        let inc = runs[2].gate();
        assert!(
            inc.incremental_hits > 0,
            "jitter must hit the incremental mask gate"
        );
        assert!(
            inc.strict_hits > 0,
            "duplicates must hit the identity pre-check"
        );
        let offered = 2 * PASSES * StreamWorkload::smoke().frames_per_stream();
        for run in runs {
            assert_eq!(run.report.decided(), offered, "{}", run.label);
            assert_eq!(run.gate().frames(), offered, "{}", run.label);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let w = StreamWorkload::smoke();
        let repeats = smoke_study(1, 2);
        let d = Divergence {
            frames: 10,
            divergent: 1,
        };
        let json = Json::Object(stream_report(&w, &repeats, Divergence::default(), d)).to_string();
        assert!(json.contains("\"mode\": \"off\""));
        assert!(json.contains("\"mode\": \"strict\""));
        assert!(!json.contains("approx"));
        assert!(json.contains("\"mode\": \"incremental\""));
        assert!(json.contains("\"divergence\""));
        assert!(json.contains("\"rate\": 0.100000"));
        assert!(json.contains("\"repeats\": 2"));
        assert!(json.contains(&format!(
            "\"digest\": \"{}\"",
            repeats[0][0].report.digest()
        )));
        assert!(json.contains("\"speedup_vs_off\": {\"median\": 1.000, \"min\": 1.000"));
        assert!(json.contains("\"jitter\": 0.001"));
    }
}
