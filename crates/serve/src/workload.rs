//! The canonical serving workloads behind the golden digests.
//!
//! Three named regimes, each a complete `(frames, arrivals, config)` bundle
//! that [`crate::serve`] turns into a digestable trace:
//!
//! * **steady** — a healthy fleet: 30 fps cameras with timing jitter, load
//!   well under capacity, but a resident bound *below* the fleet size so the
//!   LRU/spill/restore machinery runs constantly while nothing is ever late;
//! * **bursty** — event-triggered cameras: short 120 fps bursts and long
//!   quiet gaps against a 30 fps sustained budget, so the token bucket's
//!   backpressure (reject-budget) carries the regulation;
//! * **overload** — offered load ≈ 2× service capacity with gating off, so
//!   the bounded queue and the frame deadline must degrade the service by
//!   rejection and shedding while decided-frame latency stays bounded.
//!
//! Everything here is pure: frames are rendered from the figure model with
//! seeded jitter, arrivals are seeded, costs are virtual. The same bundles
//! feed the conformance tests, the property suite and `serve_goldens`, so a
//! digest mismatch always means the *scheduler* changed.

use crate::arrivals::{ArrivalSpec, BurstSpec};
use crate::server::{CostModel, ServeConfig, StreamBudget};
use hdc_figure::{render_sign, MarshallingSign, ViewSpec};
use hdc_raster::noise::add_salt_pepper;
use hdc_raster::GrayImage;
use hdc_vision::temporal::TemporalConfig;
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Where the blessed serving digests live (workspace-relative, resolved
/// through the crate manifest so it works from any test cwd).
pub fn golden_path() -> &'static str {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/serve_digests.txt"
    )
}

/// The calibrated pipeline all serving goldens and tests share (default
/// kernel path, paper-default calibration views — the `bench` recipe).
pub fn golden_pipeline() -> RecognitionPipeline {
    let mut p = RecognitionPipeline::new(PipelineConfig::default());
    p.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    p
}

/// Golden-workload frame geometry: small enough that the conformance suite
/// serves thousands of frames in CI, large enough that recognition is real.
const GOLDEN_WIDTH: u32 = 96;
const GOLDEN_HEIGHT: u32 = 72;

/// A camera view of the standard scene scaled to the golden frame size,
/// rotated to `azimuth_deg`.
fn golden_view(azimuth_deg: f64) -> ViewSpec {
    let mut v = ViewSpec::paper_default(azimuth_deg, 5.0, 3.0);
    v.width = GOLDEN_WIDTH;
    v.height = GOLDEN_HEIGHT;
    v.focal_px = GOLDEN_WIDTH as f64;
    v
}

/// Frames per jittered keyframe (camera oversampling — strict-gate food).
const DUPS: usize = 3;
/// Jittered keyframes per held sign.
const KEYFRAMES: usize = 2;

/// One golden frame set: two held marshalling signs, each as `KEYFRAMES`
/// seeded sensor-jitter re-rolls × `DUPS` byte-identical oversampled
/// repeats (12 frames). Distinct sets differ in azimuth and sign pairing,
/// so streams that share a set share pixels but nothing else.
fn golden_frame_set(set: usize) -> Vec<GrayImage> {
    let view = golden_view(8.0 * set as f64);
    let mut rng = SmallRng::seed_from_u64(0x901d_e500 ^ set as u64);
    let all = MarshallingSign::ALL;
    let mut frames = Vec::with_capacity(2 * KEYFRAMES * DUPS);
    for s in 0..2 {
        let sign = all[(set + s) % all.len()];
        let base = render_sign(sign, &view);
        for _ in 0..KEYFRAMES {
            let mut keyframe = base.clone();
            add_salt_pepper(&mut keyframe, 0.002, &mut rng);
            for _ in 0..DUPS {
                frames.push(keyframe.clone());
            }
        }
    }
    frames
}

/// The three distinct frame sets the golden workloads cycle streams over.
pub fn golden_frame_sets() -> Vec<Vec<GrayImage>> {
    (0..3).map(golden_frame_set).collect()
}

/// One named canonical workload: its arrival process and serving config.
/// Pair with [`golden_frame_sets`] and [`golden_pipeline`] to reproduce its
/// blessed digest.
#[derive(Debug, Clone, Copy)]
pub struct NamedWorkload {
    /// Stable name, the key in `tests/golden/serve_digests.txt`.
    pub name: &'static str,
    /// The seeded arrival process.
    pub arrivals: ArrivalSpec,
    /// The serving configuration.
    pub config: ServeConfig,
}

/// **steady**: 16 cameras at ~30 fps with jitter across 2 shards — light
/// load, but only 6 resident gate-state slots per shard for 8 streams, so
/// every service round evicts, spills and restores while the strict gate
/// keeps eating the oversampled duplicates. Expected shape: zero sheds,
/// zero rejects, constant evict/restore churn.
pub fn steady() -> NamedWorkload {
    NamedWorkload {
        name: "steady",
        arrivals: ArrivalSpec {
            streams: 16,
            frames_per_stream: 48,
            period_us: 33_333,
            jitter_us: 2_000,
            burst: None,
            seed: 0xDA7A_0001,
        },
        config: ServeConfig {
            shards: 2,
            queue_cap: 16,
            resident_cap: 6,
            deadline_us: 50_000,
            budget: StreamBudget { fps: 30, burst: 4 },
            costs: CostModel::default(),
            gate: TemporalConfig::strict(),
            spill: true,
        },
    }
}

/// **bursty**: 12 event-triggered cameras across 3 shards, waking every
/// ~0.4 s for a 6-frame burst at 120 fps against a 30 fps / burst-3 budget
/// — the token bucket, not the queue, regulates the load. Expected shape:
/// heavy reject-budget, no sheds, incremental gate live inside bursts.
pub fn bursty() -> NamedWorkload {
    NamedWorkload {
        name: "bursty",
        arrivals: ArrivalSpec {
            streams: 12,
            frames_per_stream: 36,
            period_us: 8_333,
            jitter_us: 700,
            burst: Some(BurstSpec {
                burst_len: 6,
                gap_us: 400_000,
            }),
            seed: 0xDA7A_0002,
        },
        config: ServeConfig {
            shards: 3,
            queue_cap: 8,
            resident_cap: 4,
            deadline_us: 40_000,
            budget: StreamBudget { fps: 30, burst: 3 },
            costs: CostModel::default(),
            gate: TemporalConfig::incremental(),
            spill: true,
        },
    }
}

/// **overload**: 64 ungated streams across 2 shards offering ≈2.1× each
/// shard's service capacity (2 ms full runs, ~33 fps per stream, 32 streams
/// per shard), with an ample budget so regulation falls entirely on the
/// bounded queue and the 40 ms frame deadline. Expected shape: substantial
/// shedding and queue rejection, decided-frame latency bounded by
/// deadline + service cost.
pub fn overload() -> NamedWorkload {
    NamedWorkload {
        name: "overload",
        arrivals: ArrivalSpec {
            streams: 64,
            frames_per_stream: 32,
            period_us: 30_000,
            jitter_us: 1_500,
            burst: None,
            seed: 0xDA7A_0003,
        },
        config: ServeConfig {
            shards: 2,
            queue_cap: 24,
            resident_cap: 48,
            deadline_us: 40_000,
            budget: StreamBudget { fps: 60, burst: 8 },
            costs: CostModel {
                full_run_us: 2_000,
                ..CostModel::default()
            },
            gate: TemporalConfig::off(),
            spill: false,
        },
    }
}

/// All canonical workloads, in golden-manifest order.
pub fn canonical_workloads() -> Vec<NamedWorkload> {
    vec![steady(), bursty(), overload()]
}

/// Renders golden-manifest rows (`name digest decided shed rejected`) as the
/// committed text form, stable field widths for reviewable diffs.
pub fn format_manifest(rows: &[(String, String, usize, usize, usize)]) -> String {
    let mut out = String::from(
        "# serving golden digests: workload, FNV-1a/64 trace digest, decided, shed, rejected\n\
         # regenerate with: cargo run --release -p hdc-serve --bin serve_goldens -- --bless\n",
    );
    for (name, digest, decided, shed, rejected) in rows {
        out.push_str(&format!(
            "{name:<12} {digest} {decided:>6} {shed:>6} {rejected:>6}\n"
        ));
    }
    out
}

/// Parses a committed golden manifest back into rows, ignoring comments and
/// blank lines.
pub fn parse_manifest(text: &str) -> Vec<(String, String, usize, usize, usize)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((
                it.next()?.to_owned(),
                it.next()?.to_owned(),
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
                it.next()?.parse().ok()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sets_are_real_distinct_and_oversampled() {
        let sets = golden_frame_sets();
        assert_eq!(sets.len(), 3);
        for set in &sets {
            assert_eq!(set.len(), 2 * KEYFRAMES * DUPS);
            assert!(set
                .iter()
                .all(|f| f.width() == GOLDEN_WIDTH && f.height() == GOLDEN_HEIGHT));
            // oversampled duplicates are byte-identical; keyframes differ
            assert_eq!(set[0].pixels(), set[1].pixels());
            assert_ne!(set[0].pixels(), set[DUPS].pixels());
        }
        assert_ne!(sets[0][0].pixels(), sets[1][0].pixels());
        assert_ne!(sets[1][0].pixels(), sets[2][0].pixels());
    }

    #[test]
    fn frame_sets_are_pure() {
        assert_eq!(golden_frame_set(1), golden_frame_set(1));
    }

    #[test]
    fn manifest_round_trips() {
        let rows = vec![
            (
                "steady".to_owned(),
                "0123456789abcdef".to_owned(),
                700,
                0,
                2,
            ),
            (
                "overload".to_owned(),
                "fedcba9876543210".to_owned(),
                9,
                41,
                8,
            ),
        ];
        assert_eq!(parse_manifest(&format_manifest(&rows)), rows);
    }

    #[test]
    fn workload_names_are_unique_and_match_the_manifest_order() {
        let names: Vec<_> = canonical_workloads().iter().map(|w| w.name).collect();
        assert_eq!(names, ["steady", "bursty", "overload"]);
    }

    #[test]
    fn overload_really_offers_about_twice_capacity() {
        let w = overload();
        let streams_per_shard = w.arrivals.streams / w.config.shards;
        let offered_fps = streams_per_shard as f64 * 1e6 / w.arrivals.period_us as f64;
        let capacity_fps = 1e6 / w.config.costs.full_run_us as f64;
        let ratio = offered_fps / capacity_fps;
        assert!(
            (1.8..=2.5).contains(&ratio),
            "overload ratio {ratio:.2} drifted out of the ~2x band"
        );
    }
}
