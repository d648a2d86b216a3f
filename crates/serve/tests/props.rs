//! Property tests for the serving layer's scheduling invariants.
//!
//! Random workloads (stream counts, cadences, bursts) against random
//! configs (shards, bounds, budgets, gates, costs) must always satisfy:
//!
//! * **conservation** — every offered frame is admitted or rejected, and
//!   every admitted frame is decided or shed (nothing is silently dropped,
//!   nothing left in flight);
//! * **eviction safety** — the LRU never evicts a stream while one of its
//!   frames is in service;
//! * **boundedness** — queue depth never exceeds its bound, and every
//!   decided frame's latency is ≤ deadline + worst-case service cost;
//! * **determinism** — the full report (trace, counters, latencies) is
//!   identical at every worker count;
//! * **trace well-formedness** — the canonical sort key is strictly
//!   increasing, i.e. a genuine total order.
//!
//! The pipeline here is real but the frames are tiny synthetic patterns:
//! these properties are about the *scheduler*, which must hold whatever the
//! recogniser decides.

use hdc_raster::GrayImage;
use hdc_runtime::WorkPool;
use hdc_serve::{
    serve, ArrivalSpec, BurstSpec, CostModel, EventKind, ServeConfig, ServeInput, ServeReport,
    StreamBudget,
};
use hdc_vision::temporal::TemporalConfig;
use hdc_vision::{PipelineConfig, RecognitionPipeline};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// One shared uncalibrated pipeline: with an empty template database every
/// full run resolves quickly to "no match", which is all the scheduler
/// properties need.
fn pipeline() -> &'static RecognitionPipeline {
    static PIPELINE: OnceLock<RecognitionPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| RecognitionPipeline::new(PipelineConfig::default()))
}

/// Tiny distinct frame sets (with in-set duplicates, so gates can hit).
fn tiny_sets() -> &'static Vec<Vec<GrayImage>> {
    static SETS: OnceLock<Vec<Vec<GrayImage>>> = OnceLock::new();
    SETS.get_or_init(|| {
        (0..2u8)
            .map(|set| {
                let mut frames = Vec::new();
                for k in 0..3u8 {
                    let mut img = GrayImage::new(24, 18);
                    for (i, px) in img.pixels_mut().iter_mut().enumerate() {
                        *px = if (i as u8).wrapping_mul(7) > k.wrapping_mul(85) + set * 40 {
                            255
                        } else {
                            0
                        };
                    }
                    // duplicate each keyframe once: strict-gate food
                    frames.push(img.clone());
                    frames.push(img);
                }
                frames
            })
            .collect()
    })
}

fn arb_gate() -> impl Strategy<Value = TemporalConfig> {
    prop_oneof![
        Just(TemporalConfig::off()),
        Just(TemporalConfig::strict()),
        Just(TemporalConfig::incremental()),
    ]
}

fn arb_spec() -> impl Strategy<Value = ArrivalSpec> {
    (
        1usize..10,
        1usize..16,
        500u64..40_000,
        0u64..4_000,
        prop_oneof![
            Just(None),
            (1usize..5, 1_000u64..200_000)
                .prop_map(|(burst_len, gap_us)| Some(BurstSpec { burst_len, gap_us })),
        ],
        any::<u64>(),
    )
        .prop_map(
            |(streams, frames_per_stream, period_us, jitter_us, burst, seed)| ArrivalSpec {
                streams,
                frames_per_stream,
                period_us,
                jitter_us,
                burst,
                seed,
            },
        )
}

fn arb_config() -> impl Strategy<Value = ServeConfig> {
    (
        1usize..4,
        1usize..6,
        1usize..4,
        1_000u64..60_000,
        (1u64..200, 1u64..5),
        100u64..5_000,
        arb_gate(),
        any::<bool>(),
    )
        .prop_map(
            |(
                shards,
                queue_cap,
                resident_cap,
                deadline_us,
                (fps, burst),
                full_run_us,
                gate,
                spill,
            )| {
                ServeConfig {
                    shards,
                    queue_cap,
                    resident_cap,
                    deadline_us,
                    budget: StreamBudget { fps, burst },
                    costs: CostModel {
                        full_run_us,
                        ..CostModel::default()
                    },
                    gate,
                    spill,
                }
            },
        )
}

/// Worst virtual cost any single decided frame can incur.
fn worst_case_cost(costs: &CostModel) -> u64 {
    costs
        .full_run_us
        .max(costs.strict_hit_us)
        .max(costs.incremental_hit_us)
        .max(costs.sig_shortcut_us)
        + costs.fault_in_us
}

/// Checks every scheduling invariant one report must satisfy.
fn check_invariants(report: &ServeReport, spec: &ArrivalSpec, config: &ServeConfig) {
    // --- conservation, totals and per stream ---
    assert_eq!(report.offered(), spec.offered());
    assert_eq!(
        report.offered(),
        report.admitted() + report.rejected_budget() + report.rejected_queue(),
        "every offered frame is admitted or rejected"
    );
    assert_eq!(
        report.admitted(),
        report.decided() + report.shed(),
        "every admitted frame is decided or shed - nothing stays in flight"
    );
    for (s, st) in report.per_stream.iter().enumerate() {
        assert_eq!(
            st.offered,
            st.admitted + st.rejected_budget + st.rejected_queue,
            "stream {s} conservation at admission"
        );
        assert_eq!(
            st.admitted,
            st.decided + st.shed,
            "stream {s} conservation past admission"
        );
        assert_eq!(st.gate.frames(), st.decided, "stream {s} gate attribution");
    }

    // --- trace is a genuine total order ---
    for w in report.events.windows(2) {
        assert!(
            w[0].sort_key() < w[1].sort_key(),
            "duplicate or misordered trace key: {:?} then {:?}",
            w[0],
            w[1]
        );
    }

    // --- no admitted frame is silently dropped ---
    let mut admitted = BTreeSet::new();
    let mut resolved = BTreeSet::new();
    for e in &report.events {
        match &e.kind {
            EventKind::Admit => {
                admitted.insert((e.stream, e.frame));
            }
            EventKind::Shed { .. } | EventKind::Decide { .. } => {
                assert!(
                    resolved.insert((e.stream, e.frame)),
                    "frame s{}/f{} resolved twice",
                    e.stream,
                    e.frame
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        admitted, resolved,
        "admitted frames == decided + shed frames"
    );

    // --- boundedness ---
    assert!(
        report.queue_peak <= config.queue_cap,
        "queue bound respected"
    );
    let latency_bound = config.deadline_us + worst_case_cost(&config.costs);
    for &l in &report.latencies_us {
        assert!(
            l <= latency_bound,
            "decided latency {l} exceeds deadline {} + worst service {}",
            config.deadline_us,
            worst_case_cost(&config.costs)
        );
    }

    // --- eviction safety: victims are never mid-service ---
    let mut started: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut intervals: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for e in &report.events {
        match &e.kind {
            EventKind::Start => {
                started.insert((e.stream, e.frame), e.t_us);
            }
            EventKind::Decide { .. } => {
                let s = started
                    .remove(&(e.stream, e.frame))
                    .expect("decide after start");
                intervals.entry(e.stream).or_default().push((s, e.t_us));
            }
            _ => {}
        }
    }
    assert!(started.is_empty(), "every started frame decides");
    for e in &report.events {
        if let EventKind::Evict { victim } = e.kind {
            if let Some(iv) = intervals.get(&victim) {
                for &(s, d) in iv {
                    assert!(
                        !(s < e.t_us && e.t_us < d),
                        "stream {victim} evicted at {} while in service [{s}, {d})",
                        e.t_us
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_workloads_satisfy_every_scheduling_invariant(
        spec in arb_spec(),
        config in arb_config(),
    ) {
        let input = ServeInput { frame_sets: tiny_sets(), arrivals: &spec };
        let pool = WorkPool::with_threads(Some(2));
        let report = serve(pipeline(), &input, &config, &pool);
        check_invariants(&report, &spec, &config);
    }

    #[test]
    fn the_report_is_identical_at_every_worker_count(
        spec in arb_spec(),
        config in arb_config(),
    ) {
        let input = ServeInput { frame_sets: tiny_sets(), arrivals: &spec };
        let reference = serve(pipeline(), &input, &config, &WorkPool::with_threads(Some(1)));
        for workers in [2usize, 3] {
            let mut got = serve(
                pipeline(),
                &input,
                &config,
                &WorkPool::with_threads(Some(workers)),
            );
            // the recorded worker count is metadata, not behaviour
            got.workers = reference.workers;
            prop_assert_eq!(&got, &reference, "worker count {} diverged", workers);
        }
    }
}
