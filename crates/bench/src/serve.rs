//! Serving-layer study: canonical-workload latency distributions and the
//! sustained-capacity search behind `BENCH_serve.json`.
//!
//! Two measurements, both over the deterministic [`hdc_serve`] scheduler:
//!
//! * **Canonical latencies** — serve the three golden workloads (steady /
//!   bursty / overload) and report their decision-latency percentiles and
//!   outcome counters. The percentiles are *virtual* (cost-model time), so
//!   they reproduce bit-for-bit on any host; the wall seconds alongside
//!   them are the real cost of driving the run.
//! * **Capacity search** — the paper-facing number: how many ~30 fps
//!   camera streams can one station sustain before the p99 decision
//!   latency breaks the SLO or frames start being shed? A doubling ladder
//!   finds the first unhealthy fleet size, then a bisection pins the
//!   largest healthy one. Virtual time makes the result a property of the
//!   configuration, not the benchmark host — the same search converges to
//!   the same stream count at any `--threads N`.

use crate::report::{Json, Spread};
use hdc_raster::GrayImage;
use hdc_runtime::{Micros, WorkPool};
use hdc_serve::workload::{canonical_workloads, golden_frame_sets, golden_pipeline};
use hdc_serve::{
    serve, ArrivalSpec, CostModel, ServeConfig, ServeInput, ServeReport, StreamBudget,
};
use hdc_vision::temporal::TemporalConfig;
use hdc_vision::RecognitionPipeline;
use std::time::Instant;

/// One canonical workload's serving outcome plus the real time it took to
/// drive it.
pub struct CanonicalRun {
    /// Workload name (`steady` / `bursty` / `overload`).
    pub name: &'static str,
    /// The deterministic serving report, equal in every repeat.
    pub report: ServeReport,
    /// Wall-clock milliseconds spent driving the run, across the repeats
    /// (host-dependent).
    pub wall_ms: Spread,
}

/// Serves the three canonical workloads `repeats` times, the workloads
/// interleaved within each repeat so a host spell lands on all three, and
/// times each run.
///
/// # Panics
/// Panics when `repeats` is 0 or a repeat's report differs from the
/// first's.
pub fn canonical_study(
    pipeline: &RecognitionPipeline,
    frame_sets: &[Vec<GrayImage>],
    pool: &WorkPool,
    repeats: usize,
) -> Vec<CanonicalRun> {
    let workloads = canonical_workloads();
    let mut runs: Vec<(ServeReport, Vec<f64>)> = Vec::with_capacity(workloads.len());
    for repeat in 0..repeats {
        for (i, w) in workloads.iter().enumerate() {
            let input = ServeInput {
                frame_sets,
                arrivals: &w.arrivals,
            };
            let t0 = Instant::now();
            let report = serve(pipeline, &input, &w.config, pool);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if repeat == 0 {
                runs.push((report, vec![wall_ms]));
            } else {
                assert_eq!(report, runs[i].0, "{}: a repeat changed the report", w.name);
                runs[i].1.push(wall_ms);
            }
        }
    }
    workloads
        .iter()
        .zip(runs)
        .map(|(w, (report, walls))| CanonicalRun {
            name: w.name,
            report,
            wall_ms: Spread::of(walls),
        })
        .collect()
}

/// The capacity-search configuration: a healthy steady fleet scaled until
/// it is not.
#[derive(Debug, Clone, Copy)]
pub struct CapacitySearch {
    /// The SLO: p99 decision latency must stay at or under this.
    pub slo_p99_us: Micros,
    /// Nominal per-stream frame period (33_333 ≈ 30 fps).
    pub period_us: Micros,
    /// Frames each probed stream offers.
    pub frames_per_stream: usize,
    /// Scheduler shards the probed fleets are served on.
    pub shards: usize,
    /// Ladder ceiling: the search never probes beyond this fleet size.
    pub max_probe_streams: usize,
}

impl CapacitySearch {
    /// The committed search: 30 fps streams against a 20 ms p99 SLO on 4
    /// shards.
    pub fn standard() -> Self {
        CapacitySearch {
            slo_p99_us: 20_000,
            period_us: 33_333,
            frames_per_stream: 36,
            shards: 4,
            max_probe_streams: 2_048,
        }
    }

    /// A tiny variant for CI smoke runs.
    pub fn smoke() -> Self {
        CapacitySearch {
            slo_p99_us: 20_000,
            period_us: 33_333,
            frames_per_stream: 12,
            shards: 2,
            max_probe_streams: 256,
        }
    }

    /// The fleet this search serves at `streams` concurrent cameras:
    /// jittered steady arrivals, strict gating, ample budget and queue (the
    /// SLO and the shed counter, not admission, decide health).
    pub fn fleet(&self, streams: usize) -> (ArrivalSpec, ServeConfig) {
        (
            ArrivalSpec {
                streams,
                frames_per_stream: self.frames_per_stream,
                period_us: self.period_us,
                jitter_us: 2_000,
                burst: None,
                seed: 0xCAFE_0007,
            },
            ServeConfig {
                shards: self.shards,
                queue_cap: 64,
                resident_cap: 64,
                deadline_us: self.slo_p99_us,
                budget: StreamBudget { fps: 45, burst: 8 },
                costs: CostModel::default(),
                gate: TemporalConfig::strict(),
                spill: true,
            },
        )
    }
}

/// One capacity probe: fleet size, its p99, and whether it held the SLO.
#[derive(Debug, Clone, Copy)]
pub struct CapacityProbe {
    /// Concurrent streams probed.
    pub streams: usize,
    /// The fleet's p99 decision latency.
    pub p99_us: Micros,
    /// Shed + queue-rejected frames (a healthy fleet has zero).
    pub dropped: usize,
    /// SLO held: nothing dropped and p99 within bound.
    pub healthy: bool,
}

/// The capacity-search outcome.
#[derive(Debug, Clone)]
pub struct CapacityResult {
    /// The largest probed fleet that held the SLO.
    pub max_sustained_streams: usize,
    /// Every probe the ladder and bisection ran, in probe order.
    pub probes: Vec<CapacityProbe>,
}

fn probe(
    pipeline: &RecognitionPipeline,
    frame_sets: &[Vec<GrayImage>],
    pool: &WorkPool,
    search: &CapacitySearch,
    streams: usize,
) -> CapacityProbe {
    let (arrivals, config) = search.fleet(streams);
    let input = ServeInput {
        frame_sets,
        arrivals: &arrivals,
    };
    let report = serve(pipeline, &input, &config, pool);
    let dropped = report.shed() + report.rejected_queue() + report.rejected_budget();
    CapacityProbe {
        streams,
        p99_us: report.p99_us(),
        dropped,
        healthy: dropped == 0 && report.p99_us() <= search.slo_p99_us,
    }
}

/// Finds the largest fleet size that holds the SLO: double from a small
/// fleet until unhealthy (or the ceiling), then bisect the boundary.
/// Deterministic: virtual time makes every probe a pure function of the
/// configuration.
pub fn max_sustained_streams(
    pipeline: &RecognitionPipeline,
    frame_sets: &[Vec<GrayImage>],
    pool: &WorkPool,
    search: &CapacitySearch,
) -> CapacityResult {
    let mut probes = Vec::new();
    let mut lo = 0usize; // largest healthy so far
    let mut streams = 16.min(search.max_probe_streams);
    let mut first_unhealthy = None;
    loop {
        let p = probe(pipeline, frame_sets, pool, search, streams);
        probes.push(p);
        if p.healthy {
            lo = streams;
            if streams >= search.max_probe_streams {
                break; // ceiling reached while healthy
            }
            streams = (streams * 2).min(search.max_probe_streams);
        } else {
            first_unhealthy = Some(streams);
            break;
        }
    }
    if let Some(mut hi) = first_unhealthy {
        // invariant: lo healthy (or 0), hi unhealthy; pin the boundary
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let p = probe(pipeline, frame_sets, pool, search, mid);
            probes.push(p);
            if p.healthy {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    CapacityResult {
        max_sustained_streams: lo,
        probes,
    }
}

/// The members of `BENCH_serve.json` after its `execution` block.
pub fn serve_report(
    runs: &[CanonicalRun],
    search: &CapacitySearch,
    capacity: &CapacityResult,
) -> Vec<(&'static str, Json)> {
    let workloads = runs.iter().map(|run| {
        let r = &run.report;
        Json::Object(vec![
            ("name", run.name.into()),
            ("shards", r.shards.into()),
            ("offered", r.offered().into()),
            ("decided", r.decided().into()),
            ("shed", r.shed().into()),
            ("rejected_budget", r.rejected_budget().into()),
            ("rejected_queue", r.rejected_queue().into()),
            ("evictions", r.evictions().into()),
            ("restores", r.restores().into()),
            ("queue_peak", r.queue_peak.into()),
            ("p50_us", r.p50_us().into()),
            ("p95_us", r.p95_us().into()),
            ("p99_us", r.p99_us().into()),
            ("digest", Json::Str(r.digest())),
            ("wall_ms", Json::spread(&run.wall_ms, 2)),
        ])
    });
    let probes = capacity.probes.iter().map(|p| {
        Json::Object(vec![
            ("streams", p.streams.into()),
            ("p99_us", p.p99_us.into()),
            ("dropped", p.dropped.into()),
            ("healthy", Json::Bool(p.healthy)),
        ])
    });
    vec![
        (
            "benchmark",
            "deterministic many-stream serving: latency SLOs and sustained capacity".into(),
        ),
        (
            "protocol",
            Json::Object(vec![
                ("time", "latencies are virtual microseconds from the serving cost model keyed by gate outcome - reproducible on any host; wall_ms is the real cost of driving the run, median/min/max over the repeats, every repeat reproducing the run's report".into()),
                ("workloads", "the three golden workloads (tests/golden/serve_digests.txt): steady under-capacity with LRU churn, bursty against the token-bucket budget, overload at ~2x capacity".into()),
                ("capacity", "doubling ladder + bisection for the largest ~30 fps fleet with zero drops and p99 <= SLO; deterministic at any --threads".into()),
                ("note", "wall_ms measured on execution.threads workers of a host with execution.available_parallelism hardware threads".into()),
            ]),
        ),
        ("workloads", Json::Array(workloads.collect())),
        (
            "capacity",
            Json::Object(vec![
                ("slo_p99_us", search.slo_p99_us.into()),
                ("stream_period_us", search.period_us.into()),
                ("shards", search.shards.into()),
                ("frames_per_stream", search.frames_per_stream.into()),
                ("max_probe_streams", search.max_probe_streams.into()),
                ("max_sustained_streams", capacity.max_sustained_streams.into()),
                ("probes", Json::Array(probes.collect())),
            ]),
        ),
    ]
}

/// The golden pipeline + frame sets the serving bench shares with the
/// conformance suite (one place to build them, so the bench measures
/// exactly what the goldens pin).
pub fn serving_fixture() -> (RecognitionPipeline, Vec<Vec<GrayImage>>) {
    (golden_pipeline(), golden_frame_sets())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_search_converges_and_is_deterministic() {
        let (pipeline, frame_sets) = serving_fixture();
        let search = CapacitySearch {
            slo_p99_us: 20_000,
            period_us: 33_333,
            frames_per_stream: 8,
            shards: 1,
            max_probe_streams: 64,
        };
        let pool = WorkPool::with_threads(Some(2));
        let a = max_sustained_streams(&pipeline, &frame_sets, &pool, &search);
        assert!(
            a.max_sustained_streams >= 16,
            "a single shard holds a small fleet"
        );
        assert!(!a.probes.is_empty());
        // bisection pins an exact boundary: lo healthy, lo+1 unhealthy
        // (unless the ceiling was reached while still healthy)
        if a.max_sustained_streams < search.max_probe_streams {
            let next = probe(
                &pipeline,
                &frame_sets,
                &pool,
                &search,
                a.max_sustained_streams + 1,
            );
            assert!(!next.healthy, "boundary must be exact");
        }
        let b = max_sustained_streams(
            &pipeline,
            &frame_sets,
            &WorkPool::with_threads(Some(1)),
            &search,
        );
        assert_eq!(
            a.max_sustained_streams, b.max_sustained_streams,
            "capacity is a property of the config, not the worker count"
        );
    }

    #[test]
    fn serve_json_is_well_formed_enough() {
        let (pipeline, frame_sets) = serving_fixture();
        let pool = WorkPool::with_threads(Some(2));
        let runs = canonical_study(&pipeline, &frame_sets, &pool, 2);
        let search = CapacitySearch::smoke();
        let capacity = CapacityResult {
            max_sustained_streams: 64,
            probes: vec![CapacityProbe {
                streams: 64,
                p99_us: 900,
                dropped: 0,
                healthy: true,
            }],
        };
        let json = Json::Object(serve_report(&runs, &search, &capacity)).to_string();
        let row = |name: &str| {
            json.lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("no {name} row"))
        };
        assert!(row("steady").contains("\"wall_ms\": {\"median\": "));
        assert!(row("overload").contains(&format!("\"digest\": \"{}\"", runs[2].report.digest())));
        assert!(json.contains("\"max_sustained_streams\": 64"));
        assert!(
            json.contains("{\"streams\": 64, \"p99_us\": 900, \"dropped\": 0, \"healthy\": true}")
        );
    }
}
