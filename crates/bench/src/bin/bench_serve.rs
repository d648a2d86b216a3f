//! Serving-layer benchmark: canonical-workload latency SLOs and the
//! sustained-capacity search.
//!
//! Serves the three golden workloads (steady / bursty / overload) through
//! the deterministic `hdc-serve` scheduler `REPEATS` times, each repeat
//! reproducing every workload's report, prints their decision-latency
//! percentiles, outcome counters and wall milliseconds (median/min/max),
//! runs the max-sustained-streams search against the p99 SLO, and writes
//! the JSON report.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_serve --
//! [--smoke] [--threads N] [out.json]`
//!
//! * `--threads N` — work-pool size the shards fan out over (default:
//!   available parallelism). Latencies and capacity are virtual-time and
//!   identical at every worker count; only `wall_ms` changes;
//! * `--smoke` — small capacity ladder plus floor assertions on the
//!   canonical shapes (the CI conformance mode);
//! * default output path `BENCH_serve.json` in the current directory.

use hdc_bench::report::{BenchArgs, Table};
use hdc_bench::serve::{
    canonical_study, max_sustained_streams, serve_report, serving_fixture, CapacitySearch,
};
use hdc_runtime::{available_workers, WorkPool};

/// Times each canonical workload is served; one run takes milliseconds.
const REPEATS: usize = 5;

fn main() {
    let args = BenchArgs::from_env("BENCH_serve.json", true);
    let smoke = args.smoke;
    let pool = WorkPool::with_threads(args.threads);
    println!(
        "serving study on {} worker(s) (host has {} hardware thread(s)){}",
        pool.workers(),
        available_workers(),
        if smoke { " [smoke]" } else { "" }
    );
    let (pipeline, frame_sets) = serving_fixture();

    let runs = canonical_study(&pipeline, &frame_sets, &pool, REPEATS);
    let mut table = Table::new([
        "workload",
        "offered",
        "decided",
        "shed",
        "rejected",
        "evict",
        "p50 us",
        "p95 us",
        "p99 us",
        "wall ms median [min, max]",
    ]);
    for run in &runs {
        let r = &run.report;
        table.row([
            run.name.to_string(),
            r.offered().to_string(),
            r.decided().to_string(),
            r.shed().to_string(),
            (r.rejected_budget() + r.rejected_queue()).to_string(),
            r.evictions().to_string(),
            r.p50_us().to_string(),
            r.p95_us().to_string(),
            r.p99_us().to_string(),
            run.wall_ms.cell(2),
        ]);
    }
    println!("median [min, max] over {REPEATS} repeats");
    println!("{}", table.render());

    let search = if smoke {
        CapacitySearch::smoke()
    } else {
        CapacitySearch::standard()
    };
    println!(
        "capacity search: ~30 fps streams on {} shard(s), SLO p99 <= {} us, ladder to {}...",
        search.shards, search.slo_p99_us, search.max_probe_streams
    );
    let capacity = max_sustained_streams(&pipeline, &frame_sets, &pool, &search);
    for p in &capacity.probes {
        println!(
            "  {:>5} streams: p99 {:>7} us, dropped {:>5} -> {}",
            p.streams,
            p.p99_us,
            p.dropped,
            if p.healthy { "ok" } else { "SLO broken" }
        );
    }
    println!(
        "max sustained streams at SLO: {}",
        capacity.max_sustained_streams
    );

    if smoke {
        // conformance floors: the regimes must keep their blessed shapes
        let by_name = |n: &str| runs.iter().find(|r| r.name == n).expect("canonical run");
        let steady = &by_name("steady").report;
        assert_eq!(
            steady.decided(),
            steady.offered(),
            "steady must serve every offered frame"
        );
        assert!(
            steady.restores() > 0,
            "steady must churn the LRU spill path"
        );
        let bursty = &by_name("bursty").report;
        assert!(
            bursty.rejected_budget() > 0,
            "bursty must trip the token bucket"
        );
        let overload = &by_name("overload").report;
        assert!(overload.shed() > 0, "overload must shed");
        let cfg = hdc_serve::workload::overload().config;
        assert!(
            overload.p99_us() <= cfg.deadline_us + cfg.costs.full_run_us + cfg.costs.fault_in_us,
            "overload decided-frame latency must stay structurally bounded"
        );
        assert!(
            capacity.max_sustained_streams >= 32,
            "even the smoke fleet must sustain 32 streams (got {})",
            capacity.max_sustained_streams
        );
        println!("smoke floors hold");
    }

    args.write_report(
        pool.workers(),
        REPEATS,
        serve_report(&runs, &search, &capacity),
    );
}
