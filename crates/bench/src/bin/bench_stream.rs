//! Temporal-coherence gating benchmark: held-sign streams served through
//! `hdc_serve::serve`.
//!
//! Serves the same synthetic held-sign streams (static holds with sensor
//! jitter and camera oversampling, punctuated by sign transitions) through
//! each gate mode — ungated, strict, incremental — in turn, `REPEATS`
//! times, each mode as one timed run of `SERVES_PER_RUN` serve calls per
//! repeat. Prints each mode's
//! decided fps (median, min, max), its same-repeat speed-up over the
//! ungated mode, its gate counters and serve digest, plus the measured
//! decision divergence of the gated modes against the ungated mode, and
//! writes the JSON report. Every serve call must decide every offered
//! frame and reproduce its mode's first gate counters and digest.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_stream --
//! [--smoke] [--threads N] [out.json]`
//!
//! * `--threads N` — serving worker count (default: available
//!   parallelism);
//! * `--smoke` — tiny workload: exercises every mode in seconds (the CI
//!   conformance mode), numbers not meaningful;
//! * default output path `BENCH_stream.json` in the current directory.

use hdc_bench::report::{num, BenchArgs, Table};
use hdc_bench::streams::{
    decision_divergence, gating_study, held_sign_streams, stream_report, summarize_modes,
    StreamWorkload, PASSES, SERVES_PER_RUN,
};
use hdc_runtime::{available_workers, WorkPool};

/// Times the three modes are served in turn. One run per mode lasts
/// 0.5–1.2 s, still short beside a host's speed spells;
/// the median over the repeats and the same-repeat ratios to the ungated
/// mode resolve what one run cannot.
const REPEATS: usize = 11;

fn main() {
    let args = BenchArgs::from_env("BENCH_stream.json", true);
    let smoke = args.smoke;
    let pool = WorkPool::with_threads(args.threads);
    let (workload, streams_n) = if smoke {
        (StreamWorkload::smoke(), 2)
    } else {
        (StreamWorkload::standard(), 4)
    };

    println!(
        "stream gating: {} streams of {} frames x {} passes at {}x{} served on {} worker(s) (host has {} hardware thread(s)){}",
        streams_n,
        workload.frames_per_stream(),
        PASSES,
        workload.width,
        workload.height,
        pool.workers(),
        available_workers(),
        if smoke { " [smoke]" } else { "" }
    );

    let streams = held_sign_streams(&workload, streams_n);
    let pipeline = hdc_bench::frames::benchmark_pipeline();
    // untimed warm-up: the first serve pays first-touch page faults and
    // allocator growth that no later repeat sees
    gating_study(&pipeline, &streams, &pool, 1);
    let repeats = gating_study(&pipeline, &streams, &pool, REPEATS);
    let modes = summarize_modes(&repeats);

    let mut table = Table::new([
        "mode",
        "agg fps (median)",
        "min",
        "max",
        "speedup (median)",
        "min",
        "max",
        "strict hits",
        "incr hits",
        "full runs",
        "digest",
    ]);
    for mode in &modes {
        table.row([
            mode.label.to_string(),
            num(mode.fps.median, 1),
            num(mode.fps.min, 1),
            num(mode.fps.max, 1),
            format!("{:.2}x", mode.speedup_vs_off.median),
            format!("{:.2}x", mode.speedup_vs_off.min),
            format!("{:.2}x", mode.speedup_vs_off.max),
            mode.gate.strict_hits.to_string(),
            mode.gate.incremental_hits.to_string(),
            mode.gate.full_runs.to_string(),
            mode.digest.clone(),
        ]);
    }
    println!(
        "{} repeats of {} serve calls per mode, modes in turn; every call decided all {} offered frames with its mode's first counters and digest",
        REPEATS, SERVES_PER_RUN, modes[0].frames
    );
    println!("{}", table.render());

    // modes in the study's order: off, strict, incremental
    let (strict_gate, inc_gate) = (modes[1].gate, modes[2].gate);
    // Smoke floors: the incremental gate must actually fire, and it must
    // resolve at least as many frames without a full run as the strict gate
    // (its identity pre-check plus the mask gate strictly widen reuse).
    assert!(
        inc_gate.incremental_hits > 0,
        "incremental mask gate never hit on the benchmark workload"
    );
    assert!(
        inc_gate.full_runs <= strict_gate.full_runs,
        "incremental mode ran the full pipeline more often than strict ({} > {})",
        inc_gate.full_runs,
        strict_gate.full_runs
    );

    println!(
        "decision divergence vs the ungated mode (first repeat; every repeat's digests are equal):"
    );
    let runs = &repeats[0];
    let strict_div = decision_divergence(&runs[0].report, &runs[1].report);
    println!(
        "  strict: {}/{} frames diverge ({:.4}%)",
        strict_div.divergent,
        strict_div.frames,
        100.0 * strict_div.rate()
    );
    let incremental_div = decision_divergence(&runs[0].report, &runs[2].report);
    assert_eq!(
        incremental_div.divergent, 0,
        "incremental gating diverged from the ungated oracle on the benchmark workload"
    );
    println!(
        "  incremental: {}/{} frames diverge ({:.4}%)",
        incremental_div.divergent,
        incremental_div.frames,
        100.0 * incremental_div.rate()
    );

    args.write_report(
        pool.workers(),
        REPEATS,
        stream_report(&workload, &repeats, strict_div, incremental_div),
    );
}
