//! Temporal-coherence gating benchmark: sustained held-sign stream serving.
//!
//! Serves the same synthetic held-sign streams (static holds with sensor
//! jitter and camera oversampling, punctuated by sign transitions) once per
//! gate mode — ungated, strict, incremental — prints the sustained-fps
//! comparison plus the measured decision divergence of the gated modes
//! against the ungated oracle, and writes the JSON report.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_stream
//! [--threads N] [--smoke] [out.json]`
//!
//! * `--threads N` — engine worker count (default: available parallelism);
//! * `--smoke` — tiny workload and floors: exercises every mode in seconds
//!   (the CI conformance mode), numbers not meaningful;
//! * default output path `BENCH_stream.json` in the current directory.

use hdc_bench::report::{num, Table};
use hdc_bench::streams::{
    decision_divergence, gating_study, held_sign_streams, stream_json, StreamWorkload,
};
use hdc_runtime::{available_workers, threads_from_args};
use hdc_vision::temporal::TemporalConfig;
use hdc_vision::RecognitionEngine;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = threads_from_args(&args);
    let mut out_path = "BENCH_stream.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => i += 1, // skip the flag's value
            "--smoke" => {}
            a if !a.starts_with("--") => out_path = a.to_owned(),
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }

    let workers = threads.unwrap_or_else(available_workers);
    let (workload, streams_n, min_seconds) = if smoke {
        (StreamWorkload::smoke(), 2, 0.0)
    } else {
        (StreamWorkload::standard(), 4, 2.0)
    };
    // Floors: at least two full passes of every stream per mode (so reuse
    // carries across the cycle boundary) and the wall-clock floor.
    let min_frames = workload.frames_per_stream() * 2;

    println!(
        "stream gating: {} streams of {} frames at {}x{} on {} worker(s) (host has {} hardware thread(s)){}",
        streams_n,
        workload.frames_per_stream(),
        workload.width,
        workload.height,
        workers,
        available_workers(),
        if smoke { " [smoke]" } else { "" }
    );

    let streams = held_sign_streams(&workload, streams_n);
    let engine = RecognitionEngine::new(hdc_bench::frames::benchmark_pipeline(), Some(workers));

    let runs = gating_study(&engine, &streams, min_frames, min_seconds);
    let baseline_fps = runs[0].report.aggregate_fps();

    let mut table = Table::new([
        "mode",
        "agg fps",
        "speedup",
        "strict hits",
        "incr hits",
        "sig shortcut",
        "full runs",
    ]);
    for run in &runs {
        let gate = run.report.gate_totals();
        table.row([
            run.label.to_string(),
            num(run.report.aggregate_fps(), 1),
            format!("{:.2}x", run.report.aggregate_fps() / baseline_fps),
            gate.strict_hits.to_string(),
            gate.incremental_hits.to_string(),
            gate.signature_short_circuits.to_string(),
            gate.full_runs.to_string(),
        ]);
    }
    println!("{}", table.render());

    let inc_run = runs
        .iter()
        .find(|r| r.label == "incremental")
        .expect("study includes incremental mode");
    let inc_gate = inc_run.report.gate_totals();
    let dirty = inc_run.report.dirty_totals();
    println!(
        "incremental dirty coverage: {} evaluated, {} patched, {} full fallbacks, deciles {:?}",
        dirty.evaluated(),
        dirty.patched,
        dirty.full_fallbacks,
        dirty.coverage_deciles
    );
    // Smoke floors: the incremental gate must actually fire, and it must
    // resolve at least as many frames without a full run as the strict gate
    // (its identity pre-check plus the mask gate strictly widen reuse).
    assert!(
        inc_gate.incremental_hits > 0,
        "incremental mask gate never hit on the benchmark workload"
    );
    let strict_gate = runs[1].report.gate_totals();
    assert!(
        inc_gate.full_runs <= strict_gate.full_runs,
        "incremental mode ran the full pipeline more often than strict ({} > {})",
        inc_gate.full_runs,
        strict_gate.full_runs
    );

    println!("measuring decision divergence vs the ungated oracle...");
    let strict_div = decision_divergence(&engine, &streams, TemporalConfig::strict());
    assert_eq!(
        strict_div.divergent, 0,
        "strict gating must be bit-identical to the ungated oracle"
    );
    println!(
        "  strict: {}/{} frames diverge ({:.4}%)",
        strict_div.divergent,
        strict_div.frames,
        100.0 * strict_div.rate()
    );
    let incremental_div = decision_divergence(&engine, &streams, TemporalConfig::incremental());
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

    let json = stream_json(
        &workload,
        streams_n,
        workers,
        threads,
        &runs,
        strict_div,
        incremental_div,
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
