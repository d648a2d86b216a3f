//! Multi-core engine scaling benchmark.
//!
//! Measures `RecognitionEngine::process_batch` against the serial
//! `recognize_with` baseline at a sweep of worker counts and the three
//! benchmark resolutions, plus a sustained 4-stream serving run, prints the
//! scaling table and writes the JSON report.
//!
//! Usage: `cargo run --release -p hdc-bench --bin bench_engine
//! [--threads N] [--smoke] [out.json]`
//!
//! * `--threads N` — sweep worker counts 1..N (powers of two plus N)
//!   instead of the default 1/2/4/8;
//! * `--smoke` — tiny frame/time floors: exercises every parallel path in
//!   seconds (the CI conformance mode), numbers not meaningful;
//! * default output path `BENCH_engine.json` in the current directory.

use hdc_bench::report::{num, Table};
use hdc_bench::scaling::{
    multi_stream_study, run_scaling_sweep, to_json, worker_counts_for, BATCH_CYCLES,
};
use hdc_runtime::{available_workers, threads_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = threads_from_args(&args);
    let mut out_path = "BENCH_engine.json".to_string();
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

    let worker_counts = worker_counts_for(threads);
    // Floors: enough whole batches for stable averages in the full run;
    // one batch per point in smoke mode.
    let (batch_cycles, min_frames, min_seconds) = if smoke {
        (1, 1, 0.0)
    } else {
        (BATCH_CYCLES, 360, 2.0)
    };

    println!(
        "engine scaling: workers {:?} on a host with {} hardware thread(s){}",
        worker_counts,
        available_workers(),
        if smoke { " [smoke]" } else { "" }
    );

    let results = run_scaling_sweep(&worker_counts, batch_cycles, min_frames, min_seconds);

    let mut table = Table::new([
        "resolution",
        "serial fps",
        "workers",
        "engine fps",
        "speedup",
        "efficiency",
    ]);
    for r in &results {
        for p in &r.points {
            table.row([
                format!("{}x{}", r.width, r.height),
                num(r.serial.fps(), 1),
                p.workers.to_string(),
                num(p.throughput.fps(), 1),
                format!("{:.2}x", r.speedup(p)),
                format!("{:.0}%", 100.0 * r.efficiency(p)),
            ]);
        }
    }
    println!("{}", table.render());

    let stream_workers = worker_counts.iter().copied().max().unwrap_or(1);
    let (stream_floor, stream_seconds) = if smoke { (1, 0.0) } else { (120, 2.0) };
    println!("serving 4 sustained streams on {stream_workers} worker(s)...");
    let stream_report = multi_stream_study(4, stream_workers, stream_floor, stream_seconds);
    println!("  aggregate: {:.1} fps", stream_report.aggregate_fps());

    let json = to_json(
        &results,
        &stream_report,
        &worker_counts,
        threads,
        batch_cycles,
    );
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
