//! Sustained-throughput benchmark for the recognition pipeline.
//!
//! Measures the seed implementation (rebuilt from the retained reference
//! oracles) against the pipeline's hybrid path (binarise straight into
//! bit-packed silhouette words, word-parallel silhouette kernels) at
//! 320×240, 640×480 and 1280×960, prints a comparison table and writes the
//! JSON report.
//!
//! Usage:
//! `cargo run --release -p hdc-bench --bin bench_recognize [--kernels] [--smoke] [out.json]`
//!
//! * `--kernels` additionally runs the per-kernel byte-vs-packed
//!   microbenchmarks at VGA and includes them in the report.
//! * `--smoke` shrinks the measurement floors to CI-sized values; use it
//!   only to verify the binary runs, never for committed numbers.
//! * default output path: `BENCH_recognize.json` in the current directory.

use hdc_bench::kernels::run_kernel_bench;
use hdc_bench::report::{num, Table};
use hdc_bench::throughput::{run_sweep, to_json};

fn main() {
    let mut kernels_mode = false;
    let mut smoke = false;
    let mut out_path = "BENCH_recognize.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--kernels" => kernels_mode = true,
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }

    // Floors per resolution pass: enough whole cycles for stable averages
    // without letting the slow seed path at 1280×960 run for minutes. The
    // smoke floors just prove the binary end to end.
    let (min_frames, min_seconds) = if smoke { (1, 0.0) } else { (45, 2.0) };
    let results = run_sweep(min_frames, min_seconds);

    let mut table = Table::new([
        "resolution",
        "seed ms/f",
        "hybrid ms/f",
        "hybrid fps",
        "vs seed",
    ]);
    for r in &results {
        table.row([
            format!("{}x{}", r.width, r.height),
            num(r.seed.ms_per_frame(), 3),
            num(r.hybrid.ms_per_frame(), 3),
            num(r.hybrid.fps(), 1),
            format!("{:.2}x", r.speedup_hybrid()),
        ]);
    }
    println!("{}", table.render());

    let kernel_results = if kernels_mode {
        let iters = if smoke { 1 } else { 200 };
        let rows = run_kernel_bench(640, 480, iters);
        let mut kt = Table::new(["kernel", "byte ns/frame", "packed ns/frame", "speedup"]);
        for k in &rows {
            kt.row([
                k.name.to_string(),
                num(k.byte_ns, 0),
                num(k.packed_ns, 0),
                format!("{:.2}x", k.speedup()),
            ]);
        }
        println!("\nper-kernel (640x480):");
        println!("{}", kt.render());
        rows
    } else {
        Vec::new()
    };

    let json = to_json(&results, &kernel_results);
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
