//! Sustained-throughput benchmark for the recognition pipeline.
//!
//! Measures the seed implementation (rebuilt from the retained reference
//! oracles) against the pipeline's hybrid path (binarise straight into
//! bit-packed silhouette words, word-parallel silhouette kernels) at
//! 320×240, 640×480 and 1280×960, times Figure 4's 0°/65° pair
//! ([`run_fig4`]) and the per-kernel byte-vs-packed microbenchmarks at
//! VGA, prints the tables and writes the JSON report.
//!
//! Usage:
//! `cargo run --release -p hdc-bench --bin bench_recognize -- [--smoke] [out.json]`
//!
//! * `--smoke` shrinks the measurement floors and the repeats to CI-sized
//!   values; use it only to verify the binary runs, never for committed
//!   numbers.
//! * default output path: `BENCH_recognize.json` in the current directory.
//!
//! The sweep, the Figure 4 pair and the kernel pass each repeat (5 times,
//! 2 in smoke), and every row reports median/min/max over the repeats; a
//! speed-up or ratio is taken between two timings of the same repeat. One
//! thread runs every measurement.

use hdc_bench::kernels::{run_kernel_bench, spread_kernels};
use hdc_bench::report::{BenchArgs, Table};
use hdc_bench::throughput::{recognize_report, run_fig4, run_sweep, spread_sweep};

fn main() {
    let args = BenchArgs::from_env("BENCH_recognize.json", false);
    let smoke = args.smoke;

    // Floors per resolution pass: enough whole cycles for stable averages
    // without letting the slow seed path at 1280×960 run for minutes. The
    // smoke floors just prove the binary end to end.
    let (min_frames, min_seconds, repeats) = if smoke { (1, 0.0, 2) } else { (45, 1.0, 5) };
    let sweep: Vec<_> = (0..repeats)
        .map(|_| run_sweep(min_frames, min_seconds))
        .collect();
    let results = spread_sweep(&sweep);

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
            r.seed_ms.cell(3),
            r.hybrid_ms.cell(3),
            r.hybrid_fps.cell(0),
            r.speedup.cell(2),
        ]);
    }
    println!("median [min, max] over {repeats} repeats");
    println!("{}", table.render());

    let (rounds, batch) = if smoke { (2, 1) } else { (20, 100) };
    let fig4 = run_fig4(repeats, rounds, batch);
    let mut ft = Table::new(["azimuth", "ns/frame"]);
    ft.row(["0 deg".to_string(), fig4.ns_0.cell(0)]);
    ft.row(["65 deg".to_string(), fig4.ns_65.cell(0)]);
    ft.row(["65/0 ratio".to_string(), fig4.ratio.cell(2)]);
    println!("\nFigure 4 ('No', altitude 5 m, distance 3 m, 640x480):");
    println!("{}", ft.render());

    let iters = if smoke { 1 } else { 200 };
    let kernel_rows: Vec<_> = (0..repeats)
        .map(|_| run_kernel_bench(640, 480, iters))
        .collect();
    let kernels = spread_kernels(&kernel_rows);
    let mut kt = Table::new(["kernel", "byte ns/frame", "packed ns/frame", "speedup"]);
    for k in &kernels {
        kt.row([
            k.name.to_string(),
            k.byte_ns.cell(0),
            k.packed_ns.cell(0),
            k.speedup.cell(2),
        ]);
    }
    println!("\nper-kernel (640x480):");
    println!("{}", kt.render());

    args.write_report(
        1,
        repeats,
        recognize_report(&results, &fig4, &kernels, repeats),
    );
}
