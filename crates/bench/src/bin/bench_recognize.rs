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
//! * `--smoke` shrinks the measurement floors and the repeats to CI-sized
//!   values; use it only to verify the binary runs, never for committed
//!   numbers.
//! * default output path: `BENCH_recognize.json` in the current directory.
//!
//! The sweep, Figure 4's 0°/65° pair ([`run_fig4`]) and the kernel
//! pass each repeat (5 times, 2 in smoke), and every row reports
//! median/min/max over the repeats; a speed-up or ratio is taken between
//! two timings of the same repeat.

use hdc_bench::kernels::{run_kernel_bench, spread_kernels};
use hdc_bench::report::{num, Spread, Table};
use hdc_bench::throughput::{run_fig4, run_sweep, spread_sweep, to_json};

/// `median [min, max]` of a spread.
fn cell(s: &Spread, prec: usize) -> String {
    format!(
        "{} [{}, {}]",
        num(s.median, prec),
        num(s.min, prec),
        num(s.max, prec)
    )
}

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
            cell(&r.seed_ms, 3),
            cell(&r.hybrid_ms, 3),
            cell(&r.hybrid_fps, 0),
            cell(&r.speedup, 2),
        ]);
    }
    println!("median [min, max] over {repeats} repeats");
    println!("{}", table.render());

    let (rounds, batch) = if smoke { (2, 1) } else { (20, 100) };
    let fig4 = run_fig4(repeats, rounds, batch);
    let mut ft = Table::new(["azimuth", "ns/frame"]);
    ft.row(["0 deg".to_string(), cell(&fig4.ns_0, 0)]);
    ft.row(["65 deg".to_string(), cell(&fig4.ns_65, 0)]);
    ft.row(["65/0 ratio".to_string(), cell(&fig4.ratio, 2)]);
    println!("\nFigure 4 ('No', altitude 5 m, distance 3 m, 640x480):");
    println!("{}", ft.render());

    let kernel_results = if kernels_mode {
        let iters = if smoke { 1 } else { 200 };
        let rows: Vec<_> = (0..repeats)
            .map(|_| run_kernel_bench(640, 480, iters))
            .collect();
        let rows = spread_kernels(&rows);
        let mut kt = Table::new(["kernel", "byte ns/frame", "packed ns/frame", "speedup"]);
        for k in &rows {
            kt.row([
                k.name.to_string(),
                cell(&k.byte_ns, 0),
                cell(&k.packed_ns, 0),
                cell(&k.speedup, 2),
            ]);
        }
        println!("\nper-kernel (640x480):");
        println!("{}", kt.render());
        rows
    } else {
        Vec::new()
    };

    let json = to_json(&results, &fig4, &kernel_results, repeats);
    std::fs::write(&out_path, &json).expect("write benchmark report");
    println!("wrote {out_path}");
}
