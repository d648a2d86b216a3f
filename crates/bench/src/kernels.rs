//! Per-kernel microbenchmarks: byte oracles vs bit-packed word-parallel
//! kernels.
//!
//! The throughput sweep in [`crate::throughput`] measures the whole
//! pipeline; this module isolates each silhouette kernel so
//! `bench_recognize`'s kernel pass can report where the packed
//! representation actually pays. Every kernel runs over the same VGA
//! sign stream the pipeline benchmarks use, one timed call per frame,
//! averaged over enough iterations to be stable.
//!
//! The `binarize` row times the production hybrid entry
//! ([`binarize_packed_into`]: each 64-pixel chunk byte-compared, then
//! gathered into one mask word) against the byte form. The
//! `largest_component` row times the labelling the loop calls,
//! [`largest_component_packed_lazy`], which rebuilds the blob only when
//! the mask holds more than one component. The `rasterise` row paints the
//! stream's signallers as the session loop sees them: through
//! [`paint_view`] (clear, then [`hdc_figure::paint_signaller`]) into a grey
//! frame, against [`paint_view_mask`] into a packed mask.
//! Kernels with no committed byte implementation (the temporal gate's mask
//! diff pair) are compared against the naive per-pixel loop they replace.
//!
//! A single run's ns rows move with the host's speed spells, so
//! `bench_recognize` repeats the whole kernel pass and reports each row's
//! median/min/max ([`spread_kernels`]) together with the byte-over-packed
//! ratio taken within each repeat.

use crate::frames::{sign_stream, view_at};
use crate::report::Spread;
use hdc_core::{paint_view, paint_view_mask};
use hdc_figure::{MarshallingSign, Pose, Signaller};
use hdc_geometry::azimuth::azimuth_ground_offset;
use hdc_geometry::Vec3;
use hdc_raster::diff::{mask_diff_count, mask_tile_diff_into};
use hdc_raster::threshold::{binarize_into, binarize_packed_into};
use hdc_raster::{
    largest_component_packed_lazy, largest_component_with, trace_outer_contour_into,
    trace_outer_contour_packed_into, BitMask, Bitmap, Connectivity, ContourPoint, GrayImage,
    LabelScratch,
};
use hdc_vision::SEGMENTATION_THRESHOLD;
use std::hint::black_box;
use std::time::Instant;

/// Tile edge for the tiled mask diff, matching the temporal gate's
/// default.
const TILE: u32 = 16;

/// One kernel's byte-vs-packed timing at the benchmark resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    /// Kernel name as it appears in the report.
    pub name: &'static str,
    /// Mean nanoseconds per frame for the byte-per-pixel implementation.
    pub byte_ns: f64,
    /// Mean nanoseconds per frame for the bit-packed implementation (for
    /// `binarize`, the hybrid entry [`binarize_packed_into`]).
    pub packed_ns: f64,
}

impl KernelResult {
    /// Byte time over packed time: how many times faster the packed
    /// kernel is on this workload.
    pub fn speedup(&self) -> f64 {
        self.byte_ns / self.packed_ns
    }
}

/// One kernel's timings over the repeats of [`run_kernel_bench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSpread {
    /// Kernel name as it appears in the report.
    pub name: &'static str,
    /// Byte ns/frame across repeats.
    pub byte_ns: Spread,
    /// Packed ns/frame across repeats.
    pub packed_ns: Spread,
    /// Byte over packed, each taken within one repeat.
    pub speedup: Spread,
}

/// The spread of each kernel row over `repeats`, each one call of
/// [`run_kernel_bench`].
///
/// # Panics
/// Panics when `repeats` is empty or the repeats' rows differ.
pub fn spread_kernels(repeats: &[Vec<KernelResult>]) -> Vec<KernelSpread> {
    repeats[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let rows: Vec<&KernelResult> = repeats.iter().map(|r| &r[i]).collect();
            assert!(rows.iter().all(|r| r.name == first.name), "repeats differ");
            let of = |f: fn(&KernelResult) -> f64| Spread::of(rows.iter().map(|r| f(r)).collect());
            KernelSpread {
                name: first.name,
                byte_ns: of(|r| r.byte_ns),
                packed_ns: of(|r| r.packed_ns),
                speedup: of(KernelResult::speedup),
            }
        })
        .collect()
}

/// The stream's signallers with the eyes of their views: the inputs the
/// session loop rasterises on a view-memo miss, through its fixed 640×480
/// camera whatever resolution the other rows run at.
fn stream_views() -> Vec<(Signaller, Vec3)> {
    let mut views = Vec::new();
    for az in [0.0, 10.0, 20.0] {
        let view = view_at(640, 480, az);
        let ground = azimuth_ground_offset(f64::to_radians(az), view.distance_m);
        for sign in MarshallingSign::ALL {
            views.push((
                view.signaller(Pose::for_sign(sign)),
                Vec3::from_xy(ground, view.altitude_m),
            ));
        }
    }
    views
}

/// Times `f` over `iters` repetitions of a `frames`-frame workload
/// (after one untimed warm-up repetition) and returns mean nanoseconds
/// per frame.
fn time_per_frame(frames: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: scratch buffers reach capacity, caches settle
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / (iters * frames) as f64
}

/// The naive per-pixel mask diff the packed XOR-popcount replaces.
fn mask_diff_naive(a: &Bitmap, b: &Bitmap) -> u64 {
    a.pixels()
        .iter()
        .zip(b.pixels())
        .filter(|(x, y)| x != y)
        .count() as u64
}

/// The naive per-pixel tiled mask diff the packed word-segment splitter
/// replaces.
fn mask_tile_diff_naive(a: &Bitmap, b: &Bitmap, tile: u32, out: &mut Vec<u64>) {
    let tiles_x = a.width().div_ceil(tile) as usize;
    let tiles_y = a.height().div_ceil(tile) as usize;
    out.clear();
    out.resize(tiles_x * tiles_y, 0);
    for y in 0..a.height() {
        let ty = (y / tile) as usize;
        for x in 0..a.width() {
            if a.get(x, y) != b.get(x, y) {
                out[ty * tiles_x + (x / tile) as usize] += 1;
            }
        }
    }
}

/// Runs every kernel pair over the `width`×`height` sign stream,
/// `iters` timed repetitions each, and returns one row per kernel.
pub fn run_kernel_bench(width: u32, height: u32, iters: usize) -> Vec<KernelResult> {
    let frames = sign_stream(width, height);
    let n = frames.len();

    // Pre-binarised inputs for every downstream kernel, both layouts.
    let mut byte_masks: Vec<Bitmap> = Vec::with_capacity(n);
    let mut packed_masks: Vec<BitMask> = Vec::with_capacity(n);
    for f in &frames {
        let mut m = Bitmap::new(width, height);
        binarize_into(f, SEGMENTATION_THRESHOLD, &mut m);
        let mut p = BitMask::new(width, height);
        binarize_packed_into(f, SEGMENTATION_THRESHOLD, &mut p);
        byte_masks.push(m);
        packed_masks.push(p);
    }

    // Isolated blobs for the contour kernels.
    let mut byte_blobs: Vec<Bitmap> = Vec::with_capacity(n);
    let mut packed_blobs: Vec<BitMask> = Vec::with_capacity(n);
    let mut scratch = LabelScratch::new();
    for (m, p) in byte_masks.iter().zip(&packed_masks) {
        let mut blob = Bitmap::new(width, height);
        largest_component_with(m, Connectivity::Eight, &mut blob, &mut scratch)
            .expect("sign frames always contain a blob");
        byte_blobs.push(blob);
        let mut pblob = BitMask::new(width, height);
        let (_, copied) =
            largest_component_packed_lazy(p, Connectivity::Eight, &mut pblob, &mut scratch)
                .expect("sign frames always contain a blob");
        packed_blobs.push(if copied { pblob } else { p.clone() });
    }

    let mut results = Vec::new();

    let mut out_b = Bitmap::new(width, height);
    let mut out_p = BitMask::new(width, height);

    let views = stream_views();
    let mut frame = GrayImage::new(1, 1);
    for (signaller, eye) in &views {
        paint_view(signaller, *eye, &mut frame);
        paint_view_mask(signaller, *eye, &mut out_p);
        let mut want = BitMask::new(1, 1);
        binarize_packed_into(&frame, SEGMENTATION_THRESHOLD, &mut want);
        assert_eq!(
            out_p, want,
            "the mask must be the grey frame's segmentation"
        );
    }
    results.push(KernelResult {
        name: "rasterise",
        byte_ns: time_per_frame(views.len(), iters, || {
            for (signaller, eye) in &views {
                paint_view(signaller, *eye, &mut frame);
                black_box(&frame);
            }
        }),
        packed_ns: time_per_frame(views.len(), iters, || {
            for (signaller, eye) in &views {
                paint_view_mask(signaller, *eye, &mut out_p);
                black_box(&out_p);
            }
        }),
    });

    results.push(KernelResult {
        name: "binarize",
        byte_ns: time_per_frame(n, iters, || {
            for f in &frames {
                binarize_into(f, SEGMENTATION_THRESHOLD, &mut out_b);
                black_box(&out_b);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for f in &frames {
                binarize_packed_into(f, SEGMENTATION_THRESHOLD, &mut out_p);
                black_box(&out_p);
            }
        }),
    });

    results.push(KernelResult {
        name: "largest_component",
        byte_ns: time_per_frame(n, iters, || {
            for m in &byte_masks {
                let c = largest_component_with(m, Connectivity::Eight, &mut out_b, &mut scratch);
                black_box(&c);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for p in &packed_masks {
                let c =
                    largest_component_packed_lazy(p, Connectivity::Eight, &mut out_p, &mut scratch);
                black_box(&c);
            }
        }),
    });

    let mut contour: Vec<ContourPoint> = Vec::new();
    results.push(KernelResult {
        name: "contour",
        byte_ns: time_per_frame(n, iters, || {
            for b in &byte_blobs {
                trace_outer_contour_into(b, &mut contour);
                black_box(&contour);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for b in &packed_blobs {
                trace_outer_contour_packed_into(b, &mut contour);
                black_box(&contour);
            }
        }),
    });

    // Mask diffs compare consecutive frames of the stream, the way the
    // temporal gate sees them.
    results.push(KernelResult {
        name: "mask_diff",
        byte_ns: time_per_frame(n - 1, iters, || {
            for w in byte_masks.windows(2) {
                black_box(mask_diff_naive(&w[0], &w[1]));
            }
        }),
        packed_ns: time_per_frame(n - 1, iters, || {
            for w in packed_masks.windows(2) {
                black_box(mask_diff_count(&w[0], &w[1]));
            }
        }),
    });

    let mut tiles: Vec<u64> = Vec::new();
    results.push(KernelResult {
        name: "tile_diff",
        byte_ns: time_per_frame(n - 1, iters, || {
            for w in byte_masks.windows(2) {
                mask_tile_diff_naive(&w[0], &w[1], TILE, &mut tiles);
                black_box(&tiles);
            }
        }),
        packed_ns: time_per_frame(n - 1, iters, || {
            for w in packed_masks.windows(2) {
                let s = mask_tile_diff_into(&w[0], &w[1], TILE, &mut tiles);
                black_box((&tiles, s));
            }
        }),
    });

    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_produces_positive_timings() {
        let results = run_kernel_bench(128, 96, 1);
        for r in &results {
            assert!(r.byte_ns > 0.0 && r.packed_ns > 0.0, "{}", r.name);
            assert!(r.speedup() > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn spreads_pair_each_row_with_its_own_repeat() {
        let row = |byte_ns, packed_ns| KernelResult {
            name: "contour",
            byte_ns,
            packed_ns,
        };
        let spread = spread_kernels(&[
            vec![row(8.0, 2.0)],
            vec![row(3.0, 3.0)],
            vec![row(6.0, 1.0)],
        ]);
        assert_eq!(spread.len(), 1);
        let s = spread[0];
        assert_eq!(s.name, "contour");
        assert_eq!(
            (s.byte_ns.min, s.byte_ns.median, s.byte_ns.max),
            (3.0, 6.0, 8.0)
        );
        assert_eq!(
            (s.packed_ns.min, s.packed_ns.median, s.packed_ns.max),
            (1.0, 2.0, 3.0)
        );
        // the ratios of each repeat, 4, 1 and 6, not a ratio of medians
        assert_eq!(
            (s.speedup.min, s.speedup.median, s.speedup.max),
            (1.0, 4.0, 6.0)
        );
    }

    #[test]
    fn rows_match_the_committed_kernel_table() {
        // A kernel added to or deleted from the bench must be re-recorded
        // in BENCH_recognize.json (run `bench_recognize`), not left
        // as a stale or missing row.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recognize.json");
        let text = std::fs::read_to_string(path).expect("committed BENCH_recognize.json");
        let needle = "\"kernel\": \"";
        let committed: Vec<&str> = text
            .match_indices(needle)
            .map(|(at, _)| {
                let rest = &text[at + needle.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        let rows: Vec<&str> = run_kernel_bench(320, 240, 1)
            .iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(rows, committed);
    }

    #[test]
    fn naive_tile_diff_matches_packed() {
        let frames = sign_stream(130, 96);
        let mut a = BitMask::new(130, 96);
        let mut b = BitMask::new(130, 96);
        binarize_packed_into(&frames[0], SEGMENTATION_THRESHOLD, &mut a);
        binarize_packed_into(&frames[1], SEGMENTATION_THRESHOLD, &mut b);
        let mut ab = Bitmap::new(130, 96);
        let mut bb = Bitmap::new(130, 96);
        binarize_into(&frames[0], SEGMENTATION_THRESHOLD, &mut ab);
        binarize_into(&frames[1], SEGMENTATION_THRESHOLD, &mut bb);

        assert_eq!(mask_diff_naive(&ab, &bb), mask_diff_count(&a, &b));

        let mut naive = Vec::new();
        mask_tile_diff_naive(&ab, &bb, TILE, &mut naive);
        let mut packed = Vec::new();
        mask_tile_diff_into(&a, &b, TILE, &mut packed);
        assert_eq!(naive, packed);
    }
}
