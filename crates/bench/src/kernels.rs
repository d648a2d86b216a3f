//! Per-kernel microbenchmarks: byte oracles vs bit-packed word-parallel
//! kernels.
//!
//! The throughput sweep in [`crate::throughput`] measures the whole
//! pipeline; this module isolates each silhouette kernel so the
//! `--kernels` mode of `bench_recognize` can report where the packed
//! representation actually pays. Every kernel runs over the same VGA
//! sign stream the pipeline benchmarks use, one timed call per frame,
//! averaged over enough iterations to be stable.
//!
//! The `binarize` row times the production hybrid entry (byte compare,
//! then one gather-multiply pack into mask words) against the byte form.
//! Kernels with no committed byte implementation (the temporal gate's mask
//! diff pair) are compared against the naive per-pixel loop they replace.

use crate::frames::sign_stream;
use hdc_raster::diff::{mask_diff_count, mask_tile_diff_into};
use hdc_raster::morphology::{dilate_into, dilate_packed_into, erode_into, erode_packed_into};
use hdc_raster::threshold::{binarize_bytes_into, binarize_into};
use hdc_raster::{
    largest_component_packed_with, largest_component_with, trace_outer_contour_into,
    trace_outer_contour_packed_into, BitMask, Bitmap, Connectivity, ContourPoint, GrayImage,
    LabelScratch,
};
use std::hint::black_box;
use std::time::Instant;

/// The binarisation threshold the kernel workload uses. The rendered
/// silhouettes are white-on-black, so any mid-scale value yields the
/// same masks; 128 matches the pipeline's default fixed segmentation.
const THRESHOLD: u8 = 128;

/// Tile edge for the tiled mask diff, matching the temporal gate's
/// default.
const TILE: u32 = 16;

/// The production binarise into the packed layout: byte compare into the
/// reusable 0/1 image `bytes`, then one gather-multiply pack into `out`.
fn binarize_hybrid_into(frame: &GrayImage, bytes: &mut GrayImage, out: &mut BitMask) {
    binarize_bytes_into(frame, THRESHOLD, bytes);
    out.pack_from_bytes(bytes);
}

/// One kernel's byte-vs-packed timing at the benchmark resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    /// Kernel name as it appears in the report.
    pub name: &'static str,
    /// Mean nanoseconds per frame for the byte-per-pixel implementation.
    pub byte_ns: f64,
    /// Mean nanoseconds per frame for the bit-packed implementation (for
    /// `binarize`, the hybrid byte-compare-then-pack entry).
    pub packed_ns: f64,
}

impl KernelResult {
    /// Byte time over packed time: how many times faster the packed
    /// kernel is on this workload.
    pub fn speedup(&self) -> f64 {
        self.byte_ns / self.packed_ns
    }
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
    let mut bytes = GrayImage::new(width, height);
    let mut byte_masks: Vec<Bitmap> = Vec::with_capacity(n);
    let mut packed_masks: Vec<BitMask> = Vec::with_capacity(n);
    for f in &frames {
        let mut m = Bitmap::new(width, height);
        binarize_into(f, THRESHOLD, &mut m);
        let mut p = BitMask::new(width, height);
        binarize_hybrid_into(f, &mut bytes, &mut p);
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
        largest_component_packed_with(p, Connectivity::Eight, &mut pblob, &mut scratch)
            .expect("sign frames always contain a blob");
        packed_blobs.push(pblob);
    }

    let mut results = Vec::new();

    let mut out_b = Bitmap::new(width, height);
    let mut out_p = BitMask::new(width, height);

    results.push(KernelResult {
        name: "binarize",
        byte_ns: time_per_frame(n, iters, || {
            for f in &frames {
                binarize_into(f, THRESHOLD, &mut out_b);
                black_box(&out_b);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for f in &frames {
                binarize_hybrid_into(f, &mut bytes, &mut out_p);
                black_box(&out_p);
            }
        }),
    });

    results.push(KernelResult {
        name: "erode",
        byte_ns: time_per_frame(n, iters, || {
            for m in &byte_masks {
                erode_into(m, &mut out_b);
                black_box(&out_b);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for p in &packed_masks {
                erode_packed_into(p, &mut out_p);
                black_box(&out_p);
            }
        }),
    });

    results.push(KernelResult {
        name: "dilate",
        byte_ns: time_per_frame(n, iters, || {
            for m in &byte_masks {
                dilate_into(m, &mut out_b);
                black_box(&out_b);
            }
        }),
        packed_ns: time_per_frame(n, iters, || {
            for p in &packed_masks {
                dilate_packed_into(p, &mut out_p);
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
                    largest_component_packed_with(p, Connectivity::Eight, &mut out_p, &mut scratch);
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
        assert_eq!(results.len(), 7);
        for r in &results {
            assert!(r.byte_ns > 0.0 && r.packed_ns > 0.0, "{}", r.name);
            assert!(r.speedup() > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn naive_tile_diff_matches_packed() {
        let frames = sign_stream(130, 96);
        let mut bytes = GrayImage::new(1, 1);
        let mut a = BitMask::new(130, 96);
        let mut b = BitMask::new(130, 96);
        binarize_hybrid_into(&frames[0], &mut bytes, &mut a);
        binarize_hybrid_into(&frames[1], &mut bytes, &mut b);
        let mut ab = Bitmap::new(130, 96);
        let mut bb = Bitmap::new(130, 96);
        binarize_into(&frames[0], THRESHOLD, &mut ab);
        binarize_into(&frames[1], THRESHOLD, &mut bb);

        assert_eq!(mask_diff_naive(&ab, &bb), mask_diff_count(&a, &b));

        let mut naive = Vec::new();
        mask_tile_diff_naive(&ab, &bb, TILE, &mut naive);
        let mut packed = Vec::new();
        mask_tile_diff_into(&a, &b, TILE, &mut packed);
        assert_eq!(naive, packed);
    }
}
