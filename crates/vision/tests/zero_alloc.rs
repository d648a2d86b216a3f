//! Proves the steady-state frame loop is allocation-free.
//!
//! A counting global allocator wraps the system allocator and counts each
//! thread's allocations; after one warm-up frame per resolution has grown
//! every scratch buffer to capacity, running further frames through
//! `recognize_with` (or the one-pass `read_with`, with or without a
//! decision) must leave the measuring thread's counter untouched —
//! including reject frames (empty masks, sub-minimum blobs). So must the
//! negotiation loop's memo-miss path: rasterising a signaller straight into
//! a packed mask and reading it with `read_mask_with`.

use hdc_figure::{paint_silhouette, render_sign, MarshallingSign, Pose, ViewSpec};
use hdc_raster::{BitMask, GrayImage};
use hdc_vision::{FrameFailure, FrameScratch, KernelPath, PipelineConfig, RecognitionPipeline};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread. The test harness runs tests on
    /// parallel threads, so each test counts only its own thread's
    /// allocations — never a neighbour's.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made on the calling thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn view_at(width: u32, azimuth_deg: f64) -> ViewSpec {
    let mut v = ViewSpec::paper_default(azimuth_deg, 5.0, 3.0);
    let scale = width as f64 / v.width as f64;
    v.width = width;
    v.height = (v.height as f64 * scale) as u32;
    v.focal_px *= scale;
    v
}

fn assert_allocation_free(kernels: KernelPath) {
    let config = PipelineConfig {
        kernels,
        ..PipelineConfig::default()
    };
    let mut pipeline = RecognitionPipeline::new(config);
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));

    // A mixed steady-state stream: several signs and azimuths, plus reject
    // frames (all-background and a single sub-minimum speck).
    let mut frames = Vec::new();
    for sign in MarshallingSign::ALL {
        for az in [0.0, 12.0] {
            frames.push(render_sign(sign, &view_at(320, az)));
        }
    }
    let empty = GrayImage::new(320, 240);
    let mut speck = GrayImage::new(320, 240);
    speck.set(10, 10, 255);
    frames.push(empty);
    frames.push(speck);

    let mut scratch = FrameScratch::new();
    // Warm-up: one full pass grows every scratch buffer to its high-water mark.
    let mut warm_decisions = Vec::new();
    for frame in &frames {
        let r = pipeline.recognize_with(&mut scratch, frame);
        warm_decisions.push(r.decision.map(str::to_owned));
    }
    assert!(
        warm_decisions.iter().any(Option::is_some),
        "warm-up stream must exercise the accept path"
    );
    assert!(
        warm_decisions.iter().any(Option::is_none),
        "warm-up stream must exercise the reject path"
    );

    let before = allocations();
    for _ in 0..3 {
        for (frame, expected) in frames.iter().zip(&warm_decisions) {
            let r = pipeline.recognize_with(&mut scratch, frame);
            assert_eq!(&r.decision.map(str::to_owned), expected);
        }
    }
    let after = allocations();
    // The decision comparison above allocates (map(str::to_owned)), so count
    // a pure recognition pass separately: zero tolerance there.
    let before_pure = allocations();
    for _ in 0..3 {
        for frame in &frames {
            let r = pipeline.recognize_with(&mut scratch, frame);
            std::hint::black_box(&r);
        }
    }
    let after_pure = allocations();
    assert_eq!(
        after_pure - before_pure,
        0,
        "steady-state recognize_with ({kernels:?}) must not allocate \
         (warm loop allocated {} times)",
        after - before
    );
}

#[test]
fn recognize_with_is_allocation_free_after_warmup() {
    assert_allocation_free(KernelPath::Byte);
}

#[test]
fn hybrid_recognize_with_is_allocation_free_after_warmup() {
    assert_allocation_free(KernelPath::Hybrid);
}

#[test]
fn one_pass_read_is_allocation_free_after_one_warmup_frame() {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let figure = render_sign(MarshallingSign::Yes, &view_at(320, 0.0));
    let mut speck = GrayImage::new(320, 240);
    speck.set(10, 10, 255);
    let empty = GrayImage::new(320, 240);

    let mut scratch = FrameScratch::new();
    // one warm-up frame grows every buffer the figure needs
    let warm = pipeline.read_with(&mut scratch, &figure, true);
    assert!(warm.component.is_some());
    assert_eq!(warm.result.and_then(|r| r.decision), Some("Yes"));

    let before = allocations();
    for _ in 0..3 {
        for frame in [&figure, &speck, &empty] {
            for decide in [false, true] {
                let r = pipeline.read_with(&mut scratch, frame, decide);
                std::hint::black_box(&r);
            }
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "steady-state read_with must not allocate on figure, blob-too-small \
         or empty frames, with or without a decision"
    );

    // the three frames really took the three paths
    let speck_read = pipeline.read_with(&mut scratch, &speck, true);
    assert_eq!(speck_read.component.map(|c| c.area), Some(1));
    assert!(matches!(
        speck_read.result.and_then(|r| r.failure),
        Some(FrameFailure::BlobTooSmall { .. })
    ));
    let empty_read = pipeline.read_with(&mut scratch, &empty, true);
    assert!(empty_read.component.is_none());
    assert_eq!(
        empty_read.result.and_then(|r| r.failure),
        Some(FrameFailure::NoBlob)
    );
}

#[test]
fn mask_path_miss_is_allocation_free_after_one_warmup_view() {
    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let view = view_at(320, 0.0);
    let (signaller, camera) = (
        view.signaller(Pose::for_sign(MarshallingSign::Yes)),
        view.camera(),
    );
    // the memo miss: clear the mask, rasterise the silhouette into it, read
    let paint = |mask: &mut BitMask| {
        mask.reset_dimensions(view.width, view.height);
        mask.fill(false);
        paint_silhouette(&signaller, &camera, mask);
    };
    let mut mask = BitMask::new(1, 1);
    let mut scratch = FrameScratch::new();
    // one warm-up view grows the mask and every scratch buffer
    paint(&mut mask);
    let warm = pipeline.read_mask_with(&mut scratch, &mask, true);
    assert_eq!(warm.result.and_then(|r| r.decision), Some("Yes"));

    let before = allocations();
    for _ in 0..3 {
        for decide in [false, true] {
            paint(&mut mask);
            std::hint::black_box(pipeline.read_mask_with(&mut scratch, &mask, decide));
            // a sub-minimum speck and an empty view take the reject paths
            mask.fill(false);
            mask.set(10, 10, true);
            std::hint::black_box(pipeline.read_mask_with(&mut scratch, &mask, decide));
            mask.fill(false);
            std::hint::black_box(pipeline.read_mask_with(&mut scratch, &mask, decide));
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "a steady-state mask-path miss must not allocate: rasterise, label, \
         or decide, on a figure, a speck or an empty view"
    );
}

#[test]
fn incremental_gate_is_allocation_free_in_steady_state() {
    use hdc_vision::temporal::{StreamRecognizer, TemporalConfig};

    let mut pipeline = RecognitionPipeline::new(PipelineConfig::default());
    pipeline.calibrate_from_views(&ViewSpec::paper_default(0.0, 5.0, 3.0));
    let base = render_sign(MarshallingSign::Yes, &view_at(320, 0.0));

    // A sub-tolerance speck (mask-gate hit) and an over-tolerance corner
    // block (band-patch miss that leaves the figure's signature unchanged,
    // so the ε short-circuit resolves it without a full run).
    let mut speck = base.clone();
    speck.set(10, 10, 255);
    let mut block = base.clone();
    for y in 0..16 {
        for x in 0..16 {
            block.set(x, y, 255);
        }
    }

    let mut scratch = FrameScratch::new();
    let mut rec = StreamRecognizer::new(TemporalConfig::incremental());
    let frames = [&base, &speck, &base, &block, &base];
    // Warm-up: drive every ladder rung once so all caches reach capacity.
    for f in frames {
        std::hint::black_box(rec.recognize(&pipeline, &mut scratch, f));
    }
    let warm = rec.counters();
    assert_eq!(warm.full_runs, 1, "only the cold frame runs the pipeline");
    assert!(
        warm.incremental_hits >= 1,
        "the speck must hit the mask gate"
    );
    assert!(
        warm.signature_short_circuits >= 1,
        "the block must take the band-patch path into the ε short-circuit"
    );

    let before = allocations();
    for _ in 0..3 {
        for f in frames {
            std::hint::black_box(rec.recognize(&pipeline, &mut scratch, f));
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state incremental recognition must not allocate"
    );
    assert_eq!(
        rec.counters().full_runs,
        1,
        "steady state never re-ran the full pipeline"
    );
}
