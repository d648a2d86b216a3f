//! Proves the dynamic (motion-pattern) recogniser is allocation-free in
//! steady state, mirroring the `zero_alloc` test for the static pipeline.
//!
//! A counting global allocator wraps the system allocator and counts each
//! thread's allocations; after a warm-up pass has grown the sliding window,
//! the labelling scratch and the aspect buffer to their high-water marks,
//! further `push` + `decision` rounds must leave the measuring thread's
//! counter untouched — including no-blob frames (which take the
//! early-return path).

use hdc_figure::{render_pose, MarshallingSign, Pose, ViewSpec};
use hdc_raster::threshold::binarize;
use hdc_raster::Bitmap;
use hdc_vision::dynamic::{DynamicConfig, DynamicDecision, DynamicRecognizer};
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

#[test]
fn dynamic_recognizer_is_allocation_free_after_warmup() {
    let view = ViewSpec::paper_default(0.0, 5.0, 3.0);
    // A steady-state wave-off stream (1 Hz sweep at 10 fps) with an empty
    // reject mask riding along, all masks precomputed so the measured loop
    // is exactly push + decision.
    let masks: Vec<Bitmap> = (0..40)
        .map(|i| {
            binarize(
                &render_pose(Pose::wave_off_phase(i as f64 * 0.1), &view),
                128,
            )
        })
        .collect();
    let empty = Bitmap::new(64, 64);
    let hold = binarize(
        &render_pose(Pose::for_sign(MarshallingSign::Yes), &view),
        128,
    );

    let mut rec = DynamicRecognizer::new(DynamicConfig::default());
    // Warm-up: slide the full window through waves, holds and rejects so
    // every internal buffer reaches its high-water mark.
    let mut t = 0.0;
    for mask in masks.iter().chain(std::iter::once(&hold)) {
        assert!(rec.push(t, mask));
        let _ = rec.decision();
        t += 0.1;
    }
    assert!(!rec.push(t, &empty), "empty mask must be rejected");
    assert_eq!(rec.decision(), DynamicDecision::WaveOff);

    let before = allocations();
    for _ in 0..3 {
        for mask in &masks {
            assert!(rec.push(t, mask));
            std::hint::black_box(rec.decision());
            t += 0.1;
        }
        assert!(!rec.push(t, &empty));
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state push + decision must not allocate"
    );
}
