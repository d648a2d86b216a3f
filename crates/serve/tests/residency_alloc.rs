//! Proves a residency fault spills gate state without copying a frame.
//!
//! A counting global allocator wraps the system allocator and counts, per
//! thread, the allocations of exactly one grey frame's bytes. Serving the
//! `steady` golden workload on one worker (the calling thread) evicts and
//! restores gate state hundreds of times; moving each evicted recogniser
//! into the spill map, instead of snapshotting its frames, keeps the count
//! of frame-sized allocations bounded by the stream count — one grown
//! frame buffer per stream's recogniser, plus the shared scratch — and
//! independent of the eviction count.

use hdc_runtime::WorkPool;
use hdc_serve::workload::{golden_frame_sets, golden_pipeline, steady};
use hdc_serve::{serve, ServeInput};
use hdc_vision::temporal::TemporalConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Byte size this thread is watching for (0 = not watching: the
    /// allocator is never asked for zero bytes).
    static WATCHED_SIZE: Cell<usize> = const { Cell::new(0) };
    /// Allocations of exactly the watched size made on this thread. The
    /// test harness runs tests on parallel threads, so each test counts
    /// only its own thread's allocations — never a neighbour's.
    static HITS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down
    let _ = WATCHED_SIZE.try_with(|watched| {
        if watched.get() == size {
            let _ = HITS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serves `steady` under `gate` on the calling thread and returns
/// (frame-sized allocations during the serve, evictions, streams).
fn frame_allocations_while_serving(gate: TemporalConfig) -> (usize, usize, usize) {
    let mut w = steady();
    w.config.gate = gate;
    assert!(w.config.spill, "steady spills evicted gate state");
    let pipeline = golden_pipeline();
    let frame_sets = golden_frame_sets();
    let input = ServeInput {
        frame_sets: &frame_sets,
        arrivals: &w.arrivals,
    };
    let frame = &frame_sets[0][0];
    let frame_bytes = frame.width() as usize * frame.height() as usize;
    // one worker: the serial path runs every shard on this thread
    let pool = WorkPool::new(1);

    HITS.with(|n| n.set(0));
    WATCHED_SIZE.with(|s| s.set(frame_bytes));
    let report = serve(&pipeline, &input, &w.config, &pool);
    WATCHED_SIZE.with(|s| s.set(0));
    let hits = HITS.with(Cell::get);

    assert_eq!(report.decided(), report.offered(), "steady loses nothing");
    assert!(report.restores() > 0, "spilled state comes back");
    (hits, report.evictions(), w.arrivals.streams)
}

fn assert_bounded_by_streams(gate: TemporalConfig) {
    let (hits, evictions, streams) = frame_allocations_while_serving(gate);
    let bound = 2 * streams + 4;
    assert!(
        evictions > bound,
        "{evictions} evictions cannot tell a per-eviction copy from the bound {bound}"
    );
    assert!(
        hits <= bound,
        "{:?}: {hits} frame-sized allocations over {evictions} evictions \
         exceed the per-stream bound {bound}",
        gate.mode
    );
}

#[test]
fn strict_gate_spill_allocates_per_stream_not_per_eviction() {
    assert_bounded_by_streams(TemporalConfig::strict());
}

#[test]
fn incremental_gate_spill_allocates_per_stream_not_per_eviction() {
    assert_bounded_by_streams(TemporalConfig::incremental());
}
