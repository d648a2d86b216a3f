//! A faulted owner paints every camera frame into one reused grey frame.
//!
//! An owner with a fault layer installed takes the full render-and-read
//! path on every camera frame, because the layer may rewrite pixels. A
//! counting global allocator records each frame-sized block (a 640×480
//! grey frame is 307 200 bytes) allocated on the measuring thread: after
//! the first faulted frames have grown a view worker's buffers, further
//! frames read through that worker must allocate none.

use hdc_core::{CollaborationSession, FrameFate, SessionConfig, SessionFaults, ViewWorker};
use hdc_raster::GrayImage;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

/// Bytes of one grey frame of the loop's 640×480 camera.
const FRAME_BYTES: usize = 640 * 480;

struct CountingAlloc;

thread_local! {
    /// Frame-sized allocations made on this thread (the harness runs
    /// tests on parallel threads, so each counts only its own).
    static FRAME_SIZED: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= FRAME_BYTES {
        // `try_with`: the allocator also runs while thread locals are torn down
        let _ = FRAME_SIZED.try_with(|n| n.set(n.get() + 1));
    }
}

fn frame_sized() -> usize {
    FRAME_SIZED.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Delivers every frame untouched and counts them.
#[derive(Debug)]
struct CountFrames(Rc<Cell<usize>>);

impl SessionFaults for CountFrames {
    fn on_frame(&mut self, _t: f64, frame: &mut GrayImage) -> FrameFate {
        assert_eq!(frame.pixels().len(), FRAME_BYTES, "the loop's camera");
        self.0.set(self.0.get() + 1);
        FrameFate::Deliver
    }
}

/// Runs one faulted session to its end on `worker`; returns the frames it
/// delivered.
fn run_faulted(seed: u64, worker: &mut ViewWorker) -> usize {
    let frames = Rc::new(Cell::new(0));
    let mut session = CollaborationSession::new(SessionConfig::worker_example(seed));
    session.set_faults(Box::new(CountFrames(Rc::clone(&frames))));
    session.run_with(worker);
    frames.get()
}

#[test]
fn faulted_frames_reuse_one_grey_frame() {
    // warm-up: the first faulted session grows the view worker's frame and
    // recognition scratch, which the measured sessions read through
    let mut worker = ViewWorker::new();
    assert!(run_faulted(7, &mut worker) > 0);
    let before = frame_sized();
    let measured: usize = (8..12).map(|seed| run_faulted(seed, &mut worker)).sum();
    assert!(measured >= 30, "only {measured} frames after warm-up");
    assert_eq!(
        frame_sized() - before,
        0,
        "{measured} faulted frames allocated frame-sized blocks"
    );
}
