//! A step that recognises a held sign allocates nothing of its own.
//!
//! The negotiation loop carries a recognised sign as a `MarshallingSign`
//! from the view read through the debounce filter into the log, so a
//! camera frame that the memo serves costs no heap traffic. A counting
//! global allocator records every allocation made on the measuring thread
//! while a scripted session holds its signs; the steps whose only new log
//! entry is a recognised sign ("decided steps") must average fewer than
//! one allocation per three steps. What remains is amortised buffer
//! growth: the log's, and the wave-off channel's window.

use hdc_core::{
    CollaborationSession, HumanScript, LogEntry, Role, ScriptedResponse, SessionConfig, ViewWorker,
};
use hdc_figure::MarshallingSign;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread (the harness runs tests on parallel
    /// threads, so each counts only its own).
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread locals are torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A consenting worker who answers after 3 s, read by a camera at 20 Hz.
fn session() -> CollaborationSession {
    let mut config = SessionConfig::for_role(Role::Worker, true, 7).with_script(HumanScript {
        latency_s: 3.0,
        ..HumanScript::answering(ScriptedResponse::Sign(MarshallingSign::Yes))
    });
    config.frame_interval_s = 0.05;
    CollaborationSession::new(config)
}

#[test]
fn decided_steps_do_not_allocate() {
    // warm-up: the first session calibrates the pipeline and grows the
    // view worker's buffers, which the measured session reads through;
    // its table is emptied, so the measured session reads every view its
    // memo misses itself
    let mut worker = ViewWorker::new();
    session().run_with(&mut worker);
    worker.forget_reads();

    let mut session = session();
    let (mut decided, mut allocated) = (0, 0);
    while !session.is_done() {
        let (entries, before) = (session.log().len(), allocations());
        session.step_with(&mut worker);
        let spent = allocations() - before;
        if let [(_, LogEntry::Recognized(Some(_)))] = &session.log().entries()[entries..] {
            decided += 1;
            allocated += spent;
        }
    }
    assert!(decided >= 20, "only {decided} decided steps");
    assert!(
        3 * allocated < decided,
        "{allocated} allocations over {decided} decided steps"
    );
}
