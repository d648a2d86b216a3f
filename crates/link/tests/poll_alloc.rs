//! A channel poll with nothing due allocates nothing.
//!
//! A counting global allocator wraps the system allocator and counts each
//! thread's allocations. With copies in flight but none due, polling must
//! leave the counter untouched: the in-flight buffer is partitioned in
//! place, never rebuilt.

use hdc_link::{LinkQuality, LossyChannel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made on this thread, so parallel tests never count a
    /// neighbour's.
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
fn a_poll_with_nothing_due_allocates_nothing() {
    let mut ch = LossyChannel::new(LinkQuality::clean().with_jitter(0.5), 7);
    for i in 0..20u32 {
        ch.send(f64::from(i) * 0.1, i);
    }
    // the first copy is due at 0.05 s at the earliest
    let before = allocations();
    for step in 0..5 {
        assert!(ch.poll(0.01 * f64::from(step)).is_empty());
    }
    assert_eq!(allocations(), before, "an empty poll must not allocate");
    assert!(!ch.is_idle());

    // the partition in place still delivers every copy, in order
    let got = ch.poll(100.0);
    assert_eq!(got.len(), 20);
    assert!(ch.is_idle());
}

#[test]
fn partial_polls_deliver_like_one_drain() {
    // copies removed out of order from the in-flight buffer must not change
    // what any later poll delivers, nor in what order
    let q = LinkQuality::clean().with_jitter(1.0).with_dup(0.3);
    let mut whole = LossyChannel::new(q, 42);
    let mut stepped = LossyChannel::new(q, 42);
    for i in 0..60u32 {
        whole.send(f64::from(i) * 0.05, i);
        stepped.send(f64::from(i) * 0.05, i);
    }
    let all = whole.poll(100.0);
    let mut pieces = Vec::new();
    for step in 0..80 {
        pieces.extend(stepped.poll(f64::from(step) * 0.05));
    }
    pieces.extend(stepped.poll(100.0));
    assert_eq!(pieces, all);
}
