//! Disabled-mode zero-allocation contract: profiling through [`NullPhases`]
//! must not touch the heap at all. A counting global allocator wraps the
//! system one; the disabled-sink span/charge/finish cycle must leave the
//! allocation counter untouched, while the recording sink visibly must not.
//!
//! The counter is per thread: the test harness runs tests (and spawns their
//! threads) concurrently, and a process-wide counter would charge those
//! allocations to whichever test happened to be measuring.

use lvp_obs::{NullPhases, PhaseRecorder, PhaseSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn count_one() {
    // `try_with`: the allocator can run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn null_phases_never_allocates() {
    let sink = NullPhases;
    let before = allocations();
    for i in 0..1_000u64 {
        let mut guard = sink.span(0, "hot-phase");
        guard.charge(i, i * 2, 1);
        guard.finish();
        let v = sink.time(3, "nested", || i + 1);
        std::hint::black_box(v);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled profiling must be allocation-free"
    );
}

#[test]
fn recorder_does_allocate_as_a_control() {
    // The counting allocator itself must be live, or the zero-allocation
    // assertion above would be vacuous.
    let before = allocations();
    let rec = PhaseRecorder::new();
    rec.time(0, "control-span", || ());
    std::hint::black_box(rec.spans());
    let after = allocations();
    assert!(after > before, "recording sink should hit the allocator");
}
