//! Zero-allocation contract of the cycle-level step loop: once a core has
//! run a warm-up window, stepping further records must not touch the heap
//! for the baseline and DLVP schemes. A counting global allocator wraps the
//! system one; the measured span runs from the first record the core pulls
//! to the moment it finds the stream exhausted, so it covers every step and
//! nothing of the window's set-up or statistics hand-off.
//!
//! The counter is per thread: the test harness runs tests concurrently, and
//! a process-wide counter would charge other tests' allocations to the one
//! measuring.

use dlvp::SchemeKind;
use lvp_trace::TraceRecord;
use lvp_uarch::{Core, SimConfig};
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

/// Records in the warm-up window.
const WARMUP: u64 = 20_000;
/// Records stepped under measurement.
const STEPPED: u64 = 10_000;

/// A record stream that notes the allocation counter when the core pulls
/// its first record and when it finds the stream exhausted.
struct Metered<'a> {
    records: std::slice::Iter<'a, TraceRecord>,
    first: Option<u64>,
    exhausted: Option<u64>,
}

impl<'a> Iterator for Metered<'a> {
    type Item = &'a TraceRecord;

    fn next(&mut self) -> Option<&'a TraceRecord> {
        let now = allocations();
        self.first.get_or_insert(now);
        let rec = self.records.next();
        if rec.is_none() {
            self.exhausted.get_or_insert(now);
        }
        rec
    }
}

/// Allocations made while stepping [`STEPPED`] perlbmk records through a
/// core that already ran a [`WARMUP`]-record window under `kind`.
fn stepping_allocations(kind: SchemeKind) -> u64 {
    let cfg = SimConfig::paper_default();
    let trace = lvp_workloads::by_name("perlbmk")
        .expect("perlbmk is registered")
        .trace(WARMUP + STEPPED);
    let (warm, rest) = trace.records().split_at(WARMUP as usize);
    let mut core = Core::new(cfg.core.clone(), kind.build(&cfg));
    core.run_window(warm);
    let mut metered = Metered {
        records: rest.iter(),
        first: None,
        exhausted: None,
    };
    let stats = core.run_window(&mut metered);
    assert_eq!(stats.instructions, STEPPED);
    let (first, exhausted) = (metered.first, metered.exhausted);
    exhausted.expect("stream drained") - first.expect("stream pulled")
}

#[test]
fn baseline_steps_allocate_nothing() {
    assert_eq!(stepping_allocations(SchemeKind::Baseline), 0);
}

#[test]
fn dlvp_steps_allocate_nothing() {
    assert_eq!(stepping_allocations(SchemeKind::Dlvp), 0);
}

#[test]
fn counting_allocator_is_live() {
    // The zero-allocation assertions above would be vacuous if the counter
    // never moved.
    let before = allocations();
    let cfg = SimConfig::paper_default();
    std::hint::black_box(Core::new(
        cfg.core.clone(),
        SchemeKind::Baseline.build(&cfg),
    ));
    assert!(allocations() > before, "building a core must allocate");
}
