//! Recording inside a capture allocates nothing once the thread has
//! met the unit's metrics.
//!
//! A counting global allocator tallies allocations per thread. The
//! first unit interns its names and sizes the thread's capture frame;
//! every later unit issues the same `add` / `record` / `span` calls and
//! must not allocate at all — not for a registry, a map key, an `Arc`
//! or a histogram. Building a name-keyed snapshot when the capture
//! closes (`with_capture`) is outside the measured window. Closing into
//! a reused `Captured`, putting it in name order and reading it back by
//! id, as a checkpoint journal encodes a unit's frame, is inside it: a
//! warm unit allocates nothing from its first record to its frame.
//!
//! This test owns its binary: it replaces the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the tally is a
// const-initialized thread-local, so counting never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// One unit's telemetry through the string-keyed entry points: the
/// calls a campaign unit made before metric ids existed.
fn unit_by_name(i: u64) {
    obs::add("alloc.runs_done", 1);
    obs::add("alloc.zero", 0);
    obs::add("alloc.ops", 40 + i);
    obs::record("alloc.execns", 1_000 + i);
    obs::record("alloc.execns", 2_000 + i);
    obs::record("alloc.nsperop", 25);
    let _unit = obs::span("alloc.unit");
    let _compile = obs::span("alloc.compile");
}

/// The same unit through ids held by `static` handles.
fn unit_by_id(i: u64) {
    static RUNS: obs::Name = obs::Name::new("alloc.id.runs_done");
    static OPS: obs::Name = obs::Name::new("alloc.id.ops");
    static EXECNS: obs::Name = obs::Name::new("alloc.id.execns");
    static UNIT: obs::SpanName = obs::SpanName::new("alloc.id.unit");
    let _unit = UNIT.start();
    RUNS.add(1);
    OPS.add(i);
    obs::add_id(OPS.id(), 0);
    EXECNS.record(1_000 + i);
    obs::record_id(EXECNS.id(), 7);
}

#[test]
fn recording_inside_a_warm_capture_allocates_nothing() {
    obs::set_enabled(true);
    // warm-up unit: interns the names, sizes this thread's frame
    obs::with_capture(|| {
        unit_by_name(0);
        unit_by_id(0);
    });
    for i in 1..50 {
        let (n, snap) = obs::with_capture(|| allocations_in(|| unit_by_name(i)));
        assert_eq!(n, 0, "unit {i} allocated {n} times recording by name");
        assert_eq!(snap.counter("alloc.runs_done"), 1);
        assert_eq!(snap.hists["alloc.execns"].count, 2);
        assert_eq!(snap.hists["span.alloc.unit"].count, 1);

        let (n, snap) = obs::with_capture(|| allocations_in(|| unit_by_id(i)));
        assert_eq!(n, 0, "unit {i} allocated {n} times recording by id");
        assert_eq!(snap.counter("alloc.id.ops"), i);
        assert_eq!(snap.hists["alloc.id.execns"].count, 2);
        assert_eq!(snap.hists["span.alloc.id.unit"].count, 1);
    }
}

/// A journal frame's view of a unit: each counter and histogram, by id
/// in name order, folded into bytes the way a frame writer would.
fn frame_of(captured: &mut obs::Captured, out: &mut Vec<u8>) {
    captured.sort_by_name();
    for &(id, v) in captured.counters() {
        out.extend_from_slice(&(id.index() as u32).to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    captured.for_each_hist(|id, h| {
        out.extend_from_slice(&(id.index() as u32).to_le_bytes());
        for v in [h.count, h.sum, h.min, h.max] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for &n in &h.buckets {
            out.extend_from_slice(&n.to_le_bytes());
        }
    });
}

#[test]
fn a_warm_capture_closing_into_a_journal_frame_allocates_nothing() {
    obs::set_enabled(true);
    let mut captured = obs::Captured::default();
    let mut frame = Vec::with_capacity(4096);
    // warm-up unit: interns the names, sizes the frame and `captured`
    obs::capture_into(&mut captured, || {
        unit_by_name(0);
        unit_by_id(0);
    });
    frame_of(&mut captured, &mut frame);
    for i in 1..50 {
        captured.clear();
        frame.clear();
        let n = allocations_in(|| {
            obs::capture_into(&mut captured, || {
                unit_by_name(i);
                unit_by_id(i);
            });
            frame_of(&mut captured, &mut frame);
        });
        assert_eq!(n, 0, "unit {i} allocated {n} times from capture to frame");
        let snap = captured.to_snapshot();
        assert_eq!(snap.counter("alloc.id.ops"), i);
        assert_eq!(snap.hists["alloc.execns"].count, 2);
        assert_eq!(captured.counters().len(), snap.counters.len());
    }
}
