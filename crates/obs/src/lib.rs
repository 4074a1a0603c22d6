//! Telemetry for the differential-testing pipeline.
//!
//! Atomic counters, log2-bucketed latency histograms, and scoped span
//! timers behind a process-global registry, built on `std` alone. The
//! design goal is that recording costs little next to the work it
//! measures. Every metric name is interned once into a dense
//! process-wide [`Id`] ([`id`]), and hot instrumentation sites hold
//! those ids in `static` [`Name`]s and [`SpanName`]s. A campaign's work
//! units record into [`with_capture`]'s per-thread frame: an array of
//! counter deltas indexed by id plus raw histogram samples, reused from
//! unit to unit, so recording there allocates nothing, hashes nothing
//! and touches no shared cache line.
//!
//! Everything funnels into a [`MetricsSnapshot`] — a plain serde value
//! that rides inside `CampaignMeta` so between-platform runs carry their
//! telemetry — and optionally into a JSONL event log via [`JsonlWriter`].
//!
//! Instrumentation sites call the free functions in this module
//! ([`add`], [`record`], [`span`] by name; [`add_id`], [`record_id`] by
//! id) or the methods of a [`Name`]; they are no-ops (beyond one
//! relaxed atomic load) when telemetry is disabled with
//! [`set_enabled`], which is what the overhead guard in `crates/bench`
//! measures against.

#![deny(missing_docs)]

mod capture;
pub mod counter;
pub mod hist;
pub mod id;
pub mod jsonl;
pub mod prom;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use capture::Captured;
pub use counter::Counter;
pub use hist::Histogram;
pub use id::{Id, Name, SpanName};
pub use jsonl::JsonlWriter;
pub use registry::{global, Registry};
pub use snapshot::{HistSnapshot, MetricsSnapshot};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide on/off switch. Telemetry defaults to enabled; the bench
/// overhead guard and throughput-sensitive callers may turn it off.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether telemetry is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable telemetry recording.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Bump counter `id` by `n`: into this thread's innermost
/// [`with_capture`] frame when one is open, else into the global
/// registry (no-op when disabled).
#[inline]
pub fn add_id(id: Id, n: u64) {
    if enabled() && !capture::add(id, n) {
        global().add_at(id, n);
    }
}

/// Record one observation in histogram `id`, routed like [`add_id`].
#[inline]
pub fn record_id(id: Id, value: u64) {
    if enabled() && !capture::record(id, value) {
        global().record_at(id, value);
    }
}

/// Bump the named counter by `n` (no-op when disabled). The cold path:
/// interns `name`, then [`add_id`].
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        add_id(id::intern(name), n);
    }
}

/// Record one observation in the named histogram (no-op when
/// disabled). The cold path: interns `name`, then [`record_id`].
#[inline]
pub fn record(name: &str, value: u64) {
    if enabled() {
        record_id(id::intern(name), value);
    }
}

/// Run `f` with a capture open on this thread, then fold the captured
/// metrics into the enclosing capture (or the global registry) and
/// return them alongside `f`'s result.
///
/// Every `obs::add` / `obs::record` / `obs::span` issued on this thread
/// while `f` runs lands only in the capture; the fold at the end keeps
/// global totals identical to an uncaptured run. The fault-tolerant
/// campaign runner uses this to stamp each work unit's exact metric
/// deltas into its checkpoint journal record, so a resumed campaign can
/// replay the telemetry of work it skips.
///
/// The capture is a per-thread frame reused across calls: recording into
/// it indexes arrays by metric id, and only this call builds the
/// returned name-keyed snapshot ([`capture_into`] builds none). Captures
/// nest per thread (the innermost wins). A panic caught inside `f`
/// leaves the capture open and recording; a panic that unwinds out of
/// `f` discards the capture without folding it and restores the
/// enclosing routing.
pub fn with_capture<R>(f: impl FnOnce() -> R) -> (R, MetricsSnapshot) {
    let mut captured = Captured::default();
    let out = capture_into(&mut captured, f);
    (out, captured.to_snapshot())
}

/// [`with_capture`] that appends the captured metrics to `into`, by id,
/// instead of building a snapshot: the campaign runner's per-unit path,
/// which encodes a unit's journal frame straight from `into`. With a
/// warm frame and a warm `into`, capturing allocates nothing.
pub fn capture_into<R>(into: &mut Captured, f: impl FnOnce() -> R) -> R {
    struct Abandon(usize);
    impl Drop for Abandon {
        fn drop(&mut self) {
            capture::abandon(self.0);
        }
    }

    let guard = Abandon(capture::open());
    let out = f();
    std::mem::forget(guard);
    capture::close(into);
    out
}

/// Start a scoped timer; on drop it records elapsed nanoseconds into the
/// histogram `span.{name}`. The histogram id is interned when the span
/// opens, so closing it looks nothing up; a hot site holds a `static`
/// [`SpanName`] and skips even that. While a trace is active
/// ([`trace::start`]) the span also records a [`trace::TraceEvent`];
/// attach attributes with [`Span::attr`].
pub fn span(name: &'static str) -> Span {
    Span::start(name)
}

/// Snapshot every metric in the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Drop all metrics from the global registry (used at campaign start and
/// in tests so runs don't bleed into each other).
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod capture_tests {
    #[test]
    fn capture_isolates_and_folds_back() {
        let before = crate::global().counter("obs.test.capture.c").value();
        let ((), snap) = crate::with_capture(|| {
            crate::add("obs.test.capture.c", 5);
            crate::record("obs.test.capture.h", 9);
            let _s = crate::span("obs.test.capture");
        });
        assert_eq!(snap.counter("obs.test.capture.c"), 5);
        assert_eq!(snap.hists["obs.test.capture.h"].count, 1);
        assert_eq!(snap.hists["span.obs.test.capture"].count, 1);
        assert_eq!(crate::global().counter("obs.test.capture.c").value(), before + 5);
    }

    #[test]
    fn capture_nests_and_folds_into_outer() {
        let ((), outer) = crate::with_capture(|| {
            crate::add("obs.test.nest", 1);
            let ((), inner) = crate::with_capture(|| crate::add("obs.test.nest", 2));
            assert_eq!(inner.counter("obs.test.nest"), 2);
        });
        assert_eq!(outer.counter("obs.test.nest"), 3);
    }

    #[test]
    fn capture_restores_routing_after_panic() {
        let caught = std::panic::catch_unwind(|| {
            crate::with_capture(|| panic!("boom"));
        });
        assert!(caught.is_err());
        let before = crate::global().counter("obs.test.capture.after").value();
        crate::add("obs.test.capture.after", 1);
        assert_eq!(crate::global().counter("obs.test.capture.after").value(), before + 1);
    }

    #[test]
    fn merge_snapshot_restores_exact_totals() {
        let src = crate::Registry::new();
        src.counter("c").add(7);
        src.counter("zero"); // registered, never bumped
        src.hist("h").record(3);
        src.hist("h").record(300);
        let snap = src.snapshot();

        let dst = crate::Registry::new();
        dst.counter("c").add(1);
        dst.merge_snapshot(&snap);
        let out = dst.snapshot();
        assert_eq!(out.counter("c"), 8);
        assert!(out.counters.contains_key("zero"));
        assert_eq!(out.hists["h"].count, 2);
        assert_eq!(out.hists["h"].sum, 303);
        assert_eq!(out.hists["h"].min, 3);
        assert_eq!(out.hists["h"].max, 300);
    }
}
