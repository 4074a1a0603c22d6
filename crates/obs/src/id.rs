//! Dense, process-wide metric ids.
//!
//! Every metric name is interned once, the first time anything names
//! it, and gets the next [`Id`]: 0, 1, 2, … Registries and the
//! per-thread capture frame keep their metrics in plain vectors indexed
//! by id, so recording through an id costs an index, not a map lookup.
//!
//! Instrumentation sites hold ids. A fixed name is a `static` [`Name`]
//! (or [`SpanName`] for a span) that resolves its id on first use; a
//! name table built at run time (`gpucc::names`) interns each entry
//! once with [`intern`]. The string-keyed [`crate::add`] and
//! [`crate::record`] remain as the cold path: intern, then index.
//!
//! Interning a name registers no metric: a snapshot still lists only
//! the metrics recorded since the last reset.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{LazyLock, PoisonError, RwLock};

use crate::span::Span;

/// A metric's dense process-wide id. Ids are assigned in first-intern
/// order and are stable for the life of the process, not across
/// processes: anything persisted stores the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Id(u32);

impl Id {
    /// Position of this id in an id-indexed table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The metric name this id was interned from.
    pub fn name(self) -> &'static str {
        read().names[self.index()]
    }
}

#[derive(Default)]
struct Table {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

static TABLE: LazyLock<RwLock<Table>> = LazyLock::new(Default::default);

fn read() -> std::sync::RwLockReadGuard<'static, Table> {
    TABLE.read().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` over the whole name table, indexed by [`Id::index`], under
/// one lock acquisition (snapshots name every metric this way).
pub(crate) fn with_names<R>(f: impl FnOnce(&[&'static str]) -> R) -> R {
    f(&read().names)
}

/// How many names have been interned (one past the largest id).
pub(crate) fn count() -> usize {
    read().names.len()
}

fn intern_with(name: &str, keep: impl FnOnce() -> &'static str) -> Id {
    if let Some(&id) = read().ids.get(name) {
        return Id(id);
    }
    let mut t = TABLE.write().unwrap_or_else(PoisonError::into_inner);
    if let Some(&id) = t.ids.get(name) {
        return Id(id);
    }
    let id = u32::try_from(t.names.len()).expect("metric id space exhausted");
    let kept = keep();
    t.names.push(kept);
    t.ids.insert(kept, id);
    Id(id)
}

/// The id of `name`, interning it on first use. Names form a bounded
/// vocabulary (instrumentation sites are code, not data), so each
/// distinct name is copied once and kept for the life of the process.
pub fn intern(name: &str) -> Id {
    intern_with(name, || Box::leak(name.into()))
}

/// The id of the `span.{name}` histogram a span called `name` records
/// into. The key is assembled on the stack, so only the first sighting
/// of a name allocates.
pub(crate) fn intern_span(name: &str) -> Id {
    const PREFIX: &[u8] = b"span.";
    let mut buf = [0u8; 128];
    let len = PREFIX.len() + name.len();
    if len > buf.len() {
        return intern(&format!("span.{name}"));
    }
    buf[..PREFIX.len()].copy_from_slice(PREFIX);
    buf[PREFIX.len()..len].copy_from_slice(name.as_bytes());
    intern(std::str::from_utf8(&buf[..len]).expect("a str plus an ASCII prefix is UTF-8"))
}

const UNRESOLVED: u32 = u32::MAX;

/// A fixed metric name that resolves its [`Id`] on first use. Declare
/// one `static` per instrumentation site:
///
/// ```
/// static RUNS: obs::Name = obs::Name::new("demo.runs");
/// RUNS.add(1);
/// assert_eq!(obs::snapshot().counter("demo.runs"), 1);
/// ```
pub struct Name {
    name: &'static str,
    id: AtomicU32,
}

impl Name {
    /// A handle for `name`; nothing is interned until first use.
    pub const fn new(name: &'static str) -> Name {
        Name { name, id: AtomicU32::new(UNRESOLVED) }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The name's id: one relaxed load once resolved.
    #[inline]
    pub fn id(&self) -> Id {
        match self.id.load(Ordering::Relaxed) {
            UNRESOLVED => self.resolve(),
            id => Id(id),
        }
    }

    #[cold]
    fn resolve(&self) -> Id {
        let id = intern_with(self.name, || self.name);
        self.id.store(id.0, Ordering::Relaxed);
        id
    }

    /// Bump this counter by `n` ([`crate::add_id`]).
    #[inline]
    pub fn add(&self, n: u64) {
        crate::add_id(self.id(), n);
    }

    /// Record one observation in this histogram ([`crate::record_id`]).
    #[inline]
    pub fn record(&self, v: u64) {
        crate::record_id(self.id(), v);
    }
}

/// A fixed span name whose `span.{name}` histogram id resolves on first
/// use, so opening and closing the span looks nothing up.
///
/// ```
/// static PHASE: obs::SpanName = obs::SpanName::new("demo.spanname");
/// drop(PHASE.start());
/// assert_eq!(obs::snapshot().hists["span.demo.spanname"].count, 1);
/// ```
pub struct SpanName {
    name: &'static str,
    hist: AtomicU32,
}

impl SpanName {
    /// A handle for the span `name`; nothing is interned until first use.
    pub const fn new(name: &'static str) -> SpanName {
        SpanName { name, hist: AtomicU32::new(UNRESOLVED) }
    }

    /// The id of the span's `span.{name}` histogram.
    #[inline]
    pub fn hist(&self) -> Id {
        match self.hist.load(Ordering::Relaxed) {
            UNRESOLVED => {
                let id = intern_span(self.name);
                self.hist.store(id.0, Ordering::Relaxed);
                id
            }
            id => Id(id),
        }
    }

    /// Start timing this span now ([`crate::span`] without the lookup).
    #[inline]
    pub fn start(&self) -> Span {
        Span::with_hist(self.name, self.hist())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_ids_name_their_metric() {
        let a = intern("obs.test.id.a");
        let b = intern("obs.test.id.b");
        assert_ne!(a, b);
        assert_eq!(intern("obs.test.id.a"), a);
        assert_eq!(a.name(), "obs.test.id.a");
        assert_eq!(b.name(), "obs.test.id.b");
    }

    #[test]
    fn static_handles_share_the_interned_id() {
        static N: Name = Name::new("obs.test.id.static");
        assert_eq!(N.id(), intern("obs.test.id.static"));
        assert_eq!(N.id(), N.id());
        static S: SpanName = SpanName::new("obs.test.id.span");
        assert_eq!(S.hist(), intern("span.obs.test.id.span"));
        assert_eq!(intern_span("obs.test.id.span"), S.hist());
    }

    #[test]
    fn long_span_names_intern_through_the_heap() {
        let long = "x".repeat(300);
        assert_eq!(intern_span(&long).name(), format!("span.{long}"));
    }

    #[test]
    fn interning_registers_no_metric() {
        let r = crate::Registry::new();
        intern("obs.test.id.silent");
        assert!(r.snapshot().is_empty());
    }
}
