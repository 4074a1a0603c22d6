//! The per-thread capture frame behind [`crate::with_capture`].
//!
//! A frame holds one capture's counter deltas in a vector indexed by
//! metric [`Id`] and its histogram observations as raw `(id, sample)`
//! pairs. Each thread keeps a stack of frames (captures nest) and
//! reuses them from one capture to the next, so once a thread has seen
//! a unit's metrics, recording into a capture allocates nothing, hashes
//! nothing and looks nothing up. Closing a capture folds its frame into
//! the enclosing frame, or into the global registry by id, and copies its
//! counters and samples, still by id, into the caller's [`Captured`].

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::id::{self, Id};
use crate::snapshot::{HistSnapshot, MetricsSnapshot};

/// What one or more closed captures recorded, by metric id: counter
/// deltas and raw histogram samples. [`crate::capture_into`] appends a
/// capture to it, so one `Captured` can hold a unit's work and the
/// generation that preceded it. Cleared and reused from unit to unit, it
/// allocates only while it grows.
#[derive(Debug, Default, Clone)]
pub struct Captured {
    /// Counter deltas; an id appears once per capture that touched it.
    counters: Vec<(Id, u64)>,
    /// Histogram observations.
    samples: Vec<(Id, u64)>,
    /// The histogram [`Captured::for_each_hist`] lends out.
    hist: HistSnapshot,
}

impl Captured {
    /// Forget everything captured, keeping the buffers.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.samples.clear();
    }

    /// Put the counters and samples in metric-name order, each counter
    /// once (the deltas of captures that touched the same counter add
    /// up): the order a [`MetricsSnapshot`] lists them in.
    pub fn sort_by_name(&mut self) {
        id::with_names(|names| {
            let name = |&(id, _): &(Id, u64)| names[id.index()];
            self.counters.sort_unstable_by(|a, b| name(a).cmp(name(b)));
            self.counters.dedup_by(|later, first| {
                let same = later.0 == first.0;
                if same {
                    first.1 = first.1.wrapping_add(later.1);
                }
                same
            });
            self.samples.sort_unstable_by(|a, b| name(a).cmp(name(b)));
        });
    }

    /// Each counter's id and delta, in name order once
    /// [`Captured::sort_by_name`] ran.
    pub fn counters(&self) -> &[(Id, u64)] {
        &self.counters
    }

    /// Call `f` with each histogram's id and state, in name order once
    /// [`Captured::sort_by_name`] ran. The state is lent from a buffer
    /// this `Captured` reuses, so a warm call allocates nothing.
    pub fn for_each_hist(&mut self, mut f: impl FnMut(Id, &HistSnapshot)) {
        for run in self.samples.chunk_by(|a, b| a.0 == b.0) {
            self.hist.refill(run.iter().map(|&(_, v)| v));
            f(run[0].0, &self.hist);
        }
    }

    /// The name-keyed snapshot of everything captured.
    pub fn to_snapshot(&self) -> MetricsSnapshot {
        let mut samples = self.samples.clone();
        samples.sort_unstable_by_key(|&(id, _)| id);
        id::with_names(|names| {
            let mut counters = BTreeMap::new();
            for &(id, v) in &self.counters {
                let total: &mut u64 = counters.entry(names[id.index()].to_string()).or_default();
                *total = total.wrapping_add(v);
            }
            let hists: BTreeMap<String, HistSnapshot> = samples
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| {
                    let name = names[run[0].0.index()].to_string();
                    (name, HistSnapshot::of_samples(run.iter().map(|&(_, v)| v)))
                })
                .collect();
            MetricsSnapshot { counters, hists }
        })
    }
}

#[derive(Default)]
struct Frame {
    /// Counter deltas by id; meaningful only where `seen` is set.
    counts: Vec<u64>,
    /// Whether the counter with this id was touched in this capture.
    seen: Vec<bool>,
    /// Touched counter ids, in first-touch order.
    touched: Vec<Id>,
    /// Histogram observations, in record order.
    samples: Vec<(Id, u64)>,
}

impl Frame {
    fn clear(&mut self) {
        for id in self.touched.drain(..) {
            self.seen[id.index()] = false;
        }
        self.samples.clear();
    }

    #[inline]
    fn add(&mut self, id: Id, n: u64) {
        let i = id.index();
        if i >= self.seen.len() {
            // Size for every id interned so far, so a warmed-up frame
            // never grows again for names it has already met.
            let len = (i + 1).max(id::count()).next_power_of_two();
            self.counts.resize(len, 0);
            self.seen.resize(len, false);
        }
        if !self.seen[i] {
            self.seen[i] = true;
            self.counts[i] = 0;
            self.touched.push(id);
        }
        self.counts[i] = self.counts[i].wrapping_add(n);
    }

    /// Fold this (closing) frame into `outer`: exactly as if every
    /// operation had been recorded there directly.
    fn fold_into(&self, outer: &mut Frame) {
        for &id in &self.touched {
            outer.add(id, self.counts[id.index()]);
        }
        outer.samples.extend_from_slice(&self.samples);
    }

    /// Fold this (closing) frame into the global registry.
    fn fold_global(&self) {
        crate::global().fold(
            self.touched.iter().map(|&id| (id, self.counts[id.index()])),
            self.samples.iter().copied(),
        );
    }

    /// Append this frame's counters and samples to `out`.
    fn copy_into(&self, out: &mut Captured) {
        out.counters.extend(self.touched.iter().map(|&id| (id, self.counts[id.index()])));
        out.samples.extend_from_slice(&self.samples);
    }
}

struct Stack {
    /// Number of open captures; `frames[..depth]` are live.
    depth: usize,
    /// Frames kept for reuse, live or not.
    frames: Vec<Frame>,
}

thread_local! {
    static STACK: RefCell<Stack> = const { RefCell::new(Stack { depth: 0, frames: Vec::new() }) };
}

/// Route one counter add to this thread's innermost capture. Returns
/// `false` when no capture is open (the caller records globally).
#[inline]
pub(crate) fn add(id: Id, n: u64) -> bool {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let Some(d) = s.depth.checked_sub(1) else { return false };
        s.frames[d].add(id, n);
        true
    })
}

/// Route one histogram observation to this thread's innermost capture.
/// Returns `false` when no capture is open.
#[inline]
pub(crate) fn record(id: Id, v: u64) -> bool {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let Some(d) = s.depth.checked_sub(1) else { return false };
        s.frames[d].samples.push((id, v));
        true
    })
}

/// Open a capture on this thread; returns the depth to restore if it is
/// abandoned.
pub(crate) fn open() -> usize {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let d = s.depth;
        if s.frames.len() == d {
            s.frames.push(Frame::default());
        }
        s.frames[d].clear();
        s.depth = d + 1;
        d
    })
}

/// Drop the captures opened at `depth` and above without folding them
/// (a panic unwound through them).
pub(crate) fn abandon(depth: usize) {
    STACK.with(|s| s.borrow_mut().depth = depth);
}

/// Close this thread's innermost capture: fold it into the enclosing
/// capture (or the global registry) and append it to `out`.
pub(crate) fn close(out: &mut Captured) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        let d = s.depth - 1;
        s.depth = d;
        let (outer, inner) = s.frames.split_at_mut(d);
        let frame = &inner[0];
        frame.copy_into(out);
        match outer.last_mut() {
            Some(o) => frame.fold_into(o),
            None => frame.fold_global(),
        }
    })
}
