//! Frozen, serializable views of the metric registry.
//!
//! A [`MetricsSnapshot`] is what rides inside `CampaignMeta` through the
//! between-platform save/load/merge protocol, and what the JSONL writer
//! and the `analyze --profile` table render from.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::hist::{bucket_high, bucket_of};

/// Frozen state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Log2 bucket counts, trailing zeros trimmed (bucket `b` holds
    /// values of bit length `b`; bucket 0 holds the value 0).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The snapshot of a histogram that recorded exactly `samples`:
    /// identical to recording each into a fresh [`crate::Histogram`]
    /// and snapshotting it.
    pub fn of_samples(samples: impl IntoIterator<Item = u64>) -> HistSnapshot {
        let mut h = HistSnapshot::default();
        h.refill(samples);
        h
    }

    /// Make this the snapshot of a histogram that recorded exactly
    /// `samples` ([`HistSnapshot::of_samples`]), reusing its bucket
    /// buffer.
    pub fn refill(&mut self, samples: impl IntoIterator<Item = u64>) {
        let h = self;
        h.buckets.clear();
        (h.count, h.sum, h.min, h.max) = (0, 0, 0, 0);
        for v in samples {
            let b = bucket_of(v);
            if h.buckets.len() <= b {
                h.buckets.resize(b + 1, 0);
            }
            h.buckets[b] += 1;
            h.min = if h.count == 0 { v } else { h.min.min(v) };
            h.max = h.max.max(v);
            h.sum = h.sum.wrapping_add(v);
            h.count += 1;
        }
    }

    /// Bucket-resolution quantile estimate: the upper bound of the
    /// bucket containing the `q`-th observation (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_high(b).min(self.max);
            }
        }
        self.max
    }

    /// Fold another snapshot into this one (exact for count/sum,
    /// bucket-wise for the distribution).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
    }
}

/// Every counter and histogram in a registry, frozen at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter name → total.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → frozen distribution.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// True when no metric was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another snapshot into this one: counters add, histograms
    /// merge bucket-wise. Used when merging sharded / per-platform
    /// campaign halves.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// The sub-snapshot whose metric names start with `prefix`
    /// (`filter_prefix("farm.")` keeps `farm.respawns` but not
    /// `campaign.runs_done`). The farm status endpoint uses this to
    /// embed one subsystem's counters without dragging the whole
    /// registry into every poll response.
    pub fn filter_prefix(&self, prefix: &str) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            hists: self
                .hists
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(k, h)| (k.clone(), h.clone()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[u64]) -> HistSnapshot {
        let h = crate::Histogram::new();
        for &v in vals {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("x".into(), 2);
        a.hists.insert("h".into(), hist(&[1, 100]));
        let mut b = MetricsSnapshot::default();
        b.counters.insert("x".into(), 3);
        b.counters.insert("y".into(), 1);
        b.hists.insert("h".into(), hist(&[50]));
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        let h = &a.hists["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 151);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
    }

    #[test]
    fn of_samples_equals_a_recorded_histogram() {
        for vals in [&[][..], &[0], &[7], &[5, 10, 100], &[u64::MAX, 1, 0, 3]] {
            assert_eq!(HistSnapshot::of_samples(vals.iter().copied()), hist(vals), "{vals:?}");
        }
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        b.hists.insert("h".into(), hist(&[7]));
        a.merge(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn quantile_brackets_the_data() {
        let h = hist(&[1, 2, 3, 4, 1000]);
        assert!(h.quantile(0.0) >= 1);
        assert!(h.quantile(0.5) <= 7); // median 3 lives in bucket [2,3]
        assert_eq!(h.quantile(1.0), 1000); // clamped to exact max
    }

    #[test]
    fn filter_prefix_keeps_only_matching_metrics() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("farm.respawns".into(), 3);
        s.counters.insert("farm.lease_expiries".into(), 1);
        s.counters.insert("campaign.runs_done".into(), 99);
        s.hists.insert("farm.drain_ms".into(), hist(&[5]));
        s.hists.insert("span.campaign.generate".into(), hist(&[7]));
        let f = s.filter_prefix("farm.");
        assert_eq!(f.counters.len(), 2);
        assert_eq!(f.counter("farm.respawns"), 3);
        assert_eq!(f.counter("campaign.runs_done"), 0);
        assert_eq!(f.hists.len(), 1);
        assert!(f.hists.contains_key("farm.drain_ms"));
        // empty prefix = identity
        assert_eq!(s.filter_prefix(""), s);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("a.b".into(), 9);
        s.hists.insert("span.x".into(), hist(&[3, 3, 3]));
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
