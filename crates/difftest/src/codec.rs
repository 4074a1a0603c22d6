//! The `VGJRNL03` checkpoint-journal payload: one [`UnitRecord`] per
//! CRC frame, in a compact binary form.
//!
//! Integers are LEB128 varints unless noted, strings are a varint byte
//! length plus UTF-8 bytes:
//!
//! ```text
//! unit    := index side:u8 n_defs name* n_records record* n_faults fault*
//!            n_counters (id value)* n_hists (id hist)*
//! side    := side * 8 + level                       one byte: Side and OptLevel index
//! name    := str                                    defines the next journal-local id
//! record  := flags:u8 bits:(u32 | u64 LE) [exceptions:u8] printed:str [error:str]
//!            flags: outcome index (bits 0-1), 4 = bits fit in a u32,
//!                   8 = exceptions byte follows, 16 = error follows
//! fault   := index program_id:str seed side:str kind:u8 detail:str
//! hist    := 1 sample                               exactly one observation
//!          | 0 count sum min max len n_set (bucket n)*   anything else
//! ```
//!
//! Metric names are journal-local ids. A frame defines each name the
//! first time the journal uses it, so ids never depend on the process or
//! build that wrote them: a reader rebuilds the table frame by frame and
//! maps ids back to names. A name defined twice (a frame whose append
//! was reported failed after it reached the disk) simply has two ids.
//! Decoding is total: truncated, overlong or inconsistent bytes yield
//! `None`, never a panic.
//!
//! One encoder ([`Names::encode`]) writes every frame, from any
//! [`UnitMetrics`]: a live unit's [`obs::Captured`], encoded by metric id
//! with no name-keyed snapshot in between, or a [`MetricsSnapshot`] (a
//! v1/v2 journal's units being migrated, or a caller's own
//! [`UnitRecord`]). Counters and histograms go in metric-name order, so
//! the two give the same bytes for the same telemetry.

use crate::checkpoint::UnitRecord;
use crate::fault::{FaultKind, TestFault};
use crate::metadata::RunRecord;
use crate::side::{Side, SideKey};
use fpcore::classify::Outcome;
use fpcore::exceptions::ExceptionFlags;
use gpucc::pipeline::OptLevel;
use obs::{HistSnapshot, Id, MetricsSnapshot};
use std::collections::BTreeMap;

const BITS32: u8 = 4;
const EXCEPTIONS: u8 = 8;
const ERROR: u8 = 16;
const FAULT_KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::StepBudget, FaultKind::Timeout];

/// A unit's telemetry as [`Names::encode`] reads it: counters, then
/// histograms, each list in metric-name order.
pub(crate) trait UnitMetrics {
    /// Put the lists in metric-name order, if they are not already.
    fn sort_by_name(&mut self) {}
    /// Call `f` with each counter's metric and value.
    fn counters(&mut self, f: impl FnMut(Id, u64));
    /// Call `f` with each histogram's metric and state.
    fn hists(&mut self, f: impl FnMut(Id, &HistSnapshot));
}

/// A live unit: what its captures recorded, by metric id.
impl UnitMetrics for &mut obs::Captured {
    fn sort_by_name(&mut self) {
        obs::Captured::sort_by_name(self);
    }

    fn counters(&mut self, mut f: impl FnMut(Id, u64)) {
        for &(id, v) in obs::Captured::counters(self) {
            f(id, v);
        }
    }

    fn hists(&mut self, f: impl FnMut(Id, &HistSnapshot)) {
        self.for_each_hist(f);
    }
}

/// A name-keyed snapshot, whose maps already list it in name order.
impl UnitMetrics for &MetricsSnapshot {
    fn counters(&mut self, mut f: impl FnMut(Id, u64)) {
        for (name, &v) in &self.counters {
            f(obs::id::intern(name), v);
        }
    }

    fn hists(&mut self, mut f: impl FnMut(Id, &HistSnapshot)) {
        for (name, h) in &self.hists {
            f(obs::id::intern(name), h);
        }
    }
}

/// The journal-local metric-name table, built up frame by frame by the
/// writer and rebuilt the same way by a reader.
#[derive(Default)]
pub(crate) struct Names {
    /// Each journal-local id's metric, in definition order.
    metrics: Vec<Id>,
    /// The first journal-local id of each metric plus one (0 while the
    /// journal has not defined it), indexed by [`Id::index`].
    local: Vec<u32>,
    /// Per-metric ids of the unit being encoded (reused buffer).
    unit_ids: Vec<u32>,
}

impl Names {
    /// Number of names defined so far.
    pub(crate) fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Forget every name defined after the first `len` (the frame that
    /// defined them never reached the journal).
    pub(crate) fn truncate(&mut self, len: usize) {
        for metric in self.metrics.drain(len..) {
            let first = &mut self.local[metric.index()];
            if *first as usize > len {
                *first = 0;
            }
        }
    }

    /// Give `metric` the next journal-local id.
    fn define(&mut self, metric: Id) -> u32 {
        let id = self.metrics.len() as u32;
        self.metrics.push(metric);
        if self.local.len() <= metric.index() {
            self.local.resize(metric.index() + 1, 0);
        }
        if self.local[metric.index()] == 0 {
            self.local[metric.index()] = id + 1;
        }
        id
    }

    /// `metric`'s journal-local id, defining it if this journal has not
    /// used it before.
    fn local_or_define(&mut self, metric: Id) -> u32 {
        match self.local.get(metric.index()) {
            Some(&first) if first > 0 => first - 1,
            _ => self.define(metric),
        }
    }

    /// Append the frame payload of one unit (`records` and `faults` of
    /// test `index` on `side`, with `metrics`) to `out`, defining the
    /// metric names this journal has not used before.
    pub(crate) fn encode(
        &mut self,
        out: &mut Vec<u8>,
        index: u64,
        side: SideKey,
        records: &[RunRecord],
        faults: &[TestFault],
        mut metrics: impl UnitMetrics,
    ) {
        metrics.sort_by_name();
        let base = self.metrics.len();
        let mut ids = std::mem::take(&mut self.unit_ids);
        ids.clear();
        metrics.counters(|metric, _| ids.push(self.local_or_define(metric)));
        let (n_counters, mut at) = (ids.len(), 0);
        metrics.hists(|metric, _| ids.push(self.local_or_define(metric)));

        put(out, index);
        out.push(side.side as u8 * 8 + side.level.index() as u8);
        put(out, (self.metrics.len() - base) as u64);
        for metric in &self.metrics[base..] {
            put_str(out, metric.name());
        }
        put(out, records.len() as u64);
        for r in records {
            put_record(out, r);
        }
        put(out, faults.len() as u64);
        for f in faults {
            put(out, f.index);
            put_str(out, &f.program_id);
            put(out, f.seed);
            put_str(out, &f.side);
            out.push(f.kind as u8);
            put_str(out, &f.detail);
        }
        put(out, n_counters as u64);
        metrics.counters(|_, v| {
            put(out, ids[at].into());
            put(out, v);
            at += 1;
        });
        put(out, (ids.len() - n_counters) as u64);
        metrics.hists(|_, h| {
            put(out, ids[at].into());
            put_hist(out, h);
            at += 1;
        });
        self.unit_ids = ids;
    }

    /// [`Names::encode`] of a whole unit record.
    pub(crate) fn encode_record(&mut self, out: &mut Vec<u8>, unit: &UnitRecord) {
        self.encode(out, unit.index, unit.side, &unit.records, &unit.faults, &unit.metrics);
    }

    /// Decode one frame payload, defining the names it carries. A
    /// payload that does not decode defines nothing.
    pub(crate) fn decode(&mut self, payload: &[u8]) -> Option<UnitRecord> {
        let base = self.metrics.len();
        let unit = self.decode_unit(&mut Reader(payload));
        if unit.is_none() {
            self.truncate(base);
        }
        unit
    }

    fn decode_unit(&mut self, r: &mut Reader<'_>) -> Option<UnitRecord> {
        let index = r.varint()?;
        let side = r.u8()?;
        let side = SideKey {
            side: *Side::ALL.get(usize::from(side / 8))?,
            level: *OptLevel::ALL.get(usize::from(side % 8))?,
        };
        for _ in 0..r.count()? {
            let name = r.str()?;
            self.define(obs::id::intern(name));
        }
        let records = (0..r.count()?).map(|_| get_record(r)).collect::<Option<Vec<_>>>()?;
        let faults = (0..r.count()?)
            .map(|_| {
                Some(TestFault {
                    index: r.varint()?,
                    program_id: r.str()?.to_string(),
                    seed: r.varint()?,
                    side: r.str()?.to_string(),
                    kind: *FAULT_KINDS.get(usize::from(r.u8()?))?,
                    detail: r.str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let mut counters = BTreeMap::new();
        for _ in 0..r.count()? {
            let name = self.name(r.varint()?)?;
            counters.insert(name, r.varint()?);
        }
        let mut hists = BTreeMap::new();
        for _ in 0..r.count()? {
            let name = self.name(r.varint()?)?;
            hists.insert(name, get_hist(r)?);
        }
        if !r.0.is_empty() {
            return None;
        }
        Some(UnitRecord {
            index,
            side,
            records,
            faults,
            metrics: MetricsSnapshot { counters, hists },
        })
    }

    fn name(&self, id: u64) -> Option<String> {
        Some(self.metrics.get(usize::try_from(id).ok()?)?.name().to_string())
    }
}

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_record(out: &mut Vec<u8>, r: &RunRecord) {
    let outcome = Outcome::ALL.iter().position(|&o| o == r.outcome).unwrap_or(0) as u8;
    let narrow = u32::try_from(r.bits).is_ok();
    let exceptions = r.exceptions.bits();
    let flags = outcome
        | if narrow { BITS32 } else { 0 }
        | if exceptions != 0 { EXCEPTIONS } else { 0 }
        | if r.error.is_some() { ERROR } else { 0 };
    out.push(flags);
    if narrow {
        out.extend_from_slice(&(r.bits as u32).to_le_bytes());
    } else {
        out.extend_from_slice(&r.bits.to_le_bytes());
    }
    if exceptions != 0 {
        out.push(exceptions);
    }
    put_str(out, &r.printed);
    if let Some(e) = &r.error {
        put_str(out, e);
    }
}

fn get_record(r: &mut Reader<'_>) -> Option<RunRecord> {
    let flags = r.u8()?;
    if flags & !(3 | BITS32 | EXCEPTIONS | ERROR) != 0 {
        return None;
    }
    let bits = if flags & BITS32 != 0 {
        u64::from(u32::from_le_bytes(r.take(4)?.try_into().ok()?))
    } else {
        u64::from_le_bytes(r.take(8)?.try_into().ok()?)
    };
    let exceptions = if flags & EXCEPTIONS != 0 { r.u8()? } else { 0 };
    Some(RunRecord {
        bits,
        outcome: Outcome::ALL[usize::from(flags & 3)],
        exceptions: ExceptionFlags::from_bits(exceptions),
        printed: r.str()?.to_string(),
        error: if flags & ERROR != 0 { Some(r.str()?.to_string()) } else { None },
    })
}

/// Whether `h` is exactly `HistSnapshot::of_samples([h.sum])`: one
/// observation, in its bucket, and nothing else (compared in place).
fn is_one_sample(h: &HistSnapshot) -> bool {
    let b = obs::hist::bucket_of(h.sum);
    h.count == 1
        && (h.min, h.max) == (h.sum, h.sum)
        && h.buckets.len() == b + 1
        && h.buckets[b] == 1
        && h.buckets[..b].iter().all(|&n| n == 0)
}

fn put_hist(out: &mut Vec<u8>, h: &HistSnapshot) {
    if is_one_sample(h) {
        put(out, 1);
        put(out, h.sum);
        return;
    }
    put(out, 0);
    for v in [h.count, h.sum, h.min, h.max, h.buckets.len() as u64] {
        put(out, v);
    }
    put(out, h.buckets.iter().filter(|&&n| n > 0).count() as u64);
    for (b, &n) in h.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
        put(out, b as u64);
        put(out, n);
    }
}

fn get_hist(r: &mut Reader<'_>) -> Option<HistSnapshot> {
    match r.varint()? {
        1 => Some(HistSnapshot::of_samples([r.varint()?])),
        0 => {
            let (count, sum, min, max) = (r.varint()?, r.varint()?, r.varint()?, r.varint()?);
            let len = usize::try_from(r.varint()?).ok().filter(|&n| n <= obs::hist::BUCKETS)?;
            let mut buckets = vec![0; len];
            for _ in 0..r.count()? {
                let b = usize::try_from(r.varint()?).ok()?;
                *buckets.get_mut(b)? = r.varint()?;
            }
            Some(HistSnapshot { count, sum, min, max, buckets })
        }
        _ => None,
    }
}

/// A bounds-checked cursor over a payload.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return None;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    /// An item count: every item takes at least one byte, so a count
    /// larger than what is left is corrupt (and never allocated for).
    fn count(&mut self) -> Option<usize> {
        usize::try_from(self.varint()?).ok().filter(|&n| n <= self.0.len())
    }

    fn str(&mut self) -> Option<&'a str> {
        let n = usize::try_from(self.varint()?).ok()?;
        std::str::from_utf8(self.take(n)?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(index: u64) -> UnitRecord {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("campaign.runs_done".into(), 7);
        metrics.counters.insert("zero".into(), 0);
        metrics.hists.insert("span.campaign.unit".into(), HistSnapshot::of_samples([12_345]));
        metrics.hists.insert("vm.execns".into(), HistSnapshot::of_samples([3, 300, 30_000]));
        UnitRecord {
            index,
            side: SideKey::new(Side::Hipcc, OptLevel::O3Fm),
            records: vec![
                RunRecord {
                    bits: 0x3FF0_0000_0000_0000,
                    outcome: Outcome::Num,
                    printed: "1".into(),
                    exceptions: ExceptionFlags::from_bits(0b10001),
                    error: None,
                },
                RunRecord {
                    bits: 0x7FC0_0000,
                    outcome: Outcome::Nan,
                    printed: String::new(),
                    exceptions: ExceptionFlags::new(),
                    error: Some("step budget".into()),
                },
            ],
            faults: vec![TestFault {
                index,
                program_id: "varity_fp64_000003".into(),
                seed: u64::MAX,
                side: "hipcc:O3_FM".into(),
                kind: FaultKind::Timeout,
                detail: "slow".into(),
            }],
            metrics,
        }
    }

    #[test]
    fn units_roundtrip_and_names_are_defined_once() {
        let (mut w, mut r) = (Names::default(), Names::default());
        let mut first = Vec::new();
        w.encode_record(&mut first, &unit(3));
        let mut second = Vec::new();
        w.encode_record(&mut second, &unit(4));
        assert!(second.len() < first.len(), "the second frame reuses the first's names");
        assert_eq!(r.decode(&first), Some(unit(3)));
        assert_eq!(r.decode(&second), Some(unit(4)));
        // a reader that missed the defining frame cannot decode the next
        assert_eq!(Names::default().decode(&second), None);
    }

    #[test]
    fn a_frame_encoded_from_a_capture_equals_the_frame_of_its_snapshot() {
        let mut captured = obs::Captured::default();
        obs::capture_into(&mut captured, || {
            obs::add("codec.capture.runs", 3);
            obs::add("codec.capture.zero", 0);
            for v in [300, 30_000, 3] {
                obs::record("codec.capture.execns", v);
            }
            obs::record("codec.capture.one", 7);
        });
        // a second capture, as a test's generation rides on its first unit
        obs::capture_into(&mut captured, || {
            obs::add("codec.capture.runs", 2);
            obs::add("codec.capture.gen", 1);
            obs::record("codec.capture.execns", 0);
        });
        let mut u = unit(2);
        u.metrics = captured.to_snapshot();
        assert_eq!(u.metrics.counter("codec.capture.runs"), 5);
        assert_eq!(u.metrics.hists["codec.capture.execns"].count, 4);
        // an earlier frame defines two of the names; the unit's defines
        // the other three
        let mut earlier = unit(1);
        earlier.metrics = MetricsSnapshot::default();
        earlier.metrics.counters.insert("codec.capture.runs".into(), 1);
        earlier.metrics.hists.insert("codec.capture.one".into(), HistSnapshot::of_samples([1]));
        let (mut live, mut stored) = (Names::default(), Names::default());
        let (mut from_capture, mut from_snapshot) = (Vec::new(), Vec::new());
        live.encode_record(&mut from_capture, &earlier);
        stored.encode_record(&mut from_snapshot, &earlier);
        from_capture.clear();
        from_snapshot.clear();
        live.encode(&mut from_capture, u.index, u.side, &u.records, &u.faults, &mut captured);
        stored.encode_record(&mut from_snapshot, &u);
        assert_eq!(from_capture, from_snapshot);
        assert_eq!(live.len(), stored.len());
        let mut reader = Names::default();
        let mut first = Vec::new();
        Names::default().encode_record(&mut first, &earlier);
        assert_eq!(reader.decode(&first), Some(earlier));
        assert_eq!(reader.decode(&from_capture), Some(u));
    }

    #[test]
    fn non_canonical_histograms_survive_exactly() {
        let mut u = unit(1);
        let odd = HistSnapshot { count: 1, sum: 9, min: 2, max: 9, buckets: vec![0, 0, 1, 0] };
        u.metrics.hists.insert("odd".into(), odd);
        u.metrics.hists.insert("empty".into(), HistSnapshot::default());
        let mut bytes = Vec::new();
        Names::default().encode_record(&mut bytes, &u);
        assert_eq!(Names::default().decode(&bytes), Some(u));
    }

    #[test]
    fn every_truncation_and_trailing_byte_is_rejected_without_defining_names() {
        let mut bytes = Vec::new();
        Names::default().encode_record(&mut bytes, &unit(9));
        for cut in 0..bytes.len() {
            let mut r = Names::default();
            assert_eq!(r.decode(&bytes[..cut]), None, "cut at {cut}");
            assert_eq!(r.len(), 0, "a rejected frame defines nothing (cut at {cut})");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(Names::default().decode(&long), None);
    }

    #[test]
    fn one_sample_histograms_are_told_apart_in_place() {
        for v in [0, 1, 7, 1 << 40, u64::MAX] {
            assert!(is_one_sample(&HistSnapshot::of_samples([v])), "{v}");
        }
        for h in [
            HistSnapshot::default(),
            HistSnapshot::of_samples([3, 3]),
            HistSnapshot { count: 1, sum: 9, min: 2, max: 9, buckets: vec![0, 0, 1, 0] },
            HistSnapshot { count: 1, sum: 9, min: 9, max: 9, buckets: vec![0, 0, 0, 0, 1, 0] },
            HistSnapshot { count: 1, sum: 9, min: 9, max: 9, buckets: vec![1, 0, 0, 0, 1] },
        ] {
            assert_eq!(is_one_sample(&h), h == HistSnapshot::of_samples([h.sum]), "{h:?}");
        }
    }

    #[test]
    fn varints_reject_overlong_encodings() {
        let mut out = Vec::new();
        put(&mut out, u64::MAX);
        assert_eq!(Reader(&out).varint(), Some(u64::MAX));
        assert_eq!(Reader(&[0xFF; 10]).varint(), None);
        assert_eq!(Reader(&[0x80; 11]).varint(), None);
    }

    #[test]
    fn truncate_forgets_only_the_later_names() {
        let (a, b) = (obs::id::intern("codec.test.a"), obs::id::intern("codec.test.b"));
        let mut n = Names::default();
        n.define(a);
        n.define(b);
        n.define(a);
        n.truncate(1);
        assert_eq!(n.len(), 1);
        assert_eq!(n.local_or_define(a), 0);
        assert_eq!(n.local_or_define(b), 1, "b is defined again");
    }
}
