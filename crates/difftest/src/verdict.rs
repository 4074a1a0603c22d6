//! Drift verdicts: which vendor side moved away from the ground truth.
//!
//! A two-sided discrepancy only says the toolchains disagree. With the
//! reference side present (`campaign --reference`), every Num–Num
//! discrepancy in a strict cell also gets an **error-vs-truth score** —
//! the ULP distance of each vendor result from the correctly-rounded
//! double-double reference result — and a [`Verdict`] naming the side
//! that drifted.
//!
//! Fast-math cells are always [`Verdict::TruthUndecided`]: `-ffast-math`
//! licenses value-changing rewrites, so there is no single "true" result
//! the rewritten kernel is obligated to produce, and blaming either side
//! against the strict truth would manufacture false drift verdicts. The
//! same applies when the reference side was not run or errored for the
//! unit (e.g. step-budget exhaustion in the slower executor).

use crate::side::Side;
use gpucc::interp::ExecValue;
use serde::Serialize;

/// Which side drifted from the reference result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Verdict {
    /// The NVIDIA-like result differs from the truth; the AMD-like one
    /// matches it (after rounding to the kernel precision).
    NvccDrifted,
    /// The AMD-like result differs from the truth; the NVIDIA-like one
    /// matches it.
    HipccDrifted,
    /// Both vendor results differ from the truth (common for
    /// transcendental-heavy kernels, where each vendor library carries
    /// its own last-ulp error).
    BothDrifted,
    /// No verdict is possible: the cell is fast-math (no strict truth
    /// exists), the reference was not run, or it errored on this unit.
    TruthUndecided,
}

impl Verdict {
    /// Every verdict, in table-column order.
    pub const ALL: [Verdict; 4] = [
        Verdict::NvccDrifted,
        Verdict::HipccDrifted,
        Verdict::BothDrifted,
        Verdict::TruthUndecided,
    ];

    /// Dense index within [`Verdict::ALL`] (tally arrays).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short column label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::NvccDrifted => "NvccDrifted",
            Verdict::HipccDrifted => "HipccDrifted",
            Verdict::BothDrifted => "BothDrifted",
            Verdict::TruthUndecided => "TruthUndecided",
        }
    }

    /// The side this verdict blames, when it blames exactly one.
    pub fn blamed(self) -> Option<Side> {
        match self {
            Verdict::NvccDrifted => Some(Side::Nvcc),
            Verdict::HipccDrifted => Some(Side::Hipcc),
            Verdict::BothDrifted | Verdict::TruthUndecided => None,
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// ULP distance between two results of the same precision (`None` when
/// either is NaN — NaN has no place on the value lattice — or when the
/// precisions disagree, which would indicate a lowering bug).
pub fn ulp_between(a: &ExecValue, b: &ExecValue) -> Option<u64> {
    match (a, b) {
        (ExecValue::F64(x), ExecValue::F64(y)) => fpcore::ulp::ulp_diff_f64(*x, *y),
        (ExecValue::F32(x), ExecValue::F32(y)) => fpcore::ulp::ulp_diff_f32(*x, *y).map(u64::from),
        _ => None,
    }
}

/// The error-vs-truth score of one discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TruthScore {
    /// ULP distance of the NVIDIA-like result from the truth (`None`
    /// when no lattice distance exists: NaN involved, or no truth).
    pub nvcc_ulps: Option<u64>,
    /// ULP distance of the AMD-like result from the truth.
    pub hipcc_ulps: Option<u64>,
    /// Who drifted.
    pub verdict: Verdict,
}

impl TruthScore {
    /// The undecided score (fast-math cell, missing or errored truth).
    pub const UNDECIDED: TruthScore =
        TruthScore { nvcc_ulps: None, hipcc_ulps: None, verdict: Verdict::TruthUndecided };
}

/// Did `side_value` drift from `truth`? Returns the ULP distance when
/// one exists and whether this counts as drift.
///
/// Bit-equality is never drift. Otherwise a defined, nonzero lattice
/// distance is drift, as is any NaN mismatch (one side NaN, the other
/// not). Two NaNs with different payloads are *not* drift: the truth
/// executor does not model payload propagation.
fn drift(side_value: &ExecValue, truth: &ExecValue) -> (Option<u64>, bool) {
    if side_value.bits() == truth.bits() {
        return (Some(0), false);
    }
    match ulp_between(side_value, truth) {
        // +0 vs -0 share a lattice point: distance 0, not drift
        Some(d) => (Some(d), d > 0),
        None => {
            let both_nan = side_value.to_f64().is_nan() && truth.to_f64().is_nan();
            (None, !both_nan)
        }
    }
}

/// Judge one discrepancy against the truth.
///
/// `truth` is the reference executor's result for the same test input
/// (`None` when the reference side was not run or errored on this
/// unit); `fast_math` marks the cell's optimization level. Fast-math
/// cells and truthless units are [`Verdict::TruthUndecided`] by
/// construction — see the module docs for why.
pub fn judge(
    nvcc: &ExecValue,
    hipcc: &ExecValue,
    truth: Option<&ExecValue>,
    fast_math: bool,
) -> TruthScore {
    if fast_math {
        return TruthScore::UNDECIDED;
    }
    let Some(truth) = truth else {
        return TruthScore::UNDECIDED;
    };
    let (nvcc_ulps, n_drifted) = drift(nvcc, truth);
    let (hipcc_ulps, h_drifted) = drift(hipcc, truth);
    let verdict = match (n_drifted, h_drifted) {
        (true, false) => Verdict::NvccDrifted,
        (false, true) => Verdict::HipccDrifted,
        (true, true) => Verdict::BothDrifted,
        // both sides match the truth — then they match each other, so
        // this was not a real discrepancy; stay undecided rather than
        // inventing a drift
        (false, false) => Verdict::TruthUndecided,
    };
    TruthScore { nvcc_ulps, hipcc_ulps, verdict }
}

/// Aggregated verdict tallies for one optimization level, recomputed
/// from raw records at `analyze` time (never merged numerically, so
/// farm merges stay order-independent by construction).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct VerdictStats {
    /// Discrepancies that went through [`judge`].
    pub judged: u64,
    /// Tally per verdict, indexed by [`Verdict::index`].
    pub by_verdict: [u64; 4],
    /// Saturating sum of NVIDIA-side ULP-from-truth distances.
    pub nvcc_ulps_total: u64,
    /// Saturating sum of AMD-side ULP-from-truth distances.
    pub hipcc_ulps_total: u64,
    /// Worst single NVIDIA-side distance.
    pub nvcc_ulps_max: u64,
    /// Worst single AMD-side distance.
    pub hipcc_ulps_max: u64,
}

impl VerdictStats {
    /// Fold one score into the tallies.
    pub fn record(&mut self, score: &TruthScore) {
        self.judged += 1;
        self.by_verdict[score.verdict.index()] += 1;
        if let Some(d) = score.nvcc_ulps {
            self.nvcc_ulps_total = self.nvcc_ulps_total.saturating_add(d);
            self.nvcc_ulps_max = self.nvcc_ulps_max.max(d);
        }
        if let Some(d) = score.hipcc_ulps {
            self.hipcc_ulps_total = self.hipcc_ulps_total.saturating_add(d);
            self.hipcc_ulps_max = self.hipcc_ulps_max.max(d);
        }
    }

    /// Discrepancies that received a decisive (non-undecided) verdict.
    pub fn decided(&self) -> u64 {
        self.judged - self.by_verdict[Verdict::TruthUndecided.index()]
    }

    /// Fold another tally in. Display-side totals only (a report's
    /// all-levels row): shard merges recompute per-level tallies from
    /// raw records instead, keeping them order-independent.
    pub fn absorb(&mut self, other: &VerdictStats) {
        self.judged += other.judged;
        for (t, v) in self.by_verdict.iter_mut().zip(other.by_verdict) {
            *t += v;
        }
        self.nvcc_ulps_total = self.nvcc_ulps_total.saturating_add(other.nvcc_ulps_total);
        self.hipcc_ulps_total = self.hipcc_ulps_total.saturating_add(other.hipcc_ulps_total);
        self.nvcc_ulps_max = self.nvcc_ulps_max.max(other.nvcc_ulps_max);
        self.hipcc_ulps_max = self.hipcc_ulps_max.max(other.hipcc_ulps_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_inf_vs_num_blames_nvcc() {
        // the paper's Fig. 5 case: nvcc printed Inf, hipcc printed
        // 1.34887e-306, and the strict truth is the hipcc value
        let truth = ExecValue::F64(1.34887e-306);
        let score = judge(
            &ExecValue::F64(f64::INFINITY),
            &ExecValue::F64(1.34887e-306),
            Some(&truth),
            false,
        );
        assert_eq!(score.verdict, Verdict::NvccDrifted);
        assert_eq!(score.hipcc_ulps, Some(0));
        // Inf sits on the lattice: the distance is defined and huge
        assert!(score.nvcc_ulps.unwrap() > 1 << 52);
    }

    #[test]
    fn fast_math_cells_are_always_undecided() {
        let truth = ExecValue::F64(1.0);
        let score = judge(&ExecValue::F64(2.0), &ExecValue::F64(1.0), Some(&truth), true);
        assert_eq!(score, TruthScore::UNDECIDED);
    }

    #[test]
    fn missing_truth_is_undecided() {
        let score = judge(&ExecValue::F64(2.0), &ExecValue::F64(1.0), None, false);
        assert_eq!(score, TruthScore::UNDECIDED);
    }

    #[test]
    fn both_last_ulp_errors_blame_both() {
        let t = 1.5f64;
        let up = f64::from_bits(t.to_bits() + 1);
        let down = f64::from_bits(t.to_bits() - 1);
        let score =
            judge(&ExecValue::F64(up), &ExecValue::F64(down), Some(&ExecValue::F64(t)), false);
        assert_eq!(score.verdict, Verdict::BothDrifted);
        assert_eq!((score.nvcc_ulps, score.hipcc_ulps), (Some(1), Some(1)));
    }

    #[test]
    fn nan_mismatch_is_drift_nan_agreement_is_not() {
        let truth = ExecValue::F64(f64::NAN);
        // hipcc also NaN (different payload is fine), nvcc finite: nvcc drifted
        let score = judge(
            &ExecValue::F64(1.0),
            &ExecValue::F64(f64::from_bits(f64::NAN.to_bits() ^ 1)),
            Some(&truth),
            false,
        );
        assert_eq!(score.verdict, Verdict::NvccDrifted);
        assert_eq!(score.nvcc_ulps, None, "no lattice distance to NaN");
    }

    #[test]
    fn signed_zero_is_not_drift() {
        let (n, h) = (ExecValue::F64(0.0), ExecValue::F64(-0.0));
        let score = judge(&n, &h, Some(&ExecValue::F64(0.0)), false);
        // -0 and +0 share a lattice point; neither side drifted
        assert_eq!(score.verdict, Verdict::TruthUndecided);
    }

    #[test]
    fn f32_distances_are_measured_in_f32_ulps() {
        let t = 1.5f32;
        let up = f32::from_bits(t.to_bits() + 3);
        let score = judge(&ExecValue::F32(up), &ExecValue::F32(t), Some(&ExecValue::F32(t)), false);
        assert_eq!(score.verdict, Verdict::NvccDrifted);
        assert_eq!(score.nvcc_ulps, Some(3));
    }

    #[test]
    fn stats_tally_and_saturate() {
        let mut s = VerdictStats::default();
        s.record(&TruthScore {
            nvcc_ulps: Some(u64::MAX),
            hipcc_ulps: Some(2),
            verdict: Verdict::BothDrifted,
        });
        s.record(&TruthScore {
            nvcc_ulps: Some(5),
            hipcc_ulps: Some(0),
            verdict: Verdict::NvccDrifted,
        });
        s.record(&TruthScore::UNDECIDED);
        assert_eq!(s.judged, 3);
        assert_eq!(s.decided(), 2);
        assert_eq!(s.nvcc_ulps_total, u64::MAX, "saturated");
        assert_eq!(s.nvcc_ulps_max, u64::MAX);
        assert_eq!(s.hipcc_ulps_total, 2);
        assert_eq!(s.by_verdict, [1, 0, 1, 1]);
    }
}
