//! The testing campaign: configuration, execution, aggregation.

use crate::metadata::{reference_key, side_key, CampaignMeta, RunRecord};
use crate::outcome::DiscrepancyClass;
use crate::side::Side;
use crate::verdict::{judge, VerdictStats};
use fpcore::classify::Outcome;
use gpucc::interp::{ExecBudget, ExecValue};
use gpucc::pipeline::{OptLevel, Toolchain};
use gpucc::ExecTier;
use gpusim::QuirkSet;
use progen::ast::Precision;
use progen::grammar::GenConfig;
use serde::{Deserialize, Serialize};

/// Which hipcc-side pipeline a campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TestMode {
    /// HIP tests generated natively by the extended Varity (Tables V/VI, IX/X).
    Direct,
    /// CUDA tests converted with HIPIFY, then compiled by hipcc with its
    /// `-ffp-contract=fast` ported-app default (Tables VII/VIII).
    Hipified,
}

impl TestMode {
    /// Table-header label.
    pub fn label(self) -> &'static str {
        match self {
            TestMode::Direct => "direct",
            TestMode::Hipified => "HIPIFY",
        }
    }
}

/// Campaign configuration. Fully determines every program, input and
/// compilation in the campaign (the reproducibility property Fig. 3's
/// between-platform protocol needs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// FP32 or FP64 tests.
    pub precision: Precision,
    /// Direct HIP generation or HIPIFY conversion.
    pub mode: TestMode,
    /// Number of random programs.
    pub n_programs: usize,
    /// Number of random inputs per program.
    pub inputs_per_program: usize,
    /// Master seed.
    pub seed: u64,
    /// Grammar configuration.
    pub gen: GenConfig,
    /// Device divergence mechanisms (all on = the paper's reality;
    /// selectively off = ablation).
    pub quirks: QuirkSet,
    /// Optimization levels to test.
    pub levels: Vec<OptLevel>,
    /// Per-execution fuel budget (instruction cap + optional wall-clock
    /// deadline). Defaults to the interpreter's historical step limit,
    /// so configs serialized before budgets existed load — and replay —
    /// identically.
    #[serde(default)]
    pub budget: ExecBudget,
}

impl CampaignConfig {
    /// A paper-shaped campaign scaled to workstation size: the paper ran
    /// 3,540 FP64 programs × ~7 inputs; the default here keeps the same
    /// inputs-per-program and level set with fewer programs.
    pub fn default_for(precision: Precision, mode: TestMode) -> Self {
        let (n_programs, inputs_per_program) = match precision {
            Precision::F64 => (400, 7),
            Precision::F32 => (320, 6),
        };
        CampaignConfig {
            precision,
            mode,
            n_programs,
            inputs_per_program,
            seed: 2024,
            gen: GenConfig::varity_default(precision),
            quirks: QuirkSet::all(),
            levels: OptLevel::ALL.to_vec(),
            budget: ExecBudget::default(),
        }
    }

    /// Scale the number of programs (for quick runs and benches).
    pub fn with_programs(mut self, n: usize) -> Self {
        self.n_programs = n;
        self
    }

    /// Override the per-execution fuel budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Total runs counted the way the paper's Table IV counts them:
    /// programs × inputs × levels × 2 compilers.
    pub fn total_runs(&self) -> u64 {
        (self.n_programs * self.inputs_per_program * self.levels.len() * 2) as u64
    }
}

/// Discrepancy statistics between one ordered pair of sides at one
/// level — the generalized comparison plane. The legacy flat fields of
/// [`LevelStats`] are exactly the `(nvcc, hipcc)` pair's projection;
/// vendor-versus-reference pairs appear here when the ground-truth side
/// ran.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PairStats {
    /// Row side of the adjacency matrix.
    pub a: Side,
    /// Column side of the adjacency matrix.
    pub b: Side,
    /// Comparisons performed (both sides produced a value).
    pub compared: u64,
    /// Comparisons skipped because either side errored or was missing.
    pub errors: u64,
    /// Discrepancies between the pair.
    pub discrepancies: u64,
    /// Count per [`DiscrepancyClass`] (in `ALL` order).
    pub by_class: [u64; 7],
    /// Directional adjacency: `adjacency[a_outcome][b_outcome]`.
    pub adjacency: [[u64; 4]; 4],
}

impl PairStats {
    fn new(a: Side, b: Side) -> PairStats {
        PairStats {
            a,
            b,
            compared: 0,
            errors: 0,
            discrepancies: 0,
            by_class: [0; 7],
            adjacency: [[0; 4]; 4],
        }
    }

    fn record(&mut self, a: Outcome, b: Outcome, class: DiscrepancyClass) {
        self.discrepancies += 1;
        self.by_class[class.index()] += 1;
        self.adjacency[a.index()][b.index()] += 1;
    }
}

/// Discrepancy statistics for one optimization level.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct LevelStats {
    /// Runs at this level (both compilers).
    pub runs: u64,
    /// Comparisons skipped because one side failed to execute.
    pub errors: u64,
    /// Total discrepancies.
    pub discrepancies: u64,
    /// Count per [`DiscrepancyClass`] (in `ALL` order).
    pub by_class: [u64; 7],
    /// Directional adjacency matrix: `adjacency[nvcc_outcome][hipcc_outcome]`
    /// in [`Outcome::ALL`] order (the paper's Tables VI/VIII/X).
    pub adjacency: [[u64; 4]; 4],
    /// Per-side-pair statistics beyond the legacy nvcc–hipcc projection
    /// above: the two vendor-versus-reference pairs, populated only when
    /// the ground-truth side ran. Empty — and omitted from JSON — for
    /// two-side campaigns, whose serialized reports stay byte-identical
    /// to the v1 schema.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub pairs: Vec<PairStats>,
    /// Who-drifted tallies for this level's nvcc–hipcc discrepancies,
    /// judged against the ground truth. `None` (omitted from JSON)
    /// without the reference side. Always recomputed from raw records
    /// here at analyze time, never merged numerically, so farm shard
    /// merges stay order-independent by construction.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub verdicts: Option<VerdictStats>,
}

impl LevelStats {
    fn record(&mut self, nvcc: Outcome, hipcc: Outcome, class: DiscrepancyClass) {
        self.discrepancies += 1;
        self.by_class[class.index()] += 1;
        self.adjacency[nvcc.index()][hipcc.index()] += 1;
    }

    fn pair_mut(&mut self, a: Side, b: Side) -> &mut PairStats {
        if let Some(i) = self.pairs.iter().position(|p| p.a == a && p.b == b) {
            return &mut self.pairs[i];
        }
        self.pairs.push(PairStats::new(a, b));
        self.pairs.last_mut().unwrap()
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// The configuration that produced this report.
    pub config: CampaignConfig,
    /// Per-level statistics, in `config.levels` order.
    pub per_level: Vec<(OptLevel, LevelStats)>,
}

impl CampaignReport {
    /// Total runs across all levels.
    pub fn total_runs(&self) -> u64 {
        self.per_level.iter().map(|(_, s)| s.runs).sum()
    }

    /// Total discrepancies across all levels.
    pub fn total_discrepancies(&self) -> u64 {
        self.per_level.iter().map(|(_, s)| s.discrepancies).sum()
    }

    /// Discrepancy percentage, computed the paper's way
    /// (discrepancies / total runs).
    pub fn discrepancy_pct(&self) -> f64 {
        100.0 * self.total_discrepancies() as f64 / self.total_runs() as f64
    }

    /// Class totals across all levels.
    pub fn class_totals(&self) -> [u64; 7] {
        let mut t = [0u64; 7];
        for (_, s) in &self.per_level {
            for (i, v) in s.by_class.iter().enumerate() {
                t[i] += v;
            }
        }
        t
    }

    /// Whether the analyzed metadata had the ground-truth side (any
    /// level carries verdict tallies).
    pub fn has_verdicts(&self) -> bool {
        self.per_level.iter().any(|(_, s)| s.verdicts.is_some())
    }

    /// Verdict totals across all levels (display only: shard merges
    /// recompute per-level tallies from raw records instead of summing).
    pub fn verdict_totals(&self) -> Option<VerdictStats> {
        if !self.has_verdicts() {
            return None;
        }
        let mut total = VerdictStats::default();
        for (_, s) in &self.per_level {
            if let Some(v) = &s.verdicts {
                total.absorb(v);
            }
        }
        Some(total)
    }
}

/// Run a complete campaign: generate, run both sides (each test built
/// once for both, on the interpreter tier), analyze.
///
/// ```
/// use difftest::campaign::{run_campaign, CampaignConfig, TestMode};
/// use progen::Precision;
///
/// let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct)
///     .with_programs(10);
/// let report = run_campaign(&config);
/// assert_eq!(report.total_runs(), config.total_runs());
/// assert_eq!(report.per_level.len(), 5); // O0..O3_FM
/// ```
pub fn run_campaign(config: &CampaignConfig) -> CampaignReport {
    let mut meta = CampaignMeta::generate(config);
    let session = crate::checkpoint::FtSession::plain();
    let _ = crate::checkpoint::run_sides_ft(&mut meta, &Side::VENDORS, &session, ExecTier::Interp);
    analyze(&meta)
}

/// Analyze a completed (both sides present) campaign's metadata.
pub fn analyze(meta: &CampaignMeta) -> CampaignReport {
    analyze_with_tolerance(meta, 0.0)
}

/// Re-analyze stored results with a relative tolerance on `Num, Num`
/// pairs (0.0 = the paper's bitwise semantics). Because metadata stores
/// exact result bits, any tolerance can be applied after the fact without
/// re-running anything.
///
/// When the metadata carries the ground-truth side (`campaign
/// --reference`), every level additionally gets the two
/// vendor-versus-reference [`PairStats`] and a [`VerdictStats`] tally
/// judging each nvcc–hipcc discrepancy against the truth. Fast-math
/// levels are judged [`crate::verdict::Verdict::TruthUndecided`] by
/// construction — `-ffast-math` has no single obligated result.
pub fn analyze_with_tolerance(meta: &CampaignMeta, rel_tol: f64) -> CampaignReport {
    let _span = obs::span("campaign.analyze");
    let config = meta.config.clone();
    let has_truth = meta.has_reference();
    let mut per_level: Vec<(OptLevel, LevelStats)> = config
        .levels
        .iter()
        .map(|l| {
            let mut stats = LevelStats::default();
            if has_truth {
                // seed the truth-plane columns so every level serializes
                // them (stably) even when it has no discrepancies
                stats.pair_mut(Side::Nvcc, Side::Reference);
                stats.pair_mut(Side::Hipcc, Side::Reference);
                stats.verdicts = Some(VerdictStats::default());
            }
            (*l, stats)
        })
        .collect();

    for test in &meta.tests {
        let truth_recs = test.results.get(&reference_key());
        for (level, stats) in per_level.iter_mut() {
            let nv = meta_records(test, Toolchain::Nvcc, *level);
            let amd = meta_records(test, Toolchain::Hipcc, *level);
            let (Some(nv), Some(amd)) = (nv, amd) else { continue };
            for (k, (rn, ra)) in nv.iter().zip(amd).enumerate() {
                stats.runs += 2;
                if rn.error.is_some() || ra.error.is_some() {
                    stats.errors += 1;
                    continue;
                }
                let vn = decode(config.precision, rn.bits);
                let va = decode(config.precision, ra.bits);
                let disc = crate::compare::compare_runs_with_tolerance(&vn, &va, rel_tol);
                if let Some(d) = &disc {
                    stats.record(d.nvcc, d.hipcc, d.class);
                }
                if !has_truth {
                    continue;
                }
                // the truth plane: one reference column serves every level
                let truth = truth_recs
                    .and_then(|rs| rs.get(k))
                    .filter(|r| r.error.is_none())
                    .map(|r| decode(config.precision, r.bits));
                for (side, v) in [(Side::Nvcc, &vn), (Side::Hipcc, &va)] {
                    let pair = stats.pair_mut(side, Side::Reference);
                    match &truth {
                        Some(t) => {
                            pair.compared += 1;
                            if let Some(d) =
                                crate::compare::compare_runs_with_tolerance(v, t, rel_tol)
                            {
                                pair.record(d.nvcc, d.hipcc, d.class);
                            }
                        }
                        None => pair.errors += 1,
                    }
                }
                if disc.is_some() {
                    let score = judge(&vn, &va, truth.as_ref(), level.is_fast_math());
                    if let Some(v) = &mut stats.verdicts {
                        v.record(&score);
                    }
                }
            }
        }
    }
    CampaignReport { config, per_level }
}

fn meta_records(
    test: &crate::metadata::TestMeta,
    tc: Toolchain,
    level: OptLevel,
) -> Option<&Vec<RunRecord>> {
    test.results.get(&side_key(tc, level))
}

/// Reconstruct an [`ExecValue`] from stored bits.
pub fn decode(precision: Precision, bits: u64) -> ExecValue {
    match precision {
        Precision::F64 => ExecValue::F64(f64::from_bits(bits)),
        Precision::F32 => ExecValue::F32(f32::from_bits(bits as u32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{run_sides_ft, FtSession};

    fn small(precision: Precision, mode: TestMode) -> CampaignConfig {
        CampaignConfig::default_for(precision, mode).with_programs(40)
    }

    #[test]
    fn campaign_runs_and_counts_runs_correctly() {
        let cfg = small(Precision::F64, TestMode::Direct);
        let report = run_campaign(&cfg);
        assert_eq!(report.total_runs(), cfg.total_runs());
        assert_eq!(report.per_level.len(), 5);
        for (_, s) in &report.per_level {
            assert_eq!(s.runs, (cfg.n_programs * cfg.inputs_per_program * 2) as u64);
            assert_eq!(s.errors, 0, "no generated program may fail to execute");
        }
    }

    #[test]
    fn campaign_finds_discrepancies_with_quirks_on() {
        let report = run_campaign(
            &CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(150),
        );
        assert!(
            report.total_discrepancies() > 0,
            "a 150-program FP64 campaign should expose at least one discrepancy"
        );
        // consistency: by_class sums match totals
        for (_, s) in &report.per_level {
            assert_eq!(s.by_class.iter().sum::<u64>(), s.discrepancies);
            let adj: u64 = s.adjacency.iter().flatten().sum();
            assert_eq!(adj, s.discrepancies);
        }
    }

    #[test]
    fn quirkless_devices_produce_zero_discrepancies() {
        let mut cfg = small(Precision::F64, TestMode::Direct);
        cfg.quirks = QuirkSet::none();
        // keep fast-math levels out: FTZ/fast-intrinsics are quirk-gated,
        // but nvcc-side reassociation/finite-math are *compiler* behaviour
        // and legitimately diverge even on identical hardware
        cfg.levels = vec![OptLevel::O0];
        let report = run_campaign(&cfg);
        assert_eq!(
            report.total_discrepancies(),
            0,
            "identical math libraries + identical pipelines must agree at O0"
        );
    }

    #[test]
    fn o1_o2_o3_have_identical_stats() {
        let report = run_campaign(&small(Precision::F64, TestMode::Direct));
        let find = |l: OptLevel| {
            report.per_level.iter().find(|(lv, _)| *lv == l).map(|(_, s)| s.clone()).unwrap()
        };
        assert_eq!(find(OptLevel::O1), find(OptLevel::O2));
        assert_eq!(find(OptLevel::O2), find(OptLevel::O3));
    }

    #[test]
    fn campaigns_are_reproducible() {
        let cfg = small(Precision::F64, TestMode::Direct).with_programs(15);
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.per_level, b.per_level);
    }

    #[test]
    fn reference_side_yields_pairs_and_verdicts() {
        let cfg = small(Precision::F64, TestMode::Direct).with_programs(150);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let two_side = analyze(&meta);
        assert!(!two_side.has_verdicts());
        run_sides_ft(&mut meta, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
        let report = analyze(&meta);
        assert!(report.has_verdicts());
        for ((level, s), (_, legacy)) in report.per_level.iter().zip(&two_side.per_level) {
            // the truth plane must not perturb the legacy projection
            assert_eq!(s.runs, legacy.runs);
            assert_eq!(s.discrepancies, legacy.discrepancies);
            assert_eq!(s.by_class, legacy.by_class);
            assert_eq!(s.adjacency, legacy.adjacency);
            let v = s.verdicts.as_ref().unwrap();
            assert_eq!(v.judged, s.discrepancies, "every discrepancy is judged");
            if level.is_fast_math() {
                assert_eq!(v.decided(), 0, "fast-math cells are truth-undecided");
            }
            assert_eq!(s.pairs.len(), 2);
            assert!(s.pairs.iter().all(|p| p.b == Side::Reference));
            assert!(s.pairs.iter().all(|p| p.errors == 0), "truth ran for every unit");
        }
    }

    #[test]
    fn forged_fig5_discrepancy_is_blamed_on_nvcc() {
        use crate::verdict::Verdict;
        let cfg = small(Precision::F64, TestMode::Direct).with_programs(5);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
        // forge the paper's Fig. 5 record: nvcc overflowed to Inf while
        // hipcc — matching the strict truth — kept 1.34887e-306
        let truth_bits = 1.34887e-306f64.to_bits();
        let t = &mut meta.tests[0];
        t.results.get_mut(&side_key(Toolchain::Nvcc, OptLevel::O0)).unwrap()[0].bits =
            f64::INFINITY.to_bits();
        t.results.get_mut(&side_key(Toolchain::Hipcc, OptLevel::O0)).unwrap()[0].bits = truth_bits;
        t.results.get_mut(&crate::metadata::reference_key()).unwrap()[0].bits = truth_bits;
        let report = analyze(&meta);
        let (_, s) = report.per_level.iter().find(|(l, _)| *l == OptLevel::O0).unwrap();
        let v = s.verdicts.as_ref().unwrap();
        assert!(v.by_verdict[Verdict::NvccDrifted.index()] >= 1, "{v:?}");
        assert!(v.nvcc_ulps_total > 1 << 52, "Inf is a huge but defined drift: {v:?}");
    }

    #[test]
    fn two_side_reports_serialize_without_truth_fields() {
        let report = run_campaign(&small(Precision::F64, TestMode::Direct).with_programs(10));
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("\"pairs\""), "v1 report schema must be unchanged");
        assert!(!json.contains("\"verdicts\""));
    }

    #[test]
    fn decode_roundtrips_both_precisions() {
        let v = ExecValue::F64(-1.5e-300);
        assert_eq!(decode(Precision::F64, v.bits()), v);
        let v = ExecValue::F32(3.25);
        assert_eq!(decode(Precision::F32, v.bits()), v);
    }

    #[test]
    fn total_runs_matches_paper_arithmetic() {
        // paper: 3,540 programs, 24,750 runs/option/compiler ⇒ 247,500 total
        let mut cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct);
        cfg.n_programs = 3540;
        cfg.inputs_per_program = 7; // 3540*7 = 24,780 ≈ paper's 24,750
        assert_eq!(cfg.total_runs(), 3540 * 7 * 5 * 2);
    }
}
