//! Program-characteristics census (paper Table III).
//!
//! Table III describes what the random programs contain; this module
//! measures it over an actual generated corpus, so the claim is checkable
//! rather than aspirational.

use progen::ast::{Expr, ParamType, Program, Stmt};
use std::collections::BTreeMap;

/// Aggregate feature census over a program corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Number of programs.
    pub programs: usize,
    /// Programs containing at least one `for` loop.
    pub with_loops: usize,
    /// Programs with nested loops (depth ≥ 2).
    pub with_nested_loops: usize,
    /// Programs containing at least one `if`.
    pub with_conditions: usize,
    /// Programs containing temporary variables.
    pub with_temporaries: usize,
    /// Programs with array parameters.
    pub with_arrays: usize,
    /// Programs calling at least one math function.
    pub with_math_calls: usize,
    /// Total statement count.
    pub total_stmts: usize,
    /// Maximum loop depth seen.
    pub max_loop_depth: usize,
    /// Call counts per math function.
    pub calls_per_func: BTreeMap<&'static str, usize>,
    /// Binary-operator usage counts (`+ - * /`).
    pub ops: [usize; 4],
}

/// Census one corpus.
pub fn census(programs: &[Program]) -> CorpusStats {
    let mut s = CorpusStats { programs: programs.len(), ..Default::default() };
    for p in programs {
        let depth = p.loop_depth();
        if depth > 0 {
            s.with_loops += 1;
        }
        if depth > 1 {
            s.with_nested_loops += 1;
        }
        s.max_loop_depth = s.max_loop_depth.max(depth);
        if has_if(&p.body) {
            s.with_conditions += 1;
        }
        if has_tmp(&p.body) {
            s.with_temporaries += 1;
        }
        if p.params_of(ParamType::FloatArray).next().is_some() {
            s.with_arrays += 1;
        }
        let calls = p.math_calls();
        if !calls.is_empty() {
            s.with_math_calls += 1;
        }
        for f in calls {
            *s.calls_per_func.entry(f.c_name()).or_insert(0) += 1;
        }
        s.total_stmts += p.stmt_count();
        count_ops(&p.body, &mut s.ops);
    }
    s
}

fn has_if(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::If { .. } => true,
        Stmt::For { body, .. } => has_if(body),
        _ => false,
    })
}

fn has_tmp(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::DeclTmp { .. } => true,
        Stmt::If { body, .. } | Stmt::For { body, .. } => has_tmp(body),
        _ => false,
    })
}

fn count_ops(stmts: &[Stmt], ops: &mut [usize; 4]) {
    fn expr_ops(e: &Expr, ops: &mut [usize; 4]) {
        match e {
            Expr::Bin(op, l, r) => {
                use progen::ast::BinOp::*;
                let idx = match op {
                    Add => 0,
                    Sub => 1,
                    Mul => 2,
                    Div => 3,
                };
                ops[idx] += 1;
                expr_ops(l, ops);
                expr_ops(r, ops);
            }
            Expr::Neg(i) => expr_ops(i, ops),
            Expr::Call(_, args) => args.iter().for_each(|a| expr_ops(a, ops)),
            _ => {}
        }
    }
    for s in stmts {
        match s {
            Stmt::DeclTmp { init, .. } => expr_ops(init, ops),
            Stmt::Assign { value, .. } => expr_ops(value, ops),
            Stmt::If { cond, body } => {
                expr_ops(&cond.lhs, ops);
                expr_ops(&cond.rhs, ops);
                count_ops(body, ops);
            }
            Stmt::For { body, .. } => count_ops(body, ops),
        }
    }
}

/// Render Table III: the characteristics of the random programs, measured.
pub fn render_table3(s: &CorpusStats) -> String {
    let pct = |n: usize| 100.0 * n as f64 / s.programs.max(1) as f64;
    let mut out = String::new();
    out.push_str("TABLE III — CHARACTERISTICS OF THE RANDOM PROGRAMS (measured)\n");
    out.push_str(&format!("Programs in corpus:        {}\n", s.programs));
    out.push_str(&format!(
        "Arithmetic operators used: + ×{}  - ×{}  * ×{}  / ×{}\n",
        s.ops[0], s.ops[1], s.ops[2], s.ops[3]
    ));
    out.push_str(&format!(
        "for loops:                 {:.1}% of programs (nested: {:.1}%, max depth {})\n",
        pct(s.with_loops),
        pct(s.with_nested_loops),
        s.max_loop_depth
    ));
    out.push_str(&format!("if conditions:             {:.1}%\n", pct(s.with_conditions)));
    out.push_str(&format!("temporary variables:       {:.1}%\n", pct(s.with_temporaries)));
    out.push_str(&format!("array variables:           {:.1}%\n", pct(s.with_arrays)));
    out.push_str(&format!("math library calls:        {:.1}%\n", pct(s.with_math_calls)));
    out.push_str(&format!(
        "avg statements per kernel: {:.1}\n",
        s.total_stmts as f64 / s.programs.max(1) as f64
    ));
    out.push_str("math functions used:       ");
    let funcs: Vec<String> = s.calls_per_func.iter().map(|(f, n)| format!("{f}×{n}")).collect();
    out.push_str(&funcs.join(" "));
    out.push('\n');
    out
}

/// Verify the census covers the grammar's feature set (used by tests and
/// the table binary): every Table III row must be non-trivially exercised.
pub fn grammar_coverage_ok(s: &CorpusStats) -> bool {
    s.with_loops * 100 > s.programs * 20
        && s.with_conditions * 100 > s.programs * 20
        && s.with_math_calls * 100 > s.programs * 30
        && s.ops.iter().all(|&n| n > 0)
        && !s.calls_per_func.is_empty()
}

/// Input-feature attribution: which characteristics of the random inputs
/// correlate with discrepancies (the paper's case study 1 observed that
/// only one of ten inputs triggered the `fmod` divergence — this measures
/// that phenomenon across a whole campaign).
pub mod input_features {
    use crate::campaign::{decode, CampaignReport};
    use crate::compare::compare_runs;
    use crate::metadata::{side_key, CampaignMeta};
    use fpcore::classify::FpClass;
    use gpucc::pipeline::Toolchain;
    use progen::inputs::{InputSet, InputValue};

    /// Binary features of one input vector.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct InputFeatures {
        /// Contains ±0.
        pub has_zero: bool,
        /// Contains a subnormal.
        pub has_subnormal: bool,
        /// Contains a value within ~3 decades of overflow.
        pub has_near_overflow: bool,
        /// Contains a normal value within ~8 decades of the smallest normal.
        pub has_near_underflow: bool,
    }

    /// Classify an input vector's features at the given precision.
    pub fn features_of(input: &InputSet, precision: progen::Precision) -> InputFeatures {
        let mut f = InputFeatures::default();
        let (huge, tiny) = match precision {
            progen::Precision::F64 => (1e300, 1e-300),
            progen::Precision::F32 => (1e35, 1e-30),
        };
        for v in &input.values {
            let x = match v {
                InputValue::Float(x) | InputValue::ArrayFill(x) => *x,
                InputValue::Int(_) => continue,
            };
            match (precision, x) {
                (progen::Precision::F64, x) => match FpClass::of_f64(x) {
                    FpClass::Zero => f.has_zero = true,
                    FpClass::Subnormal => f.has_subnormal = true,
                    _ => {}
                },
                (progen::Precision::F32, x) => match FpClass::of_f32(x as f32) {
                    FpClass::Zero => f.has_zero = true,
                    FpClass::Subnormal => f.has_subnormal = true,
                    _ => {}
                },
            }
            if x.abs() >= huge {
                f.has_near_overflow = true;
            }
            if x != 0.0 && x.abs() <= tiny {
                f.has_near_underflow = true;
            }
        }
        f
    }

    /// Discrepancy rate per input feature.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct FeatureReport {
        /// `(inputs with feature, discrepant inputs with feature)` for each
        /// of: zero, subnormal, near-overflow, near-underflow, none-of-the-above.
        pub rows: [(u64, u64); 5],
    }

    /// Feature row labels, aligned with [`FeatureReport::rows`].
    pub const FEATURE_LABELS: [&str; 5] = [
        "contains ±0",
        "contains subnormal",
        "contains near-overflow value",
        "contains near-underflow value",
        "none of the above",
    ];

    /// Attribute a completed campaign's discrepancies to input features.
    /// An input counts as discrepant if *any* level diverged on it.
    pub fn analyze(meta: &CampaignMeta) -> FeatureReport {
        let mut report = FeatureReport::default();
        let precision = meta.config.precision;
        for test in &meta.tests {
            for (k, input) in test.inputs.iter().enumerate() {
                let f = features_of(input, precision);
                let discrepant = meta.config.levels.iter().any(|level| {
                    let (Some(nv), Some(amd)) = (
                        test.results.get(&side_key(Toolchain::Nvcc, *level)),
                        test.results.get(&side_key(Toolchain::Hipcc, *level)),
                    ) else {
                        return false;
                    };
                    let (rn, ra) = (&nv[k], &amd[k]);
                    rn.error.is_none()
                        && ra.error.is_none()
                        && compare_runs(&decode(precision, rn.bits), &decode(precision, ra.bits))
                            .is_some()
                });
                let flags = [
                    f.has_zero,
                    f.has_subnormal,
                    f.has_near_overflow,
                    f.has_near_underflow,
                    !(f.has_zero || f.has_subnormal || f.has_near_overflow || f.has_near_underflow),
                ];
                for (row, present) in report.rows.iter_mut().zip(flags) {
                    if present {
                        row.0 += 1;
                        if discrepant {
                            row.1 += 1;
                        }
                    }
                }
            }
        }
        report
    }

    /// Render the feature table.
    pub fn render(report: &FeatureReport, campaign: &CampaignReport) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "INPUT-FEATURE ATTRIBUTION ({} {}, {} programs)\n\n",
            campaign.config.precision.label(),
            campaign.config.mode.label(),
            campaign.config.n_programs
        ));
        out.push_str(&format!(
            "{:<34}{:>10}{:>14}{:>10}\n",
            "input feature", "inputs", "discrepant", "rate"
        ));
        for (label, (n, d)) in FEATURE_LABELS.iter().zip(report.rows) {
            let rate = if n > 0 { 100.0 * d as f64 / n as f64 } else { 0.0 };
            out.push_str(&format!("{label:<34}{n:>10}{d:>14}{rate:>9.2}%\n"));
        }
        out
    }
}

/// Exception-flag differential analysis (GPU-FPX-style, the paper's ref
/// \[12\]): NVIDIA GPUs expose no exception state, so tools reconstruct
/// it; the simulator tracks it natively, and this module compares the
/// reconstructed flag sets *between platforms* — a discrepancy dimension
/// the paper's value comparison cannot see (two runs can print identical
/// numbers while raising different exceptions along the way).
pub mod exception_diff {
    use crate::metadata::{side_key, CampaignMeta};
    use fpcore::exceptions::FpException;
    use gpucc::pipeline::{OptLevel, Toolchain};

    /// Flag-divergence counts for one optimization level.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ExceptionStats {
        /// Comparisons made.
        pub comparisons: u64,
        /// Runs whose flag sets differ at all.
        pub flag_divergent: u64,
        /// Runs whose flag sets differ while the printed values are
        /// bit-identical (invisible to the paper's comparison).
        pub silent_divergent: u64,
        /// Per-event divergence counts (Table II order).
        pub per_event: [u64; 5],
    }

    /// Compare exception flags across the two platforms per level.
    pub fn analyze(meta: &CampaignMeta) -> Vec<(OptLevel, ExceptionStats)> {
        meta.config
            .levels
            .iter()
            .map(|level| {
                let mut s = ExceptionStats::default();
                for test in &meta.tests {
                    let (Some(nv), Some(amd)) = (
                        test.results.get(&side_key(Toolchain::Nvcc, *level)),
                        test.results.get(&side_key(Toolchain::Hipcc, *level)),
                    ) else {
                        continue;
                    };
                    for (rn, ra) in nv.iter().zip(amd) {
                        if rn.error.is_some() || ra.error.is_some() {
                            continue;
                        }
                        s.comparisons += 1;
                        if rn.exceptions != ra.exceptions {
                            s.flag_divergent += 1;
                            if rn.bits == ra.bits {
                                s.silent_divergent += 1;
                            }
                            for (i, e) in FpException::ALL.into_iter().enumerate() {
                                if rn.exceptions.is_set(e) != ra.exceptions.is_set(e) {
                                    s.per_event[i] += 1;
                                }
                            }
                        }
                    }
                }
                (*level, s)
            })
            .collect()
    }

    /// Render the exception-divergence table.
    pub fn render(rows: &[(OptLevel, ExceptionStats)]) -> String {
        let mut out = String::new();
        out.push_str("EXCEPTION-FLAG DIVERGENCE (GPU-FPX-style)\n\n");
        out.push_str(&format!(
            "{:<8}{:>12}{:>14}{:>14}",
            "level", "comparisons", "flag-diverg.", "silent"
        ));
        for e in FpException::ALL {
            out.push_str(&format!("{:>14}", e.to_string()));
        }
        out.push('\n');
        for (level, s) in rows {
            out.push_str(&format!(
                "{:<8}{:>12}{:>14}{:>14}",
                level.label(),
                s.comparisons,
                s.flag_divergent,
                s.silent_divergent
            ));
            for v in s.per_event {
                out.push_str(&format!("{v:>14}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{run_sides_ft, FtSession};
    use gpusim::mathlib::MathFunc;
    use progen::gen::generate_batch;
    use progen::grammar::GenConfig;
    use progen::Precision;

    fn corpus() -> Vec<Program> {
        generate_batch(&GenConfig::varity_default(Precision::F64), 99, 300)
    }

    #[test]
    fn census_counts_are_internally_consistent() {
        let c = corpus();
        let s = census(&c);
        assert_eq!(s.programs, 300);
        assert!(s.with_nested_loops <= s.with_loops);
        assert!(s.with_loops <= s.programs);
        assert!(s.total_stmts >= s.programs); // every program has statements
    }

    #[test]
    fn default_grammar_covers_table3() {
        let s = census(&corpus());
        assert!(grammar_coverage_ok(&s), "{s:?}");
    }

    #[test]
    fn table3_rendering_mentions_all_features() {
        let s = census(&corpus());
        let t = render_table3(&s);
        for needle in ["for loops", "if conditions", "temporary variables", "array", "math library"]
        {
            assert!(t.contains(needle), "missing {needle}:\n{t}");
        }
    }

    #[test]
    fn empty_corpus_is_handled() {
        let s = census(&[]);
        assert_eq!(s.programs, 0);
        let t = render_table3(&s);
        assert!(t.contains("Programs in corpus:        0"));
    }

    #[test]
    fn exception_diff_counts_reconcile() {
        use super::exception_diff::analyze;
        use crate::campaign::{CampaignConfig, TestMode};
        use crate::metadata::CampaignMeta;
        use crate::side::Side;
        use gpucc::ExecTier;
        use progen::Precision;

        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(40);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let rows = analyze(&meta);
        assert_eq!(rows.len(), 5);
        for (_, s) in &rows {
            assert_eq!(s.comparisons, (cfg.n_programs * cfg.inputs_per_program) as u64);
            assert!(s.silent_divergent <= s.flag_divergent);
            // a flag-divergent run differs in >= 1 event
            let events: u64 = s.per_event.iter().sum();
            assert!(events >= s.flag_divergent);
        }
        // with the quirky math libraries, *some* flag divergence exists
        let total: u64 = rows.iter().map(|(_, s)| s.flag_divergent).sum();
        assert!(total > 0, "expected exception-flag divergence somewhere");
    }

    #[test]
    fn input_feature_analysis_counts_reconcile() {
        use super::input_features::{analyze, features_of};
        use crate::campaign::{CampaignConfig, TestMode};
        use crate::metadata::CampaignMeta;
        use crate::side::Side;
        use gpucc::ExecTier;
        use progen::Precision;

        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(30);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let report = analyze(&meta);
        let total_inputs = (cfg.n_programs * cfg.inputs_per_program) as u64;
        // every input lands in >= 1 feature row, and counts are bounded
        let covered: u64 = report.rows.iter().map(|(n, _)| n).sum();
        assert!(covered >= total_inputs, "{covered} < {total_inputs}");
        for (n, d) in report.rows {
            assert!(d <= n);
        }
        // feature classification sanity
        use progen::inputs::{InputSet, InputValue};
        let f = features_of(
            &InputSet {
                values: vec![
                    InputValue::Float(0.0),
                    InputValue::Int(3),
                    InputValue::Float(1e-310),
                    InputValue::Float(5e305),
                ],
            },
            Precision::F64,
        );
        assert!(f.has_zero && f.has_subnormal && f.has_near_overflow);
        assert!(f.has_near_underflow); // the subnormal is also tiny
    }

    #[test]
    fn math_calls_counted_per_function() {
        let s = census(&corpus());
        let total: usize = s.calls_per_func.values().sum();
        assert!(total > 0);
        // only allowlisted functions appear
        for f in s.calls_per_func.keys() {
            assert!(MathFunc::from_c_name(f).is_some(), "{f}");
        }
    }
}
