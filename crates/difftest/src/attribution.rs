//! Pass attribution: which fast-math passes rewrote discrepant kernels.
//!
//! The paper's §V case studies root-caused discrepancies to individual
//! mechanisms (reassociation, finite-math-only, HIPIFY's contraction
//! default) by hand. This module does it as recorded data: for every
//! discrepant (program, level) pair it recompiles both sides — compilation
//! is deterministic, so the recompile reproduces exactly what the campaign
//! did — and attributes the discrepancies to every *semantic* pass that
//! actually rewrote the kernel, aggregated into a "discrepancies by
//! responsible pass" table.
//!
//! Structural passes (`const-fold`, `cse`, `dce`) are excluded: both
//! toolchains run them identically, so they never cause a divergence.
//! Discrepancies where no semantic pass fired on either side (e.g. at O0,
//! where math-library and FTZ differences are the only mechanisms) land in
//! an explicit "(no pass fired)" row rather than being dropped.

use crate::campaign::decode;
use crate::compare::compare_runs;
use crate::metadata::{build_side_with_stats, reference_key, side_key, CampaignMeta};
use crate::outcome::DiscrepancyClass;
use crate::verdict::{judge, Verdict};
use gpucc::pipeline::Toolchain;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Passes whose rewrites change floating-point semantics and can
/// therefore be responsible for a between-compiler discrepancy.
pub const SEMANTIC_PASSES: [&str; 4] = ["reassoc", "finite-math", "recip", "fma-contract"];

/// Row key for discrepancies where no semantic pass fired on either side
/// (math-library / FTZ divergence, the O0 mechanisms).
pub const UNATTRIBUTED: &str = "(no pass fired)";

/// One row of the "discrepancies by responsible pass" table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PassRow {
    /// `"{toolchain}:{pass}"` (e.g. `nvcc:reassoc`), or [`UNATTRIBUTED`].
    pub key: String,
    /// Discrepancies in kernels this pass rewrote. A discrepancy counts
    /// toward every pass that fired on its kernel, so rows can overlap.
    pub discrepancies: u64,
    /// Breakdown per [`DiscrepancyClass`] (in `ALL` order).
    pub by_class: [u64; 7],
    /// Who-drifted breakdown per [`Verdict`] (in `ALL` order), judged
    /// against the double-double ground truth. All-zero — and omitted
    /// from JSON — when the campaign ran without the reference side.
    #[serde(skip_serializing_if = "verdict_tally_is_empty")]
    pub by_verdict: [u64; 4],
    /// Distinct (program, level, discrepancy-class) findings behind
    /// `discrepancies`. The same finding tripped by several inputs — or
    /// shipped twice by overlapping crash-replay shards — counts once
    /// here, so this is the deduplicated "how many different bugs did
    /// this pass expose" figure.
    pub unique_findings: u64,
}

fn verdict_tally_is_empty(t: &[u64; 4]) -> bool {
    t.iter().all(|&v| v == 0)
}

/// The aggregated pass-attribution table for one campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AttributionReport {
    /// Rows sorted by descending discrepancy count (ties by key).
    pub rows: Vec<PassRow>,
    /// Total discrepancies examined (equals the analyze report's total).
    pub total_discrepancies: u64,
    /// Discrepancies with at least one semantic pass fired.
    pub attributed: u64,
    /// Whether rows carry who-drifted tallies (the reference side ran).
    #[serde(skip_serializing_if = "std::ops::Not::not")]
    pub has_verdicts: bool,
}

/// Per-row accumulator: the overlapping tallies plus the set of
/// distinct (program, level-position, class) findings behind them.
#[derive(Default, Clone)]
struct RowAgg {
    n: u64,
    by_class: [u64; 7],
    by_verdict: [u64; 4],
    findings: BTreeSet<(u64, usize, usize)>,
}

#[derive(Default, Clone)]
struct Agg {
    rows: BTreeMap<String, RowAgg>,
    total: u64,
    attributed: u64,
}

impl Agg {
    fn fold(mut self, other: Agg) -> Agg {
        for (k, r) in other.rows {
            let e = self.rows.entry(k).or_default();
            e.n += r.n;
            for (i, v) in r.by_class.iter().enumerate() {
                e.by_class[i] += v;
            }
            for (i, v) in r.by_verdict.iter().enumerate() {
                e.by_verdict[i] += v;
            }
            e.findings.extend(r.findings);
        }
        self.total += other.total;
        self.attributed += other.attributed;
        self
    }
}

/// Build the pass-attribution report for a completed campaign.
///
/// Only discrepant (program, level) pairs are recompiled, so the cost is
/// proportional to the discrepancy count, not the campaign size.
pub fn attribute(meta: &CampaignMeta) -> AttributionReport {
    let _span = obs::span("campaign.attribute");
    let config = &meta.config;
    let has_verdicts = meta.has_reference();
    let agg = crate::par::map(&meta.tests, |test| {
        let mut agg = Agg::default();
        let mut program = None;
        let truth_recs = test.results.get(&reference_key());
        for (level_pos, level) in config.levels.iter().enumerate() {
            let nv = test.results.get(&side_key(Toolchain::Nvcc, *level));
            let amd = test.results.get(&side_key(Toolchain::Hipcc, *level));
            let (Some(nv), Some(amd)) = (nv, amd) else { continue };
            let mut classes: Vec<(DiscrepancyClass, Option<Verdict>)> = Vec::new();
            for (k, (rn, ra)) in nv.iter().zip(amd).enumerate() {
                if rn.error.is_some() || ra.error.is_some() {
                    continue;
                }
                let vn = decode(config.precision, rn.bits);
                let va = decode(config.precision, ra.bits);
                if let Some(d) = compare_runs(&vn, &va) {
                    let verdict = has_verdicts.then(|| {
                        let truth = truth_recs
                            .and_then(|rs| rs.get(k))
                            .filter(|r| r.error.is_none())
                            .map(|r| decode(config.precision, r.bits));
                        judge(&vn, &va, truth.as_ref(), level.is_fast_math()).verdict
                    });
                    classes.push((d.class, verdict));
                }
            }
            if classes.is_empty() {
                continue;
            }
            agg.total += classes.len() as u64;
            let program = program.get_or_insert_with(|| meta.program_for(test));
            let mut keys: Vec<String> = Vec::new();
            for tc in Toolchain::ALL {
                let (_, stats) = build_side_with_stats(program, tc, *level, config.mode);
                for name in stats.fired_passes() {
                    if SEMANTIC_PASSES.contains(&name) {
                        keys.push(format!("{}:{}", tc.name(), name));
                    }
                }
            }
            if keys.is_empty() {
                keys.push(UNATTRIBUTED.to_string());
            } else {
                agg.attributed += classes.len() as u64;
            }
            for key in keys {
                let e = agg.rows.entry(key).or_default();
                for (class, verdict) in &classes {
                    e.n += 1;
                    e.by_class[class.index()] += 1;
                    if let Some(v) = verdict {
                        e.by_verdict[v.index()] += 1;
                    }
                    e.findings.insert((test.index, level_pos, class.index()));
                }
            }
        }
        agg
    })
    .into_iter()
    .fold(Agg::default(), Agg::fold);

    let mut rows: Vec<PassRow> = agg
        .rows
        .into_iter()
        .map(|(key, r)| PassRow {
            key,
            discrepancies: r.n,
            by_class: r.by_class,
            by_verdict: r.by_verdict,
            unique_findings: r.findings.len() as u64,
        })
        .collect();
    rows.sort_by(|a, b| b.discrepancies.cmp(&a.discrepancies).then_with(|| a.key.cmp(&b.key)));
    AttributionReport {
        rows,
        total_discrepancies: agg.total,
        attributed: agg.attributed,
        has_verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{analyze, CampaignConfig, TestMode};
    use gpucc::pipeline::OptLevel;
    use gpusim::QuirkSet;
    use progen::ast::Precision;

    fn completed(n: usize) -> CampaignMeta {
        let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(n);
        let mut meta = CampaignMeta::generate(&config);
        meta.run_side(Toolchain::Nvcc);
        meta.run_side(Toolchain::Hipcc);
        meta
    }

    #[test]
    fn totals_match_the_analyze_report() {
        let meta = completed(80);
        let report = analyze(&meta);
        let attr = attribute(&meta);
        assert_eq!(attr.total_discrepancies, report.total_discrepancies());
        assert!(attr.attributed <= attr.total_discrepancies);
        // every row's class breakdown is internally consistent
        for row in &attr.rows {
            assert_eq!(row.by_class.iter().sum::<u64>(), row.discrepancies, "{}", row.key);
        }
    }

    #[test]
    fn unique_findings_dedupe_repeated_inputs_and_bound_the_rows() {
        let meta = completed(80);
        let attr = attribute(&meta);
        assert!(attr.total_discrepancies > 0, "80-program campaign found nothing");
        for row in &attr.rows {
            assert!(row.unique_findings >= 1, "{}", row.key);
            assert!(row.unique_findings <= row.discrepancies, "{}", row.key);
            // each discrepancy class with hits contributes at least one
            // distinct (program, level, class) finding
            let classes_hit = row.by_class.iter().filter(|&&c| c > 0).count() as u64;
            assert!(row.unique_findings >= classes_hit, "{}", row.key);
        }
    }

    #[test]
    fn overlapping_crash_replay_shards_attribute_identically() {
        // a fleet re-lease shipped one shard twice: after the
        // merge-level dedup, `analyze --profile`'s attribution (counts,
        // classes, unique findings) must match the clean merge exactly
        let config =
            CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(40);
        let shards: Vec<CampaignMeta> = CampaignMeta::generate(&config)
            .shard(4)
            .into_iter()
            .map(|mut s| {
                s.run_side(Toolchain::Nvcc);
                s.run_side(Toolchain::Hipcc);
                s
            })
            .collect();
        let clean = CampaignMeta::merge_shards(shards.clone()).unwrap();
        let mut overlapping = shards;
        let dup = overlapping[2].clone();
        overlapping.push(dup);
        let merged = CampaignMeta::merge_shards(overlapping).unwrap();
        assert_eq!(attribute(&merged), attribute(&clean));
    }

    #[test]
    fn fast_math_discrepancies_name_nvcc_passes() {
        // O3_FM only: every discrepancy involves a kernel the nvcc
        // fast-math bundle (or contraction) rewrote
        let mut config =
            CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(120);
        config.levels = vec![OptLevel::O3Fm];
        let mut meta = CampaignMeta::generate(&config);
        meta.run_side(Toolchain::Nvcc);
        meta.run_side(Toolchain::Hipcc);
        let attr = attribute(&meta);
        assert!(attr.total_discrepancies > 0, "O3_FM campaign found nothing");
        assert!(
            attr.rows.iter().any(|r| r.key.starts_with("nvcc:")),
            "no nvcc fast-math pass attributed: {:?}",
            attr.rows
        );
    }

    #[test]
    fn verdict_tallies_ride_the_rows_when_the_reference_ran() {
        let meta = completed(80);
        let attr = attribute(&meta);
        assert!(!attr.has_verdicts);
        assert!(attr.rows.iter().all(|r| r.by_verdict == [0; 4]));

        let mut meta = completed(80);
        meta.run_reference();
        let attr = attribute(&meta);
        assert!(attr.has_verdicts);
        // every discrepancy in every row received some verdict
        for row in &attr.rows {
            assert_eq!(row.by_verdict.iter().sum::<u64>(), row.discrepancies, "{}", row.key);
        }
        // fast-math rows (nvcc:* / hipcc:* semantic passes fire at O3_FM)
        // must include undecided tallies when their discrepancies live in
        // fast-math cells
        let undecided: u64 =
            attr.rows.iter().map(|r| r.by_verdict[Verdict::TruthUndecided.index()]).sum();
        assert!(undecided > 0, "an 80-program campaign has fast-math discrepancies");
    }

    #[test]
    fn quirkless_o0_campaign_attributes_nothing() {
        let mut config =
            CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(20);
        config.quirks = QuirkSet::none();
        config.levels = vec![OptLevel::O0];
        let mut meta = CampaignMeta::generate(&config);
        meta.run_side(Toolchain::Nvcc);
        meta.run_side(Toolchain::Hipcc);
        let attr = attribute(&meta);
        assert_eq!(attr.total_discrepancies, 0);
        assert!(attr.rows.is_empty());
    }
}
