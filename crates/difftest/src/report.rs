//! ASCII rendering of the paper's tables.

use crate::campaign::{CampaignReport, LevelStats};
use crate::outcome::DiscrepancyClass;
use crate::verdict::Verdict;
use fpcore::classify::Outcome;

/// Render Table IV (summary of experimental results) from up to three
/// campaign reports (FP64, FP64+HIPIFY, FP32).
pub fn render_summary(reports: &[&CampaignReport]) -> String {
    let mut out = String::new();
    out.push_str("TABLE IV — SUMMARY OF EXPERIMENTAL RESULTS\n");
    let headers: Vec<String> = reports
        .iter()
        .map(|r| {
            let mode = match r.config.mode {
                crate::campaign::TestMode::Direct => String::new(),
                crate::campaign::TestMode::Hipified => " with HIPIFY".to_string(),
            };
            format!("{}{}", r.config.precision.label(), mode)
        })
        .collect();
    let mut row = |name: &str, vals: Vec<String>| {
        out.push_str(&format!("{name:<42}"));
        for v in vals {
            out.push_str(&format!("{v:>18}"));
        }
        out.push('\n');
    };
    row("Metric", headers);
    row("Total Programs", reports.iter().map(|r| r.config.n_programs.to_string()).collect());
    row(
        "Total Runs per Option per Compiler",
        reports
            .iter()
            .map(|r| (r.config.n_programs * r.config.inputs_per_program).to_string())
            .collect(),
    );
    row("Total Runs", reports.iter().map(|r| r.total_runs().to_string()).collect());
    row("Runs on NVCC", reports.iter().map(|r| (r.total_runs() / 2).to_string()).collect());
    row("Runs on HIPCC", reports.iter().map(|r| (r.total_runs() / 2).to_string()).collect());
    row(
        "Total Discrepancies",
        reports.iter().map(|r| r.total_discrepancies().to_string()).collect(),
    );
    row(
        "Total Discrepancies (% of Total Runs)",
        reports.iter().map(|r| format!("{:.2}%", r.discrepancy_pct())).collect(),
    );
    out
}

/// Render a per-level class-count table (the paper's Tables V, VII, IX).
pub fn render_per_level(report: &CampaignReport, title: &str) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:<10}{:>12}", "Opt Flags", "Disc. Count"));
    for c in DiscrepancyClass::ALL {
        out.push_str(&format!("{:>12}", c.label()));
    }
    out.push('\n');
    let mut totals = [0u64; 7];
    let mut grand = 0u64;
    for (level, s) in &report.per_level {
        out.push_str(&format!("{:<10}{:>12}", level.label(), s.discrepancies));
        for (i, v) in s.by_class.iter().enumerate() {
            out.push_str(&format!("{v:>12}"));
            totals[i] += v;
        }
        grand += s.discrepancies;
        out.push('\n');
    }
    out.push_str(&format!("{:<10}{grand:>12}", "Total"));
    for v in totals {
        out.push_str(&format!("{v:>12}"));
    }
    out.push('\n');
    out
}

/// Render the adjacency matrices for every level (Tables VI, VIII, X).
///
/// Cell `(row o1, col o2)` above the diagonal prints "a, b" where `a` is
/// the number of discrepancies with NVCC=o1/HIPCC=o2 and `b` the count
/// with NVCC=o2/HIPCC=o1; the `Num` diagonal prints the (symmetric)
/// `Num, Num` count twice, matching the paper's layout.
pub fn render_adjacency(report: &CampaignReport, title: &str) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (level, s) in &report.per_level {
        out.push_str(&format!("-- {} --\n", level.label()));
        out.push_str(&format!("{:<14}", "NVCC\\HIPCC"));
        for o in Outcome::ALL {
            out.push_str(&format!("{:>16}", format!("(±) {}", o.label())));
        }
        out.push('\n');
        for (i, row) in Outcome::ALL.iter().enumerate() {
            out.push_str(&format!("{:<14}", format!("(±) {}", row.label())));
            for (j, _col) in Outcome::ALL.iter().enumerate() {
                let cell = if j < i {
                    "-".to_string()
                } else if i == j {
                    let v = s.adjacency[i][j];
                    if *row == Outcome::Num {
                        format!("{v}, {v}")
                    } else {
                        "-".to_string()
                    }
                } else {
                    format!("{}, {}", s.adjacency[i][j], s.adjacency[j][i])
                };
                out.push_str(&format!("{cell:>16}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Render the who-drifted verdict table: one row per level tallying each
/// nvcc–hipcc discrepancy's verdict against the double-double ground
/// truth, plus the per-side ULP-from-truth totals. Returns the empty
/// string for reports analyzed without the reference side, so two-side
/// output is unchanged.
pub fn render_verdicts(report: &CampaignReport) -> String {
    if !report.has_verdicts() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("WHO DRIFTED — VERDICTS VS DOUBLE-DOUBLE GROUND TRUTH\n");
    out.push_str(&format!("{:<10}{:>8}", "Opt Flags", "Judged"));
    for v in Verdict::ALL {
        out.push_str(&format!("{:>16}", v.label()));
    }
    out.push_str(&format!("{:>14}{:>14}\n", "nvcc ulps", "hipcc ulps"));
    let mut render_row = |label: &str, s: &crate::verdict::VerdictStats| {
        out.push_str(&format!("{label:<10}{:>8}", s.judged));
        for v in Verdict::ALL {
            out.push_str(&format!("{:>16}", s.by_verdict[v.index()]));
        }
        out.push_str(&format!("{:>14}{:>14}\n", s.nvcc_ulps_total, s.hipcc_ulps_total));
    };
    for (level, s) in &report.per_level {
        if let Some(v) = &s.verdicts {
            render_row(level.label(), v);
        }
    }
    if let Some(total) = report.verdict_totals() {
        render_row("Total", &total);
        out.push_str(&format!(
            "{} of {} judged discrepancies decided; worst drift {} ulps (nvcc), {} ulps (hipcc)\n",
            total.decided(),
            total.judged,
            total.nvcc_ulps_max,
            total.hipcc_ulps_max
        ));
    }
    out
}

/// One-paragraph textual digest of a report (used by examples).
pub fn render_digest(report: &CampaignReport) -> String {
    format!(
        "{} {} campaign: {} programs × {} inputs × {} levels × 2 compilers = {} runs; \
         {} discrepancies ({:.2}%), worst level {}",
        report.config.precision.label(),
        report.config.mode.label(),
        report.config.n_programs,
        report.config.inputs_per_program,
        report.config.levels.len(),
        report.total_runs(),
        report.total_discrepancies(),
        report.discrepancy_pct(),
        report
            .per_level
            .iter()
            .max_by_key(|(_, s)| s.discrepancies)
            .map(|(l, _)| l.label())
            .unwrap_or("-"),
    )
}

/// Classify a stored [`RunRecord`] error string into a short category
/// label for the failures listing: `step_budget`, `timeout`, `panic`, or
/// the generic `error`. The prefixes match the `Display` impls of
/// [`gpucc::interp::ExecError`] and the panic capture in [`crate::fault`].
pub fn error_category(error: &str) -> &'static str {
    if error.starts_with("step budget exhausted") {
        "step_budget"
    } else if error.starts_with("wall-clock budget exhausted") {
        "timeout"
    } else if error.starts_with("panic: ") {
        "panic"
    } else {
        "error"
    }
}

/// List every failing (program, level, input) triple in a completed
/// campaign — the "small tests" inventory the paper hands to vendors.
///
/// Runs where one side failed to execute (fuel exhaustion, wall-clock
/// timeout, or an isolated panic) are listed too, with the error category
/// in place of a discrepancy class; a separate "errored runs" tail line
/// appears only when at least one such run exists, so error-free
/// campaigns render exactly as before.
pub fn render_failures(meta: &crate::metadata::CampaignMeta) -> String {
    use crate::campaign::decode;
    use crate::compare::compare_runs;
    use crate::metadata::side_key;
    use gpucc::pipeline::Toolchain;

    let mut out = String::new();
    let mut n = 0usize;
    let mut errored = 0usize;
    for test in &meta.tests {
        for (level, _) in meta.config.levels.iter().map(|l| (*l, ())) {
            let (Some(nv), Some(amd)) = (
                test.results.get(&side_key(Toolchain::Nvcc, level)),
                test.results.get(&side_key(Toolchain::Hipcc, level)),
            ) else {
                continue;
            };
            for (k, (rn, ra)) in nv.iter().zip(amd).enumerate() {
                if rn.error.is_some() || ra.error.is_some() {
                    errored += 1;
                    let (side, err) = match &rn.error {
                        Some(e) => ("nvcc", e.as_str()),
                        None => ("hipcc", ra.error.as_deref().unwrap_or("")),
                    };
                    out.push_str(&format!(
                        "{:<22} {:<6} input {:<3} [{:<10}] {side}: {err}\n",
                        test.program_id,
                        level.label(),
                        k,
                        error_category(err),
                    ));
                    continue;
                }
                let vn = decode(meta.config.precision, rn.bits);
                let va = decode(meta.config.precision, ra.bits);
                if let Some(d) = compare_runs(&vn, &va) {
                    n += 1;
                    out.push_str(&format!(
                        "{:<22} {:<6} input {:<3} [{:<10}] nvcc={:<24} hipcc={}\n",
                        test.program_id,
                        level.label(),
                        k,
                        d.class.label(),
                        rn.printed,
                        ra.printed
                    ));
                }
            }
        }
    }
    if errored > 0 {
        out.push_str(&format!("{errored} errored runs (excluded from comparison)\n"));
    }
    out.push_str(&format!("{n} failing runs\n"));
    out
}

/// Render an ASCII profile table from a campaign's telemetry snapshot:
/// span timings (milliseconds), non-span distributions (raw units), and
/// every counter. This is what `varity-gpu analyze --profile` prints.
pub fn render_profile(snap: &obs::MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("CAMPAIGN PROFILE\n");

    out.push_str("-- Phase / span timings --\n");
    out.push_str(&format!(
        "{:<34}{:>8}{:>12}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "Span", "Count", "Total ms", "Mean ms", "p50 ms", "p95 ms", "p99 ms", "Max ms"
    ));
    // Heaviest spans first: sorted by total time, so the top line is the
    // phase to optimize. Percentiles are bucket-resolution estimates
    // from the log2 histograms (each at most 2x the true value).
    let mut spans: Vec<(&str, &obs::HistSnapshot)> = snap
        .hists
        .iter()
        .filter_map(|(name, h)| name.strip_prefix("span.").map(|s| (s, h)))
        .collect();
    spans.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then(a.0.cmp(b.0)));
    for (span, h) in spans {
        out.push_str(&format!(
            "{:<34}{:>8}{:>12.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}{:>10.2}\n",
            span,
            h.count,
            h.sum as f64 / 1e6,
            h.mean() / 1e6,
            h.quantile(0.50) as f64 / 1e6,
            h.quantile(0.95) as f64 / 1e6,
            h.quantile(0.99) as f64 / 1e6,
            h.max as f64 / 1e6
        ));
    }

    if let Some(tput) = throughput_per_sec(snap) {
        out.push_str(&format!("{:<34}{tput:>22.0} runs/sec\n", "throughput"));
    }

    out.push_str(&render_exec_tiers(snap));

    let other: Vec<_> = snap.hists.iter().filter(|(n, _)| !n.starts_with("span.")).collect();
    if !other.is_empty() {
        out.push_str("-- Distributions --\n");
        out.push_str(&format!(
            "{:<34}{:>8}{:>14}{:>14}{:>14}\n",
            "Histogram", "Count", "Mean", "Min", "Max"
        ));
        for (name, h) in other {
            out.push_str(&format!(
                "{:<34}{:>8}{:>14.1}{:>14}{:>14}\n",
                name,
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
    }

    out.push_str("-- Counters --\n");
    for (name, v) in &snap.counters {
        out.push_str(&format!("{name:<48}{v:>14}\n"));
    }
    out
}

/// Render the per-tier execution cost table: one row per executor
/// (`interp`, `vm`, the double-double `reference`) that recorded work,
/// so a profile of a differential or mixed-tier campaign attributes its
/// executions unambiguously. The tier label is the row key — previously
/// both tiers' `*.nsperop` histograms sat undifferentiated in the raw
/// distribution dump. Returns the empty string when no tier recorded an
/// execution.
pub fn render_exec_tiers(snap: &obs::MetricsSnapshot) -> String {
    let mut out = String::new();
    for tier in ["interp", "vm", "reference"] {
        let execs = snap.counter(&format!("{tier}.execs"));
        let ops = snap.counter(&format!("{tier}.ops"));
        let Some(execns) = snap.hists.get(&format!("{tier}.execns")) else { continue };
        if execs == 0 || ops == 0 {
            continue;
        }
        if out.is_empty() {
            out.push_str("-- Execution tiers --\n");
            out.push_str(&format!(
                "{:<34}{:>8}{:>14}{:>12}{:>12}{:>12}\n",
                "Tier", "Execs", "Ops", "Total ms", "ns/op", "p95 ns/op"
            ));
        }
        let nsperop = snap.hists.get(&format!("{tier}.nsperop"));
        out.push_str(&format!(
            "{:<34}{:>8}{:>14}{:>12.2}{:>12.1}{:>12}\n",
            tier,
            execs,
            ops,
            execns.sum as f64 / 1e6,
            execns.sum as f64 / ops as f64,
            nsperop.map_or(0, |h| h.quantile(0.95)),
        ));
    }
    out
}

/// Campaign throughput in runs per second, if the snapshot has both the
/// run counter and the run span: `span.campaign.run`, plus the per-side
/// `span.campaign.run.{nvcc,hipcc,reference}` spans that metadata saved
/// by side-major builds carries.
pub fn throughput_per_sec(snap: &obs::MetricsSnapshot) -> Option<f64> {
    let runs = snap.counter("campaign.runs_done");
    let ns: u64 = [
        "span.campaign.run",
        "span.campaign.run.nvcc",
        "span.campaign.run.hipcc",
        "span.campaign.run.reference",
    ]
    .iter()
    .filter_map(|k| snap.hists.get(*k))
    .map(|h| h.sum)
    .sum();
    if runs == 0 || ns == 0 {
        return None;
    }
    Some(runs as f64 / (ns as f64 / 1e9))
}

/// Render the "discrepancies by responsible pass" table — the paper's §V
/// root-causing, as recorded data.
pub fn render_attribution(attr: &crate::attribution::AttributionReport) -> String {
    let mut out = String::new();
    out.push_str("DISCREPANCIES BY RESPONSIBLE PASS\n");
    out.push_str(&format!("{:<22}{:>12}{:>10}", "Pass", "Disc. Count", "Unique"));
    for c in DiscrepancyClass::ALL {
        out.push_str(&format!("{:>12}", c.label()));
    }
    if attr.has_verdicts {
        for v in Verdict::ALL {
            out.push_str(&format!("{:>16}", v.label()));
        }
    }
    out.push('\n');
    for row in &attr.rows {
        out.push_str(&format!(
            "{:<22}{:>12}{:>10}",
            row.key, row.discrepancies, row.unique_findings
        ));
        for v in row.by_class {
            out.push_str(&format!("{v:>12}"));
        }
        if attr.has_verdicts {
            for v in row.by_verdict {
                out.push_str(&format!("{v:>16}"));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{} discrepancies, {} in kernels a fast-math pass rewrote \
         (rows overlap when several passes fired on the same kernel; \
         Unique counts distinct program/level/class findings once, \
         however many inputs or overlapping shards reported them)\n",
        attr.total_discrepancies, attr.attributed
    ));
    out
}

/// Bar rendering of class proportions (the paper's in-table bar charts).
pub fn render_class_bars(stats: &LevelStats, width: usize) -> String {
    let total = stats.discrepancies.max(1);
    let mut out = String::new();
    for (i, c) in DiscrepancyClass::ALL.iter().enumerate() {
        let n = stats.by_class[i];
        let bar = "#".repeat((n as usize * width / total as usize).min(width));
        out.push_str(&format!("{:<10} {n:>8} |{bar}\n", c.label()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig, TestMode};
    use crate::checkpoint::{run_sides_ft, FtSession};
    use crate::side::Side;
    use gpucc::ExecTier;
    use progen::ast::Precision;

    fn report() -> CampaignReport {
        run_campaign(
            &CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(20),
        )
    }

    #[test]
    fn summary_contains_key_rows() {
        let r = report();
        let s = render_summary(&[&r]);
        assert!(s.contains("Total Programs"));
        assert!(s.contains("Total Discrepancies (% of Total Runs)"));
        assert!(s.contains("FP64"));
        assert!(s.contains('%'));
    }

    #[test]
    fn per_level_table_has_all_levels_and_total() {
        let r = report();
        let s = render_per_level(&r, "TABLE V");
        for l in ["O0", "O1", "O2", "O3", "O3_FM", "Total"] {
            assert!(s.contains(l), "missing {l}:\n{s}");
        }
        for c in DiscrepancyClass::ALL {
            assert!(s.contains(c.label()));
        }
    }

    #[test]
    fn adjacency_has_one_matrix_per_level() {
        let r = report();
        let s = render_adjacency(&r, "TABLE VI");
        assert_eq!(s.matches("NVCC\\HIPCC").count(), 5);
        assert!(s.contains("(±) NaN"));
        assert!(s.contains("(±) Num"));
    }

    #[test]
    fn verdict_table_renders_only_with_the_reference_side() {
        use crate::metadata::CampaignMeta;
        let r = report();
        assert_eq!(render_verdicts(&r), "", "two-side reports have no verdict table");

        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(60);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
        let s = render_verdicts(&crate::campaign::analyze(&meta));
        assert!(s.contains("WHO DRIFTED"), "{s}");
        for v in Verdict::ALL {
            assert!(s.contains(v.label()), "missing column {}: {s}", v.label());
        }
        for l in ["O0", "O3_FM", "Total"] {
            assert!(s.contains(l), "missing row {l}: {s}");
        }
        assert!(s.contains("judged discrepancies decided"), "{s}");
    }

    #[test]
    fn digest_mentions_discrepancy_percentage() {
        let r = report();
        let d = render_digest(&r);
        assert!(d.contains('%'));
        assert!(d.contains("FP64"));
    }

    #[test]
    fn failures_listing_reconciles_with_totals() {
        use crate::metadata::CampaignMeta;
        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(60);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let report = crate::campaign::analyze(&meta);
        let listing = render_failures(&meta);
        let expected = report.total_discrepancies();
        assert!(
            listing.ends_with(&format!("{expected} failing runs\n")),
            "listing tail: {:?}",
            listing.lines().last()
        );
        // one line per failure + the summary line
        assert_eq!(listing.lines().count() as u64, expected + 1);
    }

    #[test]
    fn failures_listing_surfaces_errored_runs_by_category() {
        use crate::metadata::{side_key, CampaignMeta};
        use gpucc::pipeline::{OptLevel, Toolchain};
        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(5);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        // forge one error of each kind into stored records
        let key = side_key(Toolchain::Nvcc, OptLevel::O0);
        let recs = meta.tests[0].results.get_mut(&key).unwrap();
        recs[0].error = Some("step budget exhausted: 10 steps executed, budget 10".into());
        recs[1].error = Some("wall-clock budget exhausted: 1 ms, 300 steps executed".into());
        recs[2].error = Some("panic: chaos: injected interpreter fault".into());
        let listing = render_failures(&meta);
        assert!(listing.contains("step_budget"), "{listing}");
        assert!(listing.contains("timeout"), "{listing}");
        assert!(listing.contains("panic"), "{listing}");
        assert!(listing.contains("3 errored runs"), "{listing}");
        assert!(listing.lines().last().unwrap().ends_with("failing runs"));
        assert_eq!(error_category("something else entirely"), "error");
    }

    #[test]
    fn profile_table_shows_spans_counters_and_throughput() {
        use crate::metadata::CampaignMeta;
        obs::reset();
        obs::set_enabled(true);
        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(20);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let snap = obs::snapshot();
        let s = render_profile(&snap);
        assert!(s.contains("CAMPAIGN PROFILE"));
        assert!(s.contains("campaign.generate"), "{s}");
        assert!(
            s.lines().any(|l| l.split_whitespace().next() == Some("campaign.run")),
            "no campaign.run span row: {s}"
        );
        assert!(s.contains("campaign.runs_done"), "{s}");
        assert!(s.contains("runs/sec"), "{s}");
        assert!(s.contains("progen.ast_stmts"), "{s}");
        assert!(throughput_per_sec(&snap).unwrap() > 0.0);
    }

    #[test]
    fn throughput_reads_the_run_span_and_legacy_per_side_spans() {
        // metadata saved by side-major builds timed each side under its
        // own `campaign.run.{side}` span and has no `campaign.run`
        let legacy = obs::Registry::new();
        legacy.counter("campaign.runs_done").add(3_000);
        legacy.hist("span.campaign.run.nvcc").record(1_000_000_000);
        legacy.hist("span.campaign.run.hipcc").record(600_000_000);
        legacy.hist("span.campaign.run.reference").record(400_000_000);
        assert_eq!(throughput_per_sec(&legacy.snapshot()), Some(1_500.0));

        let current = obs::Registry::new();
        current.counter("campaign.runs_done").add(3_000);
        current.hist("span.campaign.run").record(2_000_000_000);
        assert_eq!(throughput_per_sec(&current.snapshot()), Some(1_500.0));

        let no_span = obs::Registry::new();
        no_span.counter("campaign.runs_done").add(3_000);
        assert_eq!(throughput_per_sec(&no_span.snapshot()), None);
    }

    #[test]
    fn profile_labels_per_op_rows_by_execution_tier() {
        use crate::metadata::CampaignMeta;
        obs::reset();
        obs::set_enabled(true);
        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(6);
        let mut meta = CampaignMeta::generate(&cfg);
        // differential runs both tiers, so the profile must show one
        // labeled row per tier
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Differential);
        let snap = obs::snapshot();
        let s = render_profile(&snap);
        assert!(s.contains("-- Execution tiers --"), "{s}");
        let tier_lines: Vec<&str> =
            s.lines().filter(|l| l.starts_with("interp ") || l.starts_with("vm ")).collect();
        assert_eq!(tier_lines.len(), 2, "one labeled row per tier: {s}");
        for line in tier_lines {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let ops: u64 = cols[2].parse().expect("ops column parses");
            let ns_per_op: f64 = cols[4].parse().expect("ns/op column parses");
            assert!(ops > 0, "{line}");
            assert!(ns_per_op > 0.0, "{line}");
        }

        // an interp-only campaign shows exactly the interp row
        obs::reset();
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let s = render_profile(&obs::snapshot());
        assert!(s.lines().any(|l| l.starts_with("interp ")), "{s}");
        assert!(!s.lines().any(|l| l.starts_with("vm ")), "{s}");
    }

    #[test]
    fn profile_span_table_has_percentiles_and_sorts_by_total_time() {
        let mut snap = obs::MetricsSnapshot::default();
        let big = obs::Histogram::new();
        for _ in 0..100 {
            big.record(4_000_000); // 100 x 4ms
        }
        big.record(400_000_000); // one 400ms outlier
        let small = obs::Histogram::new();
        small.record(1_000_000); // 1ms total
                                 // alphabetical order (a_light first) is the opposite of weight
                                 // order, so the assertion below really exercises the sort
        snap.hists.insert("span.z_heavy".into(), big.snapshot());
        snap.hists.insert("span.a_light".into(), small.snapshot());

        let s = render_profile(&snap);
        for col in ["p50 ms", "p95 ms", "p99 ms"] {
            assert!(s.contains(col), "missing column {col}: {s}");
        }
        let heavy_at = s.find("z_heavy").expect("heavy row");
        let light_at = s.find("a_light").expect("light row");
        assert!(heavy_at < light_at, "rows must be sorted by total time: {s}");
        // p50 stays near 4ms while the max is the 400ms outlier; the
        // bucket-resolution p50 can overshoot by at most 2x.
        let heavy_line = s.lines().find(|l| l.contains("z_heavy")).unwrap();
        let cols: Vec<&str> = heavy_line.split_whitespace().collect();
        let p50: f64 = cols[4].parse().expect("p50 column parses");
        let max: f64 = cols[7].parse().expect("max column parses");
        assert!(p50 < 10.0, "p50 should be near 4ms, got {p50}: {heavy_line}");
        assert!(max > 300.0, "max should be the outlier, got {max}: {heavy_line}");
    }

    #[test]
    fn profile_of_empty_snapshot_omits_throughput() {
        let snap = obs::MetricsSnapshot::default();
        let s = render_profile(&snap);
        assert!(s.contains("CAMPAIGN PROFILE"));
        assert!(!s.contains("runs/sec"));
        assert_eq!(throughput_per_sec(&snap), None);
    }

    #[test]
    fn attribution_table_lists_rows_and_footer() {
        use crate::attribution::{attribute, UNATTRIBUTED};
        use crate::metadata::CampaignMeta;
        let cfg = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(60);
        let mut meta = CampaignMeta::generate(&cfg);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let attr = attribute(&meta);
        let s = render_attribution(&attr);
        assert!(s.contains("DISCREPANCIES BY RESPONSIBLE PASS"));
        assert!(s.contains("Unique"), "deduplicated findings column missing: {s}");
        for c in DiscrepancyClass::ALL {
            assert!(s.contains(c.label()), "{s}");
        }
        assert!(s.contains(&format!("{} discrepancies", attr.total_discrepancies)));
        for row in &attr.rows {
            assert!(row.key.contains(':') || row.key == UNATTRIBUTED, "odd row key {}", row.key);
            assert!(s.contains(&row.key), "{s}");
        }
    }

    #[test]
    fn class_bars_render_within_width() {
        let r = report();
        let (_, stats) = &r.per_level[0];
        let bars = render_class_bars(stats, 40);
        for line in bars.lines() {
            assert!(line.len() <= 70, "{line}");
        }
        assert_eq!(bars.lines().count(), 7);
    }
}
