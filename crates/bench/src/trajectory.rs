//! The perf-trajectory emitter: run a fixed-seed campaign once per
//! execution tier, read the telemetry back out of `obs`, and write
//! `BENCH_campaign.json` — the baseline curve the hot-path optimization
//! work (ROADMAP item 1) is measured against.
//!
//! Schema v2 splits the document by execution tier: the same campaign
//! runs through the reference interpreter and through the compiled
//! bytecode vm, side by side, and the document records each tier's
//! throughput (units/sec, runs/sec), compile-vs-exec wall split, and
//! ns-per-op percentiles (bucket-resolution estimates from the log2
//! histograms, each at most 2x the true value), plus the vm-over-interp
//! `tier_speedup` and the byte-identity verdict `reports_identical` —
//! the tier contract, re-proven on every emission. [`check`] validates
//! a document against the schema — the CI `bench-smoke` job runs it on
//! both the freshly emitted file and the committed baseline so schema
//! drift fails loudly instead of silently orphaning the trajectory.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::report::throughput_per_sec;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use progen::Precision;
use std::time::Instant;

/// Schema tag stamped into every emitted document; bump on any
/// structural change and update [`REQUIRED_NUMBERS`] to match.
pub const SCHEMA: &str = "varity-gpu/bench-campaign/v2";

/// Dotted paths of fields that must exist and be numbers.
pub const REQUIRED_NUMBERS: &[&str] = &[
    "config.programs",
    "config.inputs_per_program",
    "config.seed",
    "config.levels",
    "config.sides",
    "tiers.interp.wall_ms",
    "tiers.interp.units",
    "tiers.interp.units_per_sec",
    "tiers.interp.runs",
    "tiers.interp.runs_per_sec",
    "tiers.interp.compile.total_ms",
    "tiers.interp.exec.total_ms",
    "tiers.interp.ns_per_op.count",
    "tiers.interp.ns_per_op.mean",
    "tiers.interp.ns_per_op.p50",
    "tiers.interp.ns_per_op.p90",
    "tiers.interp.ns_per_op.p95",
    "tiers.interp.ns_per_op.p99",
    "tiers.vm.wall_ms",
    "tiers.vm.units",
    "tiers.vm.units_per_sec",
    "tiers.vm.runs",
    "tiers.vm.runs_per_sec",
    "tiers.vm.compile.total_ms",
    "tiers.vm.exec.total_ms",
    "tiers.vm.ns_per_op.count",
    "tiers.vm.ns_per_op.mean",
    "tiers.vm.ns_per_op.p50",
    "tiers.vm.ns_per_op.p90",
    "tiers.vm.ns_per_op.p95",
    "tiers.vm.ns_per_op.p99",
    "tier_speedup",
    "discrepancies",
];

/// The tiers a trajectory point measures, in emission order.
pub const MEASURED_TIERS: [ExecTier; 2] = [ExecTier::Interp, ExecTier::Vm];

/// What to run: a small, deterministic campaign.
#[derive(Debug, Clone)]
pub struct TrajectoryConfig {
    /// Number of generated programs.
    pub programs: usize,
    /// Inputs per program.
    pub inputs: usize,
    /// Campaign seed (fixed seed = comparable trajectory points).
    pub seed: u64,
    /// FP precision under test.
    pub precision: Precision,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig { programs: 60, inputs: 2, seed: 2024, precision: Precision::F64 }
    }
}

/// One tier's measured slice of the trajectory document, plus the
/// serialized analysis report used for the cross-tier identity verdict.
fn run_tier(campaign: &CampaignConfig, tier: ExecTier) -> (serde_json::Value, String, u64, f64) {
    obs::reset();
    let started = Instant::now();
    let mut meta = CampaignMeta::generate(campaign);
    for tc in Toolchain::ALL {
        run_sides_ft(&mut meta, &[tc.into()], &FtSession::plain(), tier);
    }
    let wall_ms = started.elapsed().as_millis() as u64;
    let snap = obs::snapshot();

    let hist = |name: &str| snap.hists.get(name).cloned().unwrap_or_default();
    let units_h = hist("span.campaign.unit");
    let compile_h = hist("span.gpucc.compile");
    let exec_h = hist(&format!("{}.execns", tier.label()));
    let nsperop = hist(&format!("{}.nsperop", tier.label()));

    let wall_s = (wall_ms as f64 / 1e3).max(1e-9);
    let units_per_sec = units_h.count as f64 / wall_s;
    let report = serde_json::to_string(&analyze(&meta)).unwrap_or_default();
    let doc = serde_json::json!({
        "wall_ms": wall_ms,
        // one unit = one (program, toolchain, level) work item; one run
        // = one input execution within a unit
        "units": units_h.count,
        "units_per_sec": units_per_sec,
        "runs": snap.counter("campaign.runs_done"),
        "runs_per_sec": throughput_per_sec(&snap).unwrap_or(0.0),
        "compile": { "total_ms": compile_h.sum as f64 / 1e6 },
        "exec": { "total_ms": exec_h.sum as f64 / 1e6 },
        "ns_per_op": {
            "count": nsperop.count,
            "mean": nsperop.mean(),
            "p50": nsperop.quantile(0.50),
            "p90": nsperop.quantile(0.90),
            "p95": nsperop.quantile(0.95),
            "p99": nsperop.quantile(0.99),
        },
    });
    (doc, report, snap.counter("campaign.discrepancies"), units_per_sec)
}

/// Run the campaign once per tier and emit the trajectory document.
///
/// Resets the global `obs` registry per tier run: each tier's slice
/// describes exactly its own run.
pub fn run(cfg: &TrajectoryConfig) -> serde_json::Value {
    obs::set_enabled(true);
    let mut campaign =
        CampaignConfig::default_for(cfg.precision, TestMode::Direct).with_programs(cfg.programs);
    campaign.seed = cfg.seed;
    campaign.inputs_per_program = cfg.inputs;

    let mut tiers = serde_json::Map::new();
    let mut reports = Vec::new();
    let mut discrepancies = 0;
    let mut rates = Vec::new();
    for tier in MEASURED_TIERS {
        let (doc, report, disc, rate) = run_tier(&campaign, tier);
        tiers.insert(tier.label().to_string(), doc);
        reports.push(report);
        discrepancies = disc;
        rates.push(rate);
    }

    serde_json::json!({
        "schema": SCHEMA,
        "config": {
            "programs": campaign.n_programs,
            "inputs_per_program": campaign.inputs_per_program,
            "seed": campaign.seed,
            "precision": campaign.precision.label(),
            "levels": campaign.levels.len(),
            "sides": Toolchain::ALL.len(),
        },
        "tiers": tiers,
        // vm-over-interp throughput ratio — the headline the compiled
        // tier is accountable for
        "tier_speedup": rates[1] / rates[0].max(1e-9),
        // the tier contract, re-proven on every emission: every tier's
        // analysis report serializes byte-identically
        "reports_identical": reports.windows(2).all(|w| w[0] == w[1]),
        "discrepancies": discrepancies,
        "provenance": {
            "command": format!(
                "cargo run --release -p bench --bin trajectory -- --programs {} --inputs {} --seed {}{}",
                campaign.n_programs,
                campaign.inputs_per_program,
                campaign.seed,
                if cfg.precision == Precision::F32 { " --fp32" } else { "" },
            ),
        },
    })
}

/// Validate a trajectory document against [`SCHEMA`]: the schema tag
/// must match, every [`REQUIRED_NUMBERS`] path must resolve to a JSON
/// number, and `reports_identical` must be `true` (the tiers' reports
/// are bit-identical by contract; a trajectory point that broke that
/// contract must not pass as a baseline). Returns the list of problems
/// (empty = valid).
pub fn check(doc: &serde_json::Value) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    match doc.get("schema").and_then(|s| s.as_str()) {
        Some(s) if s == SCHEMA => {}
        Some(s) => problems.push(format!("schema is {s:?}, expected {SCHEMA:?}")),
        None => problems.push("missing \"schema\" tag".to_string()),
    }
    for path in REQUIRED_NUMBERS {
        let mut cur = doc;
        let mut ok = true;
        for seg in path.split('.') {
            match cur.get(seg) {
                Some(v) => cur = v,
                None => {
                    problems.push(format!("missing field {path}"));
                    ok = false;
                    break;
                }
            }
        }
        if ok && !cur.is_number() {
            problems.push(format!("field {path} is not a number: {cur}"));
        }
    }
    match doc.get("reports_identical").and_then(|v| v.as_bool()) {
        Some(true) => {}
        Some(false) => problems.push(
            "reports_identical is false: the tiers diverged; this document \
             must not be a baseline"
                .to_string(),
        ),
        None => problems.push("missing field reports_identical".to_string()),
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`run`] resets the process-global registry; tests that emit
    /// serialize so concurrent emissions don't pollute each other.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn emitted_document_passes_its_own_schema_check() {
        let _gate = lock();
        let cfg = TrajectoryConfig { programs: 6, inputs: 1, ..Default::default() };
        let doc = run(&cfg);
        check(&doc).expect("fresh emission validates");
        assert_eq!(doc["config"]["programs"].as_u64(), Some(6));
        for tier in ["interp", "vm"] {
            let t = &doc["tiers"][tier];
            assert!(t["units"].as_u64().unwrap() > 0, "{tier}: {doc}");
            assert!(t["runs"].as_u64().unwrap() > 0, "{tier}: {doc}");
            assert!(t["units_per_sec"].as_f64().unwrap() > 0.0, "{tier}: {doc}");
            assert!(t["ns_per_op"]["count"].as_u64().unwrap() > 0, "{tier}: {doc}");
        }
        assert_eq!(doc["reports_identical"], true, "{doc}");
        assert!(doc["tier_speedup"].as_f64().unwrap() > 0.0, "{doc}");
    }

    #[test]
    fn tier_slices_agree_on_work_accounting() {
        let _gate = lock();
        let cfg = TrajectoryConfig { programs: 5, inputs: 2, ..Default::default() };
        let doc = run(&cfg);
        // the tiers run the same campaign: identical unit and run counts,
        // identical discrepancy tallies — only the timings may differ
        for path in ["units", "runs"] {
            assert_eq!(
                doc["tiers"]["interp"][path], doc["tiers"]["vm"][path],
                "{path} must match across tiers"
            );
        }
        assert_eq!(doc["reports_identical"], true);
    }

    #[test]
    fn fixed_seed_reruns_agree_on_work_accounting() {
        let _gate = lock();
        let cfg = TrajectoryConfig { programs: 5, inputs: 2, ..Default::default() };
        let a = run(&cfg);
        let b = run(&cfg);
        // Timing fields differ run to run; the work accounting must not.
        for tier in ["interp", "vm"] {
            for path in ["units", "runs"] {
                assert_eq!(
                    a["tiers"][tier][path], b["tiers"][tier][path],
                    "{tier}.{path} must be deterministic"
                );
            }
        }
        assert_eq!(a["discrepancies"], b["discrepancies"]);
        assert_eq!(a["config"], b["config"]);
    }

    #[test]
    fn check_reports_drift() {
        let mut doc = serde_json::json!({ "schema": SCHEMA });
        let problems = check(&doc).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("tiers.vm.wall_ms")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("reports_identical")), "{problems:?}");
        doc["schema"] = serde_json::json!("varity-gpu/bench-campaign/v1");
        let problems = check(&doc).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("expected")), "{problems:?}");
    }

    #[test]
    fn check_rejects_a_tier_divergent_document() {
        let _gate = lock();
        let cfg = TrajectoryConfig { programs: 3, inputs: 1, ..Default::default() };
        let mut doc = run(&cfg);
        doc["reports_identical"] = serde_json::json!(false);
        let problems = check(&doc).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("diverged")), "{problems:?}");
    }
}
