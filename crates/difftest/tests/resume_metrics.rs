//! Telemetry equivalence across resume: a killed-and-resumed campaign
//! must report the same `--metrics` totals as an uninterrupted one.
//!
//! Every work unit's exact metric deltas are captured via
//! `obs::with_capture` and stamped into its journal record;
//! `FtSession::apply_replay` merges them back, so work a resume skips
//! still contributes its telemetry.
//!
//! This test owns its binary: it asserts on the process-global obs
//! registry, which tests in a shared binary would race on.

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus};
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use obs::MetricsSnapshot;
use progen::Precision;
use std::collections::BTreeMap;

/// Strip the metrics whose values legitimately differ across a resume:
///
/// * `checkpoint.*` counters — journal bookkeeping; the uninterrupted
///   reference run has no journal at all;
/// * `span.*`, `gpucc.passns.*`, `interp.execns`, and `interp.nsperop`
///   histograms — wall-clock timings, nondeterministic by nature. For
///   the interpreter timing pair the *record counts* are still
///   deterministic (one per execution), so those are kept.
///
/// Everything else (run counts, discrepancy tallies, interpreter op
/// counts, generator stats, …) must match exactly.
fn deterministic_view(snap: &MetricsSnapshot) -> (BTreeMap<String, u64>, Vec<String>) {
    let counters: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("checkpoint."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    // histogram *contents* for the deterministic ones, names-with-counts
    // serialized for a readable assert message
    let hists: Vec<String> = snap
        .hists
        .iter()
        .filter(|(k, _)| !k.starts_with("span.") && !k.starts_with("gpucc.passns."))
        .map(|(k, h)| {
            if k == "interp.execns" || k == "interp.nsperop" {
                format!("{k}: count={}", h.count)
            } else {
                format!("{k}: count={} sum={} min={} max={}", h.count, h.sum, h.min, h.max)
            }
        })
        .collect();
    (counters, hists)
}

#[test]
fn resumed_campaign_metric_totals_match_an_uninterrupted_run() {
    let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(6);

    // --- reference: one uninterrupted campaign, metrics on ---
    obs::reset();
    obs::set_enabled(true);
    let expected = {
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        deterministic_view(&obs::snapshot())
    };

    // --- run 1: checkpoint the nvcc side, then "die" ---
    let dir = std::env::temp_dir().join("difftest_it_resume_metrics");
    std::fs::remove_dir_all(&dir).ok();
    obs::reset();
    obs::set_enabled(true);
    {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }

    // --- run 2: fresh "process" (registry wiped), resume and finish ---
    obs::reset();
    obs::set_enabled(true);
    let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    let resumed = deterministic_view(&obs::snapshot());
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(resumed.0, expected.0, "counter totals must survive the resume");
    assert_eq!(resumed.1, expected.1, "deterministic histograms must survive the resume");
    // sanity: the comparison is not vacuous
    assert!(expected.0.contains_key("campaign.runs_done"));
    assert!(expected.0.contains_key("progen.programs"));
}
