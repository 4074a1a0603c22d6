//! Tracing must be a pure observer: a killed-and-resumed campaign run
//! with the trace sink active yields a report byte-identical to an
//! uninterrupted, untraced run, and the collected events render as
//! valid Chrome trace-event JSON.
//!
//! This test owns its binary: it drives the process-global obs
//! registry and trace sink, which tests in a shared binary would race
//! on.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus};
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use progen::Precision;

#[test]
fn traced_kill_and_resume_report_is_byte_identical_to_untraced_run() {
    let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(6);

    // --- reference: uninterrupted, tracing off ---
    obs::reset();
    obs::set_enabled(true);
    let reference = {
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        serde_json::to_vec(&analyze(&meta)).unwrap()
    };

    // --- run 1: tracing on, checkpoint the nvcc side, then "die" ---
    let dir = std::env::temp_dir().join("difftest_it_trace_resume");
    std::fs::remove_dir_all(&dir).ok();
    obs::reset();
    obs::set_enabled(true);
    obs::trace::start();
    {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    let first_events = obs::trace::stop();
    assert!(!first_events.is_empty(), "the traced half produced no events");

    // --- run 2: fresh "process", tracing on again, resume and finish ---
    obs::reset();
    obs::set_enabled(true);
    obs::trace::start();
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
    let events = obs::trace::stop();
    std::fs::remove_dir_all(&dir).ok();

    let resumed = serde_json::to_vec(&analyze(&meta)).unwrap();
    assert_eq!(resumed, reference, "tracing changed the resumed campaign's report");

    // The events render as loadable Chrome trace JSON: complete ("X")
    // unit and compile spans with microsecond timestamps.
    assert!(!events.is_empty(), "the resumed run produced no events");
    let doc: serde_json::Value = serde_json::from_str(&obs::trace::chrome_json(&events))
        .expect("chrome_json emits valid JSON");
    let rows = doc["traceEvents"].as_array().expect("traceEvents array");
    assert_eq!(rows.len(), events.len());
    let names: Vec<&str> = rows.iter().filter_map(|r| r["name"].as_str()).collect();
    assert!(names.contains(&"campaign.unit"), "no unit spans in {names:?}");
    assert!(names.contains(&"gpucc.compile"), "no compile spans in {names:?}");
    for row in rows {
        assert!(row["ts"].is_number(), "event missing ts: {row}");
        let ph = row["ph"].as_str().unwrap();
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        if ph == "X" {
            assert!(row["dur"].is_number(), "complete event missing dur: {row}");
        }
    }
}
