//! Chaos harness: prove recovery under *injected* faults.
//!
//! Compiled only with `--features chaos`. Three fault families:
//!
//! * simulated crashes at a chosen journal append (clean or torn), to
//!   prove kill/resume equivalence in-process;
//! * transient I/O errors (clean and partial writes), to prove the
//!   journal's bounded retry + rollback;
//! * seeded interpreter panics (`gpucc::chaos`), to prove isolation and
//!   exact quarantine accounting.
//!
//! All injection switches are process-global, so every test takes `LOCK`
//! and disarms on all exit paths.

#![cfg(feature = "chaos")]

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus, Journal, UnitRecord};
use difftest::fault::{self, FaultKind};
use difftest::metadata::CampaignMeta;
use difftest::par::with_threads;
use difftest::side::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use progen::Precision;
use std::collections::BTreeSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Disarm every injection switch (taken on entry and on every exit path
/// via drop).
struct Disarmed;

impl Drop for Disarmed {
    fn drop(&mut self) {
        difftest::chaos::disarm();
        gpucc::chaos::disarm();
        fault::reset_shutdown();
    }
}

fn small(n: usize) -> CampaignConfig {
    CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(n)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("difftest_chaos_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn reference(config: &CampaignConfig) -> String {
    let mut meta = CampaignMeta::generate(config);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
    serde_json::to_string(&analyze(&meta)).unwrap()
}

/// Like [`reference`], with the double-double truth side as a third
/// plane — the report gains per-pair stats and who-drifted verdicts.
fn reference_three_side(config: &CampaignConfig) -> String {
    let mut meta = CampaignMeta::generate(config);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
    serde_json::to_string(&analyze(&meta)).unwrap()
}

/// Start a checkpointed campaign, let an injected crash kill it at
/// journal append `crash_at` (torn or clean), then resume from disk and
/// finish. Returns the serialized final report.
fn crash_then_resume(
    name: &str,
    config: &CampaignConfig,
    threads: usize,
    crash_at: u64,
    torn: bool,
) -> String {
    crash_then_resume_sides(name, config, threads, crash_at, torn, false)
}

fn crash_then_resume_sides(
    name: &str,
    config: &CampaignConfig,
    threads: usize,
    crash_at: u64,
    torn: bool,
    with_reference: bool,
) -> String {
    let dir = tmp_dir(name);
    difftest::chaos::arm_crash_at_append(crash_at, torn);
    let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let ckpt = Checkpoint::create(&dir, config).unwrap();
        let mut meta = CampaignMeta::generate(config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        with_threads(threads, || {
            let _ = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
            let _ = run_sides_ft(&mut meta, &[Side::Hipcc], &session, ExecTier::Interp);
            if with_reference {
                let _ = run_sides_ft(&mut meta, &[Side::Reference], &session, ExecTier::Interp);
            }
        });
    }));
    difftest::chaos::disarm();
    assert!(crashed.is_err(), "the injected crash must propagate out of the campaign");

    // "new process": only the checkpoint directory survives
    let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
    assert_eq!(&stored, config);
    let expected_replayed = if torn { crash_at - 1 } else { crash_at };
    assert!(
        units.len() as u64 >= expected_replayed,
        "at least the fully appended frames replay (got {}, crash at {crash_at})",
        units.len()
    );
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        let status = with_threads(threads, || {
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Interp)
        });
        assert_eq!(status, FtStatus::Complete);
    }
    if with_reference {
        let status = with_threads(threads, || {
            run_sides_ft(&mut meta, &[Side::Reference], &session, ExecTier::Interp)
        });
        assert_eq!(status, FtStatus::Complete);
    }
    std::fs::remove_dir_all(&dir).ok();
    serde_json::to_string(&analyze(&meta)).unwrap()
}

#[test]
fn kill_mid_campaign_then_resume_is_byte_identical_across_thread_counts() {
    let _g = lock();
    let _d = Disarmed;
    let config = small(6);
    let expected = reference(&config);
    for threads in [1usize, 4] {
        let got = crash_then_resume(&format!("kill_t{threads}"), &config, threads, 10, false);
        assert_eq!(got, expected, "crash/resume report differs at {threads} thread(s)");
    }
}

#[test]
fn three_side_kill_then_resume_keeps_the_truth_plane_byte_identical() {
    let _g = lock();
    let _d = Disarmed;
    let config = small(6);
    let expected = reference_three_side(&config);
    assert!(expected.contains("\"verdicts\""), "truth plane missing from the reference report");
    // 6 tests × 5 levels × 2 vendor sides journal 60 units, then the
    // reference side appends 6 more (one per test): crash once in the
    // vendor phase and once inside the truth phase itself
    for crash_at in [10u64, 63] {
        let got = crash_then_resume_sides(
            &format!("threeside_{crash_at}"),
            &config,
            2,
            crash_at,
            false,
            true,
        );
        assert_eq!(got, expected, "three-side crash/resume at append {crash_at} diverges");
    }
}

#[test]
fn torn_crash_drops_the_half_written_record_and_still_recovers() {
    let _g = lock();
    let _d = Disarmed;
    let config = small(5);
    let expected = reference(&config);
    let got = crash_then_resume("torn", &config, 2, 7, true);
    assert_eq!(got, expected);
}

#[test]
fn injected_panics_are_quarantined_exactly_as_predicted() {
    let _g = lock();
    let _d = Disarmed;
    let config = small(16);
    gpucc::chaos::arm_exec_panics(config.seed, 3);
    let mut meta = CampaignMeta::generate(&config);
    // prediction is pure in (seed, program_id): compute while armed
    let victims: BTreeSet<u64> = meta
        .tests
        .iter()
        .filter(|t| gpucc::chaos::would_panic(&t.program_id))
        .map(|t| t.index)
        .collect();
    assert!(!victims.is_empty(), "1-in-3 over 16 programs should hit someone");
    assert!(victims.len() < 16, "and miss someone");

    let session = FtSession::new(None, None);
    let status = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
    gpucc::chaos::disarm();
    assert_eq!(status, FtStatus::Complete, "contained panics must not abort the campaign");

    let faults = session.faults();
    let faulted: BTreeSet<u64> = faults.iter().map(|f| f.index).collect();
    assert_eq!(faulted, victims, "quarantine set must match the pure prediction");
    assert_eq!(
        faults.len(),
        victims.len() * config.levels.len(),
        "each victim faults once per level"
    );
    assert!(faults.iter().all(|f| f.kind == FaultKind::Panic));
    assert!(faults.iter().all(|f| f.detail.contains("chaos: injected interpreter fault")));

    // victims carry error records; everyone else ran normally
    for test in &meta.tests {
        let is_victim = victims.contains(&test.index);
        for records in test.results.values() {
            for r in records {
                assert_eq!(
                    r.error.as_deref().map(|e| e.starts_with("panic:")).unwrap_or(false),
                    is_victim,
                    "index {} victim={is_victim} record error={:?}",
                    test.index,
                    r.error
                );
            }
        }
    }
}

#[test]
fn resume_equivalence_holds_while_panics_are_armed() {
    // the panic victims are a pure function of (seed, program_id), so a
    // crashed-and-resumed campaign quarantines the same tests and yields
    // the same report as an uninterrupted one under identical injection
    let _g = lock();
    let _d = Disarmed;
    let config = small(6);
    gpucc::chaos::arm_exec_panics(config.seed, 4);
    let expected = reference(&config);
    let got = crash_then_resume("panics_armed", &config, 2, 6, false);
    assert_eq!(got, expected);
}

fn unit(index: u64) -> UnitRecord {
    UnitRecord {
        index,
        side: "nvcc:O0".parse().unwrap(),
        records: Vec::new(),
        faults: Vec::new(),
        metrics: obs::MetricsSnapshot::default(),
    }
}

#[test]
fn transient_io_errors_are_retried_until_the_append_lands() {
    let _g = lock();
    let _d = Disarmed;
    let dir = tmp_dir("retry");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.bin");
    let j = Journal::create(&path).unwrap();
    // 2 clean failures + 1 partial write, all within the 4-attempt budget
    difftest::chaos::arm_io_errors(2);
    j.append(&unit(0)).unwrap();
    difftest::chaos::arm_partial_errors(1);
    j.append(&unit(1)).unwrap();
    drop(j);
    let (_j, units) = Journal::open_for_resume(&path).unwrap();
    assert_eq!(units.iter().map(|u| u.index).collect::<Vec<_>>(), vec![0, 1]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persistent_io_errors_fail_the_append_but_leave_the_journal_clean() {
    let _g = lock();
    let _d = Disarmed;
    let dir = tmp_dir("enospc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.bin");
    let j = Journal::create(&path).unwrap();
    j.append(&unit(0)).unwrap();
    // more failures than the retry budget: the append must surface an
    // error, and any partial bytes must be rolled back
    difftest::chaos::arm_partial_errors(10);
    assert!(j.append(&unit(1)).is_err());
    difftest::chaos::disarm();
    // the journal is still valid and appendable
    j.append(&unit(2)).unwrap();
    drop(j);
    let (_j, units) = Journal::open_for_resume(&path).unwrap();
    assert_eq!(units.iter().map(|u| u.index).collect::<Vec<_>>(), vec![0, 2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_io_error_mid_campaign_reports_io_status() {
    let _g = lock();
    let _d = Disarmed;
    let config = small(3);
    let dir = tmp_dir("io_status");
    let ckpt = Checkpoint::create(&dir, &config).unwrap();
    let mut meta = CampaignMeta::generate(&config);
    let session = FtSession::new(Some(ckpt.into_journal()), None);
    // every attempt fails: the first unit's append exhausts its retries
    difftest::chaos::arm_io_errors(u64::MAX);
    let status = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
    difftest::chaos::disarm();
    match status {
        FtStatus::IoError(e) => assert!(e.contains("ENOSPC"), "unexpected error text: {e}"),
        other => panic!("expected IoError, got {other:?}"),
    }
    assert!(!meta.sides_run.contains(&Side::Nvcc));
    std::fs::remove_dir_all(&dir).ok();
}
