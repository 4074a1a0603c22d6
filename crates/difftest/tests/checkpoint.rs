//! Fault-tolerance integration tests (no injected faults): checkpoint /
//! resume equivalence, journal-corruption tolerance, cooperative
//! interruption, and budget-exhaustion quarantine.
//!
//! The injected-fault counterparts (simulated crashes, torn writes,
//! seeded panics) live in `tests/chaos.rs` behind the `chaos` feature.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus};
use difftest::fault::{self, FaultKind};
use difftest::metadata::CampaignMeta;
use difftest::par::with_threads;
use difftest::side::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use progen::Precision;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Tests here share process-global state (the cooperative shutdown
/// flag), so they run one at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small(n: usize) -> CampaignConfig {
    CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(n)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("difftest_it_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The uninterrupted reference: serialized report of a plain
/// generate-and-run-both-sides campaign.
fn reference(config: &CampaignConfig) -> String {
    let mut meta = CampaignMeta::generate(config);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
    serde_json::to_string(&analyze(&meta)).unwrap()
}

/// Run the nvcc side under a checkpoint, drop everything (the simulated
/// kill), then resume from disk and finish both sides at `threads`
/// workers. Returns the serialized final report.
fn run_killed_then_resumed(dir: &Path, config: &CampaignConfig, threads: usize) -> String {
    {
        let ckpt = Checkpoint::create(dir, config).unwrap();
        let mut meta = CampaignMeta::generate(config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        let status = with_threads(threads, || {
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp)
        });
        assert_eq!(status, FtStatus::Complete);
        // `meta`, `session`, and the journal handle drop here: the only
        // surviving state is the checkpoint directory, as after SIGKILL
    }
    let (ckpt, stored, units) = Checkpoint::resume(dir).unwrap();
    assert_eq!(&stored, config, "resume must run under the stored config");
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    assert_eq!(
        session.replayed(),
        config.n_programs * config.levels.len(),
        "every nvcc unit must replay from the journal"
    );
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        let status = with_threads(threads, || {
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Interp)
        });
        assert_eq!(status, FtStatus::Complete);
    }
    assert!(meta.is_complete());
    serde_json::to_string(&analyze(&meta)).unwrap()
}

#[test]
fn kill_after_one_side_then_resume_is_byte_identical_across_thread_counts() {
    let _g = lock();
    fault::reset_shutdown();
    let config = small(8);
    let expected = reference(&config);
    for threads in [1usize, 4] {
        let dir = tmp_dir(&format!("resume_t{threads}"));
        let got = run_killed_then_resumed(&dir, &config, threads);
        assert_eq!(got, expected, "resumed report differs at {threads} thread(s)");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn truncated_journal_tail_is_rerun_not_fatal() {
    let _g = lock();
    fault::reset_shutdown();
    let config = small(4);
    let expected = reference(&config);
    let dir = tmp_dir("truncated");
    {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    // chop bytes off the journal tail: the torn record is dropped on
    // resume and its unit simply re-runs
    let jpath = Checkpoint::journal_path(&dir);
    let len = std::fs::metadata(&jpath).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&jpath).unwrap();
    f.set_len(len - 9).unwrap();
    drop(f);

    let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
    let full = config.n_programs * config.levels.len();
    assert_eq!(units.len(), full - 1, "exactly the torn unit is lost");
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    assert_eq!(serde_json::to_string(&analyze(&meta)).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_request_interrupts_and_resume_completes() {
    let _g = lock();
    let config = small(5);
    let expected = reference(&config);
    let dir = tmp_dir("interrupt");
    {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        // the "SIGINT" lands before the run: every unit is skipped, the
        // side is NOT marked complete, and the status reports Interrupted
        fault::request_shutdown();
        let status = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
        fault::reset_shutdown();
        assert_eq!(status, FtStatus::Interrupted);
        assert!(!meta.sides_run.contains(&Side::Nvcc));
        session.journal().unwrap().sync().unwrap();
    }
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
    assert_eq!(serde_json::to_string(&analyze(&meta)).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_sessions_ignore_the_global_shutdown_flag() {
    let _g = lock();
    // a library `run_side` (plain session) must not be interruptible by
    // another thread's shutdown request — only CLI sessions heed it
    fault::request_shutdown();
    let config = small(2);
    let mut meta = CampaignMeta::generate(&config);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    fault::reset_shutdown();
    assert!(meta.sides_run.contains(&Side::Nvcc));
}

#[test]
fn fuel_exhaustion_quarantines_every_unit_and_campaign_completes() {
    let _g = lock();
    fault::reset_shutdown();
    let mut config = small(3);
    config.budget.max_steps = 1; // every generated program exceeds this
    let mut meta = CampaignMeta::generate(&config);
    let session = FtSession::new(None, None);
    let status = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
    assert_eq!(status, FtStatus::Complete, "budget faults must not abort the campaign");
    let faults = session.faults();
    assert_eq!(faults.len(), config.n_programs * config.levels.len(), "one fault per unit");
    assert!(faults.iter().all(|f| f.kind == FaultKind::StepBudget), "{faults:?}");
    assert!(faults.iter().all(|f| f.detail.contains("step budget exhausted")), "{faults:?}");
    // every stored record is an error record carrying the diagnostics
    for test in &meta.tests {
        for records in test.results.values() {
            assert!(records.iter().all(|r| {
                r.error.as_deref().is_some_and(|e| e.starts_with("step budget exhausted"))
            }));
        }
    }
}

#[test]
fn max_faults_circuit_breaker_trips_and_skips_remaining_work() {
    let _g = lock();
    fault::reset_shutdown();
    let mut config = small(6);
    config.budget.max_steps = 1;
    let mut meta = CampaignMeta::generate(&config);
    let session = FtSession::new(None, Some(0)); // tolerate zero faults
    let status = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp);
    assert_eq!(status, FtStatus::FaultLimit);
    assert!(session.fault_limit_hit());
    assert!(!meta.sides_run.contains(&Side::Nvcc));
    // the breaker tripped early: not every unit ran
    let done: usize = meta.tests.iter().map(|t| t.results.len()).sum();
    assert!(
        done < config.n_programs * config.levels.len(),
        "breaker must skip remaining units (ran {done})"
    );
}

#[test]
fn wall_clock_budget_quarantines_as_timeout() {
    let _g = lock();
    fault::reset_shutdown();
    let mut config = small(2);
    config.budget.max_wall_ms = Some(0); // every run's deadline is already past
    let mut meta = CampaignMeta::generate(&config);
    let session = FtSession::new(None, None);
    assert_eq!(
        run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
        FtStatus::Complete
    );
    let faults = session.faults();
    // programs short enough to finish before the first deadline poll
    // produce no fault; any fault that does occur must be a Timeout
    assert!(faults.iter().all(|f| f.kind == FaultKind::Timeout), "{faults:?}");
}
