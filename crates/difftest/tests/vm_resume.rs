//! Kill-and-resume equivalence for the compiled vm tier.
//!
//! The checkpoint journal records *results*, not the tier that produced
//! them — the tiers are bit-identical, so a unit completed under one
//! tier replays interchangeably into a campaign resumed under another.
//! These tests prove the three-way equivalence the execution-tier
//! acceptance criteria demand: an interrupted vm-tier campaign resumes
//! to a report byte-identical to an uninterrupted vm run AND to an
//! uninterrupted interp run.
//!
//! The chaos-killed variant (`--features chaos`) arms a torn journal
//! crash mid-run — the hardest interruption the journal recovers from.
//! The crash switch is process-global, so every test here takes `LOCK`:
//! a test journaling concurrently would otherwise take the armed crash.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus};
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use progen::Precision;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small(n: usize) -> CampaignConfig {
    CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(n)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("difftest_it_vm_resume_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Uninterrupted both-sides run on `tier`, serialized report.
fn full_run(config: &CampaignConfig, tier: ExecTier) -> String {
    let mut meta = CampaignMeta::generate(config);
    let session = FtSession::new(None, None);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(run_sides_ft(&mut meta, &[tc.into()], &session, tier), FtStatus::Complete);
    }
    serde_json::to_string(&analyze(&meta)).unwrap()
}

/// Checkpoint the nvcc side on `first_tier`, drop everything but the
/// directory ("the process dies"), then resume and finish both sides on
/// `resume_tier`. Returns the serialized final report.
fn interrupted_run(
    name: &str,
    config: &CampaignConfig,
    first_tier: ExecTier,
    resume_tier: ExecTier,
) -> String {
    let dir = tmp_dir(name);
    {
        let ckpt = Checkpoint::create(&dir, config).unwrap();
        let mut meta = CampaignMeta::generate(config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, first_tier),
            FtStatus::Complete
        );
    }
    let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
    assert_eq!(&stored, config);
    assert!(!units.is_empty(), "the first half must have journaled its units");
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(
            run_sides_ft(&mut meta, &[tc.into()], &session, resume_tier),
            FtStatus::Complete
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    serde_json::to_string(&analyze(&meta)).unwrap()
}

#[test]
fn interrupted_vm_campaign_resumes_byte_identical_to_vm_and_interp_runs() {
    let _g = lock();
    let config = small(6);
    let interp = full_run(&config, ExecTier::Interp);
    let vm = full_run(&config, ExecTier::Vm);
    assert_eq!(interp, vm, "uninterrupted tiers must agree before resume is tested");

    let resumed = interrupted_run("vm_vm", &config, ExecTier::Vm, ExecTier::Vm);
    assert_eq!(resumed, vm, "vm-tier resume diverged from the uninterrupted vm run");
    assert_eq!(resumed, interp, "vm-tier resume diverged from the uninterrupted interp run");
}

#[test]
fn resume_may_switch_tiers_because_the_journal_is_tier_agnostic() {
    let _g = lock();
    // a checkpoint written by an interp-tier campaign resumes under the
    // vm tier (and vice versa) with a byte-identical report — the tier
    // is an execution strategy, not campaign configuration
    let config = small(5);
    let expected = full_run(&config, ExecTier::Vm);
    assert_eq!(expected, interrupted_run("interp_to_vm", &config, ExecTier::Interp, ExecTier::Vm));
    assert_eq!(expected, interrupted_run("vm_to_interp", &config, ExecTier::Vm, ExecTier::Interp));
    assert_eq!(
        expected,
        interrupted_run("vm_to_diff", &config, ExecTier::Vm, ExecTier::Differential)
    );
}

/// The chaos-killed variant: a torn crash mid-journal under the vm tier,
/// then recovery — resumed report byte-identical to uninterrupted vm and
/// interp runs.
#[cfg(feature = "chaos")]
#[test]
fn chaos_killed_vm_campaign_recovers_byte_identical_across_tiers() {
    use difftest::checkpoint::run_sides_ft;
    use difftest::Side;
    use std::panic::AssertUnwindSafe;

    let _g = lock();
    let config = small(5);
    let interp = full_run(&config, ExecTier::Interp);
    let vm = full_run(&config, ExecTier::Vm);
    assert_eq!(interp, vm);

    let dir = tmp_dir("chaos_kill");
    difftest::chaos::arm_crash_at_append(7, true);
    let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        let _ = run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Vm);
        let _ = run_sides_ft(&mut meta, &[Side::Hipcc], &session, ExecTier::Vm);
    }));
    difftest::chaos::disarm();
    assert!(crashed.is_err(), "the injected crash must propagate out of the campaign");

    let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Vm),
            FtStatus::Complete
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    let recovered = serde_json::to_string(&analyze(&meta)).unwrap();
    assert_eq!(recovered, vm, "chaos-killed vm campaign must recover the vm report");
    assert_eq!(recovered, interp, "…and match the interp tier byte for byte");

    // Test-major: all three sides of an FP32 HIPIFY campaign in one
    // call, where only the hipified hipcc side emits and parses; nvcc
    // and the truth compile the generated program itself.
    // Each test journals 11 units (5 levels × 2 vendors + the truth),
    // so a crash at append 16 lands mid-test.
    let config = CampaignConfig::default_for(Precision::F32, TestMode::Hipified).with_programs(4);
    let sides = [Side::Nvcc, Side::Hipcc, Side::Reference];
    let three_side = |tier: ExecTier| {
        let mut meta = CampaignMeta::generate(&config);
        let status = run_sides_ft(&mut meta, &sides, &FtSession::new(None, None), tier);
        assert_eq!(status, FtStatus::Complete);
        serde_json::to_string(&analyze(&meta)).unwrap()
    };
    let expected = three_side(ExecTier::Interp);
    assert!(expected.contains("\"verdicts\""), "truth plane missing from the report");
    assert_eq!(three_side(ExecTier::Vm), expected);
    for resume_tier in [ExecTier::Interp, ExecTier::Vm, ExecTier::Differential] {
        let dir = tmp_dir(&format!("chaos_kill_three_side_{}", resume_tier.label()));
        difftest::chaos::arm_crash_at_append(16, true);
        let crashed = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let ckpt = Checkpoint::create(&dir, &config).unwrap();
            let mut meta = CampaignMeta::generate(&config);
            let session = FtSession::new(Some(ckpt.into_journal()), None);
            let _ = run_sides_ft(&mut meta, &sides, &session, ExecTier::Vm);
        }));
        difftest::chaos::disarm();
        assert!(crashed.is_err(), "the injected crash must propagate out of the campaign");

        let (ckpt, stored, units) = Checkpoint::resume(&dir).unwrap();
        assert!(units.len() >= 15, "the appends before the torn one replay");
        let mut meta = CampaignMeta::generate(&stored);
        let mut session = FtSession::new(Some(ckpt.into_journal()), None);
        session.apply_replay(&mut meta, units);
        assert_eq!(run_sides_ft(&mut meta, &sides, &session, resume_tier), FtStatus::Complete);
        std::fs::remove_dir_all(&dir).ok();
        let recovered = serde_json::to_string(&analyze(&meta)).unwrap();
        assert_eq!(recovered, expected, "three-side resume on {resume_tier:?} diverged");
    }
}
