//! The `VGJRNL03` checkpoint journal: migration from v2, damage
//! tolerance, and size.
//!
//! * A v2 (JSON) journal cut mid-campaign resumes to the uninterrupted
//!   report and telemetry, is rewritten as v3 on the way, and keeps
//!   replaying after later appends.
//! * Every truncation and every single-bit flip of a small v3 journal
//!   replays a valid prefix of its records without panicking, and the
//!   resume finishes with the uninterrupted report.
//! * A `--fp32 --hipify --reference --inputs 1` checkpoint stays under
//!   250 journal bytes per unit.
//!
//! This test owns its binary: it asserts on the process-global obs
//! registry, so its tests serialize on one lock.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{
    encode_frame, run_sides_ft, Checkpoint, FramedLog, FtSession, FtStatus, Journal, UnitRecord,
    JOURNAL_MAGIC, JOURNAL_MAGIC_V2,
};
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::pipeline::Toolchain;
use gpucc::ExecTier;
use obs::MetricsSnapshot;
use progen::Precision;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("difftest_journal_v3_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The telemetry a resume must reproduce exactly: `resume_metrics`'s
/// view, which drops journal bookkeeping and wall-clock timings.
fn deterministic_view(snap: &MetricsSnapshot) -> (BTreeMap<String, u64>, Vec<String>) {
    let counters: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("checkpoint."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let hists: Vec<String> = snap
        .hists
        .iter()
        .filter(|(k, _)| !k.starts_with("span.") && !k.starts_with("gpucc.passns."))
        .map(|(k, h)| {
            if k.ends_with(".execns") || k.ends_with(".nsperop") {
                format!("{k}: count={}", h.count)
            } else {
                format!("{k}: count={} sum={} min={} max={}", h.count, h.sum, h.min, h.max)
            }
        })
        .collect();
    (counters, hists)
}

fn report(meta: &CampaignMeta) -> Vec<u8> {
    serde_json::to_vec(&analyze(meta)).unwrap()
}

fn unit_keys(units: &[UnitRecord]) -> BTreeSet<(u64, String)> {
    units.iter().map(|u| (u.index, u.side.to_string())).collect()
}

#[test]
fn v2_journal_cut_mid_campaign_resumes_as_v3_to_the_uninterrupted_run() {
    let _g = lock();
    let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(6);

    // --- reference: one uninterrupted campaign, metrics on ---
    obs::reset();
    obs::set_enabled(true);
    let (expected_report, expected_view) = {
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        (report(&meta), deterministic_view(&obs::snapshot()))
    };

    // --- the nvcc side's real unit records, each with its telemetry ---
    let dir = tmp_dir("v2_cut");
    obs::reset();
    {
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    let path = Checkpoint::journal_path(&dir);
    let (_, units) = Journal::open_for_resume(&path).unwrap();
    assert_eq!(units.len(), 6 * config.levels.len());

    // --- rewrite them as a v2 journal cut two thirds into the side,
    //     with half of the next frame torn off. The cut falls between
    //     tests: a partly replayed test is regenerated and recompiled,
    //     genuinely re-done work that an exact telemetry match excludes ---
    let (done, rest): (Vec<UnitRecord>, Vec<UnitRecord>) =
        units.iter().cloned().partition(|u| u.index < 4);
    let cut = done.len();
    let units: Vec<UnitRecord> = done.into_iter().chain(rest).collect();
    let log = FramedLog::create(&path, JOURNAL_MAGIC_V2).unwrap();
    for unit in &units[..cut] {
        log.append(&serde_json::to_vec(unit).unwrap()).unwrap();
    }
    drop(log);
    let torn = encode_frame(&serde_json::to_vec(&units[cut]).unwrap());
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&torn[..torn.len() / 2]).unwrap();
    drop(f);

    // --- a fresh "process" resumes the v2 journal and finishes ---
    obs::reset();
    let (ckpt, stored, replayed) = Checkpoint::resume(&dir).unwrap();
    assert_eq!(replayed, units[..cut], "the v2 prefix replays exactly");
    assert_eq!(&std::fs::read(&path).unwrap()[..8], JOURNAL_MAGIC, "migrated before appending");
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, replayed);
    for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
        assert_eq!(
            run_sides_ft(&mut meta, &[tc.into()], &session, ExecTier::Interp),
            FtStatus::Complete
        );
    }
    drop(session);
    assert_eq!(report(&meta), expected_report, "resumed report differs");
    let view = deterministic_view(&obs::snapshot());
    assert_eq!(view.0, expected_view.0, "counter totals must survive the migration");
    assert_eq!(view.1, expected_view.1, "deterministic histograms must survive the migration");
    assert!(expected_view.0.contains_key("campaign.runs_done"));

    // --- the migrated prefix plus every later append replays ---
    let (_, all) = Journal::open_for_resume(&path).unwrap();
    assert_eq!(all[..cut], units[..cut]);
    assert_eq!(all.len(), 6 * config.levels.len() * 2, "every unit journaled once");
    let mut keys = unit_keys(&units);
    keys.extend(meta.tests.iter().flat_map(|t| {
        config.levels.iter().map(move |l| (t.index, format!("hipcc:{}", l.label())))
    }));
    assert_eq!(unit_keys(&all), keys);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run every side of `config` on the vm tier, journaling into `dir`
/// when given; returns the campaign's report.
fn run_all(config: &CampaignConfig, dir: Option<&Path>) -> Vec<u8> {
    let journal = dir.map(|d| Checkpoint::create(d, config).unwrap().into_journal());
    let session = FtSession::new(journal, None);
    let mut meta = CampaignMeta::generate(config);
    assert_eq!(run_sides_ft(&mut meta, &Side::ALL, &session, ExecTier::Vm), FtStatus::Complete);
    report(&meta)
}

/// Resume the checkpoint in `dir` and finish every side.
fn resume_all(dir: &Path) -> Vec<u8> {
    let (ckpt, stored, units) = Checkpoint::resume(dir).unwrap();
    let mut meta = CampaignMeta::generate(&stored);
    let mut session = FtSession::new(Some(ckpt.into_journal()), None);
    session.apply_replay(&mut meta, units);
    assert_eq!(run_sides_ft(&mut meta, &Side::ALL, &session, ExecTier::Vm), FtStatus::Complete);
    report(&meta)
}

#[test]
fn every_truncation_and_bit_flip_replays_a_valid_prefix() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let mut config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(1);
    config.inputs_per_program = 1;
    let expected = run_all(&config, None);
    let dir = tmp_dir("damage");
    assert_eq!(run_all(&config, Some(&dir)), expected);
    let path = Checkpoint::journal_path(&dir);
    let pristine = std::fs::read(&path).unwrap();
    let (_, units) = Journal::open_for_resume(&path).unwrap();
    assert_eq!(units.len(), 2 * config.levels.len() + 1);

    // One resume per distinct replayed prefix length proves the resumed
    // report; every variant must replay exactly such a prefix.
    let mut resumed = BTreeSet::new();
    let mut check = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        let replayed = match Journal::open_for_resume(&path) {
            Ok((_, replayed)) => replayed,
            Err(_) => {
                assert!(
                    bytes.len() < 8 || bytes[..8] != pristine[..8],
                    "{what}: only a damaged magic may refuse to open"
                );
                return;
            }
        };
        assert!(replayed.len() <= units.len(), "{what}");
        assert_eq!(replayed, units[..replayed.len()], "{what}: not a prefix");
        if resumed.insert(replayed.len()) {
            assert_eq!(resume_all(&dir), expected, "{what}: resumed report differs");
        }
    };
    for cut in 0..=pristine.len() {
        check(&pristine[..cut], &format!("cut at {cut}"));
    }
    for byte in 0..pristine.len() {
        for bit in 0..8 {
            let mut flipped = pristine.clone();
            flipped[byte] ^= 1 << bit;
            check(&flipped, &format!("bit {bit} of byte {byte} flipped"));
        }
    }
    assert!(resumed.contains(&0) && resumed.contains(&units.len()));
    assert_eq!(resumed.len(), units.len() + 1, "every prefix length was resumed from");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hipify_truth_fp32_checkpoint_stays_under_250_bytes_per_unit() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let mut config =
        CampaignConfig::default_for(Precision::F32, TestMode::Hipified).with_programs(20);
    config.inputs_per_program = 1;
    let dir = tmp_dir("size");
    run_all(&config, Some(&dir));
    let units = 20 * (2 * config.levels.len() + 1);
    let (_, replayed) = Journal::open_for_resume(&Checkpoint::journal_path(&dir)).unwrap();
    assert_eq!(replayed.len(), units);
    assert!(replayed.iter().all(|u| !u.metrics.is_empty()), "telemetry rides every unit");
    let bytes = std::fs::metadata(Checkpoint::journal_path(&dir)).unwrap().len() - 8;
    let per_unit = bytes as f64 / units as f64;
    assert!(per_unit < 250.0, "{per_unit:.1} journal bytes per unit");
    std::fs::remove_dir_all(&dir).ok();
}
