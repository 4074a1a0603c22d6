//! Heap allocations per program of a journaled one-thread campaign.
//!
//! A counting global allocator tallies allocations per thread while
//! `run_sides_ft` runs a checkpointed `--fp32 --hipify --reference`
//! campaign with one input per program on one thread (a map at a budget
//! of one runs on the calling thread), the configuration whose front
//! end, compiles, truth side and journal appends dominate. The count
//! repeats exactly from run to run (the campaign is deterministic in its
//! config), so a change that brings back a per-node string, a cloned
//! token, a per-sequence table or a per-unit snapshot shows as
//! allocations, whatever the machine's speed.
//!
//! A second case journals a warm unit straight from its capture and
//! requires that to allocate nothing.
//!
//! This test owns its binary: it replaces the global allocator.

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus, Journal};
use difftest::metadata::{CampaignMeta, RunRecord};
use difftest::side::{Side, SideKey};
use fpcore::classify::Outcome;
use fpcore::exceptions::ExceptionFlags;
use gpucc::pipeline::OptLevel;
use gpucc::ExecTier;
use progen::Precision;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the tally is a
// const-initialized thread-local, so counting never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("difftest_campaign_alloc_{tag}_{}", std::process::id()))
}

/// Programs in the measured campaign.
const PROGRAMS: usize = 200;

/// The most allocations a program may cost: 60% of the 3,117 per
/// program that building each test through per-node strings, cloned
/// tokens, per-sequence tables and a per-unit snapshot cost.
const MAX_PER_PROGRAM: u64 = 3_117 * 6 / 10;

#[test]
fn a_journaled_one_thread_campaign_allocates_at_most_its_budget_per_program() {
    obs::set_enabled(true);
    let dir = temp_dir("campaign");
    let mut config = CampaignConfig::default_for(Precision::F32, TestMode::Hipified);
    config.n_programs = PROGRAMS;
    config.inputs_per_program = 1;
    let journal = Checkpoint::create(&dir, &config).expect("checkpoint").into_journal();
    let session = FtSession::new(Some(journal), None);
    let mut meta = CampaignMeta::generate(&config);
    let sides = [Side::Nvcc, Side::Hipcc, Side::Reference];
    let (status, allocs) = allocations_in(|| {
        difftest::par::with_threads(1, || run_sides_ft(&mut meta, &sides, &session, ExecTier::Vm))
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(status, FtStatus::Complete);
    let per_program = allocs / PROGRAMS as u64;
    println!("{allocs} allocations, {per_program} per program");
    assert!(
        per_program <= MAX_PER_PROGRAM,
        "{per_program} allocations per program, over the budget of {MAX_PER_PROGRAM}"
    );
}

/// One unit's telemetry, as a run records it.
fn unit_telemetry(i: u64) {
    static RUNS: obs::Name = obs::Name::new("campaign_alloc.runs_done");
    static EXECNS: obs::Name = obs::Name::new("campaign_alloc.execns");
    static UNIT: obs::SpanName = obs::SpanName::new("campaign_alloc.unit");
    let _unit = UNIT.start();
    RUNS.add(1);
    EXECNS.record(1_000 + i);
    EXECNS.record(20 * i);
}

#[test]
fn a_warm_unit_journaled_from_its_capture_allocates_nothing() {
    obs::set_enabled(true);
    let dir = temp_dir("append");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = Journal::create(&Checkpoint::journal_path(&dir)).unwrap();
    let records = [RunRecord {
        bits: 0x3FF0_0000_0000_0000,
        outcome: Outcome::Num,
        printed: "1".into(),
        exceptions: ExceptionFlags::new(),
        error: None,
    }];
    let side = SideKey::new(Side::Hipcc, OptLevel::O1);
    let mut captured = obs::Captured::default();
    for i in 0..50 {
        captured.clear();
        let (appended, n) = allocations_in(|| {
            obs::capture_into(&mut captured, || unit_telemetry(i));
            journal.append_capture(i, side, &records, &[], &mut captured)
        });
        appended.unwrap();
        // the first unit defines the names and sizes the buffers
        if i > 0 {
            assert_eq!(n, 0, "unit {i} allocated {n} times from its capture to its frame");
        }
    }
    drop(journal);
    let (_, units) = Journal::open_for_resume(&Checkpoint::journal_path(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(units.len(), 50);
    assert_eq!(units[49].metrics.hists["campaign_alloc.execns"].count, 2);
    assert_eq!(units[49].metrics.counter("campaign_alloc.runs_done"), 1);
}
