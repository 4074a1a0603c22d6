//! Each test is built once and each distinct kernel runs once: the
//! test-major runner generates every program once (set-up draws the
//! inputs from the program's header alone), parses only what HIPIFY
//! converted (plus, on the differential tier, one round-trip check per
//! toolchain that compiles the generated program), compiles once per
//! pass schedule across every side, tier and the ground truth, and
//! executes each class of levels whose kernels run alike once, copying
//! an error-free run's records to the class's other levels.
//!
//! The counts come from the campaign's own telemetry, so this test owns
//! its binary: it asserts on the process-global obs registry, which
//! tests in a shared binary would race on. Its own tests serialize on
//! `LOCK`.

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession, FtStatus};
use difftest::fault::{FaultKind, TestFault};
use difftest::metadata::{build_side, side_key, CampaignMeta, RunRecord};
use difftest::Side;
use gpucc::interp::{execute_prepared_budgeted, prepare, ExecBudget, ExecError, ExecResult};
use gpucc::pipeline::{OptLevel, Toolchain};
use gpucc::{vm, ExecTier};
use gpusim::{Device, DeviceKind};
use obs::MetricsSnapshot;
use progen::Precision;
use std::sync::{Mutex, MutexGuard};

const N: u64 = 8;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn hipify_fp32() -> CampaignConfig {
    CampaignConfig::default_for(Precision::F32, TestMode::Hipified).with_programs(N as usize)
}

fn direct_fp64() -> CampaignConfig {
    CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(N as usize)
}

/// Generate `config`'s campaign and run `sides` on `tier` in one call,
/// returning the telemetry of both steps.
fn counted_run(config: &CampaignConfig, sides: &[Side], tier: ExecTier) -> MetricsSnapshot {
    obs::reset();
    obs::set_enabled(true);
    let mut meta = CampaignMeta::generate(config);
    let status = run_sides_ft(&mut meta, sides, &FtSession::plain(), tier);
    assert_eq!(status, FtStatus::Complete);
    obs::snapshot()
}

/// Vendor executions per input per test: nvcc's and hipcc's O0, O1 (for
/// O1–O3) and O3_FM kernels.
const RUNS_PER_INPUT: u64 = 6;

#[test]
fn three_sides_generate_emit_and_compile_each_test_once() {
    let _g = lock();
    let config = hipify_fp32();
    let snap = counted_run(&config, &[Side::Nvcc, Side::Hipcc, Side::Reference], ExecTier::Vm);
    // one generation, in the runner, for all three sides
    assert_eq!(snap.counter("progen.programs"), N);
    // nvcc compiles the generated program; only HIPIFY's output is parsed
    assert_eq!(snap.counter("progen.parses"), N);
    // one compile per pass schedule: nvcc O0, O1, O3_FM and hipcc O0,
    // O1; the truth reuses nvcc's O0 build
    assert_eq!(snap.counter("gpucc.compiles"), 5 * N);
    // one CUDA emission feeds HIPIFY once per test
    assert_eq!(snap.counter("hipify.conversions"), N);
    let inputs = config.inputs_per_program as u64;
    assert_eq!(snap.counter("reference.execs"), N * inputs);
    assert_eq!(snap.counter("vm.execs"), RUNS_PER_INPUT * N * inputs);
    // the vm tier never runs the interpreter
    assert_eq!(snap.counter("interp.execs"), 0);
    // every unit still counts its runs, reused or not
    let levels = config.levels.len() as u64;
    assert_eq!(snap.counter("campaign.runs_done"), N * inputs * (levels * 2 + 1));
}

#[test]
fn interp_tier_compiles_once_per_schedule_and_runs_once_per_kernel() {
    let _g = lock();
    let config = hipify_fp32();
    let snap = counted_run(&config, &[Side::Nvcc, Side::Hipcc], ExecTier::Interp);
    assert_eq!(snap.counter("progen.programs"), N);
    assert_eq!(snap.counter("progen.parses"), N);
    assert_eq!(snap.counter("gpucc.compiles"), 5 * N);
    assert_eq!(snap.counter("hipify.conversions"), N);
    let inputs = config.inputs_per_program as u64;
    assert_eq!(snap.counter("interp.execs"), RUNS_PER_INPUT * N * inputs);
    assert_eq!(snap.counter("vm.execs"), 0);
}

#[test]
fn a_direct_campaign_parses_only_to_check_the_round_trip_on_the_differential_tier() {
    let _g = lock();
    let config = direct_fp64();
    let sides = [Side::Nvcc, Side::Hipcc, Side::Reference];
    for (tier, parses) in
        [(ExecTier::Vm, 0), (ExecTier::Interp, 0), (ExecTier::Differential, 2 * N)]
    {
        let snap = counted_run(&config, &sides, tier);
        assert_eq!(snap.counter("progen.programs"), N, "{tier:?}");
        // nvcc and hipcc compile the generated program; the differential
        // tier parses each one's emission once to check the round trip
        assert_eq!(snap.counter("progen.parses"), parses, "{tier:?}");
        assert_eq!(snap.counter("gpucc.compiles"), 5 * N, "{tier:?}");
        assert_eq!(snap.counter("hipify.conversions"), 0, "{tier:?}");
    }
}

/// The stored form of one execution, as the campaign records it.
fn stored(outcome: Result<ExecResult, ExecError>) -> RunRecord {
    let result = outcome.expect("generated tests execute within the default budget");
    RunRecord {
        bits: result.value.bits(),
        outcome: result.value.outcome(),
        printed: result.value.format_exact(),
        exceptions: result.exceptions,
        error: None,
    }
}

fn device(config: &CampaignConfig, toolchain: Toolchain) -> Device {
    let kind = match toolchain {
        Toolchain::Nvcc => DeviceKind::NvidiaLike,
        Toolchain::Hipcc => DeviceKind::AmdLike,
    };
    Device::with_quirks(kind, config.quirks)
}

#[test]
fn copied_records_equal_running_each_level_alone() {
    let _g = lock();
    obs::set_enabled(false);
    let configs = [
        hipify_fp32(),
        CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(N as usize),
    ];
    for config in configs {
        for tier in [ExecTier::Vm, ExecTier::Interp] {
            let mut meta = CampaignMeta::generate(&config);
            let status =
                run_sides_ft(&mut meta, &[Side::Nvcc, Side::Hipcc], &FtSession::plain(), tier);
            assert_eq!(status, FtStatus::Complete);
            for test in &meta.tests {
                let program = meta.program_for(test);
                for toolchain in Toolchain::ALL {
                    let device = device(&config, toolchain);
                    for level in OptLevel::ALL {
                        // built and run on its own, as if no level shared
                        // a build or an execution
                        let ir = build_side(&program, toolchain, level, config.mode);
                        let bytecode = vm::compile_kernel(&ir).expect("generated kernels resolve");
                        let prepared = prepare(&ir).expect("generated kernels resolve");
                        let by_vm =
                            vm::execute_batch(&bytecode, &device, &test.inputs, config.budget);
                        let recorded = &test.results[&side_key(toolchain, level)];
                        assert_eq!(recorded.len(), test.inputs.len());
                        for ((input, alone), record) in test.inputs.iter().zip(by_vm).zip(recorded)
                        {
                            let by_interp =
                                execute_prepared_budgeted(&prepared, &device, input, config.budget);
                            let what = format!("{} {toolchain} {level} {tier:?}", program.id);
                            assert_eq!(&stored(alone), record, "vm, {what}");
                            assert_eq!(&stored(by_interp), record, "interp, {what}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn a_faulting_run_is_not_reused_so_every_unit_records_its_own_fault() {
    let _g = lock();
    obs::set_enabled(false);
    let budget = ExecBudget::steps(1);
    let config = hipify_fp32().with_budget(budget);
    // what each vendor unit faults with when it runs on its own
    let meta = CampaignMeta::generate(&config);
    let mut expected = Vec::new();
    for test in &meta.tests {
        let program = meta.program_for(test);
        for toolchain in Toolchain::ALL {
            let device = device(&config, toolchain);
            for &level in &config.levels {
                let ir = build_side(&program, toolchain, level, config.mode);
                let kernel = prepare(&ir).expect("generated kernels resolve");
                let fault = test.inputs.iter().find_map(|input| {
                    match execute_prepared_budgeted(&kernel, &device, input, budget) {
                        Err(e @ ExecError::StepLimit { .. }) => Some(e.to_string()),
                        _ => None,
                    }
                });
                expected.push(TestFault {
                    index: test.index,
                    program_id: test.program_id.clone(),
                    seed: config.seed,
                    side: side_key(toolchain, level),
                    kind: FaultKind::StepBudget,
                    detail: fault.expect("one step exhausts every kernel's budget"),
                });
            }
        }
    }
    expected.sort();
    assert_eq!(expected.len() as u64, 10 * N);

    for tier in [ExecTier::Vm, ExecTier::Interp, ExecTier::Differential] {
        let mut meta = CampaignMeta::generate(&config);
        let session = FtSession::plain();
        let status = run_sides_ft(&mut meta, &[Side::Nvcc, Side::Hipcc], &session, tier);
        assert_eq!(status, FtStatus::Complete);
        let mut quarantine = session.faults();
        quarantine.sort();
        assert_eq!(quarantine, expected, "{tier:?}");
        for test in &meta.tests {
            for records in test.results.values() {
                assert!(records.iter().all(|r| r.error.is_some()), "{tier:?}");
            }
        }
    }
}
