//! The differential battery that proves the compiled vm tier bit-identical
//! to the reference interpreter.
//!
//! Every property sweeps generated programs across **both toolchains and
//! all five optimization levels**, because the vm executes post-pass IR:
//! a lowering bug may only surface after FMA contraction rewires operand
//! shapes, or under fast-math FTZ. Inputs are biased toward the values
//! where executors classically diverge — NaN payloads, signed zeros,
//! denormals under FTZ, and infinities — and equality is *bitwise*
//! ([`gpucc::interp::ExecResult`]'s `PartialEq` compares NaN payloads and
//! distinguishes `-0.0` from `0.0`).
//!
//! Budget classification parity matters as much as value parity: a
//! campaign report serializes `ExecError` display strings, so the vm must
//! hit `StepLimit { budget, steps }` on the *same step* with the *same
//! message*, or a resumed `--exec-tier vm` checkpoint would not be
//! byte-identical to an interp run.

use gpucc::interp::{self, ExecBudget};
use gpucc::pipeline::{compile, OptLevel, Toolchain};
use gpucc::vm;
use gpusim::{Device, DeviceKind};
use progen::gen::generate_program;
use progen::grammar::GenConfig;
use progen::inputs::{generate_inputs, InputValue};
use progen::{InputSet, Precision};
use proptest::prelude::*;

fn device_for(tc: Toolchain) -> Device {
    match tc {
        Toolchain::Nvcc => Device::new(DeviceKind::NvidiaLike),
        Toolchain::Hipcc => Device::new(DeviceKind::AmdLike),
    }
}

/// The float values executors classically disagree on: quiet NaN with a
/// non-default payload, signed zeros, denormals in both precisions' FTZ
/// ranges, infinities, and magnitudes that overflow f32 but not f64.
const SPECIALS: [f64; 10] = [
    f64::NAN,
    -1.5,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0e-310, // f64 subnormal
    1.0e-40,  // subnormal once narrowed to f32
    1.0e308,
    3.5e38, // finite in f64, overflows f32
];

/// Rewrite the float slots of `base` with special values, rotating the
/// starting point so successive `which` values cover different mixes.
/// `which == 0` additionally plants a non-default NaN payload.
fn specialized(base: &InputSet, which: usize) -> InputSet {
    let mut out = base.clone();
    let mut i = which;
    for v in &mut out.values {
        match v {
            InputValue::Float(f) | InputValue::ArrayFill(f) => {
                *f = SPECIALS[i % SPECIALS.len()];
                i = i.wrapping_mul(7).wrapping_add(3);
            }
            InputValue::Int(_) => {}
        }
    }
    if which == 0 {
        for v in &mut out.values {
            if let InputValue::Float(f) = v {
                *f = f64::from_bits(0x7FF8_0000_0000_1234);
                break;
            }
        }
    }
    out
}

fn input_pool(program: &progen::Program, seed: u64) -> Vec<InputSet> {
    let mut pool = generate_inputs(program, seed, 2);
    let base = pool[0].clone();
    for which in 0..4 {
        pool.push(specialized(&base, which));
    }
    pool
}

fn config_for(precision: Precision, shape: u8) -> GenConfig {
    match shape % 3 {
        0 => GenConfig::varity_default(precision),
        1 => GenConfig::extended(precision),
        _ => GenConfig::tiny(precision),
    }
}

/// vm and interp agree bit for bit on one generated program, every
/// toolchain and level, and its special-value inputs.
fn bit_identical_case(seed: u64, index: u64, shape: u8, fp32: bool) -> Result<(), TestCaseError> {
    let precision = if fp32 { Precision::F32 } else { Precision::F64 };
    let cfg = config_for(precision, shape);
    let program = generate_program(&cfg, seed, index);
    let pool = input_pool(&program, seed);
    for tc in Toolchain::ALL {
        let device = device_for(tc);
        for level in OptLevel::ALL {
            let ir = compile(&program, tc, level, false);
            let ek = interp::prepare(&ir).expect("interp prepare");
            let ck = vm::compile_kernel(&ir).expect("vm compile");
            for inputs in &pool {
                let a =
                    interp::execute_prepared_budgeted(&ek, &device, inputs, ExecBudget::default());
                let b = vm::execute_compiled_budgeted(&ck, &device, inputs, ExecBudget::default());
                prop_assert_eq!(&a, &b, "{} {} diverged on `{}`", tc, level.label(), ir.program_id);
            }
        }
    }
    Ok(())
}

/// vm and interp classify one program's step and wall budgets alike.
fn budget_parity_case(seed: u64, index: u64, max_steps: u64) -> Result<(), TestCaseError> {
    let cfg = GenConfig::varity_default(Precision::F64);
    let program = generate_program(&cfg, seed, index);
    let pool = input_pool(&program, seed);
    for tc in Toolchain::ALL {
        let device = device_for(tc);
        for level in [OptLevel::O0, OptLevel::O3Fm] {
            let ir = compile(&program, tc, level, false);
            let ek = interp::prepare(&ir).expect("interp prepare");
            let ck = vm::compile_kernel(&ir).expect("vm compile");
            for inputs in &pool {
                for budget in [
                    ExecBudget { max_steps, max_wall_ms: None },
                    ExecBudget { max_steps: u64::MAX, max_wall_ms: Some(0) },
                ] {
                    let a = interp::execute_prepared_budgeted(&ek, &device, inputs, budget);
                    let b = vm::execute_compiled_budgeted(&ck, &device, inputs, budget);
                    prop_assert_eq!(&a, &b, "budget {:?} classified differently", budget);
                    if let (Err(ea), Err(eb)) = (&a, &b) {
                        prop_assert_eq!(ea.to_string(), eb.to_string(), "error display diverged");
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// vm results are bit-identical to interp across toolchains, levels,
    /// precisions, and special-value inputs — values, exception flags,
    /// cost slots, and step counts alike (`ExecResult` equality covers
    /// all four).
    #[test]
    fn vm_is_bit_identical_to_interp(
        seed in any::<u64>(),
        index in 0u64..200,
        shape in any::<u8>(),
        fp32 in any::<bool>(),
    ) {
        bit_identical_case(seed, index, shape, fp32)?;
    }

    /// Under tight step budgets the vm trips `StepLimit` on exactly the
    /// same step as interp, with byte-identical `Display` output, and a
    /// zero wall-clock budget times out identically (the deadline poll
    /// sits on the same 256-step boundary in both executors).
    #[test]
    fn budget_classification_parity(
        seed in any::<u64>(),
        index in 0u64..200,
        max_steps in 1u64..96,
    ) {
        budget_parity_case(seed, index, max_steps)?;
    }

    /// The compile-once/run-many batch API returns exactly what
    /// one-at-a-time execution returns, in input order.
    #[test]
    fn batch_equals_individual_execution(
        seed in any::<u64>(),
        index in 0u64..200,
        fp32 in any::<bool>(),
    ) {
        let precision = if fp32 { Precision::F32 } else { Precision::F64 };
        let cfg = GenConfig::varity_default(precision);
        let program = generate_program(&cfg, seed, index);
        let pool = input_pool(&program, seed);
        let budget = ExecBudget { max_steps: 10_000, max_wall_ms: None };
        for tc in Toolchain::ALL {
            let device = device_for(tc);
            let ir = compile(&program, tc, OptLevel::O3Fm, false);
            let ck = vm::compile_kernel(&ir).expect("vm compile");
            let batch = vm::execute_batch(&ck, &device, &pool, budget);
            prop_assert_eq!(batch.len(), pool.len());
            for (i, got) in batch.iter().enumerate() {
                let single = vm::execute_compiled_budgeted(&ck, &device, &pool[i], budget);
                prop_assert_eq!(got, &single, "batch index {} diverged", i);
            }
        }
    }

    /// The differential tier itself returns the (already proven
    /// identical) vm result without panicking on clean kernels.
    #[test]
    fn differential_tier_is_quiet_on_clean_kernels(
        seed in any::<u64>(),
        index in 0u64..200,
    ) {
        let cfg = GenConfig::varity_default(Precision::F64);
        let program = generate_program(&cfg, seed, index);
        let pool = input_pool(&program, seed);
        for tc in Toolchain::ALL {
            let device = device_for(tc);
            for level in OptLevel::ALL {
                let ir = compile(&program, tc, level, false);
                let ek = interp::prepare(&ir).expect("interp prepare");
                let ck = vm::compile_kernel(&ir).expect("vm compile");
                for inputs in &pool {
                    let d = vm::execute_differential(
                        &ek, &ck, &device, inputs, ExecBudget::default());
                    let v = vm::execute_compiled_budgeted(
                        &ck, &device, inputs, ExecBudget::default());
                    prop_assert_eq!(&d, &v);
                }
            }
        }
    }
}

/// Cases earlier proptest runs shrank to.
#[test]
fn regression_seed_14694207246130447361_index_3_shape_2_fp32() {
    bit_identical_case(14694207246130447361, 3, 2, true).unwrap();
}

#[test]
fn regression_seed_9705314128433047_index_17_max_steps_1() {
    budget_parity_case(9705314128433047, 17, 1).unwrap();
}

/// Both tiers record the same per-run telemetry over one corpus: every
/// `interp.X` counter equals `vm.X` and the reverse (`execs`, `ops`, each
/// `mathcall.*` and each `fpexc.*`), and the `execns`/`nsperop`
/// histograms hold one sample per run in each. The corpus spans both
/// precisions, both toolchains and all five levels on quirky devices,
/// with special-value inputs, so DAZ/FTZ, `Rcp`, math calls on both
/// vendors and every IEEE exception fire.
#[test]
fn both_tiers_record_the_same_telemetry() {
    use gpucc::ir::Inst;
    use std::collections::BTreeMap;

    let mut corpus = Vec::new();
    for precision in [Precision::F64, Precision::F32] {
        let cfg = GenConfig::varity_default(precision);
        for index in 0..12 {
            let program = generate_program(&cfg, 2024, index);
            let pool = input_pool(&program, 2024);
            for tc in Toolchain::ALL {
                for level in OptLevel::ALL {
                    corpus.push((
                        compile(&program, tc, level, false),
                        device_for(tc),
                        pool.clone(),
                    ));
                }
            }
        }
    }
    let mut rcps = 0;
    for (ir, ..) in &corpus {
        ir.for_each_seq(&mut |seq| {
            rcps += seq.insts.iter().filter(|i| matches!(i, Inst::Rcp(_))).count()
        });
    }
    assert!(rcps > 0, "the corpus holds no Rcp");

    let budget = ExecBudget::default();
    let ((), walk) = obs::with_capture(|| {
        for (ir, device, pool) in &corpus {
            let kernel = interp::prepare(ir).expect("interp prepare");
            for inputs in pool {
                interp::execute_prepared_budgeted(&kernel, device, inputs, budget).expect("interp");
            }
        }
    });
    let ((), bytecode) = obs::with_capture(|| {
        for (ir, device, pool) in &corpus {
            let kernel = vm::compile_kernel(ir).expect("vm compile");
            for r in vm::execute_batch(&kernel, device, pool, budget) {
                r.expect("vm");
            }
        }
    });

    let under = |snap: &obs::MetricsSnapshot, tier: &str| -> BTreeMap<String, u64> {
        let prefix = format!("{tier}.");
        snap.counters
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix(&prefix)?.to_string(), *v)))
            .collect()
    };
    let counters = under(&walk, "interp");
    assert_eq!(counters, under(&bytecode, "vm"), "interp.* and vm.* counters differ");
    assert!(under(&walk, "vm").is_empty() && under(&bytecode, "interp").is_empty());

    let runs: u64 = corpus.iter().map(|(.., pool)| pool.len() as u64).sum();
    assert_eq!(counters["execs"], runs);
    assert!(counters["ops"] > runs);
    for e in fpcore::exceptions::FpException::ALL {
        assert!(counters.get(&format!("fpexc.{e}")).is_some_and(|&n| n > 0), "{e} never fired");
    }
    for d in DeviceKind::ALL {
        let calls = format!("mathcall.{}.", d.short());
        assert!(counters.keys().any(|k| k.starts_with(&calls)), "no math call on {d:?}");
    }
    for hist in ["execns", "nsperop"] {
        let samples = |snap: &obs::MetricsSnapshot, tier: &str| {
            snap.hists.get(&format!("{tier}.{hist}")).map_or(0, |h| h.count)
        };
        assert_eq!(samples(&walk, "interp"), runs, "interp.{hist}");
        assert_eq!(samples(&bytecode, "vm"), runs, "vm.{hist}");
    }
}
