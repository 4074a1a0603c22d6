//! Campaign-level vm-bug injection: prove `--exec-tier differential`
//! catches a deliberately broken bytecode lowering and attributes it to
//! the vm, quarantining the unit instead of corrupting the report.
//!
//! Two armed bugs (gpucc's `vm-inject` feature, runtime-gated):
//!
//! * [`VmBug::RegisterClobber`] — wrong register reuse in the lowerer;
//!   fires on any multi-instruction kernel, so a stock generated
//!   campaign trips it;
//! * [`VmBug::DropFtzFlush`] — the dispatch loop keeps subnormal
//!   results a fast-math device would flush; needs a handcrafted
//!   subnormal-producing kernel at a fast-math level.
//!
//! The injection switch is process-global: each test holds `GATE` for
//! its whole body, clean runs included, so no other test's armed bug
//! leaks into them, and disarms via an RAII guard. This file is its own
//! binary, so the stock difftest tests never see an armed bug.

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession, FtStatus};
use difftest::fault::FaultKind;
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::pipeline::{compile, OptLevel, Toolchain};
use gpucc::vm::execute_ir_tier;
use gpucc::vm_inject::{arm, disarm, VmBug};
use gpucc::ExecTier;
use gpusim::{Device, DeviceKind, QuirkSet};
use progen::ast::{AssignOp, BinOp, Expr, LValue, Param, ParamType, Precision, Program, Stmt};
use progen::inputs::{InputSet, InputValue};
use std::sync::{Mutex, MutexGuard, PoisonError};

static GATE: Mutex<()> = Mutex::new(());

/// Serialize against every other test in this binary. A test that
/// fails while holding the gate poisons it; the next test still runs.
fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Armed;

impl Armed {
    fn new(bug: VmBug) -> Armed {
        arm(bug);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        disarm();
    }
}

/// Run `f` with `bug` armed. The caller holds [`gate`].
fn with_bug<T>(bug: VmBug, f: impl FnOnce() -> T) -> T {
    let _armed = Armed::new(bug);
    f()
}

fn small(n: usize) -> CampaignConfig {
    CampaignConfig::default_for(progen::Precision::F64, TestMode::Direct).with_programs(n)
}

/// Run one campaign side on `tier`, returning the collected faults and
/// the final metadata.
fn run_nvcc_side(
    config: &CampaignConfig,
    tier: ExecTier,
) -> (CampaignMeta, Vec<difftest::fault::TestFault>) {
    let mut meta = CampaignMeta::generate(config);
    let session = FtSession::new(None, None);
    assert_eq!(run_sides_ft(&mut meta, &[Side::Nvcc], &session, tier), FtStatus::Complete);
    (meta, session.faults())
}

#[test]
fn differential_campaign_quarantines_an_armed_register_clobber() {
    let _gate = gate();
    let config = small(6);

    let (_, faults) =
        with_bug(VmBug::RegisterClobber, || run_nvcc_side(&config, ExecTier::Differential));
    assert!(!faults.is_empty(), "a broken vm lowering must be quarantined, not absorbed");
    for f in &faults {
        assert_eq!(f.kind, FaultKind::Panic, "{f:?}");
        assert!(
            f.detail.contains("vm/interp mismatch"),
            "quarantine entry must attribute the fault to the vm tier: {}",
            f.detail
        );
    }

    // disarmed, the identical campaign is fault-free on every tier and
    // the reports are byte-identical — the feature build alone is inert
    let (interp_meta, interp_faults) = run_nvcc_side(&config, ExecTier::Interp);
    let (diff_meta, diff_faults) = run_nvcc_side(&config, ExecTier::Differential);
    assert!(interp_faults.is_empty());
    assert!(diff_faults.is_empty());
    assert_eq!(
        serde_json::to_string(&analyze(&interp_meta)).unwrap(),
        serde_json::to_string(&analyze(&diff_meta)).unwrap(),
    );
}

#[test]
fn plain_vm_tier_is_fooled_by_the_clobber_that_differential_catches() {
    let _gate = gate();
    // the negative control for the differential tier's value: the same
    // armed bug silently corrupts results under `--exec-tier vm` (bits
    // change, nothing is quarantined) — only the lockstep tier converts
    // the miscompile into an attributed fault
    let config = small(4);
    let (clean_meta, _) = run_nvcc_side(&config, ExecTier::Vm);
    let (broken_meta, broken_faults) =
        with_bug(VmBug::RegisterClobber, || run_nvcc_side(&config, ExecTier::Vm));
    assert!(broken_faults.is_empty(), "the vm tier alone cannot see its own miscompile");
    assert_ne!(
        serde_json::to_string(&clean_meta.tests).unwrap(),
        serde_json::to_string(&broken_meta.tests).unwrap(),
        "the armed clobber must actually change recorded results"
    );
}

fn float_param(name: &str) -> Param {
    Param { name: name.into(), ty: ParamType::Float }
}

/// `comp = var_2 * var_3;` in F32 — with inputs `1e-20f32 * 1e-20f32`
/// the product is subnormal (`~1e-40`), which a fast-math device
/// flushes to zero. [`VmBug::DropFtzFlush`] skips exactly that flush.
fn ftz_victim() -> (Program, InputSet) {
    let p = Program {
        id: "vm-inject-ftz".into(),
        precision: Precision::F32,
        params: vec![
            float_param("comp"),
            Param { name: "var_1".into(), ty: ParamType::Int },
            float_param("var_2"),
            float_param("var_3"),
        ],
        body: vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::bin(BinOp::Mul, Expr::Var("var_2".into()), Expr::Var("var_3".into())),
        }],
    };
    let input = InputSet {
        values: vec![
            InputValue::Float(0.0),
            InputValue::Int(1),
            InputValue::Float(1.0e-20),
            InputValue::Float(1.0e-20),
        ],
    };
    (p, input)
}

#[test]
fn dropped_ftz_flush_is_caught_by_the_differential_tier_at_fast_math() {
    let _gate = gate();
    let (p, input) = ftz_victim();
    let device = Device::with_quirks(DeviceKind::NvidiaLike, QuirkSet::all());
    let ir = compile(&p, Toolchain::Nvcc, OptLevel::O3Fm, false);

    // sanity: the clean vm flushes the subnormal product like the
    // interpreter does
    let clean = execute_ir_tier(ExecTier::Differential, &ir, &device, &input)
        .expect("clean differential run executes");
    assert_eq!(clean.value.bits(), 0, "fast math must flush the subnormal product to +0.0");

    with_bug(VmBug::DropFtzFlush, || {
        let caught = std::panic::catch_unwind(|| {
            execute_ir_tier(ExecTier::Differential, &ir, &device, &input)
        });
        let payload = match caught {
            Ok(r) => panic!("armed DropFtzFlush must not pass the differential tier: {r:?}"),
            Err(p) => p,
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("vm/interp mismatch"), "attribution missing: {msg:?}");
    });
}
