//! The compiled bytecode execution tier.
//!
//! [`compile_kernel`] lowers a [`KernelIr`] into the flat,
//! register-allocated bytecode of [`crate::bytecode`];
//! [`execute_compiled_budgeted`] / [`execute_batch`] then run it with a
//! dispatch loop over a contiguous register file. Compile once, run many:
//! the campaign and the oracle both execute every compiled kernel against
//! several inputs, and the batch API reuses all execution scratch
//! (registers, slot files, arrays) across those runs.
//!
//! Only the dispatch is the vm's own: registers, pre-patched jumps and
//! precomputed costs. Everything else it shares with the interpreter's
//! tree walk, so each rule exists once in [`crate::interp`]: every
//! arithmetic operation, its DAZ/FTZ, exception reconstruction and
//! math-call tally runs through one `interp::Vendor` per run; every value
//! op retires through the walk's step meter (budget, deadline and their
//! errors); the frame's failing reads and writes carry the walk's error
//! texts; and the vendor flush records `vm.execs`/`vm.ops`,
//! `vm.execns`/`vm.nsperop`, the `vm.exec` trace event and the
//! `vm.mathcall.*`/`vm.fpexc.*` tallies, so `analyze --profile` can show
//! both tiers side by side.
//!
//! **The interpreter remains the reference executor.** The differential
//! proptest battery (`tests/vm_differential.rs`) checks the dispatch
//! against it, and at runtime [`ExecTier::Differential`] runs both tiers
//! on every execution and panics on any bit difference — the repo's
//! translation-validation pattern applied to its own executor.

use crate::bytecode::{self, Code, Op, Src};
use crate::cost;
use crate::interp::{
    comp_slot, compare, DeviceFloat, Domain, ExecBudget, ExecError, ExecResult, ExecutableKernel,
    Frame, Meter, Vendor,
};
use crate::ir::{FloatSlot, KernelIr, Vars};
use crate::names::ExecNames;
use gpusim::Device;
use progen::ast::Precision;
use progen::inputs::InputSet;
use std::time::Instant;

/// Which executor runs compiled kernels.
///
/// Not part of any serialized configuration on purpose: campaign configs
/// are compared for identity when merging shards and persisted in
/// checkpoints, and a provably bit-identical executor choice must not
/// split those identities. The tier is threaded as a runtime parameter
/// instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecTier {
    /// The tree-walking reference interpreter ([`crate::interp`]).
    Interp,
    /// The compiled bytecode vm (this module) — the fast default.
    #[default]
    Vm,
    /// Run both tiers on every execution, panic on any bit difference,
    /// and return the vm result. The panic is contained by the campaign's
    /// per-test isolation, so a vm bug surfaces as an attributed fault,
    /// not a wrong table.
    Differential,
}

impl ExecTier {
    /// All tiers, for exhaustive tests.
    pub const ALL: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Vm, ExecTier::Differential];

    /// The CLI-facing name.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Vm => "vm",
            ExecTier::Differential => "differential",
        }
    }
}

impl std::str::FromStr for ExecTier {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecTier, String> {
        match s {
            "interp" => Ok(ExecTier::Interp),
            "vm" => Ok(ExecTier::Vm),
            "differential" => Ok(ExecTier::Differential),
            other => Err(format!("unknown exec tier {other:?} (use interp|vm|differential)")),
        }
    }
}

/// A kernel compiled to bytecode: lower once, execute many times.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The source IR's identity.
    pub program_id: String,
    /// Kernel precision.
    pub precision: Precision,
    /// Compilation flags (fast math, level).
    pub flags: crate::ir::CompileFlags,
    params: crate::ir::Params,
    vars: std::sync::Arc<Vars>,
    comp: FloatSlot,
    code: Code,
}

/// Compile a kernel to bytecode (the vm analogue of
/// [`crate::interp::prepare`]; fails on the same malformed kernels). The
/// compiled kernel shares `ir`'s parameter and name tables.
pub fn compile_kernel(ir: &KernelIr) -> Result<CompiledKernel, ExecError> {
    Ok(CompiledKernel {
        comp: comp_slot(ir)?,
        code: bytecode::lower(ir),
        program_id: ir.program_id.clone(),
        precision: ir.precision,
        flags: ir.flags,
        params: ir.params.clone(),
        vars: ir.vars.clone(),
    })
}

/// Compile and execute in one call under the default budget (the vm
/// analogue of [`crate::interp::execute`]).
pub fn execute(ir: &KernelIr, device: &Device, inputs: &InputSet) -> Result<ExecResult, ExecError> {
    execute_compiled_budgeted(&compile_kernel(ir)?, device, inputs, ExecBudget::default())
}

/// Execute a compiled kernel under an explicit fuel budget.
pub fn execute_compiled_budgeted(
    kernel: &CompiledKernel,
    device: &Device,
    inputs: &InputSet,
    budget: ExecBudget,
) -> Result<ExecResult, ExecError> {
    match kernel.precision {
        Precision::F64 => run_vm(kernel, device, inputs, budget, &mut VmState::<f64>::new(kernel)),
        Precision::F32 => run_vm(kernel, device, inputs, budget, &mut VmState::<f32>::new(kernel)),
    }
}

/// Execute a compiled kernel against a batch of inputs, reusing all
/// execution scratch across runs — the compile-once/run-many entry the
/// campaign and oracle loops amortize compilation through.
pub fn execute_batch(
    kernel: &CompiledKernel,
    device: &Device,
    inputs: &[InputSet],
    budget: ExecBudget,
) -> Vec<Result<ExecResult, ExecError>> {
    match kernel.precision {
        Precision::F64 => {
            let mut state = VmState::<f64>::new(kernel);
            inputs.iter().map(|i| run_vm(kernel, device, i, budget, &mut state)).collect()
        }
        Precision::F32 => {
            let mut state = VmState::<f32>::new(kernel);
            inputs.iter().map(|i| run_vm(kernel, device, i, budget, &mut state)).collect()
        }
    }
}

/// Execute both tiers on the same input and panic on any difference in
/// result bits, exceptions, cost, steps or error classification. Returns
/// the vm result. Wall-clock timeouts are exempt from comparison (they
/// are inherently racy between two separate runs); instruction-budget
/// `StepLimit`s are deterministic and must match exactly.
pub fn execute_differential(
    interp_kernel: &ExecutableKernel,
    vm_kernel: &CompiledKernel,
    device: &Device,
    inputs: &InputSet,
    budget: ExecBudget,
) -> Result<ExecResult, ExecError> {
    let reference = crate::interp::execute_prepared_budgeted(interp_kernel, device, inputs, budget);
    let fast = execute_compiled_budgeted(vm_kernel, device, inputs, budget);
    let timeoutish = matches!(reference, Err(ExecError::Timeout { .. }))
        || matches!(fast, Err(ExecError::Timeout { .. }));
    if !timeoutish && reference != fast {
        panic!(
            "vm/interp mismatch on `{}`: interp {reference:?}, vm {fast:?} \
             (the compiled vm tier diverged from the reference interpreter)",
            vm_kernel.program_id
        );
    }
    fast
}

/// Compile-per-call convenience: execute `ir` under `tier` with the
/// default budget. Used where a single execution is needed (the oracle's
/// stage walker precompiles instead when it loops over inputs).
pub fn execute_ir_tier(
    tier: ExecTier,
    ir: &KernelIr,
    device: &Device,
    inputs: &InputSet,
) -> Result<ExecResult, ExecError> {
    match tier {
        ExecTier::Interp => crate::interp::execute(ir, device, inputs),
        ExecTier::Vm => execute(ir, device, inputs),
        ExecTier::Differential => {
            let ik = crate::interp::prepare(ir)?;
            let vk = compile_kernel(ir)?;
            execute_differential(&ik, &vk, device, inputs, ExecBudget::default())
        }
    }
}

/// Reusable execution scratch: the register file, the variable frame
/// the interpreter allocates fresh per run, and the loop limits.
/// Registers and limits are written before they are read.
struct VmState<T> {
    regs: Vec<T>,
    frame: Frame<T>,
    limits: Vec<i64>,
}

impl<T: DeviceFloat> VmState<T> {
    fn new(kernel: &CompiledKernel) -> VmState<T> {
        VmState {
            regs: vec![T::ZERO; kernel.code.n_regs],
            frame: Frame::new(&kernel.vars),
            limits: vec![0; kernel.code.n_limits],
        }
    }
}

fn run_vm<T: DeviceFloat>(
    kernel: &CompiledKernel,
    device: &Device,
    inputs: &InputSet,
    budget: ExecBudget,
    state: &mut VmState<T>,
) -> Result<ExecResult, ExecError> {
    #[cfg(feature = "chaos")]
    crate::chaos::maybe_panic(&kernel.program_id);
    let VmState { regs, frame, limits } = state;
    let vars = &kernel.vars;
    frame.bind(&kernel.params, vars, inputs, T::from_f64)?;
    let mut vendor = Vendor::<T>::new(device, kernel.precision, kernel.flags);
    #[cfg(feature = "vm-inject")]
    {
        use crate::vm_inject::{armed, VmBug};
        vendor.drop_ftz_flush = armed() == VmBug::DropFtzFlush;
    }
    let mut meter = Meter::new(budget);
    let exec_t = if obs::enabled() { Some(Instant::now()) } else { None };

    // A value op retires one step, checked before it executes, and
    // charges its precomputed cost.
    macro_rules! retire {
        ($cost:expr) => {
            meter.step()?;
            vendor.charge(u64::from($cost));
        };
    }
    macro_rules! val {
        ($s:expr) => {
            match $s {
                Src::Reg(r) => regs[r as usize],
                Src::Const(c) => T::from_f64(c),
            }
        };
    }

    let ops = &kernel.code.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Const { dst, v } => {
                retire!(0u8);
                regs[*dst as usize] = T::from_f64(*v);
            }
            Op::ReadVar { dst, slot } => {
                retire!(1u8);
                regs[*dst as usize] = frame.float(vars, *slot as usize)?;
            }
            Op::ReadIntAsFloat { dst, slot } => {
                retire!(1u8);
                regs[*dst as usize] = T::from_f64(frame.int(*slot as usize)? as f64);
            }
            Op::ReadArr { dst, arr, idx } => {
                retire!(4u8);
                regs[*dst as usize] = frame.load(vars, *arr as usize, *idx as usize)?;
            }
            Op::ReadThreadIdx { dst } => {
                retire!(1u8);
                regs[*dst as usize] = T::from_f64(0.0);
            }
            Op::Neg { dst, a } => {
                retire!(1u8);
                regs[*dst as usize] = -val!(*a);
            }
            Op::Bin { dst, op, a, b, cost } => {
                retire!(*cost);
                regs[*dst as usize] = vendor.bin(*op, val!(*a), val!(*b));
            }
            Op::Fma { dst, kind, a, b, c, cost } => {
                retire!(*cost);
                regs[*dst as usize] = vendor.fused(*kind, val!(*a), val!(*b), val!(*c));
            }
            Op::Rcp { dst, a } => {
                retire!(2u8);
                regs[*dst as usize] = vendor.rcp(val!(*a));
            }
            Op::Call { dst, f, a, b, cost } => {
                retire!(*cost);
                let x = a.map_or(T::ZERO, |o| val!(o));
                let y = b.map_or(T::ZERO, |o| val!(o));
                regs[*dst as usize] = vendor.call(*f, x, y);
            }
            Op::StoreVar { slot, src } => {
                frame.scalars[*slot as usize] = Some(val!(*src));
            }
            Op::StoreArr { arr, idx, src } => {
                frame.store(vars, *arr as usize, *idx as usize, val!(*src))?;
                vendor.charge(4);
            }
            Op::Branch { op, a, b, skip_to } => {
                vendor.charge(2);
                if !compare(*op, val!(*a), val!(*b)) {
                    pc = *skip_to as usize;
                    continue;
                }
            }
            Op::LoopInit { var, bound, limit, exit_to } => {
                let n = frame.trips(*bound as usize)?;
                if n <= 0 {
                    pc = *exit_to as usize;
                    continue;
                }
                limits[*limit as usize] = n;
                frame.ints[*var as usize] = Some(0);
                vendor.charge(cost::LOOP_OVERHEAD);
            }
            Op::LoopBack { var, limit, back_to } => {
                let i = frame.ints[*var as usize].unwrap_or(0) + 1;
                if i < limits[*limit as usize] {
                    frame.ints[*var as usize] = Some(i);
                    vendor.charge(cost::LOOP_OVERHEAD);
                    pc = *back_to as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }

    if obs::enabled() {
        vendor.flush(ExecNames::vm(), &kernel.program_id, meter.steps, exec_t);
    }
    Ok(vendor.result(frame.float(vars, kernel.comp)?, meter.steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp;
    use crate::pipeline::{compile, OptLevel, Toolchain};
    use gpusim::DeviceKind;
    use progen::gen::generate_program;
    use progen::grammar::GenConfig;
    use progen::inputs::{generate_inputs, InputValue};

    fn nv() -> Device {
        Device::new(DeviceKind::NvidiaLike)
    }

    fn amd() -> Device {
        Device::new(DeviceKind::AmdLike)
    }

    #[test]
    fn tier_parses_and_round_trips() {
        for tier in ExecTier::ALL {
            assert_eq!(tier.label().parse::<ExecTier>().unwrap(), tier);
        }
        assert!("jit".parse::<ExecTier>().is_err());
        assert_eq!(ExecTier::default(), ExecTier::Vm);
    }

    #[test]
    fn vm_matches_interp_on_generated_programs() {
        let cfg = GenConfig::varity_default(Precision::F64);
        for i in 0..40 {
            let p = generate_program(&cfg, 91, i);
            let inputs = generate_inputs(&p, 91, 2);
            for tc in [Toolchain::Nvcc, Toolchain::Hipcc] {
                for opt in OptLevel::ALL {
                    let ir = compile(&p, tc, opt, false);
                    let device = if tc == Toolchain::Nvcc { nv() } else { amd() };
                    let vk = compile_kernel(&ir).unwrap();
                    for input in &inputs {
                        let want = interp::execute(&ir, &device, input);
                        let got =
                            execute_compiled_budgeted(&vk, &device, input, ExecBudget::default());
                        assert_eq!(want, got, "program {i} {tc:?} {opt:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn step_limit_parity_with_interp() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let p = generate_program(&cfg, 91, 0);
        let inputs = generate_inputs(&p, 91, 1);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O2, false);
        let ik = interp::prepare(&ir).unwrap();
        let vk = compile_kernel(&ir).unwrap();
        for max_steps in [1, 2, 5, 17, 100] {
            let budget = ExecBudget::steps(max_steps);
            let want = interp::execute_prepared_budgeted(&ik, &nv(), &inputs[0], budget);
            let got = execute_compiled_budgeted(&vk, &nv(), &inputs[0], budget);
            assert_eq!(want, got, "budget {max_steps}");
        }
    }

    #[test]
    fn zero_wall_budget_times_out_like_interp() {
        use progen::ast::*;
        // Nested loops retiring well past the 256-step poll interval.
        let p = Program {
            id: "t".into(),
            precision: Precision::F64,
            params: vec![
                Param { name: "comp".into(), ty: ParamType::Float },
                Param { name: "var_1".into(), ty: ParamType::Int },
                Param { name: "var_2".into(), ty: ParamType::Float },
            ],
            body: vec![Stmt::For {
                var: "i".into(),
                bound: "var_1".into(),
                body: vec![Stmt::For {
                    var: "j".into(),
                    bound: "var_1".into(),
                    body: vec![Stmt::Assign {
                        target: LValue::Var("comp".into()),
                        op: AssignOp::AddAssign,
                        value: Expr::bin(BinOp::Add, Expr::Var("var_2".into()), Expr::Lit(1.0)),
                    }],
                }],
            }],
        };
        let input = InputSet {
            values: vec![InputValue::Float(0.0), InputValue::Int(16), InputValue::Float(1.0)],
        };
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let ik = interp::prepare(&ir).unwrap();
        let vk = compile_kernel(&ir).unwrap();
        let budget = ExecBudget { max_steps: interp::STEP_LIMIT, max_wall_ms: Some(0) };
        let want = interp::execute_prepared_budgeted(&ik, &nv(), &input, budget).unwrap_err();
        let got = execute_compiled_budgeted(&vk, &nv(), &input, budget).unwrap_err();
        assert_eq!(want, got);
        assert!(matches!(got, ExecError::Timeout { budget_ms: 0, .. }));
    }

    #[test]
    fn batch_matches_individual_runs() {
        let cfg = GenConfig::varity_default(Precision::F32);
        let p = generate_program(&cfg, 17, 3);
        let inputs = generate_inputs(&p, 17, 4);
        let ir = compile(&p, Toolchain::Hipcc, OptLevel::O3Fm, false);
        let vk = compile_kernel(&ir).unwrap();
        let batch = execute_batch(&vk, &amd(), &inputs, ExecBudget::default());
        assert_eq!(batch.len(), 4);
        for (input, got) in inputs.iter().zip(batch) {
            let single = execute_compiled_budgeted(&vk, &amd(), input, ExecBudget::default());
            assert_eq!(single, got);
            assert_eq!(interp::execute(&ir, &amd(), input), got);
        }
    }

    #[test]
    fn differential_agrees_on_clean_kernels() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let p = generate_program(&cfg, 5, 1);
        let inputs = generate_inputs(&p, 5, 2);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O3, false);
        let ik = interp::prepare(&ir).unwrap();
        let vk = compile_kernel(&ir).unwrap();
        for input in &inputs {
            let got = execute_differential(&ik, &vk, &nv(), input, ExecBudget::default());
            assert_eq!(got, interp::execute(&ir, &nv(), input));
        }
    }

    #[test]
    fn mismatched_inputs_report_identical_errors() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let p = generate_program(&cfg, 5, 0);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let vk = compile_kernel(&ir).unwrap();
        let bad = InputSet { values: vec![InputValue::Float(0.0)] };
        let want = interp::execute(&ir, &nv(), &bad).unwrap_err();
        let got = execute_compiled_budgeted(&vk, &nv(), &bad, ExecBudget::default()).unwrap_err();
        assert_eq!(want.to_string(), got.to_string());
    }
}
