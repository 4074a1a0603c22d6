//! The compiled bytecode execution tier.
//!
//! [`compile_kernel`] lowers a [`KernelIr`] into the flat,
//! register-allocated bytecode of [`crate::bytecode`];
//! [`execute_compiled`] / [`execute_batch`] then run it with a dispatch
//! loop over a contiguous register file. Compile once, run many: the
//! campaign and the oracle both execute every compiled kernel against
//! several inputs, and the batch API reuses all execution scratch
//! (registers, slot files, arrays) across those runs.
//!
//! **The interpreter remains the reference executor.** The vm is proved
//! against it by construction (identical DAZ/FTZ placement, exception
//! reconstruction, budget accounting and error strings), by the
//! differential proptest battery (`tests/vm_differential.rs`), and at
//! runtime by [`ExecTier::Differential`], which runs both tiers on every
//! execution and panics on any bit difference — the repo's
//! translation-validation pattern applied to its own executor.
//!
//! Telemetry mirrors the interpreter under a `vm.` namespace:
//! `vm.execs`/`vm.ops` counters, `vm.execns`/`vm.nsperop` histograms, a
//! `vm.exec` trace event, and `vm.mathcall.*`/`vm.fpexc.*` tallies, so
//! `analyze --profile` can show both tiers side by side.

use crate::bytecode::{self, Code, FmaKind, Op, Src};
use crate::cost;
use crate::interp::{
    comp_slot, DeviceFloat, ExecBudget, ExecError, ExecResult, ExecutableKernel, Frame,
};
use crate::ir::{FloatSlot, KernelIr, Vars};
use fpcore::exceptions::{ArithOp, ExceptionFlags};
use fpcore::ftz::FtzMode;
use gpusim::mathlib::MathFunc;
use gpusim::Device;
use progen::ast::{BinOp, Precision};
use progen::inputs::{InputSet, ARRAY_LEN};
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
    params: Vec<progen::ast::Param>,
    vars: Vars,
    comp: FloatSlot,
    code: Code,
}

impl CompiledKernel {
    /// Number of bytecode operations (static size of the lowered body).
    pub fn op_count(&self) -> usize {
        self.code.ops.len()
    }

    /// Register-file size the dispatch loop provisions.
    pub fn register_count(&self) -> usize {
        self.code.n_regs
    }
}

/// Compile a kernel to bytecode (the vm analogue of
/// [`crate::interp::prepare`]; fails on the same malformed kernels).
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
    let kernel = compile_kernel(ir)?;
    execute_compiled(&kernel, device, inputs)
}

/// Execute a compiled kernel under the default budget.
pub fn execute_compiled(
    kernel: &CompiledKernel,
    device: &Device,
    inputs: &InputSet,
) -> Result<ExecResult, ExecError> {
    execute_compiled_budgeted(kernel, device, inputs, ExecBudget::default())
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

/// Result FTZ for binary arithmetic — the op the `vm-inject` feature's
/// `DropFtzFlush` bug disables.
#[inline]
fn ftz_bin_result<T: DeviceFloat>(r: T, ftz: FtzMode) -> T {
    #[cfg(feature = "vm-inject")]
    if crate::vm_inject::armed() == crate::vm_inject::VmBug::DropFtzFlush {
        return r;
    }
    r.apply_ftz(ftz)
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
    frame.bind(&kernel.params, &kernel.vars, inputs, T::from_f64)?;
    let env = device.fp_env(kernel.flags.fast_math);
    let ftz = T::ftz_mode(&env);

    let mut exceptions = ExceptionFlags::new();
    let mut cost_slots: u64 = 0;
    let mut steps: u64 = 0;
    let mut math_calls = [0u32; MathFunc::COUNT];
    let deadline =
        budget.max_wall_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
    let exec_t = if obs::enabled() { Some(Instant::now()) } else { None };

    // One budget step per value op, checked *before* the op executes —
    // the same retire/check/poll order as the interpreter, so StepLimit
    // and (deterministic) Timeout trip at identical step counts.
    macro_rules! bump {
        ($c:expr) => {{
            steps += 1;
            if steps > budget.max_steps {
                return Err(ExecError::StepLimit { budget: budget.max_steps, steps });
            }
            if steps & crate::interp::DEADLINE_POLL_MASK == 0 {
                if let Some(d) = deadline {
                    if Instant::now() >= d {
                        return Err(ExecError::Timeout {
                            budget_ms: budget.max_wall_ms.unwrap_or(0),
                            steps,
                        });
                    }
                }
            }
            cost_slots += $c as u64;
        }};
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
    let n_ops = ops.len();
    let mut pc = 0usize;
    while pc < n_ops {
        match &ops[pc] {
            Op::Const { dst, v } => {
                bump!(0u8);
                regs[*dst as usize] = T::from_f64(*v);
            }
            Op::ReadVar { dst, slot } => {
                bump!(1u8);
                regs[*dst as usize] = frame.scalars[*slot as usize].ok_or_else(|| {
                    ExecError::UnknownVar(kernel.vars.floats[*slot as usize].clone())
                })?;
            }
            Op::ReadIntAsFloat { dst, slot } => {
                bump!(1u8);
                let i = frame.ints[*slot as usize]
                    .ok_or_else(|| ExecError::UnknownVar("int".into()))?;
                regs[*dst as usize] = T::from_f64(i as f64);
            }
            Op::ReadArr { dst, arr, idx } => {
                bump!(4u8);
                let i = frame.index(*idx as usize)?;
                regs[*dst as usize] = *frame.arrays[*arr as usize].get(i).ok_or_else(|| {
                    ExecError::OutOfBounds(kernel.vars.arrays[*arr as usize].clone())
                })?;
            }
            Op::ReadThreadIdx { dst } => {
                bump!(1u8);
                regs[*dst as usize] = T::from_f64(0.0);
            }
            Op::Neg { dst, a } => {
                bump!(1u8);
                regs[*dst as usize] = -val!(*a);
            }
            Op::Bin { dst, op, a, b, cost: c } => {
                bump!(*c);
                let x = val!(*a).apply_daz(ftz);
                let y = val!(*b).apply_daz(ftz);
                let (r, aop) = match op {
                    BinOp::Add => (x + y, ArithOp::Add),
                    BinOp::Sub => (x - y, ArithOp::Sub),
                    BinOp::Mul => (x * y, ArithOp::Mul),
                    BinOp::Div => (x / y, ArithOp::Div),
                };
                exceptions.merge(T::detect_exceptions(aop, x, y, r));
                regs[*dst as usize] = ftz_bin_result(r, ftz);
            }
            Op::Fma { dst, kind, a, b, c, cost: fc } => {
                bump!(*fc);
                let x = val!(*a).apply_daz(ftz);
                let y = val!(*b).apply_daz(ftz);
                let z = val!(*c).apply_daz(ftz);
                let r = match kind {
                    FmaKind::Fma => x.mul_add(y, z),
                    FmaKind::Fms => x.mul_add(y, -z),
                    FmaKind::Fnma => (-x).mul_add(y, z),
                };
                crate::interp::nonbin_exceptions(&[x, y, z], r, &mut exceptions);
                regs[*dst as usize] = r.apply_ftz(ftz);
            }
            Op::Rcp { dst, a } => {
                bump!(2u8);
                let x = val!(*a);
                let r = T::rcp(x);
                crate::interp::nonbin_exceptions(&[x], r, &mut exceptions);
                regs[*dst as usize] = r;
            }
            Op::Call { dst, f, a, b, cost: cc } => {
                bump!(*cc);
                math_calls[f.index()] += 1;
                let x = match a {
                    Some(o) => val!(*o).apply_daz(ftz),
                    None => T::ZERO,
                };
                let y = match b {
                    Some(o) => val!(*o).apply_daz(ftz),
                    None => T::ZERO,
                };
                let r = T::math_call(device, kernel.flags.fast_math, *f, x, y);
                crate::interp::nonbin_exceptions(&[x, y], r, &mut exceptions);
                regs[*dst as usize] = r.apply_ftz(ftz);
            }
            Op::StoreVar { slot, src } => {
                frame.scalars[*slot as usize] = Some(val!(*src));
            }
            Op::StoreArr { arr, idx, src } => {
                let v = val!(*src);
                let i = frame.index(*idx as usize)?;
                *frame.arrays[*arr as usize].get_mut(i).ok_or_else(|| {
                    ExecError::OutOfBounds(kernel.vars.arrays[*arr as usize].clone())
                })? = v;
                cost_slots += 4;
            }
            Op::Branch { op, a, b, skip_to } => {
                let x = val!(*a);
                let y = val!(*b);
                cost_slots += 2;
                if !crate::interp::compare(*op, x, y) {
                    pc = *skip_to as usize;
                    continue;
                }
            }
            Op::LoopInit { var, bound, limit, exit_to } => {
                let n = frame.ints[*bound as usize]
                    .ok_or_else(|| ExecError::UnknownVar("loop bound".into()))?;
                let n = n.clamp(0, ARRAY_LEN as i64);
                if n <= 0 {
                    pc = *exit_to as usize;
                    continue;
                }
                limits[*limit as usize] = n;
                frame.ints[*var as usize] = Some(0);
                cost_slots += cost::LOOP_OVERHEAD;
            }
            Op::LoopBack { var, limit, back_to } => {
                let i = frame.ints[*var as usize].unwrap_or(0) + 1;
                if i < limits[*limit as usize] {
                    frame.ints[*var as usize] = Some(i);
                    cost_slots += cost::LOOP_OVERHEAD;
                    pc = *back_to as usize;
                    continue;
                }
            }
        }
        pc += 1;
    }

    if obs::enabled() {
        static EXECS: obs::Name = obs::Name::new("vm.execs");
        static OPS: obs::Name = obs::Name::new("vm.ops");
        static EXEC_NS: obs::Name = obs::Name::new("vm.execns");
        static NS_PER_OP: obs::Name = obs::Name::new("vm.nsperop");
        EXECS.add(1);
        OPS.add(steps);
        if let Some(t) = exec_t {
            let ns = t.elapsed().as_nanos() as u64;
            EXEC_NS.record(ns);
            NS_PER_OP.record(ns / steps.max(1));
            if obs::trace::active() {
                obs::trace::emit(
                    "vm.exec",
                    t,
                    ns,
                    vec![("program", kernel.program_id.as_str().into()), ("steps", steps.into())],
                );
            }
        }
        let names = crate::names::ExecNames::vm();
        for (i, &n) in math_calls.iter().enumerate() {
            if n > 0 {
                obs::add_id(names.mathcall(device.kind, MathFunc::ALL[i]), n as u64);
            }
        }
        for e in exceptions.iter() {
            obs::add_id(names.fpexc(e), 1);
        }
    }

    let value = frame.scalars[kernel.comp].ok_or_else(|| ExecError::UnknownVar("comp".into()))?;
    Ok(ExecResult { value: value.exec_value(), exceptions, cost_slots, steps })
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
                        let got = execute_compiled(&vk, &device, input);
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
            let single = execute_compiled(&vk, &amd(), input);
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
        let got = execute_compiled(&vk, &nv(), &bad).unwrap_err();
        assert_eq!(want.to_string(), got.to_string());
    }
}
