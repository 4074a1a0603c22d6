//! The tree-walking executor: runs compiled IR in an arithmetic domain.
//!
//! One walk (structured control flow, variable slots, store traces)
//! serves two arithmetic `Domain`s, and a caller picks one by the entry
//! point it calls:
//!
//! * The vendor domain, behind this module's `execute*` functions, is the
//!   "run on the GPU" step of the pipeline. All basic arithmetic uses
//!   Rust's IEEE-754 ops (both real GPUs are correctly rounded there);
//!   math calls dispatch into the device's vendor library (accurate or
//!   fast entry points, per the kernel's compile flags); the device's
//!   FTZ/DAZ environment is applied around every operation; the five IEEE
//!   exception events of Table II are tracked the way a binary-
//!   instrumentation tool (GPU-FPX, paper ref \[12\]) would reconstruct
//!   them; and every instruction is charged to the cost model.
//! * The strict double-double truth domain, behind
//!   [`crate::refexec::execute_reference_budgeted`], evaluates the same
//!   walk over `fpcore::dd` values and keeps none of those books.
//!
//! The bytecode vm ([`crate::vm`]) dispatches differently but executes
//! through this module too: the vendor domain's operations and telemetry
//! flush, the step meter (budget and wall-clock deadline) and the frame's
//! reads and writes, with their error texts, exist once, here.

use crate::bytecode::FmaKind;
use crate::cost;
use crate::ir::{
    ArraySlot, CompileFlags, FloatSlot, Inst, InstSeq, IntSlot, KernelIr, Node, Operand, ParamSlot,
    StoreTarget, Vars,
};
use crate::names::ExecNames;
use fpcore::classify::Outcome;
use fpcore::exceptions::{ArithOp, ExceptionFlags, FpException};
use fpcore::ftz::FtzMode;
use fpcore::traits::GpuFloat;
use gpusim::fpenv::FpEnv;
use gpusim::mathlib::fast::nv_rcp_f32;
use gpusim::mathlib::MathFunc;
use gpusim::Device;
use progen::ast::{BinOp, CmpOp, Param, Precision};
use progen::inputs::{InputSet, InputValue, ARRAY_LEN};
use serde::{Deserialize, Serialize};
use std::marker::PhantomData;
use std::ops::Neg;
use std::time::Instant;

/// Default cap on executed instructions (guards hand-written programs;
/// the generated kernels execute a few hundred). Campaigns may override
/// it per run via [`ExecBudget`].
pub const STEP_LIMIT: u64 = 10_000_000;

/// How often (in executed instructions) the step meter polls the
/// wall-clock deadline. Chosen so the `Instant::now` cost disappears
/// into the per-instruction work.
const DEADLINE_POLL_MASK: u64 = 0xFF;

/// Per-execution fuel budget: a hard instruction cap plus an optional
/// wall-clock deadline. The default reproduces the historical
/// [`STEP_LIMIT`]-only behaviour, so configs serialized before budgets
/// existed load (and behave) identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecBudget {
    /// Maximum instructions one execution may retire.
    #[serde(default = "default_max_steps")]
    pub max_steps: u64,
    /// Optional wall-clock cap in milliseconds (polled every few hundred
    /// instructions, so enforcement is approximate).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_wall_ms: Option<u64>,
}

fn default_max_steps() -> u64 {
    STEP_LIMIT
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget { max_steps: STEP_LIMIT, max_wall_ms: None }
    }
}

impl ExecBudget {
    /// A budget capping instructions only.
    pub fn steps(max_steps: u64) -> Self {
        ExecBudget { max_steps, max_wall_ms: None }
    }
}

/// Execution errors (generated programs never hit these; parsed
/// hand-written sources can).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A variable was read before any value was bound to it.
    UnknownVar(String),
    /// An array access was out of bounds.
    OutOfBounds(String),
    /// The inputs do not match the kernel signature.
    BadInputs(String),
    /// The step budget was exhausted: carries the configured budget and
    /// the instructions retired when execution was cut off.
    StepLimit {
        /// The configured instruction budget.
        budget: u64,
        /// Instructions executed before the budget tripped.
        steps: u64,
    },
    /// The wall-clock budget was exhausted.
    Timeout {
        /// The configured wall-clock budget in milliseconds.
        budget_ms: u64,
        /// Instructions executed before the deadline passed.
        steps: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            ExecError::OutOfBounds(a) => write!(f, "array access out of bounds on `{a}`"),
            ExecError::BadInputs(m) => write!(f, "bad inputs: {m}"),
            ExecError::StepLimit { budget, steps } => {
                write!(f, "step budget exhausted: {steps} steps executed, budget {budget}")
            }
            ExecError::Timeout { budget_ms, steps } => {
                write!(f, "wall-clock budget exhausted: {budget_ms} ms, {steps} steps executed")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// The kernel's printed result, at its native precision.
///
/// Equality is **bitwise** (NaN == NaN with the same payload; `-0.0 !=
/// 0.0`) — the comparison semantics differential testing needs.
#[derive(Debug, Clone, Copy)]
pub enum ExecValue {
    /// FP32 result.
    F32(f32),
    /// FP64 result.
    F64(f64),
}

impl PartialEq for ExecValue {
    fn eq(&self, other: &ExecValue) -> bool {
        self.bit_eq(other)
    }
}

impl Eq for ExecValue {}

impl ExecValue {
    /// The paper's outcome classification.
    pub fn outcome(&self) -> Outcome {
        match self {
            ExecValue::F32(v) => Outcome::of_f32(*v),
            ExecValue::F64(v) => Outcome::of_f64(*v),
        }
    }

    /// Exact round-trip formatting (`printf("%.17g")` analogue).
    pub fn format_exact(&self) -> String {
        match self {
            ExecValue::F32(v) => fpcore::literal::format_g9(*v),
            ExecValue::F64(v) => fpcore::literal::format_g17(*v),
        }
    }

    /// Bitwise equality (same precision required).
    pub fn bit_eq(&self, other: &ExecValue) -> bool {
        match (self, other) {
            (ExecValue::F32(a), ExecValue::F32(b)) => a.to_bits() == b.to_bits(),
            (ExecValue::F64(a), ExecValue::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }

    /// Widen to f64 (exact for both precisions).
    pub fn to_f64(&self) -> f64 {
        match self {
            ExecValue::F32(v) => *v as f64,
            ExecValue::F64(v) => *v,
        }
    }

    /// Raw bits, zero-extended to 64.
    pub fn bits(&self) -> u64 {
        match self {
            ExecValue::F32(v) => u64::from(v.to_bits()),
            ExecValue::F64(v) => v.to_bits(),
        }
    }
}

/// Result of one kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Final value of `comp` (what the kernel prints).
    pub value: ExecValue,
    /// Accumulated IEEE exception events.
    pub exceptions: ExceptionFlags,
    /// Raw cost in issue slots (unscaled; see [`cost::scaled_cost`]).
    pub cost_slots: u64,
    /// Instructions executed.
    pub steps: u64,
}

/// One store event in an execution trace: the value written by a `Store`
/// node (loops produce one event per iteration).
///
/// Because the optimization passes rewrite instruction *sequences* but
/// never add, remove or reorder `Store` nodes, the k-th event of one
/// compilation corresponds to the k-th event of any other compilation of
/// the same program — as long as control flow agrees. That alignment is
/// what `difftest`'s isolation module exploits to pinpoint the first
/// diverging statement (the paper's intermediate-value analysis, automated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Name of the stored variable (or the `array[i]` rendering).
    pub target: String,
    /// Raw bits of the stored value (width per kernel precision).
    pub bits: u64,
}

/// Execute a compiled kernel on a device with the given inputs.
pub fn execute(ir: &KernelIr, device: &Device, inputs: &InputSet) -> Result<ExecResult, ExecError> {
    run(ir, comp_slot(ir)?, device, inputs, false, 0, ExecBudget::default()).map(|(r, _)| r)
}

/// Execute a kernel over a 1-D thread block (SIMT extension): one
/// independent execution per thread with `threadIdx.x` bound, returning the
/// per-thread results in thread order. Threads see private copies of the
/// array parameters (the generated kernels have no cross-thread dataflow).
pub fn execute_grid(
    ir: &KernelIr,
    device: &Device,
    inputs: &InputSet,
    block_dim: u32,
) -> Result<Vec<ExecResult>, ExecError> {
    let comp = comp_slot(ir)?;
    (0..block_dim)
        .map(|tid| run(ir, comp, device, inputs, false, tid, ExecBudget::default()).map(|(r, _)| r))
        .collect()
}

/// Execute a kernel while recording every store (see [`TraceEvent`]).
pub fn execute_traced(
    ir: &KernelIr,
    device: &Device,
    inputs: &InputSet,
) -> Result<(ExecResult, Vec<TraceEvent>), ExecError> {
    run(ir, comp_slot(ir)?, device, inputs, true, 0, ExecBudget::default())
}

/// Precision-specific device dispatch on top of [`GpuFloat`].
pub trait DeviceFloat: GpuFloat {
    /// Call a vendor math-library entry point.
    fn math_call(device: &Device, fast: bool, f: MathFunc, a: Self, b: Self) -> Self;
    /// Approximate reciprocal (only reachable on FP32 NVCC fast-math IR).
    fn rcp(x: Self) -> Self;
    /// This precision's FTZ mode within an environment.
    fn ftz_mode(env: &FpEnv) -> FtzMode;
    /// The value as a kernel result of this precision.
    fn exec_value(self) -> ExecValue;
}

impl DeviceFloat for f64 {
    fn math_call(device: &Device, fast: bool, f: MathFunc, a: f64, b: f64) -> f64 {
        if fast {
            device.mathlib().call_fast_f64(f, a, b)
        } else {
            device.mathlib().call_f64(f, a, b)
        }
    }
    fn rcp(x: f64) -> f64 {
        1.0 / x
    }
    fn ftz_mode(env: &FpEnv) -> FtzMode {
        env.ftz64
    }
    fn exec_value(self) -> ExecValue {
        ExecValue::F64(self)
    }
}

impl DeviceFloat for f32 {
    fn math_call(device: &Device, fast: bool, f: MathFunc, a: f32, b: f32) -> f32 {
        if fast {
            device.mathlib().call_fast_f32(f, a, b)
        } else {
            device.mathlib().call_f32(f, a, b)
        }
    }
    fn rcp(x: f32) -> f32 {
        nv_rcp_f32(x)
    }
    fn ftz_mode(env: &FpEnv) -> FtzMode {
        env.ftz32
    }
    fn exec_value(self) -> ExecValue {
        ExecValue::F32(self)
    }
}

/// The float slot of `comp`, the value a kernel prints, once the kernel
/// is known to be runnable. A hand-written kernel can fail this (the
/// generated ones never do): it reads an array that no parameter
/// declares, or it never names `comp`.
pub(crate) fn comp_slot(ir: &KernelIr) -> Result<FloatSlot, ExecError> {
    let array_params = ir.vars.params.iter().filter(|p| matches!(p, ParamSlot::Array(_))).count();
    if let Some(unknown) = ir.vars.arrays.get(array_params) {
        return Err(ExecError::UnknownVar(unknown.clone()));
    }
    ir.vars
        .floats
        .iter()
        .position(|n| n == "comp")
        .ok_or_else(|| ExecError::UnknownVar("comp".into()))
}

/// A kernel checked for execution (see [`prepare`]). Prepare once,
/// execute many times — the campaign runs every compiled kernel against
/// several inputs.
#[derive(Debug, Clone)]
pub struct ExecutableKernel {
    pub(crate) ir: KernelIr,
    pub(crate) comp: FloatSlot,
}

impl ExecutableKernel {
    /// The kernel's IR.
    pub fn ir(&self) -> &KernelIr {
        &self.ir
    }
}

/// Check that a compiled kernel can run, and keep it for execution. It
/// fails on the malformed kernels [`crate::vm::compile_kernel`] rejects,
/// with the same error.
impl TryFrom<KernelIr> for ExecutableKernel {
    type Error = ExecError;

    fn try_from(ir: KernelIr) -> Result<ExecutableKernel, ExecError> {
        Ok(ExecutableKernel { comp: comp_slot(&ir)?, ir })
    }
}

/// [`ExecutableKernel::try_from`] on a copy of `ir`, for a caller that
/// keeps the IR.
pub fn prepare(ir: &KernelIr) -> Result<ExecutableKernel, ExecError> {
    ExecutableKernel::try_from(ir.clone())
}

/// Execute a prepared kernel (single thread, tid 0) under the default
/// budget.
pub fn execute_prepared(
    kernel: &ExecutableKernel,
    device: &Device,
    inputs: &InputSet,
) -> Result<ExecResult, ExecError> {
    execute_prepared_budgeted(kernel, device, inputs, ExecBudget::default())
}

/// Execute a prepared kernel (single thread, tid 0) under an explicit
/// fuel budget. A runaway execution returns
/// [`ExecError::StepLimit`] / [`ExecError::Timeout`] instead of hanging
/// the campaign worker.
pub fn execute_prepared_budgeted(
    kernel: &ExecutableKernel,
    device: &Device,
    inputs: &InputSet,
    budget: ExecBudget,
) -> Result<ExecResult, ExecError> {
    run(&kernel.ir, kernel.comp, device, inputs, false, 0, budget).map(|(r, _)| r)
}

/// One execution's variables: a value per float and int slot (`None`
/// until something stores to it) and each array's elements. The walk,
/// in either domain, and the vm keep their variables here; the vm reuses
/// one frame across a batch.
pub(crate) struct Frame<V> {
    pub(crate) scalars: Vec<Option<V>>,
    pub(crate) ints: Vec<Option<i64>>,
    pub(crate) arrays: Vec<Vec<V>>,
}

impl<V: Copy> Frame<V> {
    /// An empty frame with room for every slot of `vars`.
    pub(crate) fn new(vars: &Vars) -> Frame<V> {
        Frame {
            scalars: vec![None; vars.floats.len()],
            ints: vec![None; vars.ints.len()],
            arrays: vec![Vec::new(); vars.arrays.len()],
        }
    }

    /// Unset every variable, then bind `inputs` to the parameters' slots,
    /// converting each float input through `lift`. Array buffers keep
    /// their allocation.
    pub(crate) fn bind(
        &mut self,
        params: &[Param],
        vars: &Vars,
        inputs: &InputSet,
        lift: impl Fn(f64) -> V,
    ) -> Result<(), ExecError> {
        if inputs.values.len() != params.len() {
            return Err(ExecError::BadInputs(format!(
                "{} inputs for {} parameters",
                inputs.values.len(),
                params.len()
            )));
        }
        self.scalars.fill(None);
        self.ints.fill(None);
        for ((param, value), slot) in params.iter().zip(&inputs.values).zip(&vars.params) {
            match (*slot, value) {
                (ParamSlot::Float(s), InputValue::Float(v)) => self.scalars[s] = Some(lift(*v)),
                (ParamSlot::Int(s), InputValue::Int(v)) => self.ints[s] = Some(*v),
                (ParamSlot::Array(s), InputValue::ArrayFill(v)) => {
                    let a = &mut self.arrays[s];
                    a.clear();
                    a.resize(ARRAY_LEN, lift(*v));
                }
                (_, val) => {
                    return Err(ExecError::BadInputs(format!(
                        "parameter {} of type {:?} got {val:?}",
                        param.name, param.ty
                    )))
                }
            }
        }
        Ok(())
    }

    /// The value of float slot `slot`; reading it unset names it.
    #[inline]
    pub(crate) fn float(&self, vars: &Vars, slot: FloatSlot) -> Result<V, ExecError> {
        self.scalars[slot].ok_or_else(|| ExecError::UnknownVar(vars.floats[slot].clone()))
    }

    /// The value of int slot `slot`.
    #[inline]
    pub(crate) fn int(&self, slot: IntSlot) -> Result<i64, ExecError> {
        self.ints[slot].ok_or_else(|| ExecError::UnknownVar("int".into()))
    }

    /// `arr[idx]`.
    #[inline]
    pub(crate) fn load(&self, vars: &Vars, arr: ArraySlot, idx: IntSlot) -> Result<V, ExecError> {
        let i = self.index(idx)?;
        self.arrays[arr]
            .get(i)
            .copied()
            .ok_or_else(|| ExecError::OutOfBounds(vars.arrays[arr].clone()))
    }

    /// `arr[idx] = v`; returns the index written.
    #[inline]
    pub(crate) fn store(
        &mut self,
        vars: &Vars,
        arr: ArraySlot,
        idx: IntSlot,
        v: V,
    ) -> Result<usize, ExecError> {
        let i = self.index(idx)?;
        *self.arrays[arr]
            .get_mut(i)
            .ok_or_else(|| ExecError::OutOfBounds(vars.arrays[arr].clone()))? = v;
        Ok(i)
    }

    /// How many times a loop bounded by int slot `bound` runs: its value,
    /// clamped to `0..=ARRAY_LEN`.
    #[inline]
    pub(crate) fn trips(&self, bound: IntSlot) -> Result<i64, ExecError> {
        let n = self.ints[bound].ok_or_else(|| ExecError::UnknownVar("loop bound".into()))?;
        Ok(n.clamp(0, ARRAY_LEN as i64))
    }

    /// The current value of the int slot an array access indexes with.
    fn index(&self, idx: IntSlot) -> Result<usize, ExecError> {
        let i = self.ints[idx].ok_or_else(|| ExecError::UnknownVar("index".into()))?;
        usize::try_from(i).map_err(|_| ExecError::OutOfBounds("index".into()))
    }
}

/// The instructions one run has retired, against its budget. Every value
/// instruction of the walk, in either domain, and of the vm retires
/// through [`Meter::step`], so `StepLimit` and `Timeout` trip on the same
/// instruction whichever tier runs.
pub(crate) struct Meter {
    pub(crate) steps: u64,
    budget: ExecBudget,
    deadline: Option<Instant>,
}

impl Meter {
    /// A meter for one run, its wall-clock deadline counted from now.
    pub(crate) fn new(budget: ExecBudget) -> Meter {
        let deadline =
            budget.max_wall_ms.map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        Meter { steps: 0, budget, deadline }
    }

    /// Retire one instruction, checked before it executes; poll the
    /// deadline every 256 instructions.
    #[inline(always)]
    pub(crate) fn step(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.budget.max_steps {
            return Err(ExecError::StepLimit { budget: self.budget.max_steps, steps: self.steps });
        }
        if self.steps & DEADLINE_POLL_MASK == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    let budget_ms = self.budget.max_wall_ms.unwrap_or(0);
                    return Err(ExecError::Timeout { budget_ms, steps: self.steps });
                }
            }
        }
        Ok(())
    }
}

fn run(
    ir: &KernelIr,
    comp: FloatSlot,
    device: &Device,
    inputs: &InputSet,
    traced: bool,
    thread_idx: u32,
    budget: ExecBudget,
) -> Result<(ExecResult, Vec<TraceEvent>), ExecError> {
    match ir.precision {
        Precision::F64 => {
            let vendor = Vendor::<f64>::new(device, ir.precision, ir.flags);
            walk(ir, comp, vendor, inputs, traced, thread_idx, budget)
        }
        Precision::F32 => {
            let vendor = Vendor::<f32>::new(device, ir.precision, ir.flags);
            walk(ir, comp, vendor, inputs, traced, thread_idx, budget)
        }
    }
}

/// An arithmetic the walk evaluates IR in: what a value is, how each
/// operation rounds, and what the domain tallies on the way. The
/// bookkeeping hooks default to nothing (and the flush to the per-run
/// metrics alone), so a domain that keeps no books pays nothing for them
/// in the walk.
pub(crate) trait Domain {
    /// A value in this arithmetic.
    type Val: Copy + PartialOrd + Neg<Output = Self::Val>;
    /// Zero: what a math call's missing second argument reads.
    const ZERO: Self::Val;

    /// The metric namespace the walk records this domain's runs under.
    fn walk_names() -> &'static ExecNames;
    /// A host value (an input, a constant, an int read) as a value.
    fn lift(&self, x: f64) -> Self::Val;
    /// `x op y`.
    fn bin(&mut self, op: BinOp, x: Self::Val, y: Self::Val) -> Self::Val;
    /// The fused multiply-add variant `kind` of `x`, `y` and `z`.
    fn fused(&mut self, kind: FmaKind, x: Self::Val, y: Self::Val, z: Self::Val) -> Self::Val;
    /// The reciprocal (only fast-math IR holds one).
    fn rcp(&mut self, x: Self::Val) -> Self::Val;
    /// Math-library entry point `f` (unary functions ignore `b`).
    fn call(&mut self, f: MathFunc, a: Self::Val, b: Self::Val) -> Self::Val;
    /// A value as the kernel prints it, rounded to the kernel's precision.
    fn round(&self, v: Self::Val) -> ExecValue;

    /// The result of a run that retired `steps` instructions and left
    /// `comp` at `value`, with the domain's books.
    fn result(&self, value: Self::Val, steps: u64) -> ExecResult {
        ExecResult {
            value: self.round(value),
            exceptions: ExceptionFlags::new(),
            cost_slots: 0,
            steps,
        }
    }
    /// Record one finished run of `program` that retired `steps`
    /// instructions, timed from `t`, under `names` (called only while
    /// telemetry is enabled).
    fn flush(&self, names: &ExecNames, _program: &str, steps: u64, t: Option<Instant>) {
        names.record_run(steps, t);
    }
    /// Charge the issue slots of one instruction.
    fn charge_inst(&mut self, _inst: &Inst) {}
    /// Charge `slots` issue slots: an instruction's precomputed cost, or
    /// a store, branch or loop iteration.
    fn charge(&mut self, _slots: u64) {}
}

/// Run `ir` once in the domain `dom`: bind `inputs`, walk the body
/// within `budget`, and return the value of `comp` with `dom`'s books
/// (and every store, if `traced`).
pub(crate) fn walk<D: Domain>(
    ir: &KernelIr,
    comp: FloatSlot,
    dom: D,
    inputs: &InputSet,
    traced: bool,
    thread_idx: u32,
    budget: ExecBudget,
) -> Result<(ExecResult, Vec<TraceEvent>), ExecError> {
    #[cfg(feature = "chaos")]
    crate::chaos::maybe_panic(&ir.program_id);
    let mut frame = Frame::new(&ir.vars);
    frame.bind(&ir.params, &ir.vars, inputs, |x| dom.lift(x))?;
    let trace = if traced { Some(Vec::new()) } else { None };
    let mut m = Machine {
        ir,
        dom,
        frame,
        meter: Meter::new(budget),
        trace,
        thread_idx,
        values: Vec::new(),
    };
    let exec_t = if obs::enabled() { Some(Instant::now()) } else { None };
    m.run_nodes(&ir.body)?;
    // Flush the locally tallied telemetry once per execution — the hot
    // loop itself touches only the stack-local Machine fields.
    if obs::enabled() {
        m.dom.flush(D::walk_names(), &ir.program_id, m.meter.steps, exec_t);
    }
    let value = m.frame.float(&ir.vars, comp)?;
    Ok((m.dom.result(value, m.meter.steps), m.trace.unwrap_or_default()))
}

struct Machine<'a, D: Domain> {
    ir: &'a KernelIr,
    dom: D,
    frame: Frame<D::Val>,
    meter: Meter,
    trace: Option<Vec<TraceEvent>>,
    thread_idx: u32,
    /// The values of the sequence being evaluated, one per instruction:
    /// one buffer for every sequence of the run.
    values: Vec<D::Val>,
}

impl<'a, D: Domain> Machine<'a, D> {
    fn run_nodes(&mut self, nodes: &[Node]) -> Result<(), ExecError> {
        let vars = &self.ir.vars;
        for node in nodes {
            match node {
                Node::Store { target, seq } => {
                    let v = self.eval_seq(seq)?;
                    match *target {
                        StoreTarget::Var(slot) => {
                            if let Some(trace) = &mut self.trace {
                                trace.push(TraceEvent {
                                    target: vars.floats[slot].clone(),
                                    bits: self.dom.round(v).bits(),
                                });
                            }
                            self.frame.scalars[slot] = Some(v);
                        }
                        StoreTarget::Arr(arr, idx) => {
                            let i = self.frame.store(vars, arr, idx, v)?;
                            if let Some(trace) = &mut self.trace {
                                trace.push(TraceEvent {
                                    target: format!("{}[{i}]", vars.arrays[arr]),
                                    bits: self.dom.round(v).bits(),
                                });
                            }
                            self.dom.charge(4); // store
                        }
                    }
                }
                Node::If { lhs, op, rhs, body } => {
                    let a = self.eval_seq(lhs)?;
                    let b = self.eval_seq(rhs)?;
                    self.dom.charge(2); // compare + branch
                    if compare(*op, a, b) {
                        self.run_nodes(body)?;
                    }
                }
                Node::For { var, bound, body } => {
                    for i in 0..self.frame.trips(*bound)? {
                        self.frame.ints[*var] = Some(i);
                        self.dom.charge(cost::LOOP_OVERHEAD);
                        self.run_nodes(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval_seq(&mut self, seq: &InstSeq) -> Result<D::Val, ExecError> {
        let mut values = std::mem::take(&mut self.values);
        values.clear();
        let v = self.eval_into(seq, &mut values);
        self.values = values;
        v
    }

    /// [`Machine::eval_seq`] with the instructions' values pushed onto
    /// `values`, empty on entry.
    fn eval_into(&mut self, seq: &InstSeq, values: &mut Vec<D::Val>) -> Result<D::Val, ExecError> {
        let vars = &self.ir.vars;
        for inst in &seq.insts {
            self.meter.step()?;
            self.dom.charge_inst(inst);
            let operand = |o: Operand, values: &[D::Val]| match o {
                Operand::Const(c) => self.dom.lift(c),
                Operand::Inst(i) => values[i],
            };
            let v = match inst {
                Inst::Const(c) => self.dom.lift(*c),
                Inst::ReadVar(slot) => self.frame.float(vars, *slot)?,
                Inst::ReadIntAsFloat(slot) => self.dom.lift(self.frame.int(*slot)? as f64),
                Inst::ReadArr(arr, idx) => self.frame.load(vars, *arr, *idx)?,
                Inst::ReadThreadIdx => self.dom.lift(f64::from(self.thread_idx)),
                Inst::Neg(a) => -operand(*a, values),
                Inst::Bin(op, a, b) => self.dom.bin(*op, operand(*a, values), operand(*b, values)),
                Inst::Fma(a, b, c) | Inst::Fms(a, b, c) | Inst::Fnma(a, b, c) => {
                    let kind = match inst {
                        Inst::Fma(..) => FmaKind::Fma,
                        Inst::Fms(..) => FmaKind::Fms,
                        _ => FmaKind::Fnma,
                    };
                    let [x, y, z] = [a, b, c].map(|o| operand(*o, values));
                    self.dom.fused(kind, x, y, z)
                }
                Inst::Rcp(a) => self.dom.rcp(operand(*a, values)),
                Inst::Call(f, args) => {
                    let a = args.first().map_or(D::ZERO, |o| operand(*o, values));
                    let b = args.get(1).map_or(D::ZERO, |o| operand(*o, values));
                    self.dom.call(*f, a, b)
                }
            };
            values.push(v);
        }
        Ok(match seq.result {
            Operand::Const(c) => self.dom.lift(c),
            Operand::Inst(i) => values[i],
        })
    }
}

/// The vendor arithmetic: `T` on a device, under the device's FTZ/DAZ
/// mode and math library, reconstructing IEEE exception events, charging
/// the cost model and tallying math calls. The walk and the vm build one
/// per run and execute every operation through it, so each vendor rule
/// exists once, whichever tier runs.
pub(crate) struct Vendor<'a, T> {
    device: &'a Device,
    precision: Precision,
    flags: CompileFlags,
    ftz: FtzMode,
    exceptions: ExceptionFlags,
    cost: u64,
    math_calls: [u32; MathFunc::COUNT],
    /// `vm-inject`'s `DropFtzFlush`: `bin` keeps the subnormal results
    /// the device would flush. Only the vm sets it, once per run.
    #[cfg(feature = "vm-inject")]
    pub(crate) drop_ftz_flush: bool,
    value: PhantomData<T>,
}

impl<'a, T: DeviceFloat> Vendor<'a, T> {
    /// A fresh vendor run of a kernel of `precision` compiled with `flags`.
    pub(crate) fn new(device: &'a Device, precision: Precision, flags: CompileFlags) -> Self {
        Vendor {
            device,
            precision,
            flags,
            ftz: T::ftz_mode(&device.fp_env(flags.fast_math)),
            exceptions: ExceptionFlags::new(),
            cost: 0,
            math_calls: [0; MathFunc::COUNT],
            #[cfg(feature = "vm-inject")]
            drop_ftz_flush: false,
            value: PhantomData,
        }
    }
}

impl<T: DeviceFloat> Domain for Vendor<'_, T> {
    type Val = T;
    const ZERO: T = T::ZERO;

    fn walk_names() -> &'static ExecNames {
        ExecNames::interp()
    }

    #[inline]
    fn lift(&self, x: f64) -> T {
        T::from_f64(x)
    }

    #[inline]
    fn bin(&mut self, op: BinOp, x: T, y: T) -> T {
        let (x, y) = (x.apply_daz(self.ftz), y.apply_daz(self.ftz));
        let (r, aop) = match op {
            BinOp::Add => (x + y, ArithOp::Add),
            BinOp::Sub => (x - y, ArithOp::Sub),
            BinOp::Mul => (x * y, ArithOp::Mul),
            BinOp::Div => (x / y, ArithOp::Div),
        };
        // flags are sticky: once Inexact is up, skip its exactness test
        self.exceptions.merge(T::detect_exceptions(self.exceptions, aop, x, y, r));
        #[cfg(feature = "vm-inject")]
        if self.drop_ftz_flush {
            return r;
        }
        r.apply_ftz(self.ftz)
    }

    #[inline]
    fn fused(&mut self, kind: FmaKind, x: T, y: T, z: T) -> T {
        let (x, y, z) = (x.apply_daz(self.ftz), y.apply_daz(self.ftz), z.apply_daz(self.ftz));
        let r = match kind {
            FmaKind::Fma => x.mul_add(y, z),
            FmaKind::Fms => x.mul_add(y, -z),
            FmaKind::Fnma => (-x).mul_add(y, z),
        };
        nonbin_exceptions(&[x, y, z], r, &mut self.exceptions);
        r.apply_ftz(self.ftz)
    }

    #[inline]
    fn rcp(&mut self, x: T) -> T {
        let r = T::rcp(x);
        nonbin_exceptions(&[x], r, &mut self.exceptions);
        r
    }

    #[inline]
    fn call(&mut self, f: MathFunc, a: T, b: T) -> T {
        self.math_calls[f.index()] += 1;
        let (a, b) = (a.apply_daz(self.ftz), b.apply_daz(self.ftz));
        let r = T::math_call(self.device, self.flags.fast_math, f, a, b);
        nonbin_exceptions(&[a, b], r, &mut self.exceptions);
        r.apply_ftz(self.ftz)
    }

    fn round(&self, v: T) -> ExecValue {
        v.exec_value()
    }

    fn result(&self, value: T, steps: u64) -> ExecResult {
        let (exceptions, cost_slots) = (self.exceptions, self.cost);
        ExecResult { value: value.exec_value(), exceptions, cost_slots, steps }
    }

    /// The per-run metrics, then the `{tier}.exec` trace event and the
    /// run's math-call and exception tallies.
    #[inline]
    fn flush(&self, names: &ExecNames, program: &str, steps: u64, t: Option<Instant>) {
        if let (Some(ns), Some(t)) = (names.record_run(steps, t), t) {
            if obs::trace::active() {
                let args = vec![("program", program.into()), ("steps", steps.into())];
                obs::trace::emit(names.event, t, ns, args);
            }
        }
        for (i, &n) in self.math_calls.iter().enumerate() {
            if n > 0 {
                obs::add_id(names.mathcall(self.device.kind, MathFunc::ALL[i]), n as u64);
            }
        }
        for e in self.exceptions.iter() {
            obs::add_id(names.fpexc(e), 1);
        }
    }

    fn charge_inst(&mut self, inst: &Inst) {
        self.cost += cost::inst_cost(inst, self.precision, self.flags);
    }

    #[inline]
    fn charge(&mut self, slots: u64) {
        self.cost += slots;
    }
}

/// Exception reconstruction for the fused, reciprocal and math-call
/// operations (binary arithmetic uses `detect_exceptions`).
fn nonbin_exceptions<T: GpuFloat>(args: &[T], r: T, exceptions: &mut ExceptionFlags) {
    let any_nan = args.iter().any(|a| a.is_nan());
    let all_finite = args.iter().all(|a| a.is_finite());
    if r.is_nan() && !any_nan {
        exceptions.raise(FpException::Invalid);
    }
    if !r.is_finite() && !r.is_nan() && all_finite {
        exceptions.raise(FpException::Overflow);
    }
    if r.is_subnormal() {
        exceptions.raise(FpException::Underflow);
    }
}

/// IEEE comparison semantics: any comparison with NaN is false, except
/// `!=` which is true. Both domains' values order this way.
pub(crate) fn compare<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, OptLevel, Toolchain};
    use gpusim::DeviceKind;
    use progen::ast::*;
    use progen::inputs::generate_input;

    fn simple_program(body: Vec<Stmt>) -> Program {
        Program {
            id: "t".into(),
            precision: Precision::F64,
            params: vec![
                Param { name: "comp".into(), ty: ParamType::Float },
                Param { name: "var_1".into(), ty: ParamType::Int },
                Param { name: "var_2".into(), ty: ParamType::Float },
            ],
            body,
        }
    }

    fn inputs(comp: f64, n: i64, v2: f64) -> InputSet {
        InputSet {
            values: vec![InputValue::Float(comp), InputValue::Int(n), InputValue::Float(v2)],
        }
    }

    fn nv() -> Device {
        Device::new(DeviceKind::NvidiaLike)
    }

    fn amd() -> Device {
        Device::new(DeviceKind::AmdLike)
    }

    #[test]
    fn executes_straight_line_arithmetic() {
        let p = simple_program(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::bin(BinOp::Mul, Expr::Var("var_2".into()), Expr::Lit(2.0)),
        }]);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let r = execute(&ir, &nv(), &inputs(1.0, 1, 3.0)).unwrap();
        assert_eq!(r.value, ExecValue::F64(7.0));
        assert!(r.cost_slots > 0);
        assert!(r.steps > 0);
    }

    #[test]
    fn loops_iterate_bound_times() {
        // comp += var_2, n times
        let p = simple_program(vec![Stmt::For {
            var: "i".into(),
            bound: "var_1".into(),
            body: vec![Stmt::Assign {
                target: LValue::Var("comp".into()),
                op: AssignOp::AddAssign,
                value: Expr::Var("var_2".into()),
            }],
        }]);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let r = execute(&ir, &nv(), &inputs(0.0, 5, 1.5)).unwrap();
        assert_eq!(r.value, ExecValue::F64(7.5));
    }

    #[test]
    fn if_condition_gates_execution() {
        let body = vec![Stmt::If {
            cond: Cond { op: CmpOp::Gt, lhs: Expr::Var("comp".into()), rhs: Expr::Lit(0.0) },
            body: vec![Stmt::Assign {
                target: LValue::Var("comp".into()),
                op: AssignOp::MulAssign,
                value: Expr::Lit(10.0),
            }],
        }];
        let p = simple_program(body);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        assert_eq!(execute(&ir, &nv(), &inputs(2.0, 1, 0.0)).unwrap().value, ExecValue::F64(20.0));
        assert_eq!(execute(&ir, &nv(), &inputs(-2.0, 1, 0.0)).unwrap().value, ExecValue::F64(-2.0));
        // NaN: comparison false, branch skipped
        let nanr = execute(&ir, &nv(), &inputs(f64::NAN, 1, 0.0)).unwrap();
        assert_eq!(nanr.value.outcome(), Outcome::Nan);
    }

    #[test]
    fn division_by_zero_raises_flag_and_returns_inf() {
        let p = simple_program(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::bin(BinOp::Div, Expr::Lit(1.0), Expr::Var("var_2".into())),
        }]);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let r = execute(&ir, &nv(), &inputs(0.0, 1, 0.0)).unwrap();
        assert_eq!(r.value, ExecValue::F64(f64::INFINITY));
        assert!(r.exceptions.is_set(FpException::DivideByZero));
    }

    #[test]
    fn case_study_2_reproduces_inf_vs_num() {
        // Fig. 5: comp += tmp_1 / ceil(1.5955e-125)
        let p = Program {
            id: "fig5".into(),
            precision: Precision::F64,
            params: vec![Param { name: "comp".into(), ty: ParamType::Float }],
            body: vec![
                Stmt::DeclTmp { name: "tmp_1".into(), init: Expr::Lit(1.1147e-307) },
                Stmt::Assign {
                    target: LValue::Var("comp".into()),
                    op: AssignOp::AddAssign,
                    value: Expr::bin(
                        BinOp::Div,
                        Expr::Var("tmp_1".into()),
                        Expr::Call(MathFunc::Ceil, vec![Expr::Lit(1.5955e-125)]),
                    ),
                },
            ],
        };
        let input = InputSet { values: vec![InputValue::Float(1.2374e-306)] };
        for opt in [OptLevel::O0, OptLevel::O3] {
            let nv_ir = compile(&p, Toolchain::Nvcc, opt, false);
            let amd_ir = compile(&p, Toolchain::Hipcc, opt, false);
            let rn = execute(&nv_ir, &nv(), &input).unwrap();
            let ra = execute(&amd_ir, &amd(), &input).unwrap();
            assert_eq!(rn.value.outcome(), Outcome::Inf, "{opt:?}");
            assert_eq!(ra.value.outcome(), Outcome::Num, "{opt:?}");
            // the paper reports hipcc printing 1.34887e-306
            let v = ra.value.to_f64();
            assert!((v - 1.34887e-306).abs() < 1e-310, "got {v:e}");
        }
    }

    #[test]
    fn fmod_case_study_1_diverges_between_devices() {
        // fmod(-1.7538E305 * (var_8/(0/var_9 - 1.3065E-306)), 1.5793E-307)
        let p = simple_program(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::Call(
                MathFunc::Fmod,
                vec![Expr::Lit(1.5917195493481116e289), Expr::Lit(1.5793e-307)],
            ),
        }]);
        let ir_nv = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let ir_amd = compile(&p, Toolchain::Hipcc, OptLevel::O0, false);
        let rn = execute(&ir_nv, &nv(), &inputs(0.0, 1, 0.0)).unwrap();
        let ra = execute(&ir_amd, &amd(), &inputs(0.0, 1, 0.0)).unwrap();
        assert_ne!(rn.value.bits(), ra.value.bits());
        assert_eq!(rn.value.outcome(), Outcome::Num);
        assert_eq!(ra.value.outcome(), Outcome::Num);
    }

    #[test]
    fn ftz_flushes_subnormals_only_under_fast_math_f32() {
        // comp = var_2 * 0.5 with subnormal-producing operands
        let mut p = simple_program(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::bin(BinOp::Mul, Expr::Var("var_2".into()), Expr::Lit(0.5)),
        }]);
        p.precision = Precision::F32;
        let sub = 2.0e-44f32; // subnormal f32
        let input = InputSet {
            values: vec![InputValue::Float(0.0), InputValue::Int(1), InputValue::Float(sub as f64)],
        };
        let o0 = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let r = execute(&o0, &nv(), &input).unwrap();
        assert_eq!(r.value.outcome(), Outcome::Num, "IEEE keeps the subnormal");
        let fm = compile(&p, Toolchain::Nvcc, OptLevel::O3Fm, false);
        let r = execute(&fm, &nv(), &input).unwrap();
        assert_eq!(r.value.outcome(), Outcome::Zero, "NV fast math flushes (DAZ)");
        // AMD fast math flushes results only; the input subnormal survives
        // DAZ but the product is subnormal too, so FTZ_ONLY also flushes it
        let fm_amd = compile(&p, Toolchain::Hipcc, OptLevel::O3Fm, false);
        let r = execute(&fm_amd, &amd(), &input).unwrap();
        assert_eq!(r.value.outcome(), Outcome::Zero);
    }

    #[test]
    fn arrays_fill_store_and_load() {
        let p = Program {
            id: "arr".into(),
            precision: Precision::F64,
            params: vec![
                Param { name: "comp".into(), ty: ParamType::Float },
                Param { name: "var_1".into(), ty: ParamType::Int },
                Param { name: "var_5".into(), ty: ParamType::FloatArray },
            ],
            body: vec![Stmt::For {
                var: "i".into(),
                bound: "var_1".into(),
                body: vec![
                    Stmt::Assign {
                        target: LValue::Index("var_5".into(), "i".into()),
                        op: AssignOp::Set,
                        value: Expr::bin(
                            BinOp::Add,
                            Expr::Index("var_5".into(), "i".into()),
                            Expr::Lit(1.0),
                        ),
                    },
                    Stmt::Assign {
                        target: LValue::Var("comp".into()),
                        op: AssignOp::AddAssign,
                        value: Expr::Index("var_5".into(), "i".into()),
                    },
                ],
            }],
        };
        let input = InputSet {
            values: vec![InputValue::Float(0.0), InputValue::Int(3), InputValue::ArrayFill(10.0)],
        };
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let r = execute(&ir, &nv(), &input).unwrap();
        assert_eq!(r.value, ExecValue::F64(33.0)); // 3 × (10+1)
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let p = simple_program(vec![]);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let bad = InputSet { values: vec![InputValue::Float(0.0)] };
        assert!(matches!(execute(&ir, &nv(), &bad), Err(ExecError::BadInputs(_))));
    }

    #[test]
    fn optimization_reduces_cost_on_generated_programs() {
        use progen::gen::generate_program;
        use progen::grammar::GenConfig;
        let cfg = GenConfig::varity_default(Precision::F64);
        let mut cheaper = 0;
        let mut total = 0;
        for i in 0..30 {
            let p = generate_program(&cfg, 31, i);
            let input = generate_input(&p, 1, 0);
            let o0 = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
            let o3 = compile(&p, Toolchain::Nvcc, OptLevel::O3, false);
            let (Ok(r0), Ok(r3)) = (execute(&o0, &nv(), &input), execute(&o3, &nv(), &input))
            else {
                continue;
            };
            total += 1;
            if r3.cost_slots <= r0.cost_slots {
                cheaper += 1;
            }
        }
        assert!(total > 20);
        assert!(cheaper * 10 >= total * 9, "{cheaper}/{total} got cheaper");
    }

    #[test]
    fn same_compiler_same_device_is_deterministic() {
        use progen::gen::generate_program;
        use progen::grammar::GenConfig;
        let cfg = GenConfig::varity_default(Precision::F64);
        let p = generate_program(&cfg, 37, 0);
        let input = generate_input(&p, 1, 0);
        let ir = compile(&p, Toolchain::Hipcc, OptLevel::O3Fm, false);
        let a = execute(&ir, &amd(), &input).unwrap();
        let b = execute(&ir, &amd(), &input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn step_budget_reports_budget_and_steps() {
        let p = simple_program(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::bin(BinOp::Mul, Expr::Var("var_2".into()), Expr::Lit(2.0)),
        }]);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let kernel = prepare(&ir).unwrap();
        let err =
            execute_prepared_budgeted(&kernel, &nv(), &inputs(1.0, 1, 3.0), ExecBudget::steps(1))
                .unwrap_err();
        match err {
            ExecError::StepLimit { budget, steps } => {
                assert_eq!(budget, 1);
                assert_eq!(steps, 2);
            }
            other => panic!("expected StepLimit, got {other:?}"),
        }
        // The same kernel under the default budget succeeds.
        assert!(execute_prepared(&kernel, &nv(), &inputs(1.0, 1, 3.0)).is_ok());
    }

    #[test]
    fn zero_wall_budget_times_out_long_loops() {
        // Nested 16×16 loops retire well over the 256-step poll interval.
        let body = vec![Stmt::For {
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
        }];
        let p = simple_program(body);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let kernel = prepare(&ir).unwrap();
        let budget = ExecBudget { max_steps: STEP_LIMIT, max_wall_ms: Some(0) };
        let err =
            execute_prepared_budgeted(&kernel, &nv(), &inputs(0.0, 16, 1.0), budget).unwrap_err();
        match err {
            ExecError::Timeout { budget_ms, steps } => {
                assert_eq!(budget_ms, 0);
                assert!(steps >= 256);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn budget_serde_defaults_preserve_old_behaviour() {
        let b: ExecBudget = serde_json::from_str("{}").unwrap();
        assert_eq!(b, ExecBudget::default());
        assert_eq!(b.max_steps, STEP_LIMIT);
        assert!(b.max_wall_ms.is_none());
        let json = serde_json::to_string(&ExecBudget::default()).unwrap();
        assert!(!json.contains("max_wall_ms"), "default budget stays compact: {json}");
    }

    #[test]
    fn comparison_semantics_with_nan() {
        assert!(!compare(CmpOp::Lt, f64::NAN, 1.0));
        assert!(!compare(CmpOp::Eq, f64::NAN, f64::NAN));
        assert!(compare(CmpOp::Ne, f64::NAN, 1.0));
        assert!(!compare(CmpOp::Ge, 1.0, f64::NAN));
    }
}
