//! Extended-precision ground-truth execution of the O0 register IR.
//!
//! The campaign's two vendor sides can only be compared *against each
//! other* — a discrepancy says the toolchains disagree, never which one
//! drifted from the true value. This module adds the third side of the
//! comparison plane: a strict reference executor that evaluates the same
//! slot-addressed IR over [`fpcore::dd::Dd`] double-double values
//! (~106-bit significand) and rounds **once** at the very end, so the
//! result is the correctly-rounded-from-truth value for the whole
//! kernel rather than a chain of per-operation roundings.
//!
//! Semantics are deliberately strict:
//!
//! * no FTZ/DAZ — subnormals participate at full precision;
//! * `Rcp` is the exact reciprocal, not a hardware approximation;
//! * math calls dispatch to the double-double ports in [`fpcore::dd`]
//!   (the divergence-prone entry points — `fmod`, `ceil`, the
//!   transcendentals — are genuine extended-precision implementations,
//!   not round-trips through the vendor libraries);
//! * control flow (`if` comparisons, loop bounds) follows the *true*
//!   values, because the reference answers "what should this kernel
//!   have computed", not "what did a particular rounding schedule do".
//!
//! Inputs and literal constants are first rounded to the kernel's
//! storage precision (`f32` for FP32 kernels) before being lifted into
//! double-double: the reference answers for the same bit-level inputs
//! the vendor kernels actually received.
//!
//! The executor is only meaningful on strict (non-fast-math) O0 IR —
//! fast-math cells have no single true value to compare against, which
//! is exactly why the verdict layer marks them `TruthUndecided`.

use crate::interp::{
    ExecBudget, ExecError, ExecResult, ExecValue, ExecutableKernel, Frame, DEADLINE_POLL_MASK,
};
use crate::ir::{Inst, InstSeq, KernelIr, Node, Operand, StoreTarget};
use fpcore::dd::Dd;
use fpcore::exceptions::ExceptionFlags;
use gpusim::mathlib::MathFunc;
use progen::ast::CmpOp;
use progen::inputs::{InputSet, ARRAY_LEN};
use progen::Precision;
use std::time::Instant;

/// Evaluate one math-library entry point over double-double values.
///
/// Unary functions ignore `b` (the caller binds missing arguments to
/// zero, mirroring the interpreter).
pub fn dd_math_call(f: MathFunc, a: Dd, b: Dd) -> Dd {
    match f {
        MathFunc::Sin => a.sin(),
        MathFunc::Cos => a.cos(),
        MathFunc::Tan => a.tan(),
        MathFunc::Asin => a.asin(),
        MathFunc::Acos => a.acos(),
        MathFunc::Atan => a.atan(),
        MathFunc::Sinh => a.sinh(),
        MathFunc::Cosh => a.cosh(),
        MathFunc::Tanh => a.tanh(),
        MathFunc::Exp => a.exp(),
        MathFunc::Exp2 => a.exp2(),
        MathFunc::Log => a.ln(),
        MathFunc::Log2 => a.log2(),
        MathFunc::Log10 => a.log10(),
        MathFunc::Sqrt => a.sqrt(),
        MathFunc::Cbrt => a.cbrt(),
        MathFunc::Fabs => a.abs(),
        MathFunc::Floor => a.floor(),
        MathFunc::Ceil => a.ceil(),
        MathFunc::Trunc => a.trunc(),
        MathFunc::Fmod => a.fmod(b),
        MathFunc::Pow => a.pow(b),
        MathFunc::Fmin => a.min(b),
        MathFunc::Fmax => a.max(b),
        MathFunc::Atan2 => a.atan2(b),
        MathFunc::Hypot => a.hypot(b),
        MathFunc::Expm1 => a.expm1(),
        MathFunc::Log1p => a.ln_1p(),
        MathFunc::Asinh => a.asinh(),
        MathFunc::Acosh => a.acosh(),
        MathFunc::Atanh => a.atanh(),
        MathFunc::Round => a.round(),
        MathFunc::Rint => a.round_ties_even(),
        MathFunc::Rsqrt => a.rsqrt(),
        MathFunc::Erf => a.erf(),
        MathFunc::Tgamma => a.tgamma(),
    }
}

/// IEEE comparison semantics over double-double values: any comparison
/// involving NaN is false, except `!=` which is true. Mirrors
/// [`crate::interp`]'s `compare` so control flow classifies identically
/// when values agree.
fn compare_dd(op: CmpOp, a: Dd, b: Dd) -> bool {
    use std::cmp::Ordering;
    match a.cmp_val(b) {
        None => op == CmpOp::Ne,
        Some(ord) => match op {
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
        },
    }
}

/// Execute a prepared kernel over double-double values under an explicit
/// fuel budget, rounding once to the kernel's precision at the end.
///
/// The kernel should be compiled at `O0` with a strict (non-fast-math)
/// pipeline; the executor itself does not check this — the verdict
/// layer refuses to call it for fast-math cells.
pub fn execute_reference_budgeted(
    kernel: &ExecutableKernel,
    inputs: &InputSet,
    budget: ExecBudget,
) -> Result<ExecResult, ExecError> {
    let ir = &kernel.ir;
    #[cfg(feature = "chaos")]
    crate::chaos::maybe_panic(&ir.program_id);
    let mut frame = Frame::new(&ir.vars);
    frame.bind(&ir.params, &ir.vars, inputs, |x| lift(ir.precision, x))?;
    let mut m = RefMachine {
        ir,
        frame,
        steps: 0,
        budget,
        deadline: budget
            .max_wall_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
    };
    let exec_t = if obs::enabled() { Some(Instant::now()) } else { None };
    m.run_nodes(&ir.body)?;
    if obs::enabled() {
        static EXECS: obs::Name = obs::Name::new("reference.execs");
        static OPS: obs::Name = obs::Name::new("reference.ops");
        static EXEC_NS: obs::Name = obs::Name::new("reference.execns");
        static NS_PER_OP: obs::Name = obs::Name::new("reference.nsperop");
        EXECS.add(1);
        OPS.add(m.steps);
        if let Some(t) = exec_t {
            let ns = t.elapsed().as_nanos() as u64;
            EXEC_NS.record(ns);
            NS_PER_OP.record(ns / m.steps.max(1));
        }
    }
    let truth = m.frame.scalars[kernel.comp].ok_or_else(|| ExecError::UnknownVar("comp".into()))?;
    let value = match ir.precision {
        Precision::F64 => ExecValue::F64(truth.to_f64()),
        Precision::F32 => ExecValue::F32(truth.to_f32()),
    };
    Ok(ExecResult {
        value,
        // the reference has no FPU status register: IEEE exception events
        // are a property of a particular rounding schedule, which the
        // single-rounding truth deliberately does not have
        exceptions: ExceptionFlags::new(),
        cost_slots: 0,
        steps: m.steps,
    })
}

/// Lift a host value into double-double through the kernel's storage
/// precision: FP32 kernels round to f32 first (exactly what the vendor
/// interpreters' `T::from_f64` does), so the reference answers for the
/// same bit-level inputs.
fn lift(precision: Precision, x: f64) -> Dd {
    match precision {
        Precision::F64 => Dd::from_f64(x),
        Precision::F32 => Dd::from_f64((x as f32) as f64),
    }
}

struct RefMachine<'a> {
    ir: &'a KernelIr,
    frame: Frame<Dd>,
    steps: u64,
    budget: ExecBudget,
    deadline: Option<Instant>,
}

impl<'a> RefMachine<'a> {
    fn lift(&self, x: f64) -> Dd {
        lift(self.ir.precision, x)
    }

    fn run_nodes(&mut self, nodes: &[Node]) -> Result<(), ExecError> {
        let vars = &self.ir.vars;
        for node in nodes {
            match node {
                Node::Store { target, seq } => {
                    let v = self.eval_seq(seq)?;
                    match *target {
                        StoreTarget::Var(slot) => self.frame.scalars[slot] = Some(v),
                        StoreTarget::Arr(arr, idx) => {
                            let i = self.frame.index(idx)?;
                            *self.frame.arrays[arr].get_mut(i).ok_or_else(|| {
                                ExecError::OutOfBounds(vars.arrays[arr].clone())
                            })? = v;
                        }
                    }
                }
                Node::If { lhs, op, rhs, body } => {
                    let a = self.eval_seq(lhs)?;
                    let b = self.eval_seq(rhs)?;
                    if compare_dd(*op, a, b) {
                        self.run_nodes(body)?;
                    }
                }
                Node::For { var, bound, body } => {
                    let n = self.frame.ints[*bound]
                        .ok_or_else(|| ExecError::UnknownVar("loop bound".into()))?;
                    let n = n.clamp(0, ARRAY_LEN as i64);
                    for i in 0..n {
                        self.frame.ints[*var] = Some(i);
                        self.run_nodes(body)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn eval_seq(&mut self, seq: &InstSeq) -> Result<Dd, ExecError> {
        let vars = &self.ir.vars;
        let mut values: Vec<Dd> = Vec::with_capacity(seq.insts.len());
        for inst in &seq.insts {
            self.steps += 1;
            if self.steps > self.budget.max_steps {
                return Err(ExecError::StepLimit {
                    budget: self.budget.max_steps,
                    steps: self.steps,
                });
            }
            if self.steps & DEADLINE_POLL_MASK == 0 {
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return Err(ExecError::Timeout {
                            budget_ms: self.budget.max_wall_ms.unwrap_or(0),
                            steps: self.steps,
                        });
                    }
                }
            }
            let operand = |o: Operand, values: &[Dd]| -> Dd {
                match o {
                    Operand::Const(c) => self.lift(c),
                    Operand::Inst(i) => values[i],
                }
            };
            let v = match inst {
                Inst::Const(c) => self.lift(*c),
                Inst::ReadVar(slot) => self.frame.scalars[*slot]
                    .ok_or_else(|| ExecError::UnknownVar(vars.floats[*slot].clone()))?,
                Inst::ReadIntAsFloat(slot) => {
                    let i = self.frame.ints[*slot]
                        .ok_or_else(|| ExecError::UnknownVar("int".into()))?;
                    self.lift(i as f64)
                }
                Inst::ReadArr(arr, idx) => {
                    let i = self.frame.index(*idx)?;
                    *self.frame.arrays[*arr]
                        .get(i)
                        .ok_or_else(|| ExecError::OutOfBounds(vars.arrays[*arr].clone()))?
                }
                // truth runs one thread, tid 0 — same as the campaign
                Inst::ReadThreadIdx => Dd::ZERO,
                Inst::Neg(a) => -operand(*a, &values),
                Inst::Bin(op, a, b) => {
                    let x = operand(*a, &values);
                    let y = operand(*b, &values);
                    match op {
                        progen::ast::BinOp::Add => x + y,
                        progen::ast::BinOp::Sub => x - y,
                        progen::ast::BinOp::Mul => x * y,
                        progen::ast::BinOp::Div => x / y,
                    }
                }
                Inst::Fma(a, b, c) => {
                    operand(*a, &values) * operand(*b, &values) + operand(*c, &values)
                }
                Inst::Fms(a, b, c) => {
                    operand(*a, &values) * operand(*b, &values) - operand(*c, &values)
                }
                Inst::Fnma(a, b, c) => {
                    operand(*c, &values) - operand(*a, &values) * operand(*b, &values)
                }
                Inst::Rcp(a) => operand(*a, &values).recip(),
                Inst::Call(f, args) => {
                    let a = args.first().map(|o| operand(*o, &values)).unwrap_or(Dd::ZERO);
                    let b = args.get(1).map(|o| operand(*o, &values)).unwrap_or(Dd::ZERO);
                    dd_math_call(*f, a, b)
                }
            };
            values.push(v);
        }
        Ok(match seq.result {
            Operand::Const(c) => self.lift(c),
            Operand::Inst(i) => values[i],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_prepared_budgeted, prepare};
    use crate::pipeline::{compile, OptLevel, Toolchain};
    use gpusim::{Device, DeviceKind};
    use progen::ast::*;
    use progen::inputs::InputValue;

    fn device() -> Device {
        Device::new(DeviceKind::NvidiaLike)
    }

    fn program(precision: Precision, body: Vec<Stmt>) -> Program {
        Program {
            id: "ref-t".into(),
            precision,
            params: vec![
                Param { name: "comp".into(), ty: ParamType::Float },
                Param { name: "x".into(), ty: ParamType::Float },
            ],
            body,
        }
    }

    fn inputs(comp: f64, x: f64) -> InputSet {
        InputSet { values: vec![InputValue::Float(comp), InputValue::Float(x)] }
    }

    fn run_ref(p: &Program, inp: &InputSet) -> ExecValue {
        let ir = compile(p, Toolchain::Nvcc, OptLevel::O0, false);
        let k = prepare(&ir).expect("prepare");
        execute_reference_budgeted(&k, inp, ExecBudget::default()).expect("ref exec").value
    }

    fn run_interp(p: &Program, inp: &InputSet) -> ExecValue {
        let ir = compile(p, Toolchain::Nvcc, OptLevel::O0, false);
        let k = prepare(&ir).expect("prepare");
        execute_prepared_budgeted(&k, &device(), inp, ExecBudget::default()).expect("interp").value
    }

    fn add_x_to_comp() -> Stmt {
        Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::Var("x".into()),
        }
    }

    #[test]
    fn single_op_agrees_with_ieee_interpreter() {
        // one operation + one final rounding == per-op IEEE rounding:
        // the double-double sum of two exact f64s rounds to the IEEE sum
        let p = program(Precision::F64, vec![add_x_to_comp()]);
        for (a, b) in [(0.1, 0.2), (1e300, -1e284), (3.5e-310, 1.25e-310), (-7.0, 7.0)] {
            let inp = inputs(a, b);
            assert_eq!(run_ref(&p, &inp).bits(), run_interp(&p, &inp).bits());
        }
    }

    #[test]
    fn truth_keeps_residue_a_per_op_schedule_loses() {
        // (comp + x) - 1 with comp=1, |x| << 1: per-op IEEE rounding
        // returns 0, the single-rounding truth returns x exactly
        let p = program(
            Precision::F64,
            vec![
                add_x_to_comp(),
                Stmt::Assign {
                    target: LValue::Var("comp".into()),
                    op: AssignOp::SubAssign,
                    value: Expr::Lit(1.0),
                },
            ],
        );
        let inp = inputs(1.0, 1e-30);
        assert_eq!(run_interp(&p, &inp).to_f64(), 0.0);
        assert_eq!(run_ref(&p, &inp).to_f64(), 1e-30);
    }

    #[test]
    fn fig5_ceil_truth_is_finite() {
        // the paper's Fig. 5 mechanism: ceil(1.5955e-125) is exactly 1,
        // so the true quotient is finite — the NVIDIA-like ceil's
        // 1-ulp-under result is what produces Inf on the nvcc side
        let p = Program {
            id: "fig5-ref".into(),
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
        let inp = InputSet { values: vec![InputValue::Float(1.2374e-306)] };
        let truth = run_ref(&p, &inp).to_f64();
        assert!(truth.is_finite(), "truth must be finite, got {truth}");
        assert!((truth - 1.34887e-306).abs() < 1e-310, "truth ≈ 1.34887e-306, got {truth:e}");
    }

    #[test]
    fn f32_kernels_round_inputs_and_result_to_f32() {
        let p = program(
            Precision::F32,
            vec![Stmt::Assign {
                target: LValue::Var("comp".into()),
                op: AssignOp::MulAssign,
                value: Expr::Var("x".into()),
            }],
        );
        let inp = inputs(0.1, 10.0); // 0.1 is inexact in f32
        let r = run_ref(&p, &inp);
        assert!(matches!(r, ExecValue::F32(_)));
        // truth: (f32)0.1 * (f32)10 computed exactly, rounded once to
        // f32 — same as the interpreter because one product, one rounding
        assert_eq!(r.bits(), run_interp(&p, &inp).bits());
    }

    #[test]
    fn step_budget_is_enforced() {
        let p = program(Precision::F64, vec![add_x_to_comp()]);
        let tiny = ExecBudget { max_steps: 1, max_wall_ms: None };
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let k = prepare(&ir).expect("prepare");
        let err = execute_reference_budgeted(&k, &inputs(1.0, 2.0), tiny).unwrap_err();
        assert!(matches!(err, ExecError::StepLimit { .. }), "got {err:?}");
    }

    #[test]
    fn math_dispatch_covers_every_function() {
        // every MathFunc evaluates without panicking, and is NaN exactly
        // where each device's accurate library is (acosh(0.5) is: its
        // domain is [1, inf))
        let (a, b) = (0.5, 0.25);
        for kind in [DeviceKind::NvidiaLike, DeviceKind::AmdLike] {
            let device = Device::new(kind);
            for f in MathFunc::ALL {
                let truth = dd_math_call(f, Dd::from_f64(a), Dd::from_f64(b)).hi;
                let vendor = device.mathlib().call_f64(f, a, b);
                assert_eq!(
                    truth.is_nan(),
                    vendor.is_nan(),
                    "{f:?} on {kind:?}: {truth} vs {vendor}"
                );
            }
        }
    }
}
