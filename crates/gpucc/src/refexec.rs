//! Extended-precision ground-truth execution of the O0 register IR.
//!
//! The campaign's two vendor sides can only be compared *against each
//! other* — a discrepancy says the toolchains disagree, never which one
//! drifted from the true value. This module adds the third side of the
//! comparison plane: the strict double-double truth domain of the one
//! tree walk in [`crate::interp`]. It evaluates the same slot-addressed
//! IR over [`fpcore::dd::Dd`] values (~106-bit significand) and rounds
//! **once** at the very end, so the result is the correctly-rounded-
//! from-truth value for the whole kernel rather than a chain of
//! per-operation roundings.
//!
//! Semantics are deliberately strict:
//!
//! * no FTZ/DAZ — subnormals participate at full precision;
//! * `Rcp` is the exact reciprocal, not a hardware approximation;
//! * math calls dispatch to the double-double ports in [`fpcore::dd`]
//!   (the divergence-prone entry points — `fmod`, `ceil`, the
//!   transcendentals — are genuine extended-precision implementations,
//!   not round-trips through the vendor libraries), whatever the
//!   kernel's fast-math flags say;
//! * control flow (`if` comparisons, loop bounds) follows the *true*
//!   values, because the reference answers "what should this kernel
//!   have computed", not "what did a particular rounding schedule do".
//!
//! Inputs, literal constants and int reads are first rounded to the
//! kernel's storage precision (`f32` for FP32 kernels) before being
//! lifted into double-double: the reference answers for the same
//! bit-level inputs the vendor kernels actually received.
//!
//! The walk's step meter, deadline and error texts are the vendor
//! domain's; the truth keeps no vendor books (no cost model, no exception
//! events, no math-call tally, no trace event) and records only the
//! per-run `reference.*` telemetry, through the same function as the
//! vendor tiers' `interp.*` and `vm.*`.
//!
//! The executor is only meaningful on strict (non-fast-math) O0 IR —
//! fast-math cells have no single true value to compare against, which
//! is exactly why the verdict layer marks them `TruthUndecided`.

use crate::bytecode::FmaKind;
use crate::interp::{walk, Domain, ExecBudget, ExecError, ExecResult, ExecValue, ExecutableKernel};
use crate::names::ExecNames;
use fpcore::dd::Dd;
use gpusim::mathlib::MathFunc;
use progen::ast::BinOp;
use progen::inputs::InputSet;
use progen::Precision;

/// Evaluate one math-library entry point over double-double values.
///
/// Unary functions ignore `b` (the walk binds missing arguments to
/// zero).
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
    let truth = Truth(kernel.ir.precision);
    // untraced, one thread at tid 0: the campaign runs every side that way
    walk(&kernel.ir, kernel.comp, truth, inputs, false, 0, budget).map(|(r, _)| r)
}

/// The strict double-double arithmetic, for a kernel of one precision.
/// It has no FPU status register, so it raises no exception events:
/// those are a property of a particular rounding schedule, which the
/// single-rounding truth deliberately does not have.
struct Truth(Precision);

impl Domain for Truth {
    type Val = Dd;
    const ZERO: Dd = Dd::ZERO;

    fn walk_names() -> &'static ExecNames {
        ExecNames::reference()
    }

    /// Lift through the kernel's storage precision: FP32 kernels round
    /// to f32 first (exactly what the vendor domain's `T::from_f64`
    /// does), so the truth answers for the same bit-level inputs.
    fn lift(&self, x: f64) -> Dd {
        match self.0 {
            Precision::F64 => Dd::from_f64(x),
            Precision::F32 => Dd::from_f64((x as f32) as f64),
        }
    }

    fn bin(&mut self, op: BinOp, x: Dd, y: Dd) -> Dd {
        match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        }
    }

    fn fused(&mut self, kind: FmaKind, a: Dd, b: Dd, c: Dd) -> Dd {
        match kind {
            FmaKind::Fma => a * b + c,
            FmaKind::Fms => a * b - c,
            FmaKind::Fnma => c - a * b,
        }
    }

    fn rcp(&mut self, x: Dd) -> Dd {
        x.recip()
    }

    fn call(&mut self, f: MathFunc, a: Dd, b: Dd) -> Dd {
        dd_math_call(f, a, b)
    }

    fn round(&self, v: Dd) -> ExecValue {
        match self.0 {
            Precision::F64 => ExecValue::F64(v.to_f64()),
            Precision::F32 => ExecValue::F32(v.to_f32()),
        }
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
