//! Constant folding.
//!
//! Folds arithmetic whose operands are all constants, at the kernel's
//! precision, using IEEE semantics — both toolchains fold identically, so
//! folding itself never diverges. Math calls are *not* folded (folding
//! them with the compiler's host libm is a known source of host/device
//! divergence the paper's campaign does not target). A second-order effect
//! is intentional: folded operations bypass the runtime FTZ environment,
//! so under fast math a folded subexpression can keep a subnormal that the
//! unfolded code would have flushed.

use super::{forward_walk, SeqPass};
use crate::ir::{Inst, InstSeq, Operand};
use progen::ast::{BinOp, Precision};

/// The constant-folding pass.
pub struct ConstFold;

impl SeqPass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, seq: &mut InstSeq, prec: Precision) -> u64 {
        // one forward walk suffices: operands always reference earlier
        // instructions, whose folded values the walk has already
        // forwarded into this instruction's operand slots (so DCE can
        // drop the `Const` instructions entirely)
        let mut fired = 0u64;
        forward_walk(seq, |insts, idx| {
            let v = inject_fold_bug(fold(&insts[idx], prec)?);
            if !matches!(insts[idx], Inst::Const(_)) {
                fired += 1;
            }
            insts[idx] = Inst::Const(v);
            Some(Operand::Const(v))
        });
        fired
    }
}

/// The value of `inst` if every operand is a constant and the
/// instruction's value does not depend on the device.
fn fold(inst: &Inst, prec: Precision) -> Option<f64> {
    let k = |o: Operand| match o {
        Operand::Const(c) => Some(c),
        Operand::Inst(_) => None,
    };
    match *inst {
        Inst::Const(c) => Some(c),
        Inst::Bin(op, a, b) => Some(fold_bin(op, k(a)?, k(b)?, prec)),
        Inst::Neg(a) => Some(-k(a)?),
        Inst::Fma(a, b, c) => Some(fold_fma(k(a)?, k(b)?, k(c)?, prec)),
        Inst::Fnma(a, b, c) => Some(fold_fma(-k(a)?, k(b)?, k(c)?, prec)),
        Inst::Fms(a, b, c) => Some(fold_fma(k(a)?, k(b)?, -k(c)?, prec)),
        // never folded: value depends on the device
        Inst::Call(..)
        | Inst::Rcp(_)
        | Inst::ReadVar(_)
        | Inst::ReadIntAsFloat(_)
        | Inst::ReadArr(..)
        | Inst::ReadThreadIdx => None,
    }
}

/// Oracle self-test hook: with the `oracle-inject` feature compiled in
/// AND [`crate::inject::InjectedBug::ConstFoldF32Round`] armed, folded
/// values lose precision through `f32`. Identity otherwise.
#[cfg(feature = "oracle-inject")]
fn inject_fold_bug(v: f64) -> f64 {
    if crate::inject::armed() == crate::inject::InjectedBug::ConstFoldF32Round {
        v as f32 as f64
    } else {
        v
    }
}

#[cfg(not(feature = "oracle-inject"))]
#[inline(always)]
fn inject_fold_bug(v: f64) -> f64 {
    v
}

/// Fold one binary operation at the given precision.
pub fn fold_bin(op: BinOp, x: f64, y: f64, prec: Precision) -> f64 {
    match prec {
        Precision::F64 => match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
        },
        Precision::F32 => {
            let (a, b) = (x as f32, y as f32);
            let r = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
            };
            r as f64
        }
    }
}

fn fold_fma(x: f64, y: f64, z: f64, prec: Precision) -> f64 {
    match prec {
        Precision::F64 => x.mul_add(y, z),
        Precision::F32 => (x as f32).mul_add(y as f32, z as f32) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::round_const;
    use gpusim::mathlib::MathFunc;

    fn run(seq: &mut InstSeq, prec: Precision) {
        ConstFold.run(seq, prec);
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::Bin(BinOp::Add, Operand::Const(1.5), Operand::Const(2.5)));
        s.result = a;
        run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(4.0));
        assert_eq!(s.insts[0], Inst::Const(4.0));
    }

    #[test]
    fn folds_transitively() {
        // (1+2) * (3+4) -> 21
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::Bin(BinOp::Add, Operand::Const(1.0), Operand::Const(2.0)));
        let b = s.push(Inst::Bin(BinOp::Add, Operand::Const(3.0), Operand::Const(4.0)));
        s.result = s.push(Inst::Bin(BinOp::Mul, a, b));
        run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(21.0));
    }

    #[test]
    fn does_not_fold_variables_or_calls() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let c = s.push(Inst::Call(MathFunc::Cos, [Operand::Const(0.0)].into()));
        s.result = s.push(Inst::Bin(BinOp::Add, x, c));
        run(&mut s, Precision::F64);
        assert!(matches!(s.insts[1], Inst::Call(..)), "calls must not fold");
        assert!(matches!(s.insts[2], Inst::Bin(..)));
    }

    #[test]
    fn folds_at_f32_precision_for_fp32_kernels() {
        // 0.1 + 0.2 rounds differently in f32 and f64
        let (a, b) = (round_const(0.1, Precision::F32), round_const(0.2, Precision::F32));
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        s.result = s.push(Inst::Bin(BinOp::Add, Operand::Const(a), Operand::Const(b)));
        run(&mut s, Precision::F32);
        let expected = (0.1f32 + 0.2f32) as f64;
        assert_eq!(s.result, Operand::Const(expected));
        assert_ne!(expected, 0.1f64 + 0.2f64);
    }

    #[test]
    fn folding_respects_ieee_specials() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        s.result = s.push(Inst::Bin(BinOp::Div, Operand::Const(1.0), Operand::Const(0.0)));
        run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(f64::INFINITY));

        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        s.result = s.push(Inst::Bin(
            BinOp::Sub,
            Operand::Const(f64::INFINITY),
            Operand::Const(f64::INFINITY),
        ));
        run(&mut s, Precision::F64);
        match s.result {
            Operand::Const(v) => assert!(v.is_nan()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn folds_negation_and_fma() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let n = s.push(Inst::Neg(Operand::Const(3.0)));
        s.result = s.push(Inst::Fma(n, Operand::Const(2.0), Operand::Const(1.0)));
        run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(-5.0));
    }
}
