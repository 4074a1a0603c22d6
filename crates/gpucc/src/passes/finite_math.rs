//! Finite-math-only simplification (`-ffinite-math-only` +
//! `-fno-signed-zeros`), part of nvcc's `-ffast-math` bundle.
//!
//! The pass applies algebraic identities that are only valid when NaN and
//! Inf never occur:
//!
//! * `x * 0 → 0` (wrong for `Inf * 0 = NaN` and `NaN * 0`)
//! * `x + 0 → x`, `x - 0 → x` (wrong for `-0 + 0` sign, NaN)
//! * `x - x → 0` (wrong for `Inf - Inf = NaN`)
//! * `x / x → 1` (wrong for `0/0`, `Inf/Inf`, NaN)
//!
//! Because `-DHIP_FAST_MATH` does **not** enable finite-math-only (paper
//! §III-D), this pass runs only in the nvcc-like `O3_FM` pipeline — the
//! asymmetry behind the paper's case study 3, where `-Inf` on one platform
//! becomes `-NaN` on the other once optimization is enabled.

use super::{forward_walk, SeqPass};
use crate::ir::{Inst, InstSeq, Operand};
use progen::ast::{BinOp, Precision};

/// The finite-math-only simplification pass.
pub struct FiniteMath;

impl SeqPass for FiniteMath {
    fn name(&self) -> &'static str {
        "finite-math"
    }

    fn run(&self, seq: &mut InstSeq, _prec: Precision) -> u64 {
        let mut fired = 0u64;
        forward_walk(seq, |insts, idx| {
            let Inst::Bin(op, a, b) = insts[idx] else {
                return None;
            };
            let replacement = match op {
                BinOp::Mul if is_zero(a) || is_zero(b) => Operand::Const(0.0),
                BinOp::Add if is_zero(a) => b,
                BinOp::Add if is_zero(b) => a,
                BinOp::Sub if is_zero(b) => a,
                BinOp::Sub if a == b && matches!(a, Operand::Inst(_)) => Operand::Const(0.0),
                BinOp::Div if a == b && matches!(a, Operand::Inst(_)) => Operand::Const(1.0),
                _ => return None,
            };
            fired += 1;
            Some(replacement)
        });
        fired
    }
}

/// True for a ±0 constant (no-signed-zeros treats them alike).
fn is_zero(o: Operand) -> bool {
    matches!(o, Operand::Const(c) if c == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_by_zero_becomes_zero() {
        // the unsound one: Inf * 0 would be NaN without fast math
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Mul, x, Operand::Const(0.0)));
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(0.0));
    }

    #[test]
    fn mul_by_negative_zero_also_simplifies() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Mul, Operand::Const(-0.0), x));
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(0.0));
    }

    #[test]
    fn add_zero_forwards_operand() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Add, x, Operand::Const(0.0)));
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s.result, x);
    }

    #[test]
    fn self_subtraction_becomes_zero() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Sub, x, x));
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(0.0));
    }

    #[test]
    fn self_division_becomes_one() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Div, x, x));
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Const(1.0));
    }

    #[test]
    fn identical_constants_do_not_trigger_self_rules() {
        // Const(5)/Const(5) is left to const-fold (which is exact anyway)
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        s.result = s.push(Inst::Bin(BinOp::Div, Operand::Const(5.0), Operand::Const(5.0)));
        FiniteMath.run(&mut s, Precision::F64);
        assert!(matches!(s.insts[0], Inst::Bin(BinOp::Div, _, _)));
    }

    #[test]
    fn sub_zero_rhs_only() {
        // 0 - x is a negation, not a no-op: must NOT forward x
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Sub, Operand::Const(0.0), x));
        FiniteMath.run(&mut s, Precision::F64);
        assert!(matches!(s.insts[1], Inst::Bin(BinOp::Sub, _, _)));
    }

    #[test]
    fn non_trivial_arithmetic_untouched() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Mul, x, y));
        let before = s.clone();
        FiniteMath.run(&mut s, Precision::F64);
        assert_eq!(s, before);
    }
}
