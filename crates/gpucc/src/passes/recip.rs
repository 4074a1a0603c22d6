//! Reciprocal substitution (`-freciprocal-math` + `-prec-div=false`),
//! part of nvcc's `-ffast-math` bundle. Not enabled by `-DHIP_FAST_MATH`.
//!
//! * FP32: `a / b` → `a * __frcp(b)` — the approximate hardware reciprocal
//!   (`gpusim::mathlib::fast::nv_rcp_f32`): ~22-bit accuracy, flushes
//!   subnormal divisors to zero (making the product Inf where IEEE
//!   division returns a large finite number).
//! * Both precisions: `x / C` → `x * (1/C)` for constant divisors, with
//!   `1/C` rounded once at compile time — an extra rounding IEEE division
//!   does not have.

use super::SeqPass;
use crate::ir::{Inst, InstSeq, Operand};
use crate::lower::round_const;
use progen::ast::{BinOp, Precision};

/// The reciprocal-substitution pass.
pub struct Recip;

impl SeqPass for Recip {
    fn name(&self) -> &'static str {
        "recip"
    }

    fn run(&self, seq: &mut InstSeq, prec: Precision) -> u64 {
        let mut fired = 0u64;
        // constant divisors first (no structural change)
        for inst in &mut seq.insts {
            if let Inst::Bin(op @ BinOp::Div, _, b) = inst {
                if let Operand::Const(c) = b {
                    let r = round_const(1.0 / *c, prec);
                    if r.is_finite() && r != 0.0 {
                        *op = BinOp::Mul;
                        *b = Operand::Const(r);
                        fired += 1;
                    }
                }
            }
        }
        if prec != Precision::F32 {
            return fired;
        }
        // FP32 variable divisors: rebuild with an Rcp inserted before each
        // division (indices must stay topologically ordered)
        let needs_rcp =
            seq.insts.iter().any(|i| matches!(i, Inst::Bin(BinOp::Div, _, Operand::Inst(_))));
        if !needs_rcp {
            return fired;
        }
        let old = std::mem::take(&mut seq.insts);
        let mut remap: Vec<usize> = Vec::with_capacity(old.len());
        let rewrite = |o: Operand, remap: &[usize]| match o {
            Operand::Inst(i) => Operand::Inst(remap[i]),
            c => c,
        };
        for mut inst in old {
            inst.map_operands(|o| rewrite(o, &remap));
            match inst {
                Inst::Bin(BinOp::Div, a, b @ Operand::Inst(_)) => {
                    seq.insts.push(Inst::Rcp(b));
                    let rcp = Operand::Inst(seq.insts.len() - 1);
                    seq.insts.push(Inst::Bin(BinOp::Mul, a, rcp));
                    remap.push(seq.insts.len() - 1);
                    fired += 1;
                }
                other => {
                    seq.insts.push(other);
                    remap.push(seq.insts.len() - 1);
                }
            }
        }
        seq.result = rewrite(seq.result, &remap);
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_divisor_becomes_multiply() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Div, x, Operand::Const(4.0)));
        Recip.run(&mut s, Precision::F64);
        assert_eq!(s.insts[1], Inst::Bin(BinOp::Mul, x, Operand::Const(0.25)));
    }

    #[test]
    fn constant_recip_introduces_extra_rounding() {
        // 1/3 is inexact: x * (1/3) differs from x / 3 in the last ULP for
        // many x — the divergence this pass exists to model
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Div, x, Operand::Const(3.0)));
        Recip.run(&mut s, Precision::F64);
        match s.insts[1] {
            Inst::Bin(BinOp::Mul, _, Operand::Const(c)) => assert_eq!(c, 1.0 / 3.0),
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_and_inf_recip_divisors_are_left_alone() {
        // 1/0 = Inf and 1/Inf = 0 would change semantics structurally;
        // leave the division for the runtime to handle
        for c in [0.0, f64::INFINITY] {
            let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
            let x = s.push(Inst::ReadVar(0));
            s.result = s.push(Inst::Bin(BinOp::Div, x, Operand::Const(c)));
            Recip.run(&mut s, Precision::F64);
            assert!(matches!(s.insts[1], Inst::Bin(BinOp::Div, _, _)), "divisor {c}");
        }
    }

    #[test]
    fn f32_variable_divisor_gets_hardware_rcp() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::ReadVar(0));
        let b = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Div, a, b));
        Recip.run(&mut s, Precision::F32);
        assert_eq!(s.insts.len(), 4);
        assert_eq!(s.insts[2], Inst::Rcp(Operand::Inst(1)));
        assert_eq!(s.insts[3], Inst::Bin(BinOp::Mul, Operand::Inst(0), Operand::Inst(2)));
        assert_eq!(s.result, Operand::Inst(3));
    }

    #[test]
    fn f64_variable_divisor_keeps_ieee_division() {
        // nvcc fast math does not relax FP64 division
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::ReadVar(0));
        let b = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Div, a, b));
        Recip.run(&mut s, Precision::F64);
        assert_eq!(s.insts.len(), 3);
        assert!(matches!(s.insts[2], Inst::Bin(BinOp::Div, _, _)));
    }

    #[test]
    fn rebuild_preserves_downstream_references() {
        // r = (a/b) + c : the add must point at the new multiply
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::ReadVar(0));
        let b = s.push(Inst::ReadVar(1));
        let d = s.push(Inst::Bin(BinOp::Div, a, b));
        let c = s.push(Inst::ReadVar(2));
        s.result = s.push(Inst::Bin(BinOp::Add, d, c));
        Recip.run(&mut s, Precision::F32);
        assert_eq!(s.insts.len(), 6);
        assert_eq!(s.insts[5], Inst::Bin(BinOp::Add, Operand::Inst(3), Operand::Inst(4)));
        assert_eq!(s.result, Operand::Inst(5));
    }
}
