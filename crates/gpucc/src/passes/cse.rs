//! Common-subexpression elimination (local value numbering).
//!
//! Within one sequence every instruction is pure (stores happen at the
//! node level after the sequence completes), so structurally identical
//! instructions compute identical values and duplicates can be forwarded
//! to their first occurrence. Both toolchains run the same CSE, so the
//! pass never diverges; it exists for codegen realism and for its effect
//! on the cost model (fewer executed operations at `-O1+`).

use super::{forward_walk, SeqPass};
use crate::ir::{Inst, InstSeq, Operand};
use progen::ast::Precision;

/// The local value-numbering pass.
pub struct Cse;

/// An empty slot of the first-occurrence table.
const EMPTY: usize = usize::MAX;

impl SeqPass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, seq: &mut InstSeq, _prec: Precision) -> u64 {
        if seq.insts.is_empty() {
            return 0;
        }
        // oracle self-test hook: an armed CseDegenerateKey bug compares
        // binary instructions on the operator alone, merging unequal
        // computations
        #[cfg(feature = "oracle-inject")]
        let degenerate = crate::inject::armed() == crate::inject::InjectedBug::CseDegenerateKey;
        #[cfg(not(feature = "oracle-inject"))]
        let degenerate = false;
        // open-addressed table of first occurrences, at most half full;
        // instructions compare structurally, constants by bit pattern
        // (so -0.0 and 0.0 stay distinct)
        let mut firsts = vec![EMPTY; (2 * seq.insts.len()).next_power_of_two()];
        let mask = firsts.len() - 1;
        let mut fired = 0u64;
        forward_walk(seq, |insts, idx| {
            let mut slot = hash(&insts[idx], degenerate) as usize & mask;
            loop {
                match firsts[slot] {
                    EMPTY => {
                        firsts[slot] = idx;
                        return None;
                    }
                    first if same(&insts[first], &insts[idx], degenerate) => {
                        fired += 1;
                        return Some(Operand::Inst(first));
                    }
                    _ => slot = (slot + 1) & mask,
                }
            }
        });
        fired
    }
}

/// Structural equality ([`Inst`]'s `PartialEq`), or operator-only for
/// binary instructions when `degenerate`.
fn same(a: &Inst, b: &Inst, degenerate: bool) -> bool {
    match (a, b) {
        (Inst::Bin(x, ..), Inst::Bin(y, ..)) if degenerate => x == y,
        _ => a == b,
    }
}

/// A hash consistent with [`same`]: equal instructions hash equally.
fn hash(inst: &Inst, degenerate: bool) -> u64 {
    fn mix(h: u64, v: u64) -> u64 {
        (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    fn word(o: Operand) -> u64 {
        match o {
            Operand::Inst(i) => i as u64,
            Operand::Const(c) => c.to_bits(),
        }
    }
    match inst {
        Inst::ReadVar(v) => mix(1, *v as u64),
        Inst::ReadIntAsFloat(v) => mix(12, *v as u64),
        Inst::ReadArr(a, i) => mix(mix(2, *a as u64), *i as u64),
        Inst::ReadThreadIdx => 3,
        Inst::Const(c) => mix(4, c.to_bits()),
        Inst::Neg(a) => mix(5, word(*a)),
        Inst::Rcp(a) => mix(6, word(*a)),
        Inst::Bin(op, a, b) => {
            let h = mix(7, *op as u64);
            if degenerate {
                h
            } else {
                mix(mix(h, word(*a)), word(*b))
            }
        }
        Inst::Fma(a, b, c) => mix(mix(mix(8, word(*a)), word(*b)), word(*c)),
        Inst::Fms(a, b, c) => mix(mix(mix(9, word(*a)), word(*b)), word(*c)),
        Inst::Fnma(a, b, c) => mix(mix(mix(10, word(*a)), word(*b)), word(*c)),
        Inst::Call(f, args) => args.iter().fold(mix(11, f.index() as u64), |h, a| mix(h, word(*a))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::mathlib::MathFunc;
    use progen::ast::BinOp;

    #[test]
    fn duplicate_reads_are_merged() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x1 = s.push(Inst::ReadVar(0));
        let x2 = s.push(Inst::ReadVar(0));
        s.result = s.push(Inst::Bin(BinOp::Add, x1, x2));
        Cse.run(&mut s, Precision::F64);
        assert_eq!(s.insts[2], Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Inst(0)));
    }

    #[test]
    fn duplicate_calls_are_merged_transitively() {
        // cos(x) + cos(x): reads merge first, then the calls become equal
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x1 = s.push(Inst::ReadVar(0));
        let c1 = s.push(Inst::Call(MathFunc::Cos, vec![x1]));
        let x2 = s.push(Inst::ReadVar(0));
        let c2 = s.push(Inst::Call(MathFunc::Cos, vec![x2]));
        s.result = s.push(Inst::Bin(BinOp::Add, c1, c2));
        Cse.run(&mut s, Precision::F64);
        assert_eq!(s.insts[4], Inst::Bin(BinOp::Add, Operand::Inst(1), Operand::Inst(1)));
    }

    #[test]
    fn different_variables_stay_distinct() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Add, x, y));
        let before = s.clone();
        Cse.run(&mut s, Precision::F64);
        assert_eq!(s, before);
    }

    #[test]
    fn zero_signs_are_not_conflated() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = s.push(Inst::Const(0.0));
        let b = s.push(Inst::Const(-0.0));
        s.result = s.push(Inst::Bin(BinOp::Div, a, b));
        Cse.run(&mut s, Precision::F64);
        // -0.0 has a different bit pattern: no merge
        assert_eq!(s.insts[2], Inst::Bin(BinOp::Div, Operand::Inst(0), Operand::Inst(1)));
    }

    #[test]
    fn result_operand_is_forwarded() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let _x1 = s.push(Inst::ReadVar(0));
        let x2 = s.push(Inst::ReadVar(0));
        s.result = x2;
        Cse.run(&mut s, Precision::F64);
        assert_eq!(s.result, Operand::Inst(0));
    }
}
