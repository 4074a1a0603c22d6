//! Dead-code elimination.
//!
//! Removes instructions unreachable from the sequence result and renumbers
//! the survivors. Runs after contraction/CSE to collect the multiplies and
//! duplicates those passes orphaned.

use super::SeqPass;
use crate::ir::{InstSeq, Operand};
use crate::scratch;
use progen::ast::Precision;

/// The dead-code-elimination pass.
pub struct Dce;

/// Liveness marks, then new indices: unreachable instructions stay
/// `DEAD`.
const DEAD: usize = usize::MAX;
const LIVE: usize = 0;

impl SeqPass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, seq: &mut InstSeq, _prec: Precision) -> u64 {
        // oracle self-test hook: an armed DceDropNeg bug treats negations
        // as forwardable copies, dropping the sign flip before liveness
        #[cfg(feature = "oracle-inject")]
        if crate::inject::armed() == crate::inject::InjectedBug::DceDropNeg {
            super::forward_walk(seq, |insts, idx| match insts[idx] {
                crate::ir::Inst::Neg(a) => Some(a),
                _ => None,
            });
        }
        scratch::with(&scratch::INDICES, |remap| collect(seq, remap))
    }
}

/// Remove what `seq`'s result does not reach, renumbering through
/// `remap` (empty on entry); returns how many instructions went.
fn collect(seq: &mut InstSeq, remap: &mut Vec<usize>) -> u64 {
    let n = seq.insts.len();
    // operands only reference earlier instructions, so one backward
    // sweep from the result marks everything reachable
    remap.resize(n, DEAD);
    if let Operand::Inst(i) = seq.result {
        remap[i] = LIVE;
    }
    for i in (0..n).rev() {
        if remap[i] == DEAD {
            continue;
        }
        seq.insts[i].for_each_operand(|o| {
            if let Operand::Inst(j) = o {
                remap[j] = LIVE;
            }
        });
    }
    // compact in place and renumber: a survivor's operands were
    // renumbered before it
    let mut kept = 0;
    for i in 0..n {
        if remap[i] == DEAD {
            continue;
        }
        seq.insts.swap(kept, i);
        seq.insts[kept].map_operands(|o| match o {
            Operand::Inst(j) => Operand::Inst(remap[j]),
            c => c,
        });
        remap[i] = kept;
        kept += 1;
    }
    seq.insts.truncate(kept);
    if let Operand::Inst(i) = seq.result {
        seq.result = Operand::Inst(remap[i]);
    }
    (n - kept) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Inst;
    use progen::ast::BinOp;

    #[test]
    fn removes_orphaned_instructions() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let _dead = s.push(Inst::ReadVar(5));
        let y = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Add, x, y));
        Dce.run(&mut s, Precision::F64);
        assert_eq!(s.insts.len(), 3);
        assert_eq!(s.insts[2], Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Inst(1)));
        assert_eq!(s.result, Operand::Inst(2));
    }

    #[test]
    fn keeps_everything_reachable() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let n = s.push(Inst::Neg(x));
        s.result = s.push(Inst::Bin(BinOp::Mul, x, n));
        let before = s.clone();
        Dce.run(&mut s, Precision::F64);
        assert_eq!(s, before);
    }

    #[test]
    fn const_result_empties_sequence() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let _a = s.push(Inst::ReadVar(0));
        let _b = s.push(Inst::ReadVar(1));
        s.result = Operand::Const(7.0);
        Dce.run(&mut s, Precision::F64);
        assert!(s.insts.is_empty());
        assert_eq!(s.result, Operand::Const(7.0));
    }

    #[test]
    fn diamond_dependencies_survive() {
        // r = (x+x) * (x+x)  [after CSE: one add, used twice]
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let a = s.push(Inst::Bin(BinOp::Add, x, x));
        s.result = s.push(Inst::Bin(BinOp::Mul, a, a));
        Dce.run(&mut s, Precision::F64);
        assert_eq!(s.insts.len(), 3);
    }
}
