//! FMA contraction.
//!
//! Rewrites `mul + add` pairs into fused multiply-adds. Both simulated
//! toolchains contract at `-O1` and above (and hipcc contracts
//! HIPIFY-converted sources even at `-O0`, its real `-ffp-contract=fast`
//! default), but they differ in **association preference**: when an
//! addition has a single-use multiply on *both* sides — `x*y + u*v` — the
//! nvcc-like compiler fuses the left multiply while the hipcc-like one
//! fuses the right. The unfused side rounds once more than the fused side,
//! so the two binaries produce different last bits for the same source —
//! one of the engines behind the paper's `Num vs Num` counts growing from
//! O0 to O1 (Table V: 353 → 387).

use super::{use_counts, SeqPass};
use crate::ir::{Inst, InstSeq, Operand};
use crate::scratch;
use progen::ast::{BinOp, Precision};

/// Which side a toolchain prefers to fuse when both qualify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmaPreference {
    /// Fuse the left multiply (nvcc-like).
    LhsFirst,
    /// Fuse the right multiply (hipcc-like).
    RhsFirst,
}

/// The FMA contraction pass.
pub struct FmaContract {
    /// Vendor association preference.
    pub preference: FmaPreference,
    /// Also contract `x*y − c` into a fused multiply-subtract. The
    /// hipcc-like pipeline does (its `-ffp-contract=fast` heritage); the
    /// nvcc-like one restricts itself to additions — a second contraction
    /// asymmetry that fires even when no addition has two multiply sides.
    pub contract_sub: bool,
}

impl SeqPass for FmaContract {
    fn name(&self) -> &'static str {
        "fma-contract"
    }

    fn run(&self, seq: &mut InstSeq, _prec: Precision) -> u64 {
        scratch::with(&scratch::INDICES, |counts| {
            use_counts(seq, counts);
            self.contract(seq, counts)
        })
    }
}

impl FmaContract {
    /// Contract every eligible addition (and subtraction) of `seq`,
    /// given its use counts.
    fn contract(&self, seq: &mut InstSeq, counts: &[usize]) -> u64 {
        let mut fired = 0u64;
        for idx in 0..seq.insts.len() {
            if self.contract_sub {
                if let Inst::Bin(BinOp::Sub, a, b) = seq.insts[idx] {
                    if let Some((x, y)) = single_use_mul(seq, counts, a) {
                        seq.insts[idx] = Inst::Fms(x, y, b);
                        fired += 1;
                        continue;
                    }
                    if let Some((x, y)) = single_use_mul(seq, counts, b) {
                        seq.insts[idx] = Inst::Fnma(x, y, a);
                        fired += 1;
                        continue;
                    }
                }
            }
            let Inst::Bin(BinOp::Add, a, b) = seq.insts[idx] else {
                continue;
            };
            let lhs_mul = single_use_mul(seq, counts, a);
            let rhs_mul = single_use_mul(seq, counts, b);
            let fused = match (lhs_mul, rhs_mul, self.preference) {
                (Some((x, y)), _, FmaPreference::LhsFirst) => Some((x, y, b)),
                (_, Some((x, y)), FmaPreference::RhsFirst) => Some((x, y, a)),
                (Some((x, y)), None, FmaPreference::RhsFirst) => Some((x, y, b)),
                (None, Some((x, y)), FmaPreference::LhsFirst) => Some((x, y, a)),
                _ => None,
            };
            if let Some((x, y, addend)) = fused {
                seq.insts[idx] = Inst::Fma(x, y, addend);
                fired += 1;
                // the multiply becomes dead; DCE collects it
            }
        }
        fired
    }
}

/// If `op` refers to a single-use multiply instruction, return its factors.
fn single_use_mul(seq: &InstSeq, counts: &[usize], op: Operand) -> Option<(Operand, Operand)> {
    let Operand::Inst(i) = op else { return None };
    if counts[i] != 1 {
        return None;
    }
    match seq.insts[i] {
        Inst::Bin(BinOp::Mul, x, y) => Some((x, y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build `x*y + u*v`.
    fn both_sides_mul() -> InstSeq {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        let m1 = s.push(Inst::Bin(BinOp::Mul, x, y));
        let u = s.push(Inst::ReadVar(3));
        let v = s.push(Inst::ReadVar(4));
        let m2 = s.push(Inst::Bin(BinOp::Mul, u, v));
        s.result = s.push(Inst::Bin(BinOp::Add, m1, m2));
        s
    }

    #[test]
    fn nvcc_fuses_left_hipcc_fuses_right() {
        let mut nv = both_sides_mul();
        FmaContract { preference: FmaPreference::LhsFirst, contract_sub: false }
            .run(&mut nv, Precision::F64);
        assert_eq!(nv.insts[6], Inst::Fma(Operand::Inst(0), Operand::Inst(1), Operand::Inst(5)));

        let mut amd = both_sides_mul();
        FmaContract { preference: FmaPreference::RhsFirst, contract_sub: false }
            .run(&mut amd, Precision::F64);
        assert_eq!(amd.insts[6], Inst::Fma(Operand::Inst(3), Operand::Inst(4), Operand::Inst(2)));
        assert_ne!(nv.insts[6], amd.insts[6]);
    }

    #[test]
    fn single_mul_side_fuses_for_both_preferences() {
        // x*y + z: only one candidate, both vendors fuse it
        for pref in [FmaPreference::LhsFirst, FmaPreference::RhsFirst] {
            let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
            let x = s.push(Inst::ReadVar(0));
            let y = s.push(Inst::ReadVar(1));
            let m = s.push(Inst::Bin(BinOp::Mul, x, y));
            let z = s.push(Inst::ReadVar(2));
            s.result = s.push(Inst::Bin(BinOp::Add, m, z));
            FmaContract { preference: pref, contract_sub: false }.run(&mut s, Precision::F64);
            assert_eq!(s.insts[4], Inst::Fma(x, y, z), "{pref:?}");
        }
    }

    #[test]
    fn multi_use_mul_is_not_fused() {
        // m = x*y used twice: m + m must stay an add
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        let m = s.push(Inst::Bin(BinOp::Mul, x, y));
        s.result = s.push(Inst::Bin(BinOp::Add, m, m));
        FmaContract { preference: FmaPreference::LhsFirst, contract_sub: false }
            .run(&mut s, Precision::F64);
        assert!(matches!(s.insts[3], Inst::Bin(BinOp::Add, _, _)));
    }

    #[test]
    fn sub_is_not_contracted() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        let m = s.push(Inst::Bin(BinOp::Mul, x, y));
        let z = s.push(Inst::ReadVar(2));
        s.result = s.push(Inst::Bin(BinOp::Sub, m, z));
        FmaContract { preference: FmaPreference::LhsFirst, contract_sub: false }
            .run(&mut s, Precision::F64);
        assert!(matches!(s.insts[4], Inst::Bin(BinOp::Sub, _, _)));
    }

    #[test]
    fn plain_add_untouched() {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Add, x, y));
        FmaContract { preference: FmaPreference::LhsFirst, contract_sub: false }
            .run(&mut s, Precision::F64);
        assert!(matches!(s.insts[2], Inst::Bin(BinOp::Add, _, _)));
    }
}
