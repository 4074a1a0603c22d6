//! Optimization passes.
//!
//! Every pass is sequence-local (the kernels have no cross-statement
//! dataflow the passes could exploit — each statement re-reads its
//! variables). The [`SeqPass`] trait plus [`run_seq_pass`] driver apply a
//! pass to every instruction sequence in a kernel.
//!
//! Pass inventory and which pipelines use them:
//!
//! | pass | O0 | O1–O3 | O3_FM nvcc | O3_FM hipcc |
//! |---|---|---|---|---|
//! | [`const_fold`] | – | ✓ | ✓ | ✓ |
//! | [`fma`] contraction | –¹ | ✓ (vendor-preferenced) | ✓ | ✓ |
//! | [`finite_math`] | – | – | ✓ | – (`-DHIP_FAST_MATH` omits it) |
//! | [`recip`] | – | – | ✓ | – |
//! | [`reassoc`] (front-end) | – | – | ✓ | – |
//! | [`cse`] | –¹ | ✓ | ✓ | ✓ |
//! | [`dce`] | –¹ | ✓ | ✓ | ✓ |
//!
//! ¹ except HIPIFY-converted sources, which hipcc builds with its
//! real-world `-ffp-contract=fast` default even at `-O0`: contraction,
//! then `cse` and `dce` to collect what it orphaned.
//!
//! Every pass is linear in the sequence length. A pass that replaces an
//! instruction's value does not sweep the sequence per rewrite: it walks
//! once through [`forward_walk`], whose forwarding table redirects each
//! later use as the walk reaches it.
//!
//! Loop unrolling is deliberately absent: Varity loop bounds are runtime
//! inputs, so there is nothing to unroll statically (see DESIGN.md).

pub mod const_fold;
pub mod cse;
pub mod dce;
pub mod finite_math;
pub mod fma;
pub mod reassoc;
pub mod recip;

use crate::ir::{Inst, InstSeq, KernelIr, Operand};
use crate::scratch;
use progen::ast::Precision;

/// A sequence-local transformation.
pub trait SeqPass {
    /// Pass name for logs and tests.
    fn name(&self) -> &'static str;
    /// Transform one instruction sequence in place, returning how many
    /// rewrites fired (the unit is pass-specific — contractions fused,
    /// instructions folded/removed, calls replaced — but zero always
    /// means "this pass left the sequence untouched").
    fn run(&self, seq: &mut InstSeq, prec: Precision) -> u64;
}

/// Apply a pass to every sequence in the kernel; returns the total
/// number of rewrites fired across all sequences.
pub fn run_seq_pass(ir: &mut KernelIr, pass: &dyn SeqPass) -> u64 {
    let prec = ir.precision;
    let mut fired = 0u64;
    ir.for_each_seq_mut(&mut |seq| fired += pass.run(seq, prec));
    fired
}

/// Walk `seq` once, front to back, forwarding values as `decide` says.
///
/// `decide(insts, idx)` sees instruction `idx` with its operands already
/// forwarded (and every instruction before it); it may rewrite
/// `insts[idx]` in place, and returns `Some(to)` when every later use of
/// `idx`, and the sequence result, should read `to` instead. The
/// instruction itself stays for DCE to collect. Operands only reference
/// earlier instructions, so one lookup per operand in a table that grows
/// with the walk applies every rewrite. That takes `to` to be final: a
/// constant, one of the already-forwarded operands `decide` saw, or an
/// earlier instruction that was not itself forwarded.
pub(crate) fn forward_walk(
    seq: &mut InstSeq,
    mut decide: impl FnMut(&mut [Inst], usize) -> Option<Operand>,
) {
    scratch::with(&scratch::OPERANDS, |table| {
        let through = |table: &[Operand], o: Operand| match o {
            Operand::Inst(i) => table[i],
            c => c,
        };
        for idx in 0..seq.insts.len() {
            seq.insts[idx].map_operands(|o| through(table, o));
            let to = decide(&mut seq.insts, idx);
            debug_assert!(
                !matches!(to, Some(Operand::Inst(j)) if j >= idx || table[j] != Operand::Inst(j)),
                "instruction {idx} forwarded to {to:?}, which is not final"
            );
            table.push(to.unwrap_or(Operand::Inst(idx)));
        }
        seq.result = through(table, seq.result);
    })
}

/// Fill `counts` with the number of uses of each instruction (references
/// from later instructions plus the sequence result).
pub fn use_counts(seq: &InstSeq, counts: &mut Vec<usize>) {
    counts.clear();
    counts.resize(seq.insts.len(), 0);
    let mut bump = |o: Operand| {
        if let Operand::Inst(i) = o {
            counts[i] += 1;
        }
    };
    for inst in &seq.insts {
        inst.for_each_operand(&mut bump);
    }
    bump(seq.result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use progen::ast::BinOp;

    fn seq_xy_add() -> InstSeq {
        let mut s = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let x = s.push(Inst::ReadVar(0));
        let y = s.push(Inst::ReadVar(1));
        s.result = s.push(Inst::Bin(BinOp::Add, x, y));
        s
    }

    #[test]
    fn use_counts_include_result() {
        let s = seq_xy_add();
        let mut counts = vec![7; 5];
        use_counts(&s, &mut counts);
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn forward_walk_rewrites_later_references() {
        let mut s = seq_xy_add();
        forward_walk(&mut s, |_, idx| (idx == 1).then_some(Operand::Const(5.0)));
        assert_eq!(s.insts[2], Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Const(5.0)));
    }

    #[test]
    fn forward_walk_rewrites_result() {
        let mut s = seq_xy_add();
        forward_walk(&mut s, |_, idx| (idx == 2).then_some(Operand::Inst(0)));
        assert_eq!(s.result, Operand::Inst(0));
    }

    #[test]
    fn forward_walk_chains_resolve_in_one_lookup() {
        // y forwards to x, then y+y (now x+x) forwards to x: the result
        // reads x, and the add saw its operands already forwarded
        let mut s = seq_xy_add();
        s.insts[2] = Inst::Bin(BinOp::Add, Operand::Inst(1), Operand::Inst(1));
        let mut seen = Vec::new();
        forward_walk(&mut s, |insts, idx| {
            seen.push(insts[idx].clone());
            (idx > 0).then_some(Operand::Inst(0))
        });
        assert_eq!(seen[2], Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Inst(0)));
        assert_eq!(s.result, Operand::Inst(0));
    }
}
