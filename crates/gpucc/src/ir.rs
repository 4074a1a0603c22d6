//! The kernel IR.
//!
//! An [`InstSeq`] is a three-address instruction list: each instruction
//! produces one value, and operands refer to earlier instructions by index
//! or to immediate constants. Control flow stays structured ([`Node`]),
//! mirroring the source kernels, which are reducible by construction.
//!
//! Variables are dense slots, one slot space per kind (float, int,
//! array), given when the kernel is lowered. The passes, the listing and
//! all three executors read these slots directly; [`Vars`] keeps each
//! slot's name for listings, store traces and error text.

use gpusim::mathlib::MathFunc;
use progen::ast::{BinOp, CmpOp, Param, Precision};
use std::sync::Arc;

/// A float-variable slot: a float parameter, a temporary or `comp`.
pub type FloatSlot = usize;
/// An int-variable slot: an int parameter, a loop variable or an array
/// index.
pub type IntSlot = usize;
/// An array slot.
pub type ArraySlot = usize;

/// An instruction operand: an earlier instruction's value or an immediate.
///
/// Constant equality is **bitwise** (folding can produce NaN constants,
/// which must still compare equal to themselves so identical pipelines
/// produce equal IR).
#[derive(Debug, Clone, Copy)]
pub enum Operand {
    /// Value of the instruction at this index in the same sequence.
    Inst(usize),
    /// Immediate constant (stored in f64; rounded to the kernel precision
    /// when the kernel was lowered).
    Const(f64),
}

impl PartialEq for Operand {
    fn eq(&self, other: &Operand) -> bool {
        match (self, other) {
            (Operand::Inst(a), Operand::Inst(b)) => a == b,
            (Operand::Const(a), Operand::Const(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for Operand {}

/// A math call's arguments, held inline: every library function takes
/// one or two. Reads as a slice of its arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    len: u8,
    ops: [Operand; 2],
}

impl Args {
    /// The most arguments a call holds.
    pub const MAX: usize = 2;
}

impl std::ops::Deref for Args {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.ops[..usize::from(self.len)]
    }
}

impl std::ops::DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [Operand] {
        &mut self.ops[..usize::from(self.len)]
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl FromIterator<Operand> for Args {
    /// Panics past [`Args::MAX`] arguments.
    fn from_iter<I: IntoIterator<Item = Operand>>(iter: I) -> Args {
        let mut args = Args { len: 0, ops: [Operand::Const(0.0); Args::MAX] };
        for o in iter {
            assert!(usize::from(args.len) < Args::MAX, "a math call takes at most two arguments");
            args.ops[usize::from(args.len)] = o;
            args.len += 1;
        }
        args
    }
}

impl<const N: usize> From<[Operand; N]> for Args {
    fn from(ops: [Operand; N]) -> Args {
        ops.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One IR instruction. The destination register is the instruction's own
/// index within its sequence.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Read a float variable (parameter, temporary, or `comp`).
    ReadVar(FloatSlot),
    /// Read an int variable (int parameter or loop variable), promoted to
    /// the kernel precision.
    ReadIntAsFloat(IntSlot),
    /// Read `array[index]`.
    ReadArr(ArraySlot, IntSlot),
    /// Read `threadIdx.x` promoted to the kernel precision.
    ReadThreadIdx,
    /// Binary arithmetic.
    Bin(BinOp, Operand, Operand),
    /// Negation.
    Neg(Operand),
    /// Fused multiply-add `a*b + c` (one rounding) — produced by the FMA
    /// contraction pass; never present at O0.
    Fma(Operand, Operand, Operand),
    /// Fused multiply-subtract `a*b - c` (one rounding) — the hipcc-like
    /// contraction pass forms these; the nvcc-like one does not, which is
    /// one of the O0 → O1 divergence mechanisms.
    Fms(Operand, Operand, Operand),
    /// Fused negate-multiply-add `c - a*b` (one rounding) — also formed
    /// only by the hipcc-like contraction (the `comp -= x*y` pattern).
    Fnma(Operand, Operand, Operand),
    /// Approximate reciprocal (NVCC fast-math reciprocal substitution).
    Rcp(Operand),
    /// Math library call. Which implementation runs (accurate vs fast
    /// vendor intrinsic) is decided at execution time from
    /// [`CompileFlags::fast_math`].
    Call(MathFunc, Args),
    /// A constant produced by folding (kept as an instruction so operand
    /// indices stay stable until DCE renumbers).
    Const(f64),
}

impl PartialEq for Inst {
    fn eq(&self, other: &Inst) -> bool {
        use Inst::*;
        match (self, other) {
            (ReadVar(a), ReadVar(b)) | (ReadIntAsFloat(a), ReadIntAsFloat(b)) => a == b,
            (ReadArr(a, i), ReadArr(b, j)) => a == b && i == j,
            (ReadThreadIdx, ReadThreadIdx) => true,
            (Bin(o1, a1, b1), Bin(o2, a2, b2)) => o1 == o2 && a1 == a2 && b1 == b2,
            (Neg(a), Neg(b)) | (Rcp(a), Rcp(b)) => a == b,
            (Fma(a1, b1, c1), Fma(a2, b2, c2))
            | (Fms(a1, b1, c1), Fms(a2, b2, c2))
            | (Fnma(a1, b1, c1), Fnma(a2, b2, c2)) => a1 == a2 && b1 == b2 && c1 == c2,
            (Call(f1, a1), Call(f2, a2)) => f1 == f2 && a1 == a2,
            // bitwise, like Operand::Const (NaN == NaN)
            (Const(a), Const(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for Inst {}

impl Inst {
    /// Visit the operands this instruction references, in order.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::ReadVar(_)
            | Inst::ReadIntAsFloat(_)
            | Inst::ReadArr(..)
            | Inst::ReadThreadIdx
            | Inst::Const(_) => {}
            Inst::Neg(a) | Inst::Rcp(a) => f(*a),
            Inst::Bin(_, a, b) => {
                f(*a);
                f(*b);
            }
            Inst::Fma(a, b, c) | Inst::Fms(a, b, c) | Inst::Fnma(a, b, c) => {
                f(*a);
                f(*b);
                f(*c);
            }
            Inst::Call(_, args) => args.iter().copied().for_each(f),
        }
    }

    /// Rewrite operand references through `f`.
    pub fn map_operands(&mut self, f: impl Fn(Operand) -> Operand) {
        match self {
            Inst::ReadVar(_)
            | Inst::ReadIntAsFloat(_)
            | Inst::ReadArr(..)
            | Inst::ReadThreadIdx
            | Inst::Const(_) => {}
            Inst::Neg(a) | Inst::Rcp(a) => *a = f(*a),
            Inst::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            Inst::Fma(a, b, c) | Inst::Fms(a, b, c) | Inst::Fnma(a, b, c) => {
                *a = f(*a);
                *b = f(*b);
                *c = f(*c);
            }
            Inst::Call(_, args) => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
        }
    }
}

/// A straight-line instruction sequence computing one value.
#[derive(Debug, Clone, PartialEq)]
pub struct InstSeq {
    /// Instructions, in execution order.
    pub insts: Vec<Inst>,
    /// The sequence's result.
    pub result: Operand,
}

impl InstSeq {
    /// A sequence that yields a constant without executing anything.
    pub fn constant(v: f64) -> Self {
        InstSeq { insts: vec![], result: Operand::Const(v) }
    }

    /// Append an instruction and return an operand referring to it.
    pub fn push(&mut self, inst: Inst) -> Operand {
        self.insts.push(inst);
        Operand::Inst(self.insts.len() - 1)
    }
}

/// Where a computed value is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoreTarget {
    /// Float variable.
    Var(FloatSlot),
    /// `array[index]`.
    Arr(ArraySlot, IntSlot),
}

/// A structured IR node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Evaluate `seq` and store its result (covers declarations and all
    /// assignment forms; compound assignments were expanded in lowering).
    Store {
        /// Destination.
        target: StoreTarget,
        /// Value computation.
        seq: InstSeq,
    },
    /// Structured conditional: evaluate both sides, compare, maybe run body.
    If {
        /// Left comparison operand.
        lhs: InstSeq,
        /// Comparison operator.
        op: CmpOp,
        /// Right comparison operand.
        rhs: InstSeq,
        /// Then-branch.
        body: Vec<Node>,
    },
    /// Counted loop from 0 to the value of the int variable `bound`.
    For {
        /// Induction variable.
        var: IntSlot,
        /// Bounding variable.
        bound: IntSlot,
        /// Loop body.
        body: Vec<Node>,
    },
}

/// Flags recording how a kernel was compiled (they affect execution).
/// Defaults to the `-O0`, no-fast-math configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileFlags {
    /// Fast-math: vendor fast intrinsics + vendor FTZ mode at execution.
    pub fast_math: bool,
    /// Effective optimization level (for the cost model).
    pub opt_level_index: u8,
}

impl CompileFlags {
    /// The flags a kernel compiled at `level` carries.
    pub fn for_level(level: crate::pipeline::OptLevel) -> CompileFlags {
        CompileFlags { fast_math: level.is_fast_math(), opt_level_index: level.index() as u8 }
    }
}

/// Where a kernel parameter lands in the slot spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamSlot {
    /// Float parameter.
    Float(FloatSlot),
    /// Int parameter.
    Int(IntSlot),
    /// Array parameter.
    Array(ArraySlot),
}

/// A kernel's variables: the name of every slot, and where each
/// parameter lands.
///
/// [`crate::lower`] gives the slots in one walk: parameters first, in
/// signature order (each array parameter takes a new array slot); then
/// the body in execution order, a store's value before its target and a
/// loop's bound before its variable before its body. A name read as a
/// value reads its float slot, else its int slot (promoted); a name
/// with neither takes a new float slot, unset until something stores to
/// it. An array that no parameter declares takes a slot after the
/// parameters' ones, so a listing can name it and the executors can
/// reject the kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Vars {
    /// Float-slot names (index = slot).
    pub floats: Vec<String>,
    /// Int-slot names.
    pub ints: Vec<String>,
    /// Array-slot names: the array parameters, then any array no
    /// parameter declares.
    pub arrays: Vec<String>,
    /// Each parameter's slot, in signature order.
    pub params: Vec<ParamSlot>,
}

/// A kernel's parameters, shared by every kernel built from one lowering:
/// a clone copies no name. Reads as a slice of [`Param`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params(Arc<[Param]>);

impl std::ops::Deref for Params {
    type Target = [Param];

    fn deref(&self) -> &[Param] {
        &self.0
    }
}

impl From<&[Param]> for Params {
    fn from(params: &[Param]) -> Params {
        Params(params.into())
    }
}

impl<'a> IntoIterator for &'a Params {
    type Item = &'a Param;
    type IntoIter = std::slice::Iter<'a, Param>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// A compiled kernel. Its parameter and name tables are shared, not
/// copied, by the kernels built from it: a class that runs the same body
/// under other flags and the vm's compiled kernel hold the same tables.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// Program identifier this kernel was compiled from.
    pub program_id: String,
    /// Kernel precision.
    pub precision: Precision,
    /// Parameters (copied from the AST once, at lowering).
    pub params: Params,
    /// The variables' slots and names.
    pub vars: Arc<Vars>,
    /// Structured body.
    pub body: Vec<Node>,
    /// Compilation flags.
    pub flags: CompileFlags,
}

impl KernelIr {
    /// Visit every instruction sequence mutably (the pass driver).
    pub fn for_each_seq_mut(&mut self, f: &mut impl FnMut(&mut InstSeq)) {
        fn walk(nodes: &mut [Node], f: &mut impl FnMut(&mut InstSeq)) {
            for n in nodes {
                match n {
                    Node::Store { seq, .. } => f(seq),
                    Node::If { lhs, rhs, body, .. } => {
                        f(lhs);
                        f(rhs);
                        walk(body, f);
                    }
                    Node::For { body, .. } => walk(body, f),
                }
            }
        }
        walk(&mut self.body, f);
    }

    /// Visit every instruction sequence, in the order
    /// [`KernelIr::for_each_seq_mut`] does.
    pub fn for_each_seq(&self, f: &mut impl FnMut(&InstSeq)) {
        fn walk(nodes: &[Node], f: &mut impl FnMut(&InstSeq)) {
            for n in nodes {
                match n {
                    Node::Store { seq, .. } => f(seq),
                    Node::If { lhs, rhs, body, .. } => {
                        f(lhs);
                        f(rhs);
                        walk(body, f);
                    }
                    Node::For { body, .. } => walk(body, f),
                }
            }
        }
        walk(&self.body, f);
    }

    /// Total instruction count across all sequences (static size).
    pub fn inst_count(&self) -> usize {
        let mut n = 0;
        self.for_each_seq(&mut |seq| n += seq.insts.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_reference_to_new_inst() {
        let mut seq = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        let a = seq.push(Inst::ReadVar(0));
        let b = seq.push(Inst::Neg(a));
        assert_eq!(a, Operand::Inst(0));
        assert_eq!(b, Operand::Inst(1));
        assert_eq!(seq.insts.len(), 2);
    }

    fn operands(inst: &Inst) -> Vec<Operand> {
        let mut out = Vec::new();
        inst.for_each_operand(|o| out.push(o));
        out
    }

    #[test]
    fn for_each_operand_visits_all_in_order() {
        let i = Inst::Fma(Operand::Inst(0), Operand::Const(2.0), Operand::Inst(1));
        assert_eq!(operands(&i), [Operand::Inst(0), Operand::Const(2.0), Operand::Inst(1)]);
        let c = Inst::Call(MathFunc::Pow, [Operand::Inst(0), Operand::Inst(1)].into());
        assert_eq!(operands(&c), [Operand::Inst(0), Operand::Inst(1)]);
        assert!(operands(&Inst::ReadVar(0)).is_empty());
    }

    #[test]
    fn map_operands_rewrites_everything() {
        let mut i = Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Inst(1));
        i.map_operands(|o| match o {
            Operand::Inst(k) => Operand::Inst(k + 10),
            c => c,
        });
        assert_eq!(i, Inst::Bin(BinOp::Add, Operand::Inst(10), Operand::Inst(11)));
    }

    #[test]
    fn for_each_seq_visits_nested_sequences() {
        let mk = || InstSeq::constant(1.0);
        let mut ir = KernelIr {
            program_id: "t".into(),
            precision: Precision::F64,
            params: Params::default(),
            vars: Arc::default(),
            body: vec![
                Node::Store { target: StoreTarget::Var(0), seq: mk() },
                Node::If {
                    lhs: mk(),
                    op: CmpOp::Lt,
                    rhs: mk(),
                    body: vec![Node::For {
                        var: 1,
                        bound: 0,
                        body: vec![Node::Store { target: StoreTarget::Arr(0, 1), seq: mk() }],
                    }],
                },
            ],
            flags: CompileFlags::default(),
        };
        let mut count = 0;
        ir.for_each_seq_mut(&mut |_| count += 1);
        assert_eq!(count, 4);
        let mut shared = 0;
        ir.for_each_seq(&mut |_| shared += 1);
        assert_eq!(shared, 4);
    }

    #[test]
    fn constant_seq_has_no_insts() {
        let s = InstSeq::constant(2.5);
        assert!(s.insts.is_empty());
        assert_eq!(s.result, Operand::Const(2.5));
    }
}
