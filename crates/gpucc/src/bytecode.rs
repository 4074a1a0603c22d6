//! Flat bytecode for the compiled execution tier (see [`crate::vm`]).
//!
//! [`lower`] turns a [`KernelIr`] body into a single linear [`Code`]
//! object: straight-line value instructions over a contiguous, reused
//! register file, plus explicit branch/loop opcodes with pre-patched jump
//! targets. Lowering happens once per compiled kernel; the dispatch loop
//! in [`crate::vm`] then runs the op list with no tree walking and no
//! per-sequence allocation (the interpreter allocates a fresh value
//! vector per [`InstSeq`] evaluation — exactly the overhead this tier
//! removes). The IR's variable slots are the vm's slots as they are.
//!
//! Register allocation is a linear scan per instruction sequence: every
//! SSA temporary (operands only ever reference *earlier* instructions in
//! the same sequence) gets a register from a free list and returns to it
//! at its last use, so the register file stays as small as the widest
//! live range, not the longest sequence. Each value op carries its
//! precomputed issue-slot cost ([`crate::cost::inst_cost`] is static in
//! the instruction, precision and flags), so the executor adds a
//! constant instead of re-deriving the cost table per instruction.

use crate::cost;
use crate::ir::{CompileFlags, Inst, InstSeq, KernelIr, Node, Operand, StoreTarget};
use gpusim::mathlib::MathFunc;
use progen::ast::{BinOp, CmpOp, Precision};

/// A value operand: a register or an immediate constant (converted to the
/// kernel precision when read, mirroring the interpreter).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Src {
    /// Register-file index.
    Reg(u32),
    /// Immediate constant.
    Const(f64),
}

/// Which fused multiply-add variant a [`Op::Fma`] encodes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FmaKind {
    /// `a*b + c`
    Fma,
    /// `a*b - c`
    Fms,
    /// `c - a*b`
    Fnma,
}

/// One bytecode operation.
///
/// Value-producing ops (everything with a `dst`) retire one budget step
/// each, exactly like one IR instruction in the interpreter;
/// store/branch/loop ops only add cost. `cost` fields are precomputed
/// where the cost table varies with the operator or flags.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Load an immediate (cost 0).
    Const {
        /// Destination register.
        dst: u32,
        /// The constant.
        v: f64,
    },
    /// Read a float slot (cost 1).
    ReadVar {
        /// Destination register.
        dst: u32,
        /// Float slot.
        slot: u32,
    },
    /// Read an int slot promoted to the kernel precision (cost 1).
    ReadIntAsFloat {
        /// Destination register.
        dst: u32,
        /// Int slot.
        slot: u32,
    },
    /// Read `array[int_slot]` (cost 4).
    ReadArr {
        /// Destination register.
        dst: u32,
        /// Array slot.
        arr: u32,
        /// Index int slot.
        idx: u32,
    },
    /// Read `threadIdx.x` (cost 1).
    ReadThreadIdx {
        /// Destination register.
        dst: u32,
    },
    /// Negation — no DAZ/FTZ, no exception tracking (cost 1).
    Neg {
        /// Destination register.
        dst: u32,
        /// Operand.
        a: Src,
    },
    /// Binary arithmetic with DAZ/FTZ and exception detection.
    Bin {
        /// Destination register.
        dst: u32,
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
        /// Precomputed issue-slot cost.
        cost: u8,
    },
    /// Fused multiply-add family with DAZ/FTZ.
    Fma {
        /// Destination register.
        dst: u32,
        /// Which fused variant.
        kind: FmaKind,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
        /// Third operand.
        c: Src,
        /// Precomputed issue-slot cost.
        cost: u8,
    },
    /// Approximate reciprocal — no DAZ on the operand, no FTZ on the
    /// result (cost 2).
    Rcp {
        /// Destination register.
        dst: u32,
        /// Operand.
        a: Src,
    },
    /// Math-library call (DAZ'd operands, FTZ'd result).
    Call {
        /// Destination register.
        dst: u32,
        /// Library function.
        f: MathFunc,
        /// First argument (absent arguments read as zero).
        a: Option<Src>,
        /// Second argument.
        b: Option<Src>,
        /// Precomputed issue-slot cost.
        cost: u8,
    },
    /// Store into a float slot (no cost, no step).
    StoreVar {
        /// Float slot.
        slot: u32,
        /// Value source.
        src: Src,
    },
    /// Store into `array[int_slot]` (cost 4, no step).
    StoreArr {
        /// Array slot.
        arr: u32,
        /// Index int slot.
        idx: u32,
        /// Value source.
        src: Src,
    },
    /// Compare and skip the body when false (cost 2, no step).
    Branch {
        /// Comparison operator.
        op: CmpOp,
        /// Left side.
        a: Src,
        /// Right side.
        b: Src,
        /// Jump target when the comparison is false.
        skip_to: u32,
    },
    /// Loop entry: read and clamp the bound, set the induction variable
    /// to 0, or jump past the loop without touching it when the trip
    /// count is zero.
    LoopInit {
        /// Induction int slot.
        var: u32,
        /// Bound int slot.
        bound: u32,
        /// Per-loop-site limit slot holding the clamped trip count.
        limit: u32,
        /// Jump target when the loop runs zero iterations.
        exit_to: u32,
    },
    /// Loop back-edge: advance the induction variable and jump to the
    /// body start while iterations remain.
    LoopBack {
        /// Induction int slot.
        var: u32,
        /// Limit slot written by the matching [`Op::LoopInit`].
        limit: u32,
        /// Jump target of the body start.
        back_to: u32,
    },
}

/// A lowered kernel body: the flat op list plus the scratch-file sizes
/// the executor must provision.
#[derive(Debug, Clone)]
pub(crate) struct Code {
    /// Operations in execution order.
    pub ops: Vec<Op>,
    /// Register-file size (peak live registers across all sequences).
    pub n_regs: usize,
    /// Loop-limit slots (one per `For` site).
    pub n_limits: usize,
}

/// Lower a kernel body to bytecode.
pub(crate) fn lower(ir: &KernelIr) -> Code {
    let mut l = Lowerer {
        ops: Vec::new(),
        free: Vec::new(),
        high: 0,
        n_limits: 0,
        precision: ir.precision,
        flags: ir.flags,
    };
    l.lower_nodes(&ir.body);
    Code { ops: l.ops, n_regs: l.high as usize, n_limits: l.n_limits }
}

struct Lowerer {
    ops: Vec<Op>,
    free: Vec<u32>,
    high: u32,
    n_limits: usize,
    precision: Precision,
    flags: CompileFlags,
}

impl Lowerer {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let r = self.high;
            self.high += 1;
            r
        })
    }

    fn release(&mut self, s: Src) {
        if let Src::Reg(r) = s {
            self.free.push(r);
        }
    }

    fn lower_nodes(&mut self, nodes: &[Node]) {
        for node in nodes {
            match node {
                Node::Store { target, seq } => {
                    let src = self.lower_seq(seq);
                    match *target {
                        StoreTarget::Var(slot) => {
                            self.ops.push(Op::StoreVar { slot: slot as u32, src })
                        }
                        StoreTarget::Arr(arr, idx) => {
                            self.ops.push(Op::StoreArr { arr: arr as u32, idx: idx as u32, src })
                        }
                    }
                    self.release(src);
                }
                Node::If { lhs, op, rhs, body } => {
                    // The lhs result register stays pinned (not released)
                    // while the rhs sequence lowers, so the rhs cannot
                    // clobber it before the branch reads both.
                    let a = self.lower_seq(lhs);
                    let b = self.lower_seq(rhs);
                    let branch_at = self.ops.len();
                    self.ops.push(Op::Branch { op: *op, a, b, skip_to: 0 });
                    self.release(a);
                    self.release(b);
                    self.lower_nodes(body);
                    let after = self.ops.len() as u32;
                    if let Op::Branch { skip_to, .. } = &mut self.ops[branch_at] {
                        *skip_to = after;
                    }
                }
                Node::For { var, bound, body } => {
                    let limit = self.n_limits as u32;
                    self.n_limits += 1;
                    let init_at = self.ops.len();
                    self.ops.push(Op::LoopInit {
                        var: *var as u32,
                        bound: *bound as u32,
                        limit,
                        exit_to: 0,
                    });
                    let body_at = self.ops.len() as u32;
                    self.lower_nodes(body);
                    self.ops.push(Op::LoopBack { var: *var as u32, limit, back_to: body_at });
                    let after = self.ops.len() as u32;
                    if let Op::LoopInit { exit_to, .. } = &mut self.ops[init_at] {
                        *exit_to = after;
                    }
                }
            }
        }
    }

    /// Lower one instruction sequence. Every temporary's register returns
    /// to the free list at its last use; the returned result source stays
    /// live until the caller `release`s it.
    fn lower_seq(&mut self, seq: &InstSeq) -> Src {
        let n = seq.insts.len();
        // Last instruction index that reads each temporary (the sequence
        // result pins its temporary past the end).
        let mut last_use: Vec<Option<usize>> = vec![None; n];
        for (j, inst) in seq.insts.iter().enumerate() {
            inst.for_each_operand(|o| {
                if let Operand::Inst(i) = o {
                    last_use[i] = Some(j);
                }
            });
        }
        let result_inst = match seq.result {
            Operand::Inst(i) => Some(i),
            Operand::Const(_) => None,
        };

        let mut regs: Vec<u32> = vec![0; n];
        let mut freed: Vec<bool> = vec![false; n];
        for (j, inst) in seq.insts.iter().enumerate() {
            let src_of = |o: Operand, regs: &[u32]| -> Src {
                match o {
                    Operand::Const(c) => Src::Const(c),
                    Operand::Inst(i) => Src::Reg(regs[i]),
                }
            };
            // Free operands at their last use first, so the destination
            // can reuse an expiring operand's register (the executor reads
            // operands before writing the destination).
            inst.for_each_operand(|o| {
                if let Operand::Inst(i) = o {
                    if last_use[i] == Some(j) && result_inst != Some(i) && !freed[i] {
                        freed[i] = true;
                        self.free.push(regs[i]);
                    }
                }
            });
            let dst = self.alloc();
            regs[j] = dst;
            let op = match inst {
                Inst::Const(c) => Op::Const { dst, v: *c },
                Inst::ReadVar(slot) => Op::ReadVar { dst, slot: *slot as u32 },
                Inst::ReadIntAsFloat(slot) => Op::ReadIntAsFloat { dst, slot: *slot as u32 },
                Inst::ReadArr(arr, idx) => Op::ReadArr { dst, arr: *arr as u32, idx: *idx as u32 },
                Inst::ReadThreadIdx => Op::ReadThreadIdx { dst },
                Inst::Neg(a) => Op::Neg { dst, a: src_of(*a, &regs) },
                Inst::Bin(op, a, b) => Op::Bin {
                    dst,
                    op: *op,
                    a: src_of(*a, &regs),
                    b: src_of(*b, &regs),
                    cost: self.cost_of(inst),
                },
                Inst::Fma(a, b, c) => Op::Fma {
                    dst,
                    kind: FmaKind::Fma,
                    a: src_of(*a, &regs),
                    b: src_of(*b, &regs),
                    c: src_of(*c, &regs),
                    cost: self.cost_of(inst),
                },
                Inst::Fms(a, b, c) => Op::Fma {
                    dst,
                    kind: FmaKind::Fms,
                    a: src_of(*a, &regs),
                    b: src_of(*b, &regs),
                    c: src_of(*c, &regs),
                    cost: self.cost_of(inst),
                },
                Inst::Fnma(a, b, c) => Op::Fma {
                    dst,
                    kind: FmaKind::Fnma,
                    a: src_of(*a, &regs),
                    b: src_of(*b, &regs),
                    c: src_of(*c, &regs),
                    cost: self.cost_of(inst),
                },
                Inst::Rcp(a) => Op::Rcp { dst, a: src_of(*a, &regs) },
                Inst::Call(f, args) => Op::Call {
                    dst,
                    f: *f,
                    a: args.first().map(|o| src_of(*o, &regs)),
                    b: args.get(1).map(|o| src_of(*o, &regs)),
                    cost: self.cost_of(inst),
                },
            };
            self.ops.push(op);
            // An unused temporary (no later reader, not the result) still
            // executes — for step, cost and exception parity — but its
            // register is immediately reusable.
            if last_use[j].is_none() && result_inst != Some(j) {
                self.free.push(dst);
            }
        }

        let result = match seq.result {
            Operand::Const(c) => Src::Const(c),
            Operand::Inst(i) => Src::Reg(regs[i]),
        };
        #[cfg(feature = "vm-inject")]
        let result = crate::vm_inject::clobber_seq_result(result, n);
        result
    }

    fn cost_of(&self, inst: &Inst) -> u8 {
        let c = cost::inst_cost(inst, self.precision, self.flags);
        debug_assert!(c <= u8::MAX as u64);
        c as u8
    }
}
