//! The operation-cost model behind simulated runtimes (paper Table I).
//!
//! Costs are in abstract "issue slots" loosely modeled on V100/MI250
//! throughput ratios: FP64 ALU ops are half-rate, division and accurate
//! math-library calls are expensive multi-instruction sequences, and the
//! fast-math intrinsics are the cheap SFU paths. A per-level overhead
//! multiplier stands in for register allocation / scheduling quality so
//! `-O0` binaries are slower even at equal operation counts.

use crate::ir::{CompileFlags, Inst};
use progen::ast::{BinOp, Precision};

/// Cost of executing one instruction, in issue slots.
pub fn inst_cost(inst: &Inst, prec: Precision, flags: CompileFlags) -> u64 {
    let f64x = prec == Precision::F64;
    match inst {
        Inst::Const(_) => 0,
        Inst::ReadVar(_) | Inst::ReadIntAsFloat(_) | Inst::ReadThreadIdx => 1,
        Inst::ReadArr(..) => 4, // memory access
        Inst::Neg(_) => 1,
        Inst::Bin(op, _, _) => match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                if f64x {
                    2
                } else {
                    1
                }
            }
            BinOp::Div => {
                if f64x {
                    16
                } else {
                    8
                }
            }
        },
        Inst::Fma(..) | Inst::Fms(..) | Inst::Fnma(..) => {
            if f64x {
                2
            } else {
                1
            }
        }
        Inst::Rcp(_) => 2, // SFU approximate reciprocal
        Inst::Call(f, _) => {
            let fast = flags.fast_math && f.has_fast_f32_variant() && !f64x;
            if fast {
                4
            } else if f64x {
                40
            } else {
                16
            }
        }
    }
}

/// Per-iteration loop overhead (counter update + branch).
pub const LOOP_OVERHEAD: u64 = 2;

/// Per-level codegen-quality multiplier, ×100 (O0 spills everything; O1+
/// allocate registers; O2/O3 schedule better).
pub const LEVEL_OVERHEAD_X100: [u64; 5] = [400, 150, 115, 100, 100];

/// Scale a raw slot count by the level multiplier.
pub fn scaled_cost(raw_slots: u64, opt_level_index: u8) -> u64 {
    let idx = (opt_level_index as usize).min(LEVEL_OVERHEAD_X100.len() - 1);
    raw_slots * LEVEL_OVERHEAD_X100[idx] / 100
}

/// Convert issue slots to simulated seconds (a nominal 1 GHz / IPC=1
/// single lane — only ratios matter for the tables).
pub fn slots_to_seconds(slots: u64) -> f64 {
    slots as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Operand;
    use gpusim::mathlib::MathFunc;

    const O0: CompileFlags = CompileFlags { fast_math: false, opt_level_index: 0 };
    const FM: CompileFlags = CompileFlags { fast_math: true, opt_level_index: 4 };

    #[test]
    fn fp64_ops_cost_double() {
        let add = Inst::Bin(BinOp::Add, Operand::Const(1.0), Operand::Const(2.0));
        assert_eq!(inst_cost(&add, Precision::F32, O0) * 2, inst_cost(&add, Precision::F64, O0));
    }

    #[test]
    fn division_is_expensive() {
        let div = Inst::Bin(BinOp::Div, Operand::Const(1.0), Operand::Const(2.0));
        let add = Inst::Bin(BinOp::Add, Operand::Const(1.0), Operand::Const(2.0));
        assert!(inst_cost(&div, Precision::F32, O0) >= 8 * inst_cost(&add, Precision::F32, O0));
    }

    #[test]
    fn fast_math_calls_are_cheaper_f32() {
        let call = Inst::Call(MathFunc::Sin, [Operand::Const(1.0)].into());
        let slow = inst_cost(&call, Precision::F32, O0);
        let fast = inst_cost(&call, Precision::F32, FM);
        assert!(fast < slow, "fast={fast} slow={slow}");
        // FP64 has no fast intrinsics: cost unchanged
        assert_eq!(inst_cost(&call, Precision::F64, O0), inst_cost(&call, Precision::F64, FM));
    }

    #[test]
    fn recip_plus_mul_beats_division() {
        let div = Inst::Bin(BinOp::Div, Operand::Const(1.0), Operand::Const(2.0));
        let mul = Inst::Bin(BinOp::Mul, Operand::Const(1.0), Operand::Const(2.0));
        let rcp = Inst::Rcp(Operand::Const(2.0));
        let fused = inst_cost(&mul, Precision::F32, FM) + inst_cost(&rcp, Precision::F32, FM);
        assert!(fused < inst_cost(&div, Precision::F32, O0));
    }

    #[test]
    fn level_scaling_is_monotone_nonincreasing() {
        let raw = 1000;
        let mut prev = u64::MAX;
        for lvl in 0..5 {
            let s = scaled_cost(raw, lvl);
            assert!(s <= prev, "level {lvl}");
            prev = s;
        }
        assert_eq!(scaled_cost(raw, 0), 4000);
        assert_eq!(scaled_cost(raw, 3), 1000);
    }

    #[test]
    fn folded_constants_are_free() {
        assert_eq!(inst_cost(&Inst::Const(3.0), Precision::F64, O0), 0);
    }
}
