//! Human-readable IR listings (the `--emit-ir` debugging view).
//!
//! The listing shows each instruction with its destination register `%n`,
//! structured control flow with indentation, and the compilation flags —
//! the view used when diffing what the two pipelines did to the same
//! source:
//!
//! ```text
//! kernel varity_fp64_000007 [FP64, O3, fast-math=off]
//!   store comp:
//!     %0 = read comp
//!     %1 = read var_2
//!     %2 = fma %1, %1, %0
//!     -> %2
//! ```

use crate::ir::{Inst, InstSeq, KernelIr, Node, Operand, StoreTarget, Vars};
use std::fmt::Write as _;

/// Render a kernel as a readable listing.
pub fn render_ir(ir: &KernelIr) -> String {
    let mut out = String::new();
    let fm = if ir.flags.fast_math { "on" } else { "off" };
    let _ = writeln!(
        out,
        "kernel {} [{}, O-index {}, fast-math={fm}]",
        ir.program_id,
        ir.precision.label(),
        ir.flags.opt_level_index
    );
    render_nodes(&mut out, &ir.vars, &ir.body, 1);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn render_nodes(out: &mut String, vars: &Vars, nodes: &[Node], level: usize) {
    for node in nodes {
        match node {
            Node::Store { target, seq } => {
                indent(out, level);
                let _ = match *target {
                    StoreTarget::Var(v) => writeln!(out, "store {}:", vars.floats[v]),
                    StoreTarget::Arr(a, i) => {
                        writeln!(out, "store {}[{}]:", vars.arrays[a], vars.ints[i])
                    }
                };
                render_seq(out, vars, seq, level + 1);
            }
            Node::If { lhs, op, rhs, body } => {
                indent(out, level);
                out.push_str("if:\n");
                indent(out, level + 1);
                out.push_str("lhs:\n");
                render_seq(out, vars, lhs, level + 2);
                indent(out, level + 1);
                let _ = writeln!(out, "cmp {}", op.symbol());
                indent(out, level + 1);
                out.push_str("rhs:\n");
                render_seq(out, vars, rhs, level + 2);
                indent(out, level + 1);
                out.push_str("then:\n");
                render_nodes(out, vars, body, level + 2);
            }
            Node::For { var, bound, body } => {
                indent(out, level);
                let _ = writeln!(out, "for {} in 0..{}:", vars.ints[*var], vars.ints[*bound]);
                render_nodes(out, vars, body, level + 1);
            }
        }
    }
}

fn render_seq(out: &mut String, vars: &Vars, seq: &InstSeq, level: usize) {
    for (i, inst) in seq.insts.iter().enumerate() {
        indent(out, level);
        let _ = writeln!(out, "%{i} = {}", render_inst(vars, inst));
    }
    indent(out, level);
    let _ = writeln!(out, "-> {}", render_operand(seq.result));
}

fn render_operand(o: Operand) -> String {
    match o {
        Operand::Inst(i) => format!("%{i}"),
        // a NaN shows its sign and payload: `-nan` and `nan` differ
        // after fast-math rewrites (the paper's case study 3)
        Operand::Const(c) if c.is_nan() => {
            let sign = if c.is_sign_negative() { "-" } else { "" };
            format!("const {sign}nan(0x{:016x})", c.to_bits())
        }
        Operand::Const(c) => format!("const {c:e}"),
    }
}

fn render_inst(vars: &Vars, inst: &Inst) -> String {
    match inst {
        Inst::ReadVar(v) => format!("read {}", vars.floats[*v]),
        Inst::ReadIntAsFloat(v) => format!("read {}", vars.ints[*v]),
        Inst::ReadArr(a, i) => format!("read {}[{}]", vars.arrays[*a], vars.ints[*i]),
        Inst::ReadThreadIdx => "read threadIdx.x".into(),
        Inst::Const(c) => render_operand(Operand::Const(*c)),
        Inst::Neg(a) => format!("neg {}", render_operand(*a)),
        Inst::Rcp(a) => format!("rcp.approx {}", render_operand(*a)),
        Inst::Bin(op, a, b) => format!(
            "{} {}, {}",
            match op {
                progen::ast::BinOp::Add => "add",
                progen::ast::BinOp::Sub => "sub",
                progen::ast::BinOp::Mul => "mul",
                progen::ast::BinOp::Div => "div",
            },
            render_operand(*a),
            render_operand(*b)
        ),
        Inst::Fma(a, b, c) => {
            format!("fma {}, {}, {}", render_operand(*a), render_operand(*b), render_operand(*c))
        }
        Inst::Fms(a, b, c) => {
            format!("fms {}, {}, {}", render_operand(*a), render_operand(*b), render_operand(*c))
        }
        Inst::Fnma(a, b, c) => {
            format!("fnma {}, {}, {}", render_operand(*a), render_operand(*b), render_operand(*c))
        }
        Inst::Call(f, args) => {
            let args: Vec<String> = args.iter().map(|a| render_operand(*a)).collect();
            format!("call {f}({})", args.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, OptLevel, Toolchain};
    use progen::parser::parse_kernel;

    fn kernel(src: &str, opt: OptLevel, tc: Toolchain) -> KernelIr {
        let p = parse_kernel(src, "listing").unwrap();
        compile(&p, tc, opt, false)
    }

    const SRC: &str = "__global__ void compute(double comp, double var_2) {\n\
                       comp += var_2 * var_2;\n\
                       if (comp >= 1.0) { comp -= sqrt(var_2); } }";

    #[test]
    fn listing_contains_structure_and_registers() {
        let l = render_ir(&kernel(SRC, OptLevel::O0, Toolchain::Nvcc));
        assert!(l.contains("kernel listing [FP64"), "{l}");
        assert!(l.contains("store comp:"), "{l}");
        assert!(l.contains("%0 = read"), "{l}");
        assert!(l.contains("if:"), "{l}");
        assert!(l.contains("call sqrt(%0)"), "{l}");
    }

    #[test]
    fn o1_listing_shows_the_contraction() {
        let o0 = render_ir(&kernel(SRC, OptLevel::O0, Toolchain::Nvcc));
        let o1 = render_ir(&kernel(SRC, OptLevel::O1, Toolchain::Nvcc));
        assert!(o0.contains("mul "), "{o0}");
        assert!(!o0.contains("fma "), "{o0}");
        assert!(o1.contains("fma "), "{o1}");
    }

    #[test]
    fn hipcc_listing_shows_fms_fusion() {
        let src = "__global__ void compute(double comp, double var_2) {\n\
                   comp = (var_2 * var_2) - comp; }";
        let l = render_ir(&kernel(src, OptLevel::O1, Toolchain::Hipcc));
        assert!(l.contains("fms "), "{l}");
        let nv = render_ir(&kernel(src, OptLevel::O1, Toolchain::Nvcc));
        assert!(!nv.contains("fms "), "{nv}");
    }

    #[test]
    fn loops_render_with_bounds() {
        let src = "__global__ void compute(double comp, int var_1) {\n\
                   for (int i = 0; i < var_1; ++i) { comp += 1.0; } }";
        let l = render_ir(&kernel(src, OptLevel::O0, Toolchain::Nvcc));
        assert!(l.contains("for i in 0..var_1:"), "{l}");
    }

    #[test]
    fn nan_constants_render_readably() {
        let mut seq = InstSeq { insts: vec![], result: Operand::Const(f64::NAN) };
        let _ = seq.push(Inst::Const(f64::NAN));
        let mut out = String::new();
        render_seq(&mut out, &Vars::default(), &seq, 0);
        assert!(out.contains("const nan"), "{out}");

        // a negative NaN renders differently, with its sign and bits
        let negative = InstSeq { insts: vec![], result: Operand::Const(-f64::NAN) };
        let mut neg = String::new();
        render_seq(&mut neg, &Vars::default(), &negative, 0);
        assert!(neg.contains("const -nan(0xfff8000000000000)"), "{neg}");
        assert_ne!(
            render_operand(Operand::Const(f64::NAN)),
            render_operand(Operand::Const(-f64::NAN))
        );
        // and the payload tells NaNs of one sign apart
        let payload = f64::from_bits(f64::NAN.to_bits() | 1);
        assert_ne!(
            render_operand(Operand::Const(payload)),
            render_operand(Operand::Const(f64::NAN))
        );
    }
}
