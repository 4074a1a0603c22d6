//! Source emission: render a [`Program`] as compilable CUDA or HIP code.
//!
//! The two dialects share the kernel verbatim (HIP is "a subset of CUDA" —
//! paper §III-D: `__global__` is common) and differ in the host code:
//! headers, the runtime API prefix (`cudaMalloc` vs `hipMalloc`) and the
//! kernel-launch syntax (`compute<<<1,1>>>(…)` vs
//! `hipLaunchKernelGGL(compute, dim3(1), dim3(1), 0, 0, …)`). These are
//! exactly the spots the `hipify` crate rewrites.

use crate::ast::*;
use crate::inputs::ARRAY_LEN;
use fpcore::literal;
use std::fmt::Write as _;

/// Source dialect to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// CUDA (`.cu`), compiled by the simulated nvcc.
    Cuda,
    /// HIP (`.hip`), compiled by the simulated hipcc.
    Hip,
}

impl Dialect {
    /// File extension used for compiler matching (paper §III-D).
    pub fn extension(self) -> &'static str {
        match self {
            Dialect::Cuda => "cu",
            Dialect::Hip => "hip",
        }
    }
}

/// Emit the complete translation unit (kernel + host `main`), written
/// into one buffer.
pub fn emit(program: &Program, dialect: Dialect) -> String {
    let mut out = String::with_capacity(4096);
    if dialect == Dialect::Hip {
        out.push_str("#include \"hip/hip_runtime.h\"\n");
    }
    out.push_str("#include <cstdio>\n#include <cstdlib>\n#include <cmath>\n\n");
    write_kernel(&mut out, program);
    out.push('\n');
    write_main(&mut out, program, dialect);
    out
}

/// Emit only the `__global__ void compute(...) { ... }` kernel (identical
/// in both dialects; this is what the parser reads back).
pub fn emit_kernel(program: &Program) -> String {
    let mut out = String::with_capacity(2048);
    write_kernel(&mut out, program);
    out
}

fn write_kernel(out: &mut String, program: &Program) {
    let ty = program.precision.c_type();
    out.push_str("__global__ /* __global__ is used for device run */\n");
    out.push_str("void compute(");
    for (i, p) in program.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = match p.ty {
            ParamType::Float => write!(out, "{ty} {}", p.name),
            ParamType::Int => write!(out, "int {}", p.name),
            ParamType::FloatArray => write!(out, "{ty} * {}", p.name),
        };
    }
    out.push_str(") {\n");
    for s in &program.body {
        write_stmt(out, s, program.precision, 1);
    }
    out.push_str("  printf(\"%.17g\\n\", comp);\n}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_stmt(out: &mut String, s: &Stmt, prec: Precision, level: usize) {
    indent(out, level);
    match s {
        Stmt::DeclTmp { name, init } => {
            let _ = write!(out, "{} {} = ", prec.c_type(), name);
            write_expr(out, init, prec);
            out.push_str(";\n");
        }
        Stmt::Assign { target, op, value } => {
            let _ = match target {
                LValue::Var(v) => write!(out, "{v} {} ", op.symbol()),
                LValue::Index(a, i) => write!(out, "{a}[{i}] {} ", op.symbol()),
            };
            write_expr(out, value, prec);
            out.push_str(";\n");
        }
        Stmt::If { cond, body } => {
            out.push_str("if (");
            write_expr(out, &cond.lhs, prec);
            let _ = write!(out, " {} ", cond.op.symbol());
            write_expr(out, &cond.rhs, prec);
            out.push_str(") {\n");
            for s in body {
                write_stmt(out, s, prec, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::For { var, bound, body } => {
            let _ = writeln!(out, "for (int {var} = 0; {var} < {bound}; ++{var}) {{");
            for s in body {
                write_stmt(out, s, prec, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

/// Render one expression in C syntax, fully parenthesised so the parse is
/// unambiguous and the round trip is exact.
pub fn emit_expr(e: &Expr, prec: Precision) -> String {
    let mut out = String::new();
    write_expr(&mut out, e, prec);
    out
}

fn write_expr(out: &mut String, e: &Expr, prec: Precision) {
    match e {
        Expr::Lit(v) => {
            let _ = match prec {
                Precision::F64 => literal::write_varity(out, *v),
                Precision::F32 => literal::write_varity_f32(out, *v as f32),
            };
        }
        Expr::Var(v) => out.push_str(v),
        Expr::Index(a, i) => {
            let _ = write!(out, "{a}[{i}]");
        }
        Expr::Neg(inner) => {
            out.push_str("-(");
            write_expr(out, inner, prec);
            out.push(')');
        }
        Expr::Bin(op, l, r) => {
            out.push('(');
            write_expr(out, l, prec);
            let _ = write!(out, " {} ", op.symbol());
            write_expr(out, r, prec);
            out.push(')');
        }
        Expr::Call(f, args) => {
            out.push_str(f.c_name());
            if prec == Precision::F32 {
                out.push('f');
            }
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, prec);
            }
            out.push(')');
        }
        Expr::ThreadIdx => {
            let _ = write!(out, "(({})threadIdx.x)", prec.c_type());
        }
    }
}

fn write_main(out: &mut String, program: &Program, dialect: Dialect) {
    let ty = program.precision.c_type();
    let (malloc, memcpy, h2d, sync, free) = match dialect {
        Dialect::Cuda => (
            "cudaMalloc",
            "cudaMemcpy",
            "cudaMemcpyHostToDevice",
            "cudaDeviceSynchronize",
            "cudaFree",
        ),
        Dialect::Hip => {
            ("hipMalloc", "hipMemcpy", "hipMemcpyHostToDevice", "hipDeviceSynchronize", "hipFree")
        }
    };

    out.push_str("int main(int argc, char** argv) {\n");
    for (i, p) in program.params.iter().enumerate() {
        let argi = i + 1;
        let name = &p.name;
        let _ = match p.ty {
            ParamType::Float => writeln!(out, "  {ty} {name} = atof(argv[{argi}]);"),
            ParamType::Int => writeln!(out, "  int {name} = atoi(argv[{argi}]);"),
            ParamType::FloatArray => writeln!(
                out,
                "  {ty} h_{name}_fill = atof(argv[{argi}]);\n  {ty} h_{name}[{ARRAY_LEN}];\n  \
                 for (int _k = 0; _k < {ARRAY_LEN}; ++_k) h_{name}[_k] = h_{name}_fill;\n  \
                 {ty} * {name};\n  {malloc}((void**)&{name}, sizeof({ty}) * {ARRAY_LEN});\n  \
                 {memcpy}({name}, h_{name}, sizeof({ty}) * {ARRAY_LEN}, {h2d});"
            ),
        };
    }
    out.push_str(match dialect {
        Dialect::Cuda => "  compute<<<1, 1>>>(",
        Dialect::Hip => "  hipLaunchKernelGGL(compute, dim3(1), dim3(1), 0, 0, ",
    });
    for (i, p) in program.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&p.name);
    }
    out.push_str(");\n");
    let _ = writeln!(out, "  {sync}();");
    for p in &program.params {
        if p.ty == ParamType::FloatArray {
            let _ = writeln!(out, "  {free}({});", p.name);
        }
    }
    out.push_str("  return 0;\n}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_program;
    use crate::grammar::GenConfig;

    fn sample(prec: Precision) -> Program {
        generate_program(&GenConfig::varity_default(prec), 42, 0)
    }

    #[test]
    fn cuda_source_has_cuda_launch() {
        let src = emit(&sample(Precision::F64), Dialect::Cuda);
        assert!(src.contains("compute<<<1, 1>>>("), "{src}");
        assert!(src.contains("cudaDeviceSynchronize();"));
        assert!(!src.contains("hip"));
    }

    #[test]
    fn hip_source_has_hip_launch() {
        let src = emit(&sample(Precision::F64), Dialect::Hip);
        assert!(src.contains("hipLaunchKernelGGL(compute, dim3(1), dim3(1), 0, 0,"));
        assert!(src.contains("#include \"hip/hip_runtime.h\""));
        assert!(src.contains("hipDeviceSynchronize();"));
        assert!(!src.contains("<<<"));
        assert!(!src.contains("cuda"));
    }

    #[test]
    fn kernel_is_shared_between_dialects() {
        let p = sample(Precision::F64);
        let cuda = emit(&p, Dialect::Cuda);
        let hip = emit(&p, Dialect::Hip);
        let k = emit_kernel(&p);
        assert!(cuda.contains(&k));
        assert!(hip.contains(&k));
    }

    #[test]
    fn kernel_prints_comp_with_g17() {
        let k = emit_kernel(&sample(Precision::F64));
        assert!(k.contains("printf(\"%.17g\\n\", comp);"));
        assert!(k.starts_with("__global__"));
    }

    #[test]
    fn fp32_kernel_uses_float_and_f_suffixes() {
        let p = sample(Precision::F32);
        let k = emit_kernel(&p);
        assert!(k.contains("void compute(float comp"), "{k}");
        assert!(!k.contains("double"));
        // every literal carries the F suffix
        for f in p.math_calls() {
            assert!(
                k.contains(&format!("{}f(", f.c_name()))
                    || !k.contains(&format!("{}(", f.c_name())),
                "FP64 call {} leaked into FP32 kernel:\n{k}",
                f.c_name()
            );
        }
    }

    #[test]
    fn expr_emission_is_fully_parenthesized() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Var("a".into()), Expr::Var("b".into())),
            Expr::Lit(1.5),
        );
        assert_eq!(emit_expr(&e, Precision::F64), "((a * b) + +1.5000E0)");
        assert_eq!(emit_expr(&e, Precision::F32), "((a * b) + +1.5000E0F)");
    }

    #[test]
    fn array_params_get_alloc_and_copy() {
        let mut cfg = GenConfig::varity_default(Precision::F64);
        cfg.num_array_params = 2;
        let p = generate_program(&cfg, 1, 0);
        let cuda = emit(&p, Dialect::Cuda);
        assert_eq!(cuda.matches("cudaMalloc").count(), 2);
        assert_eq!(cuda.matches("cudaMemcpyHostToDevice").count(), 2);
        assert_eq!(cuda.matches("cudaFree").count(), 2);
        let hip = emit(&p, Dialect::Hip);
        assert_eq!(hip.matches("hipMalloc").count(), 2);
    }

    #[test]
    fn dialect_extensions_match_compiler_matching_rules() {
        assert_eq!(Dialect::Cuda.extension(), "cu");
        assert_eq!(Dialect::Hip.extension(), "hip");
    }

    #[test]
    fn emitted_source_resembles_fig2_structure() {
        // sanity: kernel contains the constructs of Table III
        let mut found_loop = false;
        let mut found_if = false;
        for i in 0..50 {
            let p = generate_program(&GenConfig::varity_default(Precision::F64), 3, i);
            let k = emit_kernel(&p);
            found_loop |= k.contains("for (int i = 0; i < var_1; ++i) {");
            found_if |= k.contains("if (");
        }
        assert!(found_loop, "no loops in 50 programs");
        assert!(found_if, "no ifs in 50 programs");
    }
}
