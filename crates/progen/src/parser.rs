//! Recursive-descent parser for the emitted kernel subset.
//!
//! Parses the `__global__ void compute(...) { ... }` function out of a
//! translation unit (host code before/after the kernel is ignored) and
//! rebuilds the [`Program`] AST. This is how HIPIFY-converted sources
//! re-enter the pipeline: text transformation → parse → compile.

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token};
use gpusim::mathlib::MathFunc;
use std::fmt;

/// A parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Token index where parsing failed.
    pub at: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { at: 0, message: e.to_string() }
    }
}

/// Parse the `compute` kernel out of CUDA/HIP source text.
///
/// `id` becomes the parsed program's identifier (source text carries none).
/// While telemetry is on, every call counts in `progen.parses`.
pub fn parse_kernel(src: &str, id: &str) -> Result<Program, ParseError> {
    if obs::enabled() {
        static PARSES: obs::Name = obs::Name::new("progen.parses");
        PARSES.add(1);
    }
    let tokens = tokenize(src)?;
    // find `__global__ ... void compute (`
    let mut start = None;
    for (i, t) in tokens.iter().enumerate() {
        if matches!(t, Token::Ident(s) if s == "__global__") {
            start = Some(i);
            break;
        }
    }
    let start =
        start.ok_or_else(|| ParseError { at: 0, message: "no __global__ kernel found".into() })?;
    let mut p = Parser { tokens: &tokens, pos: start };
    p.parse_program(id)
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<&Token, ParseError> {
        let t = self.tokens.get(self.pos).ok_or_else(|| ParseError {
            at: self.pos,
            message: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok(t)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { at: self.pos, message: message.into() })
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        let pos = self.pos;
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(ParseError { at: pos, message: format!("expected {want}, got {got}") })
        }
    }

    fn expect_ident(&mut self, want: &str) -> Result<(), ParseError> {
        let pos = self.pos;
        match self.next()? {
            Token::Ident(s) if s == want => Ok(()),
            got => Err(ParseError { at: pos, message: format!("expected `{want}`, got {got}") }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let pos = self.pos;
        match self.next()? {
            Token::Ident(s) => Ok(s.clone()),
            got => Err(ParseError { at: pos, message: format!("expected identifier, got {got}") }),
        }
    }

    fn parse_program(&mut self, id: &str) -> Result<Program, ParseError> {
        self.expect_ident("__global__")?;
        self.expect_ident("void")?;
        self.expect_ident("compute")?;
        self.expect(&Token::LParen)?;

        let mut params = Vec::new();
        let mut precision = None;
        loop {
            let pos = self.pos;
            let ty_name = self.ident()?;
            let ty = match ty_name.as_str() {
                "int" => ParamType::Int,
                "float" | "double" => {
                    let prec = if ty_name == "float" { Precision::F32 } else { Precision::F64 };
                    match precision {
                        None => precision = Some(prec),
                        Some(p) if p != prec => {
                            return Err(ParseError {
                                at: pos,
                                message: "mixed float/double parameters".into(),
                            })
                        }
                        _ => {}
                    }
                    if matches!(self.peek(), Some(Token::Star)) {
                        self.next()?;
                        ParamType::FloatArray
                    } else {
                        ParamType::Float
                    }
                }
                other => {
                    return Err(ParseError {
                        at: pos,
                        message: format!("unknown parameter type `{other}`"),
                    })
                }
            };
            let name = self.ident()?;
            params.push(Param { name, ty });
            match self.next()? {
                Token::Comma => continue,
                Token::RParen => break,
                got => {
                    let msg = format!("expected `,` or `)`, got {got}");
                    return Err(ParseError { at: self.pos - 1, message: msg });
                }
            }
        }
        let precision = precision.ok_or_else(|| ParseError {
            at: self.pos,
            message: "kernel has no floating-point parameters".into(),
        })?;

        let body = self.parse_block(precision)?;
        Ok(Program { id: id.to_string(), precision, params, body })
    }

    fn parse_block(&mut self, prec: Precision) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut stmts = Vec::new();
        loop {
            match self.peek() {
                Some(Token::RBrace) => {
                    self.next()?;
                    return Ok(stmts);
                }
                Some(_) => {
                    if let Some(s) = self.parse_stmt(prec)? {
                        stmts.push(s);
                    }
                }
                None => return self.err("unterminated block"),
            }
        }
    }

    /// Parse one statement; `printf` calls are consumed but yield `None`.
    fn parse_stmt(&mut self, prec: Precision) -> Result<Option<Stmt>, ParseError> {
        let pos = self.pos;
        match self.next()?.clone() {
            Token::Ident(kw) if kw == "if" => {
                self.expect(&Token::LParen)?;
                let lhs = self.parse_expr(prec)?;
                let op = self.parse_cmp_op()?;
                let rhs = self.parse_expr(prec)?;
                self.expect(&Token::RParen)?;
                let body = self.parse_block(prec)?;
                Ok(Some(Stmt::If { cond: Cond { op, lhs, rhs }, body }))
            }
            Token::Ident(kw) if kw == "for" => {
                self.expect(&Token::LParen)?;
                self.expect_ident("int")?;
                let var = self.ident()?;
                self.expect(&Token::Assign)?;
                match self.next()? {
                    Token::Int(0) => {}
                    got => {
                        let msg = format!("loops must start at 0, got {got}");
                        return Err(ParseError { at: self.pos - 1, message: msg });
                    }
                }
                self.expect(&Token::Semi)?;
                let v2 = self.ident()?;
                if v2 != var {
                    return self.err("loop condition variable mismatch");
                }
                self.expect(&Token::Lt)?;
                let bound = self.ident()?;
                self.expect(&Token::Semi)?;
                self.expect(&Token::PlusPlus)?;
                let v3 = self.ident()?;
                if v3 != var {
                    return self.err("loop increment variable mismatch");
                }
                self.expect(&Token::RParen)?;
                let body = self.parse_block(prec)?;
                Ok(Some(Stmt::For { var, bound, body }))
            }
            Token::Ident(kw) if kw == "printf" => {
                // consume to end of statement
                while !matches!(self.peek(), Some(Token::Semi) | None) {
                    self.next()?;
                }
                self.expect(&Token::Semi)?;
                Ok(None)
            }
            Token::Ident(kw) if kw == "double" || kw == "float" => {
                let declared = if kw == "float" { Precision::F32 } else { Precision::F64 };
                if declared != prec {
                    return Err(ParseError {
                        at: pos,
                        message: "temporary declared with the wrong precision".into(),
                    });
                }
                let name = self.ident()?;
                self.expect(&Token::Assign)?;
                let init = self.parse_expr(prec)?;
                self.expect(&Token::Semi)?;
                Ok(Some(Stmt::DeclTmp { name, init }))
            }
            Token::Ident(name) => {
                // assignment: `name [index]? op expr ;`
                let target = if matches!(self.peek(), Some(Token::LBracket)) {
                    self.next()?;
                    let idx = self.ident()?;
                    self.expect(&Token::RBracket)?;
                    LValue::Index(name, idx)
                } else {
                    LValue::Var(name)
                };
                let op_pos = self.pos;
                let op = match self.next()? {
                    Token::Assign => AssignOp::Set,
                    Token::PlusAssign => AssignOp::AddAssign,
                    Token::MinusAssign => AssignOp::SubAssign,
                    Token::StarAssign => AssignOp::MulAssign,
                    Token::SlashAssign => AssignOp::DivAssign,
                    got => {
                        let msg = format!("expected assignment operator, got {got}");
                        return Err(ParseError { at: op_pos, message: msg });
                    }
                };
                let value = self.parse_expr(prec)?;
                self.expect(&Token::Semi)?;
                Ok(Some(Stmt::Assign { target, op, value }))
            }
            got => Err(ParseError { at: pos, message: format!("unexpected token {got}") }),
        }
    }

    /// After a `(double)`/`(float)` cast: expects `threadIdx.x`.
    fn parse_thread_idx(&mut self) -> Result<Expr, ParseError> {
        self.expect_ident("threadIdx")?;
        self.expect(&Token::Dot)?;
        self.expect_ident("x")?;
        Ok(Expr::ThreadIdx)
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        let pos = self.pos;
        Ok(match self.next()? {
            Token::Lt => CmpOp::Lt,
            Token::Le => CmpOp::Le,
            Token::Gt => CmpOp::Gt,
            Token::Ge => CmpOp::Ge,
            Token::EqEq => CmpOp::Eq,
            Token::Ne => CmpOp::Ne,
            got => {
                return Err(ParseError {
                    at: pos,
                    message: format!("expected comparison operator, got {got}"),
                })
            }
        })
    }

    fn parse_expr(&mut self, prec: Precision) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_term(prec)?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.next()?;
            let rhs = self.parse_term(prec)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_term(&mut self, prec: Precision) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary(prec)?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.next()?;
            let rhs = self.parse_unary(prec)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_unary(&mut self, prec: Precision) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Plus) => {
                self.next()?;
                // unary plus is the identity; signed literals fold
                self.parse_unary(prec)
            }
            Some(Token::Minus) => {
                self.next()?;
                let inner = self.parse_unary(prec)?;
                // fold `-literal` into the literal, matching the emitter's
                // representation of negative constants
                Ok(match inner {
                    Expr::Lit(v) => Expr::Lit(-v),
                    other => Expr::Neg(Box::new(other)),
                })
            }
            _ => self.parse_primary(prec),
        }
    }

    fn parse_primary(&mut self, prec: Precision) -> Result<Expr, ParseError> {
        let pos = self.pos;
        match self.next()?.clone() {
            Token::Float(v, suffixed) => {
                let v = if suffixed || prec == Precision::F32 { v as f32 as f64 } else { v };
                Ok(Expr::Lit(v))
            }
            Token::Int(v) => Ok(Expr::Lit(v as f64)),
            Token::LParen => {
                // cast form: `(double)threadIdx.x` / `(float)threadIdx.x`
                if let Some(Token::Ident(ty)) = self.peek() {
                    if (ty == "double" || ty == "float")
                        && self.tokens.get(self.pos + 1) == Some(&Token::RParen)
                    {
                        self.next()?; // type
                        self.next()?; // `)`
                        return self.parse_thread_idx();
                    }
                }
                let e = self.parse_expr(prec)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) if name == "threadIdx" => {
                self.expect(&Token::Dot)?;
                self.expect_ident("x")?;
                Ok(Expr::ThreadIdx)
            }
            Token::Ident(name) => match self.peek() {
                Some(Token::LParen) => {
                    let func = MathFunc::from_c_name(&name).ok_or_else(|| ParseError {
                        at: pos,
                        message: format!("unknown function `{name}`"),
                    })?;
                    self.next()?;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.parse_expr(prec)?);
                            match self.next()? {
                                Token::Comma => continue,
                                Token::RParen => break,
                                got => {
                                    let msg = format!("expected `,` or `)`, got {got}");
                                    return Err(ParseError { at: self.pos - 1, message: msg });
                                }
                            }
                        }
                    } else {
                        self.next()?;
                    }
                    if args.len() != func.arity() {
                        return Err(ParseError {
                            at: pos,
                            message: format!(
                                "{name} expects {} args, got {}",
                                func.arity(),
                                args.len()
                            ),
                        });
                    }
                    Ok(Expr::Call(func, args))
                }
                Some(Token::LBracket) => {
                    self.next()?;
                    let idx = self.ident()?;
                    self.expect(&Token::RBracket)?;
                    Ok(Expr::Index(name, idx))
                }
                _ => Ok(Expr::Var(name)),
            },
            got => Err(ParseError { at: pos, message: format!("unexpected token {got}") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{emit, emit_kernel, Dialect};
    use crate::gen::generate_program;
    use crate::grammar::GenConfig;

    #[test]
    fn parses_fig5_kernel() {
        let src = r#"
__global__ /* __global__ is used for device run */
void compute(double comp) {
  double tmp_1 = +1.1147E-307;
  comp += tmp_1 / ceil(+1.5955E-125);
  printf("%.17g\n", comp);
}
"#;
        let p = parse_kernel(src, "fig5").unwrap();
        assert_eq!(p.precision, Precision::F64);
        assert_eq!(p.params.len(), 1);
        assert_eq!(p.body.len(), 2);
        match &p.body[0] {
            Stmt::DeclTmp { name, init } => {
                assert_eq!(name, "tmp_1");
                assert_eq!(init, &Expr::Lit(1.1147e-307));
            }
            other => panic!("expected decl, got {other:?}"),
        }
        match &p.body[1] {
            Stmt::Assign { op: AssignOp::AddAssign, value, .. } => {
                let want = Expr::bin(
                    BinOp::Div,
                    Expr::Var("tmp_1".into()),
                    Expr::Call(MathFunc::Ceil, vec![Expr::Lit(1.5955e-125)]),
                );
                assert_eq!(value, &want);
            }
            other => panic!("expected comp +=, got {other:?}"),
        }
    }

    #[test]
    fn parses_loops_and_conditions() {
        let src = r#"
__global__ void compute(double comp, int var_1, double var_2) {
  if (comp >= (var_2 * var_2)) {
    for (int i = 0; i < var_1; ++i) {
      comp -= sqrt(var_2 + -1.7976E3);
    }
  }
  printf("%.17g\n", comp);
}
"#;
        let p = parse_kernel(src, "t").unwrap();
        assert_eq!(p.loop_depth(), 1);
        match &p.body[0] {
            Stmt::If { cond, body } => {
                assert_eq!(cond.op, CmpOp::Ge);
                assert!(matches!(body[0], Stmt::For { .. }));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn negative_literals_fold() {
        let src = "__global__ void compute(double comp) { comp += -1.7744E-2; }";
        let p = parse_kernel(src, "t").unwrap();
        match &p.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(value, &Expr::Lit(-1.7744e-2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unary_minus_on_parenthesized_expr_stays_neg() {
        let src = "__global__ void compute(double comp) { comp += -(comp + 1.0); }";
        let p = parse_kernel(src, "t").unwrap();
        match &p.body[0] {
            Stmt::Assign { value, .. } => assert!(matches!(value, Expr::Neg(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fp32_source_parses_with_f_suffix_functions() {
        let src = "__global__ void compute(float comp, float var_2) { comp += cosf(var_2) * +1.5000E0F; }";
        let p = parse_kernel(src, "t").unwrap();
        assert_eq!(p.precision, Precision::F32);
        let calls = p.math_calls();
        assert_eq!(calls, vec![MathFunc::Cos]);
    }

    #[test]
    fn array_parameters_and_indexing() {
        let src = "__global__ void compute(double comp, int var_1, double * var_5) {\n\
                   for (int i = 0; i < var_1; ++i) { var_5[i] = comp; comp += var_5[i]; } }";
        let p = parse_kernel(src, "t").unwrap();
        assert!(p.uses_arrays());
        match &p.body[0] {
            Stmt::For { body, .. } => {
                assert!(matches!(&body[0], Stmt::Assign { target: LValue::Index(a, i), .. }
                    if a == "var_5" && i == "i"));
                assert!(
                    matches!(&body[1], Stmt::Assign { value: Expr::Bin(..), .. })
                        || matches!(&body[1], Stmt::Assign { value: Expr::Index(..), .. })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_function_is_an_error() {
        let src = "__global__ void compute(double comp) { comp += frobnicate(comp); }";
        let err = parse_kernel(src, "t").unwrap_err();
        assert!(err.message.contains("frobnicate"), "{err}");
    }

    #[test]
    fn missing_kernel_is_an_error() {
        let err = parse_kernel("int main() { return 0; }", "t").unwrap_err();
        assert!(err.message.contains("__global__"), "{err}");
    }

    #[test]
    fn operator_precedence_without_parens() {
        let src = "__global__ void compute(double comp) { comp = comp + comp * comp; }";
        let p = parse_kernel(src, "t").unwrap();
        match &p.body[0] {
            Stmt::Assign { value: Expr::Bin(BinOp::Add, _, rhs), .. } => {
                assert!(matches!(**rhs, Expr::Bin(BinOp::Mul, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn roundtrip_emit_parse_is_identity_fp64() {
        let cfg = GenConfig::varity_default(Precision::F64);
        for i in 0..100 {
            let p = generate_program(&cfg, 21, i);
            let src = emit_kernel(&p);
            let back =
                parse_kernel(&src, &p.id).unwrap_or_else(|e| panic!("program {i}: {e}\n{src}"));
            assert_eq!(p, back, "roundtrip mismatch for program {i}\n{src}");
        }
    }

    #[test]
    fn roundtrip_emit_parse_is_identity_fp32() {
        let cfg = GenConfig::varity_default(Precision::F32);
        for i in 0..100 {
            let p = generate_program(&cfg, 22, i);
            let src = emit_kernel(&p);
            let back =
                parse_kernel(&src, &p.id).unwrap_or_else(|e| panic!("program {i}: {e}\n{src}"));
            assert_eq!(p, back, "roundtrip mismatch for program {i}\n{src}");
        }
    }

    #[test]
    fn roundtrip_through_full_translation_units() {
        // host code (main, launches) must not confuse the kernel parser
        for dialect in [Dialect::Cuda, Dialect::Hip] {
            let cfg = GenConfig::varity_default(Precision::F64);
            for i in 0..20 {
                let p = generate_program(&cfg, 23, i);
                let src = emit(&p, dialect);
                let back =
                    parse_kernel(&src, &p.id).unwrap_or_else(|e| panic!("program {i}: {e}\n{src}"));
                assert_eq!(p, back, "dialect {dialect:?} program {i}");
            }
        }
    }
}
