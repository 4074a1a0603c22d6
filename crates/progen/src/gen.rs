//! The random program generator (the Varity core).
//!
//! Given a [`GenConfig`] and a seed, [`generate_program`] draws one test
//! program from the grammar. Generation is fully deterministic in
//! `(config, seed, index)` — the property the between-platform protocol
//! (paper Fig. 3) relies on: platform `C2` regenerates bit-identical tests
//! from the metadata produced on `C1`.

use crate::ast::*;
use crate::grammar::GenConfig;
use fpcore::rng::ChaCha8Rng;

/// Deterministically generate the `index`-th program of a campaign.
///
/// ```
/// use progen::gen::generate_program;
/// use progen::grammar::GenConfig;
/// use progen::Precision;
///
/// let cfg = GenConfig::varity_default(Precision::F64);
/// let a = generate_program(&cfg, 42, 7);
/// let b = generate_program(&cfg, 42, 7);
/// assert_eq!(a, b, "same seed + index => identical program");
/// assert_eq!(a.id, "varity_fp64_000007");
/// ```
pub fn generate_program(cfg: &GenConfig, seed: u64, index: u64) -> Program {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index);
    let mut gen = Generator::new(cfg, &mut rng);
    let p = gen.program(index);
    if obs::enabled() {
        static PROGRAMS: obs::Name = obs::Name::new("progen.programs");
        static AST_STMTS: obs::Name = obs::Name::new("progen.ast_stmts");
        PROGRAMS.add(1);
        AST_STMTS.record(p.stmt_count() as u64);
    }
    p
}

/// The `index`-th program's header: its id, precision and parameters,
/// with an empty body. The config fixes all three before the generator
/// draws anything, and they are all that [`crate::inputs::generate_inputs`]
/// reads, so a campaign draws a test's inputs from its header without
/// generating the body. [`generate_program`] builds its programs on this
/// same header.
pub fn program_header(cfg: &GenConfig, index: u64) -> Program {
    let mut params = vec![Param { name: "comp".into(), ty: ParamType::Float }];
    params.push(Param { name: "var_1".into(), ty: ParamType::Int });
    let mut next_var = 2usize;
    for _ in 0..cfg.num_float_params {
        params.push(Param { name: format!("var_{next_var}"), ty: ParamType::Float });
        next_var += 1;
    }
    for _ in 0..cfg.num_array_params {
        params.push(Param { name: format!("var_{next_var}"), ty: ParamType::FloatArray });
        next_var += 1;
    }
    let prefix = match cfg.precision {
        Precision::F32 => "fp32",
        Precision::F64 => "fp64",
    };
    Program {
        id: format!("varity_{prefix}_{index:06}"),
        precision: cfg.precision,
        params,
        body: Vec::new(),
    }
}

/// Generate a batch of programs with consecutive indices.
pub fn generate_batch(cfg: &GenConfig, seed: u64, count: usize) -> Vec<Program> {
    (0..count as u64).map(|i| generate_program(cfg, seed, i)).collect()
}

struct Generator<'a> {
    cfg: &'a GenConfig,
    rng: &'a mut ChaCha8Rng,
    /// Scalars readable at the current point (params + declared temps).
    floats: Vec<String>,
    arrays: Vec<String>,
    loop_vars: Vec<String>,
    tmp_counter: usize,
}

impl<'a> Generator<'a> {
    fn new(cfg: &'a GenConfig, rng: &'a mut ChaCha8Rng) -> Self {
        Generator {
            cfg,
            rng,
            floats: Vec::new(),
            arrays: Vec::new(),
            loop_vars: Vec::new(),
            tmp_counter: 0,
        }
    }

    fn program(&mut self, index: u64) -> Program {
        let mut program = program_header(self.cfg, index);
        let params = &program.params;
        self.floats =
            params.iter().filter(|p| p.ty == ParamType::Float).map(|p| p.name.clone()).collect();
        self.arrays = params
            .iter()
            .filter(|p| p.ty == ParamType::FloatArray)
            .map(|p| p.name.clone())
            .collect();

        let n_stmts = self.rng.gen_range(2..=self.cfg.max_stmts.max(2));
        let mut body = Vec::with_capacity(n_stmts);
        for i in 0..n_stmts {
            // bias the first statement toward a temporary declaration, the
            // way the paper's samples open (Fig. 4/6)
            let s = if i == 0 && self.rng.gen_bool(0.5) {
                self.decl_tmp()
            } else {
                self.stmt(self.cfg.max_loop_nesting, 3)
            };
            body.push(s);
        }
        // guarantee comp is written at least once at the top level
        if !body.iter().any(writes_comp) {
            body.push(self.comp_assign());
        }
        program.body = body;
        program
    }

    /// `nest_budget` bounds *block* nesting (if + for combined): without
    /// it the statement grammar is a supercritical branching process
    /// (expected offspring > 1) and program sizes explode, where Varity's
    /// tests are deliberately short.
    fn stmt(&mut self, loop_budget: usize, nest_budget: usize) -> Stmt {
        let r = self.rng.next_f64();
        if nest_budget > 0 && loop_budget > 0 && r < self.cfg.loop_prob {
            self.for_loop(loop_budget, nest_budget)
        } else if nest_budget > 0 && r < self.cfg.loop_prob + self.cfg.if_prob {
            self.if_block(loop_budget, nest_budget)
        } else if self.rng.gen_bool(0.2) {
            self.decl_tmp()
        } else {
            self.comp_assign()
        }
    }

    fn decl_tmp(&mut self) -> Stmt {
        self.tmp_counter += 1;
        let name = format!("tmp_{}", self.tmp_counter);
        let init = self.expr(self.cfg.max_expr_depth);
        self.floats.push(name.clone());
        Stmt::DeclTmp { name, init }
    }

    fn comp_assign(&mut self) -> Stmt {
        let op = *self
            .rng
            .choose(&[
                AssignOp::AddAssign,
                AssignOp::AddAssign,
                AssignOp::SubAssign,
                AssignOp::MulAssign,
                AssignOp::DivAssign,
            ])
            .expect("non-empty");
        Stmt::Assign {
            target: LValue::Var("comp".into()),
            op,
            value: self.expr(self.cfg.max_expr_depth),
        }
    }

    fn array_assign(&mut self) -> Option<Stmt> {
        let arr = self.rng.choose(&self.arrays)?.clone();
        let idx = self.loop_vars.last()?.clone();
        Some(Stmt::Assign {
            target: LValue::Index(arr, idx),
            op: AssignOp::Set,
            value: self.expr(self.cfg.max_expr_depth),
        })
    }

    fn if_block(&mut self, loop_budget: usize, nest_budget: usize) -> Stmt {
        let cond = Cond {
            op: *self
                .rng
                .choose(&[CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne])
                .expect("non-empty"),
            lhs: if self.rng.gen_bool(0.7) { Expr::Var("comp".into()) } else { self.expr(2) },
            rhs: self.expr(2),
        };
        let scope = self.floats.len();
        let n = self.rng.gen_range(1..=2);
        let body = (0..n).map(|_| self.stmt(loop_budget, nest_budget - 1)).collect();
        // temporaries declared inside the block are block-scoped in C
        self.floats.truncate(scope);
        Stmt::If { cond, body }
    }

    fn for_loop(&mut self, loop_budget: usize, nest_budget: usize) -> Stmt {
        let var = ["i", "j", "k", "l"][self.loop_vars.len().min(3)].to_string();
        self.loop_vars.push(var.clone());
        let scope = self.floats.len();
        let n = self.rng.gen_range(1..=3);
        let mut body: Vec<Stmt> = Vec::with_capacity(n);
        for _ in 0..n {
            // inside loops, array writes become possible
            if !self.arrays.is_empty() && self.rng.gen_bool(0.3) {
                if let Some(s) = self.array_assign() {
                    body.push(s);
                    continue;
                }
            }
            body.push(self.stmt(loop_budget - 1, nest_budget - 1));
        }
        // make sure the loop touches comp so iterations matter
        if !body.iter().any(writes_comp) {
            body.push(self.comp_assign());
        }
        self.loop_vars.pop();
        self.floats.truncate(scope); // block-scoped temporaries
        Stmt::For { var, bound: "var_1".into(), body }
    }

    fn expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        let r = self.rng.next_f64();
        if r < self.cfg.call_prob && !self.cfg.allowed_funcs.is_empty() {
            let f = *self.rng.choose(&self.cfg.allowed_funcs).expect("non-empty");
            let args = (0..f.arity()).map(|_| self.expr(depth - 1)).collect();
            Expr::Call(f, args)
        } else if r < self.cfg.call_prob + 0.08 {
            // normalize Neg(Lit) to a signed literal: C has no way to
            // distinguish them, so the parser folds and we must match
            match self.expr(depth - 1) {
                Expr::Lit(v) => Expr::Lit(-v),
                inner => Expr::Neg(Box::new(inner)),
            }
        } else {
            let op = *self
                .rng
                .choose(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div])
                .expect("non-empty");
            Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
        }
    }

    fn leaf(&mut self) -> Expr {
        if self.cfg.threaded && self.rng.gen_bool(0.12) {
            return Expr::ThreadIdx;
        }
        // array reads only make sense under a loop index
        if !self.arrays.is_empty() && !self.loop_vars.is_empty() && self.rng.gen_bool(0.15) {
            let arr = self.rng.choose(&self.arrays).expect("non-empty").clone();
            let idx = self.loop_vars.last().expect("in loop").clone();
            return Expr::Index(arr, idx);
        }
        if self.rng.gen_bool(self.cfg.lit_prob) || self.floats.is_empty() {
            Expr::Lit(self.literal())
        } else {
            Expr::Var(self.rng.choose(&self.floats).expect("non-empty").clone())
        }
    }

    /// A Varity-style literal: `±d.ddddE±xx`, biased toward the extreme
    /// exponent ranges that stress overflow/underflow boundaries.
    fn literal(&mut self) -> f64 {
        let mant: f64 = self.rng.gen_range(1.0..10.0);
        let exp = self.exponent_class();
        let negative = self.rng.gen_bool(0.5);
        crate::inputs::compose_float(negative, mant, exp, self.cfg.precision)
    }

    fn exponent_class(&mut self) -> i32 {
        let (huge, tiny) = match self.cfg.precision {
            Precision::F64 => (300..=307, -322..=-300),
            Precision::F32 => (30..=38, -45..=-35),
        };
        let moderate = match self.cfg.precision {
            Precision::F64 => -20..=20,
            Precision::F32 => -8..=8,
        };
        let mid = match self.cfg.precision {
            Precision::F64 => 100..=250,
            Precision::F32 => 10..=25,
        };
        // FP32 literals lean moderate for the same saturation reason the
        // inputs do (see progen::inputs::random_float)
        let (p_huge, p_tiny) = match self.cfg.precision {
            Precision::F64 => (30, 20),
            Precision::F32 => (18, 12),
        };
        let roll = self.rng.gen_range(0..100);
        if roll < p_huge {
            self.rng.gen_range(huge)
        } else if roll < p_huge + p_tiny {
            self.rng.gen_range(tiny)
        } else if roll < p_huge + p_tiny + 30 {
            self.rng.gen_range(moderate)
        } else if roll < p_huge + p_tiny + 45 {
            self.rng.gen_range(mid)
        } else {
            let m = *moderate.end();
            -self.rng.gen_range(2..=m.max(3))
        }
    }
}

fn writes_comp(s: &Stmt) -> bool {
    match s {
        Stmt::Assign { target: LValue::Var(v), .. } => v == "comp",
        Stmt::Assign { .. } | Stmt::DeclTmp { .. } => false,
        Stmt::If { body, .. } | Stmt::For { body, .. } => body.iter().any(writes_comp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::GenConfig;
    use gpusim::mathlib::MathFunc;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let a = generate_program(&cfg, 42, 7);
        let b = generate_program(&cfg, 42, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn inputs_drawn_from_the_header_equal_inputs_drawn_from_the_program() {
        for precision in [Precision::F32, Precision::F64] {
            let cfg = GenConfig::varity_default(precision);
            for index in 0..40 {
                let program = generate_program(&cfg, 2024, index);
                let header = program_header(&cfg, index);
                assert_eq!(header, Program { body: Vec::new(), ..program.clone() });
                for n in [1, 7] {
                    let drawn = crate::inputs::generate_inputs(&header, 2024, n);
                    assert_eq!(drawn, crate::inputs::generate_inputs(&program, 2024, n));
                }
            }
        }
    }

    #[test]
    fn different_indices_give_different_programs() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let a = generate_program(&cfg, 42, 0);
        let b = generate_program(&cfg, 42, 1);
        assert_ne!(a.body, b.body);
        assert_eq!(a.id, "varity_fp64_000000");
        assert_eq!(b.id, "varity_fp64_000001");
    }

    #[test]
    fn different_seeds_give_different_programs() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let a = generate_program(&cfg, 1, 0);
        let b = generate_program(&cfg, 2, 0);
        assert_ne!(a.body, b.body);
    }

    #[test]
    fn every_program_writes_comp() {
        let cfg = GenConfig::varity_default(Precision::F64);
        for i in 0..200 {
            let p = generate_program(&cfg, 9, i);
            assert!(p.body.iter().any(writes_comp), "program {i} never writes comp");
        }
    }

    #[test]
    fn loop_nesting_respects_config() {
        let cfg = GenConfig::varity_default(Precision::F64);
        for i in 0..200 {
            let p = generate_program(&cfg, 5, i);
            assert!(
                p.loop_depth() <= cfg.max_loop_nesting,
                "program {i} nests {} deep",
                p.loop_depth()
            );
        }
    }

    #[test]
    fn params_have_expected_shape() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let p = generate_program(&cfg, 3, 0);
        assert_eq!(p.params[0].name, "comp");
        assert_eq!(p.params[0].ty, ParamType::Float);
        assert_eq!(p.params[1].ty, ParamType::Int);
        assert_eq!(p.params_of(ParamType::Float).count(), cfg.num_float_params + 1);
        assert_eq!(p.params_of(ParamType::FloatArray).count(), cfg.num_array_params);
    }

    #[test]
    fn fp32_literals_are_f32_representable() {
        let cfg = GenConfig::varity_default(Precision::F32);
        for i in 0..50 {
            let p = generate_program(&cfg, 11, i);
            check_lits(&p.body);
        }
        fn check_lits(stmts: &[Stmt]) {
            for s in stmts {
                match s {
                    Stmt::DeclTmp { init, .. } => check_expr(init),
                    Stmt::Assign { value, .. } => check_expr(value),
                    Stmt::If { cond, body } => {
                        check_expr(&cond.lhs);
                        check_expr(&cond.rhs);
                        check_lits(body);
                    }
                    Stmt::For { body, .. } => check_lits(body),
                }
            }
        }
        fn check_expr(e: &Expr) {
            match e {
                Expr::Lit(v) => assert_eq!(*v, *v as f32 as f64, "literal {v} not f32-exact"),
                Expr::Neg(e) => check_expr(e),
                Expr::Bin(_, l, r) => {
                    check_expr(l);
                    check_expr(r);
                }
                Expr::Call(_, args) => args.iter().for_each(check_expr),
                _ => {}
            }
        }
    }

    #[test]
    fn math_functions_come_from_allowlist() {
        let mut cfg = GenConfig::varity_default(Precision::F64);
        cfg.allowed_funcs = vec![MathFunc::Sqrt];
        for i in 0..50 {
            let p = generate_program(&cfg, 13, i);
            for f in p.math_calls() {
                assert_eq!(f, MathFunc::Sqrt);
            }
        }
    }

    #[test]
    fn batch_indices_are_consecutive() {
        let cfg = GenConfig::tiny(Precision::F64);
        let batch = generate_batch(&cfg, 1, 5);
        assert_eq!(batch.len(), 5);
        for (i, p) in batch.iter().enumerate() {
            assert_eq!(p.id, format!("varity_fp64_{i:06}"));
        }
    }

    #[test]
    fn programs_exercise_grammar_features_in_aggregate() {
        let cfg = GenConfig::varity_default(Precision::F64);
        let batch = generate_batch(&cfg, 77, 300);
        let with_loops = batch.iter().filter(|p| p.loop_depth() > 0).count();
        let with_ifs = batch
            .iter()
            .filter(|p| {
                fn has_if(stmts: &[Stmt]) -> bool {
                    stmts.iter().any(|s| match s {
                        Stmt::If { .. } => true,
                        Stmt::For { body, .. } => has_if(body),
                        _ => false,
                    })
                }
                has_if(&p.body)
            })
            .count();
        let with_calls = batch.iter().filter(|p| !p.math_calls().is_empty()).count();
        assert!(with_loops > 100, "loops: {with_loops}/300");
        assert!(with_ifs > 50, "ifs: {with_ifs}/300");
        assert!(with_calls > 150, "calls: {with_calls}/300");
    }
}
