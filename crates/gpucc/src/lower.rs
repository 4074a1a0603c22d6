//! AST → IR lowering.
//!
//! Compound assignments are expanded (`comp += e` becomes
//! `comp = comp + e` with an explicit read of `comp`), so the optimization
//! passes see the complete data flow of every statement. FP32 kernels get
//! their literals rounded to `f32` here (the same rounding the real
//! front-ends perform on `1.23F` tokens). Every variable gets its slot
//! here too, by the rule [`Vars`] states, so nothing after lowering looks
//! a name up.

use crate::ir::*;
use progen::ast::{self, AssignOp, BinOp, Expr, ParamType, Precision, Program, Stmt};
use std::collections::HashMap;

/// Lower a program to unoptimized IR (what `-O0` codegen emits).
pub fn lower(program: &Program) -> KernelIr {
    let mut l = Lowerer {
        prec: program.precision,
        floats: HashMap::new(),
        ints: HashMap::new(),
        arrays: HashMap::new(),
        vars: Vars::default(),
    };
    for p in &program.params {
        let slot = match p.ty {
            ParamType::Float => ParamSlot::Float(l.float(&p.name)),
            ParamType::Int => ParamSlot::Int(l.int(&p.name)),
            ParamType::FloatArray => ParamSlot::Array(l.new_array(&p.name)),
        };
        l.vars.params.push(slot);
    }
    let body = l.stmts(&program.body);
    KernelIr {
        program_id: program.id.clone(),
        precision: program.precision,
        params: program.params.clone(),
        vars: l.vars,
        body,
        flags: CompileFlags::default(),
    }
}

/// The lowering walk: the kernel precision and the slots given so far.
struct Lowerer<'a> {
    prec: Precision,
    floats: HashMap<&'a str, FloatSlot>,
    ints: HashMap<&'a str, IntSlot>,
    arrays: HashMap<&'a str, ArraySlot>,
    vars: Vars,
}

/// `name`'s slot in `map`, given the next free slot of `names` if it has
/// none yet.
fn slot<'a>(map: &mut HashMap<&'a str, usize>, names: &mut Vec<String>, name: &'a str) -> usize {
    *map.entry(name).or_insert_with(|| {
        names.push(name.to_string());
        names.len() - 1
    })
}

impl<'a> Lowerer<'a> {
    fn float(&mut self, name: &'a str) -> FloatSlot {
        slot(&mut self.floats, &mut self.vars.floats, name)
    }

    fn int(&mut self, name: &'a str) -> IntSlot {
        slot(&mut self.ints, &mut self.vars.ints, name)
    }

    fn new_array(&mut self, name: &'a str) -> ArraySlot {
        self.vars.arrays.push(name.to_string());
        let s = self.vars.arrays.len() - 1;
        self.arrays.insert(name, s);
        s
    }

    fn array(&mut self, name: &'a str) -> ArraySlot {
        match self.arrays.get(name) {
            Some(&s) => s,
            None => self.new_array(name),
        }
    }

    /// A read of `name` as a value: its float slot, else its int slot,
    /// else a new float slot.
    fn read_var(&mut self, name: &'a str) -> Inst {
        if let Some(&s) = self.floats.get(name) {
            Inst::ReadVar(s)
        } else if let Some(&s) = self.ints.get(name) {
            Inst::ReadIntAsFloat(s)
        } else {
            Inst::ReadVar(self.float(name))
        }
    }

    fn read_arr(&mut self, arr: &'a str, idx: &'a str) -> Inst {
        Inst::ReadArr(self.array(arr), self.int(idx))
    }

    fn stmts(&mut self, stmts: &'a [Stmt]) -> Vec<Node> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn seq(&mut self, e: &'a Expr) -> InstSeq {
        let mut seq = InstSeq { insts: vec![], result: Operand::Const(0.0) };
        seq.result = self.expr(e, &mut seq);
        seq
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> Node {
        match stmt {
            Stmt::DeclTmp { name, init } => {
                let seq = self.seq(init);
                Node::Store { target: StoreTarget::Var(self.float(name)), seq }
            }
            Stmt::Assign { target, op, value } => {
                let mut seq = self.seq(value);
                let bin = match op {
                    AssignOp::Set => None,
                    AssignOp::AddAssign => Some(BinOp::Add),
                    AssignOp::SubAssign => Some(BinOp::Sub),
                    AssignOp::MulAssign => Some(BinOp::Mul),
                    AssignOp::DivAssign => Some(BinOp::Div),
                };
                if let Some(bin) = bin {
                    let current = match target {
                        ast::LValue::Var(v) => self.read_var(v),
                        ast::LValue::Index(a, i) => self.read_arr(a, i),
                    };
                    let current = seq.push(current);
                    seq.result = seq.push(Inst::Bin(bin, current, seq.result));
                }
                let target = match target {
                    ast::LValue::Var(v) => StoreTarget::Var(self.float(v)),
                    ast::LValue::Index(a, i) => StoreTarget::Arr(self.array(a), self.int(i)),
                };
                Node::Store { target, seq }
            }
            Stmt::If { cond, body } => {
                let lhs = self.seq(&cond.lhs);
                let rhs = self.seq(&cond.rhs);
                Node::If { lhs, op: cond.op, rhs, body: self.stmts(body) }
            }
            Stmt::For { var, bound, body } => {
                let bound = self.int(bound);
                let var = self.int(var);
                Node::For { var, bound, body: self.stmts(body) }
            }
        }
    }

    fn expr(&mut self, e: &'a Expr, seq: &mut InstSeq) -> Operand {
        match e {
            Expr::Lit(v) => Operand::Const(round_const(*v, self.prec)),
            Expr::Var(name) => {
                let read = self.read_var(name);
                seq.push(read)
            }
            Expr::ThreadIdx => seq.push(Inst::ReadThreadIdx),
            Expr::Index(a, i) => {
                let read = self.read_arr(a, i);
                seq.push(read)
            }
            Expr::Neg(inner) => {
                let x = self.expr(inner, seq);
                seq.push(Inst::Neg(x))
            }
            Expr::Bin(op, l, r) => {
                let a = self.expr(l, seq);
                let b = self.expr(r, seq);
                seq.push(Inst::Bin(*op, a, b))
            }
            Expr::Call(f, args) => {
                let ops: Vec<Operand> = args.iter().map(|a| self.expr(a, seq)).collect();
                seq.push(Inst::Call(*f, ops))
            }
        }
    }
}

/// Round a literal to the kernel precision (front-end semantics of `F`
/// suffixes).
pub fn round_const(v: f64, prec: Precision) -> f64 {
    match prec {
        Precision::F64 => v,
        Precision::F32 => v as f32 as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::mathlib::MathFunc;
    use progen::ast::{CmpOp, Cond, LValue, Param, ParamType};

    fn prog(body: Vec<Stmt>) -> Program {
        Program {
            id: "t".into(),
            precision: Precision::F64,
            params: vec![
                Param { name: "comp".into(), ty: ParamType::Float },
                Param { name: "var_1".into(), ty: ParamType::Int },
                Param { name: "var_2".into(), ty: ParamType::Float },
            ],
            body,
        }
    }

    #[test]
    fn compound_assign_expands_to_read_modify_write() {
        let p = prog(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::Lit(1.5),
        }]);
        let ir = lower(&p);
        match &ir.body[0] {
            Node::Store { target: StoreTarget::Var(v), seq } => {
                assert_eq!(ir.vars.floats[*v], "comp");
                assert_eq!(seq.insts[0], Inst::ReadVar(*v));
                assert_eq!(
                    seq.insts[1],
                    Inst::Bin(BinOp::Add, Operand::Inst(0), Operand::Const(1.5))
                );
                assert_eq!(seq.result, Operand::Inst(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plain_assignment_has_no_read() {
        let p = prog(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::Var("var_2".into()),
        }]);
        let ir = lower(&p);
        match &ir.body[0] {
            Node::Store { seq, .. } => {
                assert_eq!(seq.insts, vec![Inst::ReadVar(1)]);
                assert_eq!(ir.vars.floats[1], "var_2");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nested_expression_lowers_in_order() {
        // comp = cos(var_2 + 1.0) / var_2
        let p = prog(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::bin(
                BinOp::Div,
                Expr::Call(
                    MathFunc::Cos,
                    vec![Expr::bin(BinOp::Add, Expr::Var("var_2".into()), Expr::Lit(1.0))],
                ),
                Expr::Var("var_2".into()),
            ),
        }]);
        let ir = lower(&p);
        match &ir.body[0] {
            Node::Store { seq, .. } => {
                // var_2 is read twice at O0 (no CSE yet)
                assert_eq!(seq.insts.len(), 5);
                assert!(matches!(seq.insts[0], Inst::ReadVar(_)));
                assert!(matches!(seq.insts[1], Inst::Bin(BinOp::Add, _, _)));
                assert!(matches!(seq.insts[2], Inst::Call(MathFunc::Cos, _)));
                assert!(matches!(seq.insts[3], Inst::ReadVar(_)));
                assert!(matches!(seq.insts[4], Inst::Bin(BinOp::Div, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_lowers_both_sides() {
        let p = prog(vec![Stmt::If {
            cond: Cond { op: CmpOp::Ge, lhs: Expr::Var("comp".into()), rhs: Expr::Lit(0.0) },
            body: vec![Stmt::Assign {
                target: LValue::Var("comp".into()),
                op: AssignOp::SubAssign,
                value: Expr::Lit(1.0),
            }],
        }]);
        let ir = lower(&p);
        match &ir.body[0] {
            Node::If { lhs, op, rhs, body } => {
                assert_eq!(*op, CmpOp::Ge);
                assert_eq!(lhs.insts.len(), 1);
                assert!(rhs.insts.is_empty());
                assert_eq!(rhs.result, Operand::Const(0.0));
                assert_eq!(body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fp32_literals_round_at_lowering() {
        let mut p = prog(vec![Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::Set,
            value: Expr::Lit(0.1),
        }]);
        p.precision = Precision::F32;
        let ir = lower(&p);
        match &ir.body[0] {
            Node::Store { seq, .. } => {
                assert_eq!(seq.result, Operand::Const(0.1f32 as f64));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn o0_lowering_has_default_flags() {
        let p = prog(vec![]);
        let ir = lower(&p);
        assert!(!ir.flags.fast_math);
        assert_eq!(ir.flags.opt_level_index, 0);
    }

    fn generated(seed: u64, i: u64) -> KernelIr {
        use progen::gen::generate_program;
        use progen::grammar::GenConfig;
        lower(&generate_program(&GenConfig::varity_default(Precision::F64), seed, i))
    }

    #[test]
    fn parameters_take_the_first_slots_in_signature_order() {
        for i in 0..50 {
            let ir = generated(5, i);
            // comp + int + 8 floats + 1 array
            assert_eq!(ir.vars.params.len(), 11);
            assert_eq!(ir.vars.params[0], ParamSlot::Float(0), "comp is the first parameter");
            assert_eq!(ir.vars.floats[0], "comp");
            assert!(matches!(ir.vars.params[1], ParamSlot::Int(_)));
            assert!(matches!(ir.vars.params.last(), Some(ParamSlot::Array(0))));
            for (param, slot) in ir.params.iter().zip(&ir.vars.params) {
                let name = match *slot {
                    ParamSlot::Float(s) => &ir.vars.floats[s],
                    ParamSlot::Int(s) => &ir.vars.ints[s],
                    ParamSlot::Array(s) => &ir.vars.arrays[s],
                };
                assert_eq!(*name, param.name);
            }
        }
    }

    #[test]
    fn slots_are_dense_and_names_unique() {
        for i in 0..50 {
            let ir = generated(7, i);
            for names in [&ir.vars.floats, &ir.vars.ints, &ir.vars.arrays] {
                let mut seen = std::collections::HashSet::new();
                for name in names {
                    assert!(seen.insert(name), "duplicate name {name}");
                }
            }
            let mut max = [0usize; 3];
            ir.for_each_seq(&mut |seq| {
                for inst in &seq.insts {
                    match *inst {
                        Inst::ReadVar(s) => max[0] = max[0].max(s + 1),
                        Inst::ReadIntAsFloat(s) => max[1] = max[1].max(s + 1),
                        Inst::ReadArr(a, i) => {
                            max[2] = max[2].max(a + 1);
                            max[1] = max[1].max(i + 1);
                        }
                        _ => {}
                    }
                }
            });
            assert!(max[0] <= ir.vars.floats.len());
            assert!(max[1] <= ir.vars.ints.len());
            assert!(max[2] <= ir.vars.arrays.len());
        }
    }

    #[test]
    fn a_read_names_the_float_before_the_int_and_unknown_names_get_new_slots() {
        // for (i < var_1) { comp += i }; tmp = 1.0; for (tmp < var_1) { comp += tmp }; comp += x
        let add = |v: &str| Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::Var(v.into()),
        };
        let p = prog(vec![
            Stmt::For { var: "i".into(), bound: "var_1".into(), body: vec![add("i")] },
            Stmt::DeclTmp { name: "tmp".into(), init: Expr::Lit(1.0) },
            Stmt::For { var: "tmp".into(), bound: "var_1".into(), body: vec![add("tmp")] },
            add("x"),
        ]);
        let ir = lower(&p);
        assert_eq!(ir.vars.floats, ["comp", "var_2", "tmp", "x"]);
        assert_eq!(ir.vars.ints, ["var_1", "i", "tmp"]);
        let first_read = |node: &Node| match node {
            Node::For { body, .. } => match &body[0] {
                Node::Store { seq, .. } => seq.insts[0].clone(),
                other => panic!("{other:?}"),
            },
            Node::Store { seq, .. } => seq.insts[0].clone(),
            other => panic!("{other:?}"),
        };
        assert_eq!(first_read(&ir.body[0]), Inst::ReadIntAsFloat(1));
        assert!(matches!(ir.body[2], Node::For { var: 2, bound: 0, .. }));
        assert_eq!(first_read(&ir.body[2]), Inst::ReadVar(2));
        assert_eq!(first_read(&ir.body[3]), Inst::ReadVar(3));
    }
}
