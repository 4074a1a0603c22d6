//! What the compiler and its three executors observably produce, pinned.
//!
//! The IR between the AST and the bytecode may change shape (how it
//! names variables, which types carry them), but not what it shows or
//! computes. This test pins that through entry points that take a
//! compiled [`KernelIr`] and never look inside it:
//!
//! * [`render_ir`] of the 4,800 compiles `compile_digest` walks (120
//!   generated programs per precision, both toolchains, all five levels,
//!   hipified on and off);
//! * [`interp::execute_traced`] of each of those kernels on one generated
//!   input: every store event (target and bits) and the result;
//! * [`refexec::execute_reference_budgeted`] (through [`interp::prepare`])
//!   of each of those kernels on the same input: the double-double truth,
//!   including the fused and reciprocal instructions only O1+ and
//!   fast-math kernels contain, with every NaN result folded as one
//!   canonical NaN;
//! * hand-written kernels the generator never emits: an array that no
//!   parameter declares, a kernel with no `comp`, a temporary read before
//!   it is stored, a loop body moved to top level the way
//!   `difftest::reduce` flattens a loop, and well-formed reads of an int
//!   parameter and a loop variable as values. Each bad read is live
//!   (it feeds `comp`), so no pass removes it. At O0 and O3 on both
//!   toolchains, their listing, their traced execution, and the result or
//!   the error text of [`interp::execute`], [`vm::execute`] and
//!   [`refexec::execute_reference_budgeted`] (through
//!   [`interp::prepare`]) are folded into one digest.
//!
//! The digests are FNV-1a over length-prefixed fields, computed by this
//! file before the variables of the IR were given slots at lowering
//! (`REFERENCE`: while the truth still had a walker of its own); the
//! test ran with a placeholder and its failure message printed each
//! value.

use gpucc::display::render_ir;
use gpucc::interp::{self, ExecBudget, ExecError, ExecResult, ExecValue, TraceEvent};
use gpucc::pipeline::{compile, OptLevel, Toolchain};
use gpucc::{refexec, vm, KernelIr};
use gpusim::{Device, DeviceKind};
use progen::ast::{AssignOp, BinOp, Expr, LValue, Param, ParamType, Program, Stmt};
use progen::gen::generate_program;
use progen::grammar::GenConfig;
use progen::inputs::{generate_input, InputSet, InputValue};
use progen::Precision;

/// [`render_ir`] over the corpus.
const LISTINGS: u64 = 0xa7bc_788d_ba5c_3388;
/// [`interp::execute_traced`] over the corpus.
const TRACES: u64 = 0xff03_903d_6e96_8c8c;
/// [`refexec::execute_reference_budgeted`] over the corpus.
const REFERENCE: u64 = 0x2f5a_f25b_268c_41be;
/// Everything the hand-written kernels produce.
const HAND_WRITTEN: u64 = 0xa845_b2ad_5dcf_e1c1;

const SEED: u64 = 2024;
const PROGRAMS: u64 = 120;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn result(&mut self, r: &ExecResult) {
        self.str(match r.value {
            ExecValue::F32(_) => "f32",
            ExecValue::F64(_) => "f64",
        });
        self.u64(r.value.bits());
        self.u64(u64::from(r.exceptions.bits()));
        self.u64(r.cost_slots);
        self.u64(r.steps);
    }

    fn outcome(&mut self, o: &Result<ExecResult, ExecError>) {
        match o {
            Ok(r) => {
                self.str("ok");
                self.result(r);
            }
            Err(e) => {
                self.str("err");
                self.str(&e.to_string());
            }
        }
    }

    fn traced(&mut self, o: &Result<(ExecResult, Vec<TraceEvent>), ExecError>) {
        match o {
            Ok((r, trace)) => {
                self.str("ok");
                self.result(r);
                self.u64(trace.len() as u64);
                for event in trace {
                    self.str(&event.target);
                    self.u64(event.bits);
                }
            }
            Err(e) => {
                self.str("err");
                self.str(&e.to_string());
            }
        }
    }
}

fn device(toolchain: Toolchain) -> Device {
    Device::new(match toolchain {
        Toolchain::Nvcc => DeviceKind::NvidiaLike,
        Toolchain::Hipcc => DeviceKind::AmdLike,
    })
}

#[test]
fn corpus_listings_and_store_traces_are_pinned() {
    let mut listings = Fnv::new();
    let mut traces = Fnv::new();
    let mut truth = Fnv::new();
    let mut compiles = 0u64;
    for precision in [Precision::F32, Precision::F64] {
        let cfg = GenConfig::varity_default(precision);
        for index in 0..PROGRAMS {
            let program = generate_program(&cfg, SEED, index);
            let input = generate_input(&program, SEED, 0);
            for toolchain in Toolchain::ALL {
                let device = device(toolchain);
                for level in OptLevel::ALL {
                    for hipified in [false, true] {
                        let ir = compile(&program, toolchain, level, hipified);
                        listings.str(&render_ir(&ir));
                        traces.traced(&interp::execute_traced(&ir, &device, &input));
                        truth.outcome(&nan_as_canonical(reference(&ir, &input)));
                        compiles += 1;
                    }
                }
            }
        }
    }
    assert_eq!(compiles, 2 * PROGRAMS * 2 * 5 * 2);
    assert_eq!(
        (listings.0, traces.0, truth.0),
        (LISTINGS, TRACES, REFERENCE),
        "listing digest {:#018x}, trace digest {:#018x}, reference digest {:#018x}",
        listings.0,
        traces.0,
        truth.0
    );
}

fn param(name: &str, ty: ParamType) -> Param {
    Param { name: name.into(), ty }
}

fn var(name: &str) -> Expr {
    Expr::Var(name.into())
}

/// `target op= value`.
fn assign(target: &str, op: AssignOp, value: Expr) -> Stmt {
    Stmt::Assign { target: LValue::Var(target.into()), op, value }
}

fn for_loop(var: &str, bound: &str, body: Vec<Stmt>) -> Stmt {
    Stmt::For { var: var.into(), bound: bound.into(), body }
}

/// The hand-written kernels, each with the input it runs on.
fn hand_written() -> Vec<(Program, InputSet)> {
    let program = |id: &str, params: Vec<Param>, body: Vec<Stmt>| Program {
        id: id.into(),
        precision: Precision::F64,
        params,
        body,
    };
    let comp = || param("comp", ParamType::Float);
    let bound = || param("var_1", ParamType::Int);
    vec![
        (
            // `ghost` is read as an array, but no parameter declares it
            program(
                "unknown_array",
                vec![comp(), bound()],
                vec![for_loop(
                    "i",
                    "var_1",
                    vec![assign(
                        "comp",
                        AssignOp::AddAssign,
                        Expr::Index("ghost".into(), "i".into()),
                    )],
                )],
            ),
            InputSet { values: vec![InputValue::Float(1.5), InputValue::Int(3)] },
        ),
        (
            program(
                "no_comp",
                vec![param("x", ParamType::Float)],
                vec![assign("x", AssignOp::Set, Expr::bin(BinOp::Mul, var("x"), Expr::Lit(2.0)))],
            ),
            InputSet { values: vec![InputValue::Float(1.5)] },
        ),
        (
            // `tmp_1` is read a statement before it is declared
            program(
                "temp_before_store",
                vec![comp(), param("var_2", ParamType::Float)],
                vec![
                    assign(
                        "comp",
                        AssignOp::AddAssign,
                        Expr::bin(BinOp::Mul, var("tmp_1"), var("var_2")),
                    ),
                    Stmt::DeclTmp {
                        name: "tmp_1".into(),
                        init: Expr::bin(BinOp::Add, var("var_2"), Expr::Lit(1.0)),
                    },
                ],
            ),
            InputSet { values: vec![InputValue::Float(1.5), InputValue::Float(0.25)] },
        ),
        (
            // the body of `for (int i = 0; i < var_1; ++i)`, with the loop
            // flattened away: `i` is never bound
            program(
                "flattened_loop",
                vec![comp(), bound(), param("var_5", ParamType::FloatArray)],
                vec![
                    Stmt::Assign {
                        target: LValue::Index("var_5".into(), "i".into()),
                        op: AssignOp::AddAssign,
                        value: Expr::Lit(1.0),
                    },
                    assign("comp", AssignOp::AddAssign, Expr::Index("var_5".into(), "i".into())),
                ],
            ),
            InputSet {
                values: vec![
                    InputValue::Float(1.5),
                    InputValue::Int(3),
                    InputValue::ArrayFill(2.0),
                ],
            },
        ),
        (
            // an int parameter and a loop variable read as floats; `j` is
            // both a float temporary and a loop variable, and a read of it
            // names the float
            program(
                "int_reads",
                vec![comp(), bound(), param("var_2", ParamType::Float)],
                vec![
                    for_loop(
                        "i",
                        "var_1",
                        vec![assign(
                            "comp",
                            AssignOp::AddAssign,
                            Expr::bin(BinOp::Mul, var("i"), var("var_2")),
                        )],
                    ),
                    assign("comp", AssignOp::SubAssign, var("var_1")),
                    Stmt::DeclTmp { name: "j".into(), init: Expr::Lit(0.5) },
                    for_loop("j", "var_1", vec![assign("comp", AssignOp::AddAssign, var("j"))]),
                ],
            ),
            InputSet {
                values: vec![InputValue::Float(1.5), InputValue::Int(3), InputValue::Float(0.25)],
            },
        ),
    ]
}

/// `o` with a NaN result replaced by the canonical quiet NaN. Rust
/// leaves the sign and payload of a NaN result unspecified, and the
/// double-double code's NaNs do differ in sign between debug and release
/// builds (about 900 of the corpus truths), so the digest pins only that the
/// result is a NaN.
fn nan_as_canonical(o: Result<ExecResult, ExecError>) -> Result<ExecResult, ExecError> {
    o.map(|mut r| {
        r.value = match r.value {
            ExecValue::F32(v) if v.is_nan() => ExecValue::F32(f32::NAN),
            ExecValue::F64(v) if v.is_nan() => ExecValue::F64(f64::NAN),
            v => v,
        };
        r
    })
}

fn reference(ir: &KernelIr, input: &InputSet) -> Result<ExecResult, ExecError> {
    let kernel = interp::prepare(ir)?;
    refexec::execute_reference_budgeted(&kernel, input, ExecBudget::default())
}

#[test]
fn hand_written_kernels_are_pinned() {
    let mut h = Fnv::new();
    for (program, input) in hand_written() {
        for toolchain in Toolchain::ALL {
            let device = device(toolchain);
            for level in [OptLevel::O0, OptLevel::O3] {
                let ir = compile(&program, toolchain, level, false);
                h.str(&render_ir(&ir));
                h.traced(&interp::execute_traced(&ir, &device, &input));
                h.outcome(&interp::execute(&ir, &device, &input));
                h.outcome(&vm::execute(&ir, &device, &input));
                h.outcome(&reference(&ir, &input));
            }
        }
    }
    assert_eq!(h.0, HAND_WRITTEN, "hand-written digest {:#018x}", h.0);
}

#[test]
fn malformed_kernels_fail_with_the_same_text_on_every_executor() {
    let expected = [
        ("unknown_array", Some("unknown variable `ghost`")),
        ("no_comp", Some("unknown variable `comp`")),
        ("temp_before_store", Some("unknown variable `tmp_1`")),
        ("flattened_loop", Some("unknown variable `index`")),
        ("int_reads", None),
    ];
    let device = device(Toolchain::Nvcc);
    for ((program, input), (id, error)) in hand_written().into_iter().zip(expected) {
        assert_eq!(program.id, id);
        for level in [OptLevel::O0, OptLevel::O3] {
            let ir = compile(&program, Toolchain::Nvcc, level, false);
            let outcomes = [
                interp::execute(&ir, &device, &input),
                vm::execute(&ir, &device, &input),
                reference(&ir, &input),
            ];
            for outcome in outcomes {
                match error {
                    Some(text) => {
                        assert_eq!(outcome.map_err(|e| e.to_string()).err().as_deref(), Some(text))
                    }
                    None => assert!(outcome.is_ok(), "{id} {level}: {outcome:?}"),
                }
            }
        }
    }
}
