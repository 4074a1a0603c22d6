//! Every compile of a fixed corpus, pinned.
//!
//! The passes are rewritten for speed from time to time, and none of
//! those rewrites may change what they produce. This test compiles 120
//! generated programs per precision with both toolchains at all five
//! levels, hipified on and off (4,800 compiles), and folds every
//! resulting kernel and its pass statistics into one FNV-1a digest. The
//! walker is canonical: every node, instruction and variable name (read
//! through the kernel's name table; a float read and an int read both
//! hash as `V` and the name), every operand kind, every constant as
//! `to_bits()`, the compile flags, and each pass's `(name, rewrites)`,
//! with lengths prefixed so no two different kernels feed the same byte
//! stream.
//!
//! `PINNED` was computed by this walker over this corpus with the
//! passes as they stood before their linear-time rewrite (CSE keyed on
//! a formatted `String` per instruction, every rewrite forwarded by a
//! sweep over the whole sequence): the test ran with a placeholder and
//! its failure message printed the value. It held when the IR's
//! variables became slots, and the walker learned to read names through
//! the table. A compile that changes any kernel or any rewrite count
//! changes it.
//!
//! The same corpus checks the pass-schedule invariant that campaigns
//! rely on to compile each schedule once: every level's kernel equals
//! the kernel of the level [`schedule_level`] names, except for the
//! flags.

use gpucc::ir::{Inst, InstSeq, KernelIr, Node, Operand, StoreTarget, Vars};
use gpucc::pipeline::{compile_with_stats, schedule_level, CompileStats, OptLevel, Toolchain};
use progen::ast::Program;
use progen::gen::generate_program;
use progen::grammar::GenConfig;
use progen::Precision;

/// The digest of the corpus below, as computed by the passes it pins.
const PINNED: u64 = 0x0aca_8083_61bb_45ba;

const SEED: u64 = 2024;
const PROGRAMS: u64 = 120;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn tag(&mut self, t: u8) {
        self.bytes(&[t]);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn operand(&mut self, o: Operand) {
        match o {
            Operand::Inst(i) => {
                self.tag(b'i');
                self.u64(i as u64);
            }
            Operand::Const(c) => {
                self.tag(b'c');
                self.u64(c.to_bits());
            }
        }
    }

    fn inst(&mut self, vars: &Vars, inst: &Inst) {
        match inst {
            Inst::ReadVar(v) => {
                self.tag(b'V');
                self.str(&vars.floats[*v]);
            }
            Inst::ReadIntAsFloat(v) => {
                self.tag(b'V');
                self.str(&vars.ints[*v]);
            }
            Inst::ReadArr(a, i) => {
                self.tag(b'A');
                self.str(&vars.arrays[*a]);
                self.str(&vars.ints[*i]);
            }
            Inst::ReadThreadIdx => self.tag(b'T'),
            Inst::Bin(op, a, b) => {
                self.tag(b'B');
                self.str(op.symbol());
                self.operand(*a);
                self.operand(*b);
            }
            Inst::Neg(a) => {
                self.tag(b'N');
                self.operand(*a);
            }
            Inst::Rcp(a) => {
                self.tag(b'R');
                self.operand(*a);
            }
            Inst::Fma(a, b, c) | Inst::Fms(a, b, c) | Inst::Fnma(a, b, c) => {
                self.tag(match inst {
                    Inst::Fma(..) => b'F',
                    Inst::Fms(..) => b'M',
                    _ => b'm',
                });
                self.operand(*a);
                self.operand(*b);
                self.operand(*c);
            }
            Inst::Call(f, args) => {
                self.tag(b'C');
                self.str(f.c_name());
                self.u64(args.len() as u64);
                for &a in args {
                    self.operand(a);
                }
            }
            Inst::Const(c) => {
                self.tag(b'K');
                self.u64(c.to_bits());
            }
        }
    }

    fn seq(&mut self, vars: &Vars, seq: &InstSeq) {
        self.u64(seq.insts.len() as u64);
        for inst in &seq.insts {
            self.inst(vars, inst);
        }
        self.operand(seq.result);
    }

    fn nodes(&mut self, vars: &Vars, nodes: &[Node]) {
        self.u64(nodes.len() as u64);
        for node in nodes {
            match node {
                Node::Store { target, seq } => {
                    self.tag(b's');
                    match *target {
                        StoreTarget::Var(v) => {
                            self.tag(b'v');
                            self.str(&vars.floats[v]);
                        }
                        StoreTarget::Arr(a, i) => {
                            self.tag(b'a');
                            self.str(&vars.arrays[a]);
                            self.str(&vars.ints[i]);
                        }
                    }
                    self.seq(vars, seq);
                }
                Node::If { lhs, op, rhs, body } => {
                    self.tag(b'?');
                    self.seq(vars, lhs);
                    self.str(op.symbol());
                    self.seq(vars, rhs);
                    self.nodes(vars, body);
                }
                Node::For { var, bound, body } => {
                    self.tag(b'f');
                    self.str(&vars.ints[*var]);
                    self.str(&vars.ints[*bound]);
                    self.nodes(vars, body);
                }
            }
        }
    }

    fn kernel(&mut self, ir: &KernelIr) {
        self.str(&ir.program_id);
        self.str(ir.precision.label());
        self.u64(ir.params.len() as u64);
        for p in &ir.params {
            self.str(&p.name);
            self.str(&format!("{:?}", p.ty));
        }
        self.tag(u8::from(ir.flags.fast_math));
        self.tag(ir.flags.opt_level_index);
        self.nodes(&ir.vars, &ir.body);
    }

    fn stats(&mut self, stats: &CompileStats) {
        self.u64(stats.passes.len() as u64);
        for ps in &stats.passes {
            self.str(ps.name);
            self.u64(ps.rewrites);
        }
    }
}

fn corpus() -> Vec<Program> {
    let mut programs = Vec::new();
    for precision in [Precision::F32, Precision::F64] {
        let cfg = GenConfig::varity_default(precision);
        for index in 0..PROGRAMS {
            programs.push(generate_program(&cfg, SEED, index));
        }
    }
    programs
}

/// Every `(program, toolchain, level, hipified)` compile of the corpus,
/// in a fixed order.
fn for_each_compile(
    mut f: impl FnMut(&Program, Toolchain, OptLevel, bool, &KernelIr, &CompileStats),
) {
    for program in &corpus() {
        for toolchain in Toolchain::ALL {
            for level in OptLevel::ALL {
                for hipified in [false, true] {
                    let (ir, stats) = compile_with_stats(program, toolchain, level, hipified);
                    f(program, toolchain, level, hipified, &ir, &stats);
                }
            }
        }
    }
}

#[test]
fn every_compile_of_the_corpus_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut compiles = 0u64;
    for_each_compile(|_, _, _, _, ir, stats| {
        h.kernel(ir);
        h.stats(stats);
        compiles += 1;
    });
    assert_eq!(compiles, 2 * PROGRAMS * 2 * 5 * 2);
    assert_eq!(h.0, PINNED, "compile digest {:#018x} over {compiles} compiles", h.0);
}

#[test]
fn levels_sharing_a_schedule_compile_the_same_body() {
    for_each_compile(|program, toolchain, level, hipified, ir, _| {
        let shared = schedule_level(toolchain, level);
        assert!(shared <= level, "{toolchain} {level} shares a higher level's schedule");
        let (base, _) = compile_with_stats(program, toolchain, shared, hipified);
        assert_eq!(ir.body, base.body, "{} {toolchain} {level} hipified={hipified}", program.id);
        assert_eq!(ir.params, base.params);
        assert_eq!(ir.flags.fast_math, level.is_fast_math());
        assert_eq!(usize::from(ir.flags.opt_level_index), level.index());
    });
}
