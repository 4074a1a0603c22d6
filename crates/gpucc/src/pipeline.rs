//! Toolchain pass schedules: which passes run for
//! `{nvcc, hipcc} × {O0, O1, O2, O3, O3_FM}`.
//!
//! Calibrated against the paper's observations:
//!
//! * **O1 = O2 = O3** — Table V/VII/IX report *identical* discrepancy
//!   counts for O1–O3, so the FP-relevant pass set must be identical
//!   across them (the extra passes real compilers add at O2/O3 are not
//!   float-semantics-changing). The pipelines here differ only between
//!   O0 → O1 and O3 → O3_FM.
//! * **O0** — straight codegen, no contraction… except hipcc compiling a
//!   HIPIFY-converted source, which keeps its real-world
//!   `-ffp-contract=fast` default (the modeled mechanism for Table VII's
//!   O0 counts exceeding Table V's).
//! * **O3_FM** — nvcc's `-ffast-math` enables reassociation, finite-math-
//!   only, reciprocal substitution, FTZ and fast intrinsics; hipcc's
//!   `-DHIP_FAST_MATH` enables only the fast intrinsics and
//!   (result-flush) FTZ — paper §III-D.
//!
//! So the ten `(toolchain, level)` pairs run five pass schedules, and
//! [`schedule_level`] names, for each pair, the lowest level with the
//! same one: O1–O3 share O1's on both toolchains, and hipcc's O3_FM
//! shares it too, because `-DHIP_FAST_MATH` adds no pass. Levels that
//! share a schedule compile to the same body and differ only in their
//! [`CompileFlags`]. The pipeline derives its pass list from that
//! mapping, and campaigns compile each schedule once per test on the
//! strength of it.

use crate::ir::{CompileFlags, KernelIr};
use crate::lower::lower;
use crate::passes::{
    const_fold::ConstFold,
    cse::Cse,
    dce::Dce,
    finite_math::FiniteMath,
    fma::{FmaContract, FmaPreference},
    reassoc::reassociate_program_counted,
    recip::Recip,
    run_seq_pass, SeqPass,
};
use progen::ast::Program;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A simulated GPU toolchain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Toolchain {
    /// The nvcc-like compiler (CUDA sources, NVIDIA-like devices).
    Nvcc,
    /// The hipcc-like compiler (HIP sources, AMD-like devices).
    Hipcc,
}

impl Toolchain {
    /// Both toolchains, NVCC first (the paper's table convention).
    pub const ALL: [Toolchain; 2] = [Toolchain::Nvcc, Toolchain::Hipcc];

    /// Compiler-driver name.
    pub fn name(self) -> &'static str {
        match self {
            Toolchain::Nvcc => "nvcc",
            Toolchain::Hipcc => "hipcc",
        }
    }

    /// Source extension this toolchain accepts (compiler matching,
    /// paper §III-D).
    pub fn extension(self) -> &'static str {
        match self {
            Toolchain::Nvcc => "cu",
            Toolchain::Hipcc => "hip",
        }
    }

    fn fma_preference(self) -> FmaPreference {
        match self {
            Toolchain::Nvcc => FmaPreference::LhsFirst,
            Toolchain::Hipcc => FmaPreference::RhsFirst,
        }
    }
}

impl std::fmt::Display for Toolchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Optimization level (the paper's five settings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OptLevel {
    /// No optimization.
    O0,
    /// `-O1`.
    O1,
    /// `-O2`.
    O2,
    /// `-O3`.
    O3,
    /// `-O3 -ffast-math` (nvcc) / `-O3 -DHIP_FAST_MATH` (hipcc).
    O3Fm,
}

impl OptLevel {
    /// All levels, in the paper's table order.
    pub const ALL: [OptLevel; 5] =
        [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O3Fm];

    /// Table label (`O0` … `O3_FM`).
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
            OptLevel::O3Fm => "O3_FM",
        }
    }

    /// Index 0..5 (for the cost model and table rows).
    pub fn index(self) -> usize {
        match self {
            OptLevel::O0 => 0,
            OptLevel::O1 => 1,
            OptLevel::O2 => 2,
            OptLevel::O3 => 3,
            OptLevel::O3Fm => 4,
        }
    }

    /// True for the fast-math level.
    pub fn is_fast_math(self) -> bool {
        self == OptLevel::O3Fm
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    /// Parse a table label (`O0` … `O3_FM`) back into a level — the
    /// inverse of [`OptLevel::label`], used when decoding journal and
    /// metadata keys of the form `"nvcc:O3_FM"`.
    fn from_str(s: &str) -> Result<OptLevel, String> {
        OptLevel::ALL
            .into_iter()
            .find(|l| l.label() == s)
            .ok_or_else(|| format!("unknown optimization level {s:?}"))
    }
}

/// The lowest level whose pass schedule `level` shares on `toolchain`:
///
/// | toolchain | O0 | O1 | O2 | O3 | O3_FM |
/// |---|---|---|---|---|---|
/// | nvcc | O0 | O1 | O1 | O1 | O3_FM |
/// | hipcc | O0 | O1 | O1 | O1 | O1 |
///
/// Compiling at `level` yields the body that compiling at the named
/// level does, for either `hipified` value; only the flags differ.
pub fn schedule_level(toolchain: Toolchain, level: OptLevel) -> OptLevel {
    match (toolchain, level) {
        (_, OptLevel::O0) => OptLevel::O0,
        (Toolchain::Nvcc, OptLevel::O3Fm) => OptLevel::O3Fm,
        _ => OptLevel::O1,
    }
}

/// The lowest level whose kernel executes exactly as `level`'s does on
/// `toolchain`: it shares `level`'s pass schedule and its fast-math
/// flag, so the two kernels differ at most in
/// [`CompileFlags::opt_level_index`], which only the cost model's level
/// multiplier reads and no executor does. On both toolchains that is
/// O0, O1 for O1–O3, and O3_FM.
pub fn kernel_level(toolchain: Toolchain, level: OptLevel) -> OptLevel {
    if level.is_fast_math() {
        level
    } else {
        schedule_level(toolchain, level)
    }
}

/// An IR pass a schedule can run (the front-end `reassoc` rewrite is
/// not one; see [`Schedule`]).
#[derive(Debug, Clone, Copy)]
enum IrPass {
    ConstFold,
    FiniteMath,
    Recip,
    FmaContract,
    Cse,
    Dce,
}

/// One pass schedule: whether the front end reassociates, then the IR
/// passes in order.
struct Schedule {
    reassoc: bool,
    passes: &'static [IrPass],
}

impl Schedule {
    /// The schedule `level` runs on `toolchain`, chosen by its
    /// [`schedule_level`], so levels that share a schedule level share
    /// the list by construction.
    fn of(toolchain: Toolchain, level: OptLevel, hipified: bool) -> Schedule {
        use IrPass::*;
        let (reassoc, passes): (bool, &'static [IrPass]) = match schedule_level(toolchain, level) {
            // hipcc keeps its `-ffp-contract=fast` default on HIPIFY
            // output, even at O0
            OptLevel::O0 if hipified && toolchain == Toolchain::Hipcc => {
                (false, &[FmaContract, Cse, Dce])
            }
            OptLevel::O0 => (false, &[]),
            // nvcc's -ffast-math; hipcc's O3_FM schedule level is O1
            OptLevel::O3Fm => (true, &[ConstFold, FiniteMath, Recip, FmaContract, Cse, Dce]),
            _ => (false, &[ConstFold, FmaContract, Cse, Dce]),
        };
        Schedule { reassoc, passes }
    }
}

/// Compile a program with the given toolchain and level.
///
/// ```
/// use gpucc::pipeline::{compile, OptLevel, Toolchain};
/// use gpucc::interp::execute;
/// use gpusim::{Device, DeviceKind};
/// use progen::parser::parse_kernel;
/// use progen::inputs::{InputSet, InputValue};
///
/// let src = "__global__ void compute(double comp) { comp += 1.5; }";
/// let program = parse_kernel(src, "demo").unwrap();
/// let ir = compile(&program, Toolchain::Nvcc, OptLevel::O3, false);
/// let device = Device::new(DeviceKind::NvidiaLike);
/// let input = InputSet { values: vec![InputValue::Float(1.0)] };
/// let result = execute(&ir, &device, &input).unwrap();
/// assert_eq!(result.value.to_f64(), 2.5);
/// ```
///
/// `hipified` marks sources produced by the HIPIFY translator, which the
/// hipcc-like compiler builds with contraction enabled at every level
/// (ignored by nvcc).
pub fn compile(program: &Program, toolchain: Toolchain, opt: OptLevel, hipified: bool) -> KernelIr {
    compile_with_stats(program, toolchain, opt, hipified).0
}

/// What one pass did during one compile: rewrites fired and time spent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PassStat {
    /// Pass name (`reassoc`, `finite-math`, `fma-contract`, …).
    pub name: &'static str,
    /// Number of rewrites the pass applied (pass-specific unit; zero
    /// means the pass ran but changed nothing).
    pub rewrites: u64,
    /// Wall-clock nanoseconds spent in the pass.
    pub nanos: u64,
}

/// Per-pass statistics for one compile, in pass execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CompileStats {
    /// One entry per pass that ran (skipped passes are absent).
    pub passes: Vec<PassStat>,
}

impl CompileStats {
    /// Rewrites fired by the named pass (0 if it did not run).
    pub fn rewrites(&self, name: &str) -> u64 {
        self.passes.iter().filter(|p| p.name == name).map(|p| p.rewrites).sum()
    }

    /// Names of passes that changed the kernel (rewrites > 0), in order.
    pub fn fired_passes(&self) -> Vec<&'static str> {
        self.passes.iter().filter(|p| p.rewrites > 0).map(|p| p.name).collect()
    }
}

/// [`compile`], plus per-pass rewrite counts and timings.
///
/// Telemetry side effects (when `obs` is enabled): times the whole
/// compile under the `gpucc.compile` span, bumps `gpucc.compiles`, and
/// for every pass that ran records
/// `gpucc.rewrites.{toolchain}.{level}.{pass}` (counter) and
/// `gpucc.passns.{toolchain}.{level}.{pass}` (histogram, nanoseconds).
/// While a trace is active each pass additionally emits a child trace
/// event named after the pass, carrying its rewrite count.
pub fn compile_with_stats(
    program: &Program,
    toolchain: Toolchain,
    opt: OptLevel,
    hipified: bool,
) -> (KernelIr, CompileStats) {
    let mut stats = CompileStats::default();
    let ir = compile_impl(program, toolchain, opt, hipified, &mut stats, &mut |_, _, _| {});
    (ir, stats)
}

/// The IR as it stood after one compilation stage completed — the oracle's
/// per-pass equivalence hook.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// Stage name: `"lower"` for the pre-pass snapshot, otherwise the pass
    /// name from [`CompileStats`] (`const-fold`, `fma-contract`, …).
    pub name: &'static str,
    /// Rewrites the stage fired (always 0 for `"lower"`).
    pub rewrites: u64,
    /// Snapshot of the kernel IR after this stage.
    pub ir: KernelIr,
}

/// [`compile_with_stats`], plus an IR snapshot after every stage.
///
/// The first trace is always `"lower"` — the lowered IR with the level's
/// flags set, before any IR pass ran. Executing the snapshots in order and
/// comparing each result to its predecessor localizes a numerical change
/// to the stage that introduced it (this is how `crates/oracle` attributes
/// a violation to the first non-preserving pass). The front-end `reassoc`
/// rewrite happens before lowering and therefore has no snapshot of its
/// own; its effect is part of the `"lower"` snapshot and its rewrite count
/// is still reported in [`CompileStats`].
pub fn compile_traced(
    program: &Program,
    toolchain: Toolchain,
    opt: OptLevel,
    hipified: bool,
) -> (KernelIr, CompileStats, Vec<PassTrace>) {
    let mut stats = CompileStats::default();
    let mut traces = Vec::new();
    let ir = compile_impl(program, toolchain, opt, hipified, &mut stats, &mut |name, fired, ir| {
        traces.push(PassTrace { name, rewrites: fired, ir: ir.clone() });
    });
    (ir, stats, traces)
}

/// Shared pipeline body. `observe(stage, rewrites, ir)` is called with the
/// `"lower"` snapshot and then once after every IR pass, in execution
/// order; [`compile_with_stats`] passes a no-op observer so the plain path
/// pays no snapshot cost.
fn compile_impl(
    program: &Program,
    toolchain: Toolchain,
    opt: OptLevel,
    hipified: bool,
    stats: &mut CompileStats,
    observe: &mut dyn FnMut(&'static str, u64, &KernelIr),
) -> KernelIr {
    static COMPILE: obs::SpanName = obs::SpanName::new("gpucc.compile");
    let _span = COMPILE
        .start()
        .attr("toolchain", toolchain.name())
        .attr("level", opt.label())
        .attr("hipified", hipified);

    let schedule = Schedule::of(toolchain, opt, hipified);
    // nvcc -ffast-math reassociates in the front end
    let reassociated;
    let program = if schedule.reassoc {
        let t = Instant::now();
        let (p, fired) = reassociate_program_counted(program);
        let nanos = t.elapsed().as_nanos() as u64;
        if obs::trace::active() {
            obs::trace::emit("reassoc", t, nanos, vec![("rewrites", fired.into())]);
        }
        stats.passes.push(PassStat { name: "reassoc", rewrites: fired, nanos });
        reassociated = p;
        &reassociated
    } else {
        program
    };

    let mut ir = lower(program);
    ir.flags = CompileFlags::for_level(opt);
    observe("lower", 0, &ir);

    let fma = FmaContract {
        preference: toolchain.fma_preference(),
        contract_sub: toolchain == Toolchain::Hipcc,
    };
    for &pass in schedule.passes {
        let pass: &dyn SeqPass = match pass {
            IrPass::ConstFold => &ConstFold,
            IrPass::FiniteMath => &FiniteMath,
            IrPass::Recip => &Recip,
            IrPass::FmaContract => &fma,
            IrPass::Cse => &Cse,
            IrPass::Dce => &Dce,
        };
        let t = Instant::now();
        let fired = run_seq_pass(&mut ir, pass);
        let nanos = t.elapsed().as_nanos() as u64;
        if obs::trace::active() {
            obs::trace::emit(pass.name(), t, nanos, vec![("rewrites", fired.into())]);
        }
        stats.passes.push(PassStat { name: pass.name(), rewrites: fired, nanos });
        observe(pass.name(), fired, &ir);
    }

    if obs::enabled() {
        static COMPILES: obs::Name = obs::Name::new("gpucc.compiles");
        COMPILES.add(1);
        let names = crate::names::PassNames::get();
        for ps in &stats.passes {
            if let Some((rewrites, passns)) = names.of(toolchain, opt, ps.name) {
                obs::add_id(rewrites, ps.rewrites);
                obs::record_id(passns, ps.nanos);
            }
        }
    }

    ir
}

#[cfg(test)]
mod tests {
    use super::*;
    use progen::gen::generate_program;
    use progen::grammar::GenConfig;
    use progen::Precision;

    fn sample(seed: u64, i: u64) -> Program {
        generate_program(&GenConfig::varity_default(Precision::F64), seed, i)
    }

    #[test]
    fn schedule_levels_follow_the_documented_table() {
        use OptLevel::*;
        for (tc, want) in
            [(Toolchain::Nvcc, [O0, O1, O1, O1, O3Fm]), (Toolchain::Hipcc, [O0, O1, O1, O1, O1])]
        {
            let got = OptLevel::ALL.map(|l| schedule_level(tc, l));
            assert_eq!(got, want, "{tc}");
            let kernels = OptLevel::ALL.map(|l| kernel_level(tc, l));
            assert_eq!(kernels, [O0, O1, O1, O1, O3Fm], "{tc}");
        }
    }

    #[test]
    fn o1_o2_o3_produce_identical_ir() {
        for i in 0..30 {
            let p = sample(3, i);
            for tc in Toolchain::ALL {
                let o1 = compile(&p, tc, OptLevel::O1, false);
                let mut o2 = compile(&p, tc, OptLevel::O2, false);
                let mut o3 = compile(&p, tc, OptLevel::O3, false);
                // flags record the level; normalize before comparing bodies
                o2.flags = o1.flags;
                o3.flags = o1.flags;
                assert_eq!(o1, o2, "{tc} program {i}");
                assert_eq!(o1, o3, "{tc} program {i}");
            }
        }
    }

    #[test]
    fn o0_is_unoptimized_lowering() {
        let p = sample(5, 0);
        let ir = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
        let plain = crate::lower::lower(&p);
        assert_eq!(ir.body, plain.body);
        assert!(!ir.flags.fast_math);
    }

    #[test]
    fn toolchains_agree_at_o0_for_plain_sources() {
        for i in 0..20 {
            let p = sample(7, i);
            let nv = compile(&p, Toolchain::Nvcc, OptLevel::O0, false);
            let amd = compile(&p, Toolchain::Hipcc, OptLevel::O0, false);
            assert_eq!(nv.body, amd.body, "program {i}");
        }
    }

    #[test]
    fn hipified_sources_contract_at_o0_on_hipcc_only() {
        // find a program whose IR actually contains a contraction site
        let mut found = false;
        for i in 0..100 {
            let p = sample(11, i);
            let plain = compile(&p, Toolchain::Hipcc, OptLevel::O0, false);
            let hipified = compile(&p, Toolchain::Hipcc, OptLevel::O0, true);
            let nv_hipified_flag = compile(&p, Toolchain::Nvcc, OptLevel::O0, true);
            assert_eq!(nv_hipified_flag.body, plain.body, "nvcc ignores hipified");
            if hipified.body != plain.body {
                found = true;
                break;
            }
        }
        assert!(found, "no program contracted at O0-hipified in 100 samples");
    }

    #[test]
    fn fast_math_sets_flags() {
        let p = sample(13, 0);
        for tc in Toolchain::ALL {
            let ir = compile(&p, tc, OptLevel::O3Fm, false);
            assert!(ir.flags.fast_math);
            assert_eq!(ir.flags.opt_level_index, 4);
        }
    }

    #[test]
    fn toolchain_pipelines_eventually_differ_at_o1() {
        // somewhere in 100 programs the FMA preference must bite
        let mut diff = false;
        for i in 0..100 {
            let p = sample(17, i);
            let nv = compile(&p, Toolchain::Nvcc, OptLevel::O1, false);
            let amd = compile(&p, Toolchain::Hipcc, OptLevel::O1, false);
            if nv.body != amd.body {
                diff = true;
                break;
            }
        }
        assert!(diff, "pipelines never diverged at O1 across 100 programs");
    }

    #[test]
    fn stats_compile_matches_plain_compile() {
        for i in 0..20 {
            let p = sample(19, i);
            for tc in Toolchain::ALL {
                for opt in OptLevel::ALL {
                    let plain = compile(&p, tc, opt, false);
                    let (ir, _) = compile_with_stats(&p, tc, opt, false);
                    assert_eq!(plain, ir, "{tc} {opt} program {i}");
                }
            }
        }
    }

    #[test]
    fn o0_runs_no_passes_and_fast_math_runs_the_bundle() {
        let p = sample(23, 0);
        let (_, o0) = compile_with_stats(&p, Toolchain::Nvcc, OptLevel::O0, false);
        assert!(o0.passes.is_empty(), "{:?}", o0.passes);

        let (_, fm) = compile_with_stats(&p, Toolchain::Nvcc, OptLevel::O3Fm, false);
        let names: Vec<_> = fm.passes.iter().map(|ps| ps.name).collect();
        assert_eq!(
            names,
            ["reassoc", "const-fold", "finite-math", "recip", "fma-contract", "cse", "dce"]
        );

        // hipcc fast math omits the nvcc-only bundle (paper §III-D)
        let (_, hip) = compile_with_stats(&p, Toolchain::Hipcc, OptLevel::O3Fm, false);
        let names: Vec<_> = hip.passes.iter().map(|ps| ps.name).collect();
        assert_eq!(names, ["const-fold", "fma-contract", "cse", "dce"]);
    }

    #[test]
    fn traced_compile_matches_stats_compile() {
        for i in 0..10 {
            let p = sample(31, i);
            for tc in Toolchain::ALL {
                for opt in OptLevel::ALL {
                    let (ir, stats) = compile_with_stats(&p, tc, opt, false);
                    let (tir, tstats, traces) = compile_traced(&p, tc, opt, false);
                    assert_eq!(ir, tir, "{tc} {opt} program {i}");
                    // nanos differ between runs; names and rewrites must not
                    let summary = |s: &CompileStats| -> Vec<_> {
                        s.passes.iter().map(|ps| (ps.name, ps.rewrites)).collect()
                    };
                    assert_eq!(summary(&stats), summary(&tstats), "{tc} {opt} program {i}");
                    // trace 0 is the lowering snapshot; the rest mirror the
                    // IR passes in stats order (reassoc is pre-lowering and
                    // has no snapshot)
                    assert_eq!(traces[0].name, "lower");
                    assert_eq!(traces[0].rewrites, 0);
                    let traced: Vec<_> = traces[1..].iter().map(|t| t.name).collect();
                    let ran: Vec<_> =
                        stats.passes.iter().map(|ps| ps.name).filter(|n| *n != "reassoc").collect();
                    assert_eq!(traced, ran, "{tc} {opt} program {i}");
                    // the last snapshot is the final IR
                    assert_eq!(traces.last().unwrap().ir, tir);
                }
            }
        }
    }

    #[test]
    fn traced_o0_snapshot_is_plain_lowering() {
        let p = sample(37, 0);
        let (ir, _, traces) = compile_traced(&p, Toolchain::Nvcc, OptLevel::O0, false);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].ir, ir);
        assert_eq!(traces[0].ir.body, crate::lower::lower(&p).body);
    }

    #[test]
    fn fma_contraction_fires_somewhere_in_a_sample() {
        let total: u64 = (0..50)
            .map(|i| {
                let p = sample(29, i);
                compile_with_stats(&p, Toolchain::Nvcc, OptLevel::O1, false)
                    .1
                    .rewrites("fma-contract")
            })
            .sum();
        assert!(total > 0, "fma-contract never fired across 50 programs");
    }

    #[test]
    fn labels_and_indices() {
        assert_eq!(OptLevel::O3Fm.label(), "O3_FM");
        assert_eq!(OptLevel::O0.index(), 0);
        assert_eq!(OptLevel::O3Fm.index(), 4);
        assert_eq!(Toolchain::Nvcc.extension(), "cu");
        assert_eq!(Toolchain::Hipcc.extension(), "hip");
        assert_eq!(OptLevel::ALL.len(), 5);
    }
}
