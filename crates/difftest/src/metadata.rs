//! Campaign metadata: the JSON protocol of the paper's Fig. 3.
//!
//! GPUs from different vendors live in different clusters, so the paper
//! runs each campaign in two halves: system `C1` generates the tests, runs
//! its own compiler, and saves a JSON metadata file; system `C2` loads the
//! metadata, *regenerates exactly the same tests and inputs* (generation
//! is deterministic in the config), runs its side, and the merged file is
//! analyzed. [`crate::checkpoint::run_sides_ft`] with one side, then
//! [`CampaignMeta::merge`], implement that protocol on one machine or two.

use crate::campaign::CampaignConfig;
use crate::campaign::TestMode;
use crate::fault::{FaultKind, TestFault};
use crate::side::{Side, SideKey};
use fpcore::classify::Outcome;
use gpucc::interp::{
    execute_prepared_budgeted, ExecBudget, ExecError, ExecResult, ExecValue, ExecutableKernel,
};
use gpucc::ir::CompileFlags;
use gpucc::pipeline::{
    compile_with_stats, kernel_level, schedule_level, CompileStats, OptLevel, Toolchain,
};
use gpucc::vm::{self, CompiledKernel};
use gpucc::{ExecTier, KernelIr};
use gpusim::{Device, DeviceKind};
use hipify::hipify;
use progen::ast::Program;
use progen::emit::{emit, Dialect};
use progen::gen::{generate_program, program_header};
use progen::inputs::{generate_inputs, InputSet};
use progen::parser::parse_kernel;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::path::Path;

/// One stored execution result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Raw result bits (width per campaign precision).
    pub bits: u64,
    /// Outcome classification.
    pub outcome: Outcome,
    /// The `printf("%.17g")` output line.
    pub printed: String,
    /// IEEE exception flags the run raised (GPU-FPX-style tracking; the
    /// paper's ref \[12\]).
    #[serde(default)]
    pub exceptions: fpcore::exceptions::ExceptionFlags,
    /// Execution error, if the run failed (never for generated tests).
    pub error: Option<String>,
}

/// Metadata for one test program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestMeta {
    /// Generation index (program is regenerated from `(config, index)`).
    pub index: u64,
    /// Program identifier (sanity-checked on regeneration).
    pub program_id: String,
    /// The input sets, in order.
    pub inputs: Vec<InputSet>,
    /// `results["nvcc:O0"][input_idx]`.
    pub results: BTreeMap<String, Vec<RunRecord>>,
}

/// A campaign's full metadata file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignMeta {
    /// Campaign configuration (fully determines tests + inputs).
    pub config: CampaignConfig,
    /// Which sides have been executed. Serializes as the historical
    /// lowercase strings (`"nvcc"`, `"hipcc"`, now also `"reference"`),
    /// so v1 metadata files load unchanged.
    pub sides_run: Vec<Side>,
    /// Per-test metadata.
    pub tests: Vec<TestMeta>,
    /// Telemetry captured while this half ran (absent in files written
    /// before metrics existed or with telemetry disabled). Merging
    /// halves or shards adds their snapshots together.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub metrics: Option<obs::MetricsSnapshot>,
    /// Quarantined faults this piece of the campaign contained (absent
    /// in files written before fault tolerance existed). The CLI copies
    /// the fault-tolerant session's ledger here before saving, so shard
    /// result files carry their quarantine with them; merging dedupes
    /// and sorts, keeping shard merges order-independent.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub quarantine: Vec<TestFault>,
}

/// Key for one (side, level) result column — the string form of
/// [`SideKey`], which `TestMeta::results` maps are indexed by.
pub fn side_key(side: impl Into<Side>, level: OptLevel) -> String {
    SideKey::new(side, level).to_string()
}

/// The single key the ground-truth results are stored under (the
/// reference evaluates the strict O0 IR once per test; every level's
/// comparison reads the same column).
pub fn reference_key() -> String {
    SideKey::REFERENCE.to_string()
}

/// Errors from the metadata protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The two files describe different campaigns.
    ConfigMismatch,
    /// Serialization / IO failure.
    Io(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::ConfigMismatch => f.write_str("campaign configs do not match"),
            MetaError::Io(m) => write!(f, "metadata io error: {m}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl CampaignMeta {
    /// Generate the campaign's tests and inputs (no results yet).
    pub fn generate(config: &CampaignConfig) -> Self {
        let indices: Vec<u64> = (0..config.n_programs as u64).collect();
        Self::generate_indices(config, indices)
    }

    /// Generate only shard `shard_index` of `shard_count`: the tests
    /// whose generation index is ≡ `shard_index` (mod `shard_count`) —
    /// exactly the subset [`CampaignMeta::shard`] deals that shard, so
    /// `generate_shard(c, k, n)` equals `generate(c).shard(n)[k]` without
    /// ever materializing the other shards. Campaign-farm workers use
    /// this to regenerate their lease from `(config, shard spec)` alone.
    pub fn generate_shard(config: &CampaignConfig, shard_index: usize, shard_count: usize) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        assert!(shard_index < shard_count, "shard index out of range");
        let indices: Vec<u64> = (0..config.n_programs as u64)
            .filter(|i| (*i as usize) % shard_count == shard_index)
            .collect();
        Self::generate_indices(config, indices)
    }

    fn generate_indices(config: &CampaignConfig, indices: Vec<u64>) -> Self {
        static GENERATE: obs::SpanName = obs::SpanName::new("campaign.generate");
        let _span = GENERATE.start();
        // inputs read only a program's header, so no body is generated
        // here: the runner generates each program once, when it builds it
        let tests = crate::par::map(indices, |index| {
            let header = program_header(&config.gen, index);
            let inputs = generate_inputs(&header, config.seed, config.inputs_per_program);
            TestMeta { index, program_id: header.id, inputs, results: BTreeMap::new() }
        });
        CampaignMeta {
            config: config.clone(),
            sides_run: Vec::new(),
            tests,
            metrics: None,
            quarantine: Vec::new(),
        }
    }

    /// Regenerate the program for a test entry (deterministic).
    pub fn program_for(&self, test: &TestMeta) -> Program {
        let p = generate_program(&self.config.gen, self.config.seed, test.index);
        debug_assert_eq!(p.id, test.program_id, "metadata/program mismatch");
        p
    }

    /// True once both compilers' results are present. The reference
    /// side is optional: a campaign is complete without ground truth —
    /// verdicts simply stay `TruthUndecided`.
    pub fn is_complete(&self) -> bool {
        Side::VENDORS.iter().all(|s| self.sides_run.contains(s))
    }

    /// True when the ground-truth side has been executed.
    pub fn has_reference(&self) -> bool {
        self.sides_run.contains(&Side::Reference)
    }

    /// Merge two half-campaigns (same config, different sides run).
    pub fn merge(mut a: CampaignMeta, b: CampaignMeta) -> Result<CampaignMeta, MetaError> {
        if a.config != b.config || a.tests.len() != b.tests.len() {
            return Err(MetaError::ConfigMismatch);
        }
        for (ta, tb) in a.tests.iter_mut().zip(b.tests) {
            if ta.program_id != tb.program_id || ta.inputs != tb.inputs {
                return Err(MetaError::ConfigMismatch);
            }
            for (k, v) in tb.results {
                ta.results.entry(k).or_insert(v);
            }
        }
        for s in b.sides_run {
            if !a.sides_run.contains(&s) {
                a.sides_run.push(s);
            }
        }
        a.sides_run.sort();
        a.quarantine.extend(b.quarantine);
        canonicalize_quarantine(&mut a.quarantine);
        a.metrics = merge_metrics(a.metrics.take(), b.metrics);
        Ok(a)
    }

    /// Split a campaign into `n_shards` batches over disjoint test ranges
    /// (the paper: "Due to resource constraints, we divided the tests into
    /// multiple batches, executed each batch separately, and then compiled
    /// the results into a comprehensive dataset"). Each shard is a
    /// self-contained `CampaignMeta` that can be run (either side or both)
    /// on a different machine and recombined with
    /// [`CampaignMeta::merge_shards`].
    pub fn shard(self, n_shards: usize) -> Vec<CampaignMeta> {
        assert!(n_shards > 0, "need at least one shard");
        let mut shards: Vec<CampaignMeta> = (0..n_shards)
            .map(|_| CampaignMeta {
                config: self.config.clone(),
                sides_run: self.sides_run.clone(),
                tests: Vec::new(),
                metrics: None,
                quarantine: Vec::new(),
            })
            .collect();
        for (i, test) in self.tests.into_iter().enumerate() {
            shards[i % n_shards].tests.push(test);
        }
        // quarantine entries follow the shard that owns their test
        for fault in self.quarantine {
            shards[(fault.index as usize) % n_shards].quarantine.push(fault);
        }
        shards
    }

    /// Fold shards produced by [`CampaignMeta::shard`] (or regenerated
    /// by farm workers via [`CampaignMeta::generate_shard`]) into one
    /// campaign *without* requiring the set to be complete — the
    /// incremental-merge primitive the campaign farm folds finished
    /// shards into as they land. Requires identical configs; the
    /// intersection of the shards' completed sides is kept. Test indices
    /// must be disjoint *or identical*: overlapping crash-replay shards
    /// (a re-leased shard completing twice, or the same finding shipped
    /// by two fleet agents) carry byte-identical tests — campaigns are
    /// deterministic in their config — and those count once. Two
    /// *different* tests under one index still reject the merge.
    ///
    /// The result is canonical: tests sorted by index and deduplicated,
    /// sides sorted, and quarantine entries deduplicated and sorted.
    /// Canonical output makes the fold order-independent — merging
    /// shards in any order, in any grouping, yields byte-identical
    /// metadata.
    pub fn merge_shards_partial(shards: Vec<CampaignMeta>) -> Result<CampaignMeta, MetaError> {
        let mut iter = shards.into_iter();
        let mut merged = iter.next().ok_or(MetaError::ConfigMismatch)?;
        if has_conflict(merged.tests.iter()) {
            return Err(MetaError::ConfigMismatch);
        }
        merged.canonicalize();
        for shard in iter {
            merged.merge_from(shard)?;
        }
        Ok(merged)
    }

    /// Fold one more shard result into this merge, by the rules of
    /// [`CampaignMeta::merge_shards_partial`]. A shard from another
    /// campaign, or one holding a different test under an index either
    /// side already holds, is rejected, and then `self` is left exactly
    /// as it was.
    pub fn merge_from(&mut self, shard: CampaignMeta) -> Result<(), MetaError> {
        if shard.config != self.config || has_conflict(self.tests.iter().chain(&shard.tests)) {
            return Err(MetaError::ConfigMismatch);
        }
        self.sides_run.retain(|s| shard.sides_run.contains(s));
        self.tests.extend(shard.tests);
        self.quarantine.extend(shard.quarantine);
        self.metrics = merge_metrics(self.metrics.take(), shard.metrics);
        self.canonicalize();
        Ok(())
    }

    /// Tests sorted by index with identical duplicates (overlapping
    /// replays) collapsed to one copy, sides sorted, quarantine
    /// canonical.
    fn canonicalize(&mut self) {
        self.tests.sort_by_key(|t| t.index);
        self.tests.dedup();
        self.sides_run.sort();
        canonicalize_quarantine(&mut self.quarantine);
    }

    /// Recombine a *complete* shard set into the full campaign:
    /// [`CampaignMeta::merge_shards_partial`] plus the completeness
    /// check (every test index present exactly once).
    pub fn merge_shards(shards: Vec<CampaignMeta>) -> Result<CampaignMeta, MetaError> {
        let merged = Self::merge_shards_partial(shards)?;
        if merged.tests.len() != merged.config.n_programs {
            return Err(MetaError::ConfigMismatch);
        }
        Ok(merged)
    }

    /// Save as compact JSON, atomically (temp file + fsync + rename in
    /// the destination directory): a crash mid-save leaves the previous
    /// file intact, never a torn one.
    pub fn save(&self, path: &Path) -> Result<(), MetaError> {
        let json = serde_json::to_vec(self).map_err(io)?;
        crate::checkpoint::atomic_write(path, &json).map_err(io)
    }

    /// Load from JSON.
    pub fn load(path: &Path) -> Result<CampaignMeta, MetaError> {
        let json = std::fs::read(path).map_err(io)?;
        serde_json::from_slice(&json).map_err(io)
    }
}

pub(crate) fn io(e: impl std::fmt::Display) -> MetaError {
    MetaError::Io(e.to_string())
}

/// Whether two of `tests` share an index but differ: the conflict a
/// merge rejects (identical copies from overlapping replays are fine).
fn has_conflict<'a>(tests: impl Iterator<Item = &'a TestMeta>) -> bool {
    let mut by_index: Vec<&TestMeta> = tests.collect();
    by_index.sort_by_key(|t| t.index);
    by_index.windows(2).any(|w| w[0].index == w[1].index && w[0] != w[1])
}

/// Sort and deduplicate a quarantine ledger into its canonical form.
/// Duplicates are real: a worker that crashed after journaling a
/// faulting unit replays that unit's fault on resume, and the shard that
/// reran it reports it again — the merged campaign must count the fault
/// once.
fn canonicalize_quarantine(quarantine: &mut Vec<TestFault>) {
    quarantine.sort();
    quarantine.dedup();
}

/// Combine the telemetry of two campaign pieces (counters add,
/// histograms merge bucket-wise; one-sided telemetry passes through).
fn merge_metrics(
    a: Option<obs::MetricsSnapshot>,
    b: Option<obs::MetricsSnapshot>,
) -> Option<obs::MetricsSnapshot> {
    match (a, b) {
        (Some(mut ma), Some(mb)) => {
            ma.merge(&mb);
            Some(ma)
        }
        (ma, mb) => ma.or(mb),
    }
}

/// Build the kernel a given side runs for any program: emit source in
/// the right dialect, push it through HIPIFY if the campaign tests
/// converted code, re-parse, and compile with the side's toolchain.
/// Unlike a generated program, which the campaign compiles as it is
/// wherever no translator rewrites its source ([`TestBuild`]), a shrunk
/// or hand-written program need not parse back to itself: the parser
/// folds `Neg(Lit)` into a signed literal, and the emitter rounds
/// literals to five significant digits.
pub fn build_side(
    program: &Program,
    toolchain: Toolchain,
    level: OptLevel,
    mode: TestMode,
) -> KernelIr {
    build_side_with_stats(program, toolchain, level, mode).0
}

/// [`build_side`], plus the per-pass compile statistics. The
/// pass-attribution report recompiles discrepant (program, level) pairs
/// through this to name the passes that rewrote the offending kernel —
/// compilation is deterministic, so the recompile sees exactly what the
/// campaign's compile did.
pub fn build_side_with_stats(
    program: &Program,
    toolchain: Toolchain,
    level: OptLevel,
    mode: TestMode,
) -> (KernelIr, CompileStats) {
    let (parsed, hipified) = parse_side(program, toolchain, mode);
    compile_with_stats(&parsed, toolchain, level, hipified)
}

/// The text path of [`build_side`]: emit source in the side's dialect
/// (CUDA through HIPIFY when the campaign tests converted code) and
/// parse it back. Returns the parsed kernel and whether it went through
/// the translator. A campaign's [`TestBuild`] takes it for a hipified
/// campaign's hipcc side, and on the differential tier for the other
/// sides too, to check that their parse is the generated program.
fn parse_side(program: &Program, toolchain: Toolchain, mode: TestMode) -> (Program, bool) {
    match (toolchain, mode) {
        (Toolchain::Nvcc, _) => {
            let src = emit(program, Dialect::Cuda);
            (parse_kernel(&src, &program.id).expect("emitted CUDA parses"), false)
        }
        (Toolchain::Hipcc, TestMode::Direct) => {
            let src = emit(program, Dialect::Hip);
            (parse_kernel(&src, &program.id).expect("emitted HIP parses"), false)
        }
        (Toolchain::Hipcc, TestMode::Hipified) => {
            let converted = hipify(&emit(program, Dialect::Cuda));
            (parse_kernel(&converted.source, &program.id).expect("hipified source parses"), true)
        }
    }
}

/// What `toolchain` compiles for `program` in a campaign of `mode` on
/// `tier`, and whether HIPIFY produced it: the parse of HIPIFY's output
/// on a hipified campaign's hipcc side, and the generated program
/// itself everywhere else. On the differential tier, a side that
/// compiles the generated program first checks that its text path
/// gives that program back, and panics if not.
fn front_end(
    program: &Program,
    toolchain: Toolchain,
    mode: TestMode,
    tier: ExecTier,
) -> (Cow<'_, Program>, bool) {
    if toolchain == Toolchain::Hipcc && mode == TestMode::Hipified {
        return (Cow::Owned(parse_side(program, toolchain, mode).0), true);
    }
    if tier == ExecTier::Differential {
        let (parsed, _) = parse_side(program, toolchain, mode);
        assert!(
            parsed == *program,
            "{}'s {toolchain} source does not parse back to the generated program",
            program.id
        );
    }
    (Cow::Borrowed(program), false)
}

/// Convert an execution outcome into the stored record form. Every tier
/// and the reference go through here, so a record never betrays which
/// executor produced it — the vm is bit-identical to the interpreter
/// including `ExecError` display strings, and report byte-identity
/// across tiers depends on it.
fn record_of(outcome: Result<ExecResult, ExecError>) -> (RunRecord, Option<ExecError>) {
    match outcome {
        Ok(result) => (
            RunRecord {
                bits: result.value.bits(),
                outcome: result.value.outcome(),
                printed: result.value.format_exact(),
                exceptions: result.exceptions,
                error: None,
            },
            None,
        ),
        Err(e) => (error_record(e.to_string()), Some(e)),
    }
}

/// The placeholder record stored for a run that produced no value
/// (execution error or contained panic).
fn error_record(error: String) -> RunRecord {
    RunRecord {
        bits: ExecValue::F64(f64::NAN).bits(),
        outcome: Outcome::Nan,
        printed: String::new(),
        exceptions: fpcore::exceptions::ExceptionFlags::new(),
        error: Some(error),
    }
}

/// Everything one test builds, shared by every unit the campaign runner
/// executes for it (every requested side, every level, and the ground
/// truth), on one execution tier.
///
/// nvcc, and hipcc in a direct campaign, compile the generated program
/// itself: no translator rewrites their source, and a generated
/// program's emission parses back to it (`tests/source_identity.rs`
/// pins that over the compile corpus, and the differential tier checks
/// it on every test, see [`front_end`]). Only a hipified campaign's
/// hipcc side emits CUDA, converts it with HIPIFY and parses the
/// result. nvcc's O0 build also serves the ground truth. Each
/// toolchain compiles once per pass schedule
/// ([`gpucc::pipeline::schedule_level`]): nvcc's O0, O1 and O3_FM,
/// hipcc's O0 and O1, so 5 compilations stand in for 10. The levels
/// whose kernels execute alike ([`gpucc::pipeline::kernel_level`]) share
/// one [`ClassBuild`]: O1–O3 on each toolchain, with O0 and O3_FM
/// classes of their own; hipcc's O3_FM class takes O1's body under the
/// fast-math flags. A class checks its kernel when it is built, lowers
/// its bytecode only when a unit executes it on the vm, and executes
/// once: a later unit of the same class copies the first one's records.
/// The cache is private to one map item (one test), so nothing is
/// locked, and it is filled *inside* the unit's `catch_isolated`, so a
/// panic during a build is attributed to the unit that needed it.
pub(crate) struct TestBuild<'p> {
    program: &'p Program,
    mode: TestMode,
    tier: ExecTier,
    toolchains: [ToolchainBuild<'p>; 2],
}

/// One toolchain's share of a [`TestBuild`], indexed by `Toolchain`.
#[derive(Default)]
struct ToolchainBuild<'p> {
    /// The program the toolchain compiles and whether HIPIFY produced
    /// it ([`front_end`]), made when its first class is built.
    source: Option<(Cow<'p, Program>, bool)>,
    /// Indexed by the [`OptLevel::index`] of each class's
    /// [`gpucc::pipeline::kernel_level`].
    classes: [Option<ClassBuild>; 5],
}

/// One execution class: its checked kernel (which the interpreter and
/// the reference execute, and which holds the class's only copy of its
/// IR), the bytecode lowered from it on demand, and the records of its
/// first execution.
struct ClassBuild {
    kernel: ExecutableKernel,
    bytecode: OnceCell<CompiledKernel>,
    /// The first execution's records, kept only when none is an error
    /// record. A run with an error (a step-budget or timeout fault, a
    /// vm/interp mismatch, a panic) is not reused, so every later unit
    /// of the class executes and records its own fault.
    records: Option<Vec<RunRecord>>,
}

impl ClassBuild {
    /// Check `ir` for execution and keep it. A malformed kernel panics
    /// here, inside the unit that built the class.
    fn new(ir: KernelIr) -> ClassBuild {
        let kernel = ExecutableKernel::try_from(ir).expect("generated kernels are valid");
        ClassBuild { kernel, bytecode: OnceCell::new(), records: None }
    }

    /// The vm tier's lowered bytecode.
    fn bytecode(&self) -> &CompiledKernel {
        self.bytecode.get_or_init(|| {
            vm::compile_kernel(self.kernel.ir()).expect("generated kernels are valid")
        })
    }
}

impl<'p> TestBuild<'p> {
    /// An empty cache for `program` under the campaign's `mode`, whose
    /// vendor units run on `tier`.
    pub(crate) fn new(program: &'p Program, mode: TestMode, tier: ExecTier) -> TestBuild<'p> {
        TestBuild { program, mode, tier, toolchains: Default::default() }
    }

    /// `toolchain`'s execution class for `level`, compiling its pass
    /// schedule (after the toolchain's front end) first if no unit of
    /// this test has yet.
    fn class(&mut self, toolchain: Toolchain, level: OptLevel) -> &mut ClassBuild {
        let t = toolchain as usize;
        let owner = kernel_level(toolchain, level);
        if self.toolchains[t].classes[owner.index()].is_none() {
            let schedule = schedule_level(toolchain, owner);
            let ir = if schedule == owner {
                let (source, hipified) = self.toolchains[t].source.get_or_insert_with(|| {
                    front_end(self.program, toolchain, self.mode, self.tier)
                });
                compile_with_stats(source, toolchain, owner, *hipified).0
            } else {
                let shared = self.class(toolchain, schedule).kernel.ir();
                KernelIr { flags: CompileFlags::for_level(owner), ..shared.clone() }
            };
            self.toolchains[t].classes[owner.index()] = Some(ClassBuild::new(ir));
        }
        self.toolchains[t].classes[owner.index()].as_mut().expect("built above")
    }

    /// Execute every input on `key`. A vendor side runs its level's
    /// class on the build's tier — the interpreter, the vm batch API
    /// ([`gpucc::vm::execute_batch`]), or both in lockstep
    /// ([`ExecTier::Differential`], where a vm/interp mismatch panics
    /// and unit isolation quarantines it as a [`FaultKind::Panic`]) —
    /// or copies the records of the class's earlier error-free run.
    /// The reference evaluates nvcc's O0 build in double-double: at O0
    /// on plain sources both toolchains emit bit-identical IR, and the
    /// truth is a property of the source program, not of either
    /// vendor's lowering, whatever the campaign's [`TestMode`].
    fn execute(
        &mut self,
        key: SideKey,
        devices: &[Device; 2],
        inputs: &[InputSet],
        budget: ExecBudget,
    ) -> Vec<(RunRecord, Option<ExecError>)> {
        let Some(toolchain) = key.side.toolchain() else {
            let kernel = &self.class(Toolchain::Nvcc, OptLevel::O0).kernel;
            return inputs
                .iter()
                .map(|input| {
                    record_of(gpucc::refexec::execute_reference_budgeted(kernel, input, budget))
                })
                .collect();
        };
        let device = &devices[toolchain as usize];
        let tier = self.tier;
        let class = self.class(toolchain, key.level);
        if let Some(records) = &class.records {
            return records.iter().map(|r| (r.clone(), None)).collect();
        }
        let pairs: Vec<_> = match tier {
            ExecTier::Interp => inputs
                .iter()
                .map(|input| {
                    record_of(execute_prepared_budgeted(&class.kernel, device, input, budget))
                })
                .collect(),
            ExecTier::Vm => vm::execute_batch(class.bytecode(), device, inputs, budget)
                .into_iter()
                .map(record_of)
                .collect(),
            ExecTier::Differential => inputs
                .iter()
                .map(|input| {
                    record_of(vm::execute_differential(
                        &class.kernel,
                        class.bytecode(),
                        device,
                        input,
                        budget,
                    ))
                })
                .collect(),
        };
        if pairs.iter().all(|(record, _)| record.error.is_none()) {
            class.records = Some(pairs.iter().map(|(record, _)| record.clone()).collect());
        }
        pairs
    }
}

/// The device each toolchain's kernels run on, indexed by `Toolchain`.
pub(crate) fn campaign_devices(config: &CampaignConfig) -> [Device; 2] {
    [DeviceKind::NvidiaLike, DeviceKind::AmdLike].map(|k| Device::with_quirks(k, config.quirks))
}

/// Run one work unit — every input of `test` on one side key — from the
/// test's shared build, with per-unit isolation. A panic anywhere in
/// build/prepare/execute is contained by [`crate::fault::catch_isolated`]
/// and, like a budget-exhausted execution, classified into an optional
/// [`TestFault`] for the quarantine log; the unit still yields one
/// record per input (error records in the fault case) so campaign
/// accounting stays rectangular.
pub(crate) fn run_unit(
    config: &CampaignConfig,
    devices: &[Device; 2],
    test: &TestMeta,
    build: &mut TestBuild<'_>,
    key: SideKey,
) -> (Vec<RunRecord>, Option<TestFault>) {
    static UNIT: obs::SpanName = obs::SpanName::new("campaign.unit");
    let _span = UNIT
        .start()
        .attr("program", test.program_id.as_str())
        .attr("index", test.index)
        .attr("toolchain", key.side.name())
        .attr("level", key.level.label())
        .attr("tier", build.tier.label());
    let make_fault = |kind: FaultKind, detail: String| TestFault {
        index: test.index,
        program_id: test.program_id.clone(),
        seed: config.seed,
        side: key.to_string(),
        kind,
        detail,
    };
    let caught =
        crate::fault::catch_isolated(|| build.execute(key, devices, &test.inputs, config.budget));
    let (records, fault) = match caught {
        Ok(pairs) => {
            let fault = pairs.iter().find_map(|(_, err)| match err {
                Some(e @ ExecError::StepLimit { .. }) => {
                    Some(make_fault(FaultKind::StepBudget, e.to_string()))
                }
                Some(e @ ExecError::Timeout { .. }) => {
                    Some(make_fault(FaultKind::Timeout, e.to_string()))
                }
                _ => None,
            });
            (pairs.into_iter().map(|(record, _)| record).collect::<Vec<_>>(), fault)
        }
        Err(msg) => {
            let records =
                test.inputs.iter().map(|_| error_record(format!("panic: {msg}"))).collect();
            (records, Some(make_fault(FaultKind::Panic, msg)))
        }
    };
    record_unit_telemetry(config, key, test, &records, &fault);
    (records, fault)
}

/// `campaign.faults.{kind}`, indexed by [`FaultKind`].
static FAULT_COUNTERS: [obs::Name; 3] = [
    obs::Name::new("campaign.faults.panic"),
    obs::Name::new("campaign.faults.step_budget"),
    obs::Name::new("campaign.faults.timeout"),
];

/// `campaign.disc.{class:?}`, indexed by
/// [`crate::outcome::DiscrepancyClass::index`].
static DISC_COUNTERS: [obs::Name; 7] = [
    obs::Name::new("campaign.disc.NanInf"),
    obs::Name::new("campaign.disc.NanZero"),
    obs::Name::new("campaign.disc.NanNum"),
    obs::Name::new("campaign.disc.InfZero"),
    obs::Name::new("campaign.disc.InfNum"),
    obs::Name::new("campaign.disc.NumZero"),
    obs::Name::new("campaign.disc.NumNum"),
];

static RUNS_DONE: obs::Name = obs::Name::new("campaign.runs_done");
static DISCREPANCIES: obs::Name = obs::Name::new("campaign.discrepancies");

/// The unit-completion telemetry shared by every side and tier: run
/// counters, fault counters, and — for a vendor side — the live
/// discrepancy tally against the other vendor's already-recorded
/// results, so progress displays can report discrepancies-so-far
/// without waiting for the analyze phase. The truth does not take part
/// in the vendor-versus-vendor tally.
fn record_unit_telemetry(
    config: &CampaignConfig,
    key: SideKey,
    test: &TestMeta,
    records: &[RunRecord],
    fault: &Option<TestFault>,
) {
    if !obs::enabled() {
        return;
    }
    RUNS_DONE.add(records.len() as u64);
    if let Some(f) = fault {
        FAULT_COUNTERS[f.kind as usize].add(1);
    }
    let other = match key.side {
        Side::Nvcc => Side::Hipcc,
        Side::Hipcc => Side::Nvcc,
        Side::Reference => return,
    };
    if let Some(prev) = test.results.get(&side_key(other, key.level)) {
        for (mine, theirs) in records.iter().zip(prev) {
            if mine.error.is_some() || theirs.error.is_some() {
                continue;
            }
            let (nv, amd) = match key.side {
                Side::Nvcc => (mine.bits, theirs.bits),
                _ => (theirs.bits, mine.bits),
            };
            let vn = crate::campaign::decode(config.precision, nv);
            let va = crate::campaign::decode(config.precision, amd);
            if let Some(d) = crate::compare::compare_runs(&vn, &va) {
                DISCREPANCIES.add(1);
                DISC_COUNTERS[d.class.index()].add(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{analyze, run_campaign, CampaignConfig};
    use crate::checkpoint::{run_sides_ft, FtSession};
    use progen::ast::{AssignOp, Expr, LValue, Precision, Stmt};

    fn cfg() -> CampaignConfig {
        CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(12)
    }

    #[test]
    fn between_platform_protocol_matches_single_machine_run() {
        let config = cfg();
        // single machine
        let combined = run_campaign(&config);

        // two "clusters": each generates from the shared config, runs its
        // side, and the metadata files are merged
        let mut c1 = CampaignMeta::generate(&config);
        run_sides_ft(&mut c1, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let mut c2 = CampaignMeta::generate(&config);
        run_sides_ft(&mut c2, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        assert!(!c1.is_complete() && !c2.is_complete());
        let merged = CampaignMeta::merge(c1, c2).unwrap();
        assert!(merged.is_complete());
        let report = analyze(&merged);
        assert_eq!(report.per_level, combined.per_level);
    }

    #[test]
    fn save_load_roundtrip() {
        let config = cfg().with_programs(4);
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let dir = std::env::temp_dir().join("difftest_meta_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.json");
        meta.save(&path).unwrap();
        let back = CampaignMeta::load(&path).unwrap();
        assert_eq!(meta, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_rejects_mismatched_configs() {
        let a = CampaignMeta::generate(&cfg().with_programs(3));
        let b = CampaignMeta::generate(&cfg().with_programs(4));
        assert_eq!(CampaignMeta::merge(a, b).unwrap_err(), MetaError::ConfigMismatch);
    }

    #[test]
    fn merge_is_idempotent_on_overlapping_sides() {
        let config = cfg().with_programs(3);
        let mut a = CampaignMeta::generate(&config);
        run_sides_ft(&mut a, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let b = a.clone();
        let merged = CampaignMeta::merge(a.clone(), b).unwrap();
        assert_eq!(merged, a);
    }

    #[test]
    fn program_regeneration_matches_stored_ids() {
        let meta = CampaignMeta::generate(&cfg().with_programs(6));
        for t in &meta.tests {
            let p = meta.program_for(t);
            assert_eq!(p.id, t.program_id);
        }
    }

    #[test]
    fn records_store_exact_bits_and_print() {
        let config = cfg().with_programs(5);
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let t = &meta.tests[0];
        let recs = t.results.get(&side_key(Toolchain::Nvcc, OptLevel::O0)).unwrap();
        assert_eq!(recs.len(), config.inputs_per_program);
        for r in recs {
            assert!(r.error.is_none());
            let v = f64::from_bits(r.bits);
            assert_eq!(r.outcome, Outcome::of_f64(v));
            assert_eq!(r.printed, fpcore::literal::format_g17(v));
        }
    }

    #[test]
    fn sharded_batches_reproduce_the_monolithic_campaign() {
        let config = cfg().with_programs(13); // uneven split on purpose
                                              // monolithic reference
        let monolithic = run_campaign(&config);
        // sharded: three batches, each run independently
        let shards = CampaignMeta::generate(&config).shard(3);
        assert_eq!(shards.len(), 3);
        let run_shards: Vec<CampaignMeta> = shards
            .into_iter()
            .map(|mut s| {
                run_sides_ft(&mut s, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
                run_sides_ft(&mut s, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
                s
            })
            .collect();
        let merged = CampaignMeta::merge_shards(run_shards).unwrap();
        assert!(merged.is_complete());
        let report = analyze(&merged);
        assert_eq!(report.per_level, monolithic.per_level);
    }

    #[test]
    fn generate_shard_equals_sharding_the_full_campaign() {
        let config = cfg().with_programs(13);
        let full_shards = CampaignMeta::generate(&config).shard(4);
        assert_eq!(full_shards.len(), 4);
        for (k, shard) in full_shards.iter().enumerate() {
            let direct = CampaignMeta::generate_shard(&config, k, 4);
            assert_eq!(&direct, shard, "shard {k}/4 mismatch");
            assert!(direct.tests.iter().all(|t| (t.index as usize) % 4 == k));
        }
        // every test appears in exactly one shard
        let total: usize =
            (0..4).map(|k| CampaignMeta::generate_shard(&config, k, 4).tests.len()).sum();
        assert_eq!(total, config.n_programs);
    }

    fn fault(index: u64, side: &str) -> TestFault {
        TestFault {
            index,
            program_id: format!("prog_{index}"),
            seed: 2024,
            side: side.to_string(),
            kind: FaultKind::Panic,
            detail: "injected".to_string(),
        }
    }

    #[test]
    fn merge_shards_is_order_independent_and_dedupes_quarantine() {
        let config = cfg().with_programs(9);
        let mut shards: Vec<CampaignMeta> = CampaignMeta::generate(&config)
            .shard(3)
            .into_iter()
            .map(|mut s| {
                run_sides_ft(&mut s, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
                run_sides_ft(&mut s, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
                s
            })
            .collect();
        // simulate a fault journaled by a crashed worker and re-reported
        // by the worker that resumed the shard: same entry twice, plus a
        // distinct fault on another shard, inserted out of order
        shards[1].quarantine.push(fault(4, "nvcc:O2"));
        shards[1].quarantine.push(fault(1, "hipcc:O0"));
        shards[1].quarantine.push(fault(4, "nvcc:O2"));
        shards[2].quarantine.push(fault(2, "nvcc:O0"));

        // fold in every completion order, incrementally (farm-style)
        let reference = serde_json::to_string(
            &CampaignMeta::merge_shards(shards.clone()).expect("complete set merges"),
        )
        .unwrap();
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for order in orders {
            let mut rolling: Option<CampaignMeta> = None;
            for &i in &order {
                let next = shards[i].clone();
                rolling = Some(match rolling.take() {
                    None => CampaignMeta::merge_shards_partial(vec![next]).unwrap(),
                    Some(acc) => CampaignMeta::merge_shards_partial(vec![acc, next]).unwrap(),
                });
            }
            let merged = rolling.unwrap();
            assert_eq!(merged.tests.len(), config.n_programs);
            assert_eq!(
                serde_json::to_string(&merged).unwrap(),
                reference,
                "fold order {order:?} must be byte-identical"
            );
            // deduped: the duplicated fault counts once
            assert_eq!(merged.quarantine.len(), 3);
            assert!(merged.quarantine.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        }
    }

    #[test]
    fn shard_routes_quarantine_entries_with_their_tests() {
        let config = cfg().with_programs(6);
        let mut meta = CampaignMeta::generate(&config);
        meta.quarantine.push(fault(5, "nvcc:O0")); // 5 % 3 == 2
        meta.quarantine.push(fault(3, "nvcc:O0")); // 3 % 3 == 0
        let shards = meta.shard(3);
        assert_eq!(shards[0].quarantine.len(), 1);
        assert_eq!(shards[0].quarantine[0].index, 3);
        assert!(shards[1].quarantine.is_empty());
        assert_eq!(shards[2].quarantine[0].index, 5);
    }

    #[test]
    fn merge_halves_unions_quarantine() {
        let config = cfg().with_programs(3);
        let mut a = CampaignMeta::generate(&config);
        run_sides_ft(&mut a, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        a.quarantine.push(fault(0, "nvcc:O1"));
        let mut b = CampaignMeta::generate(&config);
        run_sides_ft(&mut b, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        b.quarantine.push(fault(0, "hipcc:O1"));
        b.quarantine.push(fault(0, "nvcc:O1")); // duplicate across halves
        let merged = CampaignMeta::merge(a, b).unwrap();
        assert_eq!(merged.quarantine.len(), 2);
    }

    #[test]
    fn quarantine_field_is_optional_in_old_files() {
        let config = cfg().with_programs(2);
        let meta = CampaignMeta::generate(&config);
        let mut v: serde_json::Value = serde_json::to_value(&meta).unwrap();
        v.as_object_mut().unwrap().remove("quarantine");
        let back: CampaignMeta = serde_json::from_value(v).unwrap();
        assert_eq!(back, meta);
        assert!(back.quarantine.is_empty());
    }

    #[test]
    fn merge_shards_rejects_incomplete_sets() {
        let config = cfg().with_programs(6);
        let mut shards = CampaignMeta::generate(&config).shard(3);
        shards.pop(); // lose a batch
        assert!(CampaignMeta::merge_shards(shards).is_err());
    }

    #[test]
    fn merge_counts_identical_overlapping_shards_once_but_rejects_conflicts() {
        let config = cfg().with_programs(6);
        let mut shards: Vec<CampaignMeta> = CampaignMeta::generate(&config)
            .shard(3)
            .into_iter()
            .map(|mut s| {
                run_sides_ft(&mut s, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
                run_sides_ft(&mut s, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
                s
            })
            .collect();
        let reference =
            serde_json::to_string(&CampaignMeta::merge_shards(shards.clone()).unwrap()).unwrap();

        // a fleet re-lease shipped shard 1 twice, byte-identical: the
        // duplicate findings count once and the merge stays canonical
        let mut overlapping = shards.clone();
        let dup = overlapping[1].clone();
        overlapping.push(dup);
        let merged = CampaignMeta::merge_shards(overlapping).unwrap();
        assert_eq!(serde_json::to_string(&merged).unwrap(), reference);

        // but a *conflicting* duplicate (same index, different results)
        // is still a merge error, not a silent pick-one
        let mut conflicting = shards[1].clone();
        for t in &mut conflicting.tests {
            t.results.clear();
        }
        conflicting.sides_run.clear();
        shards.push(conflicting);
        assert!(CampaignMeta::merge_shards(shards).is_err());
    }

    #[test]
    fn merge_shards_keeps_only_commonly_run_sides() {
        let config = cfg().with_programs(4);
        let mut shards = CampaignMeta::generate(&config).shard(2);
        run_sides_ft(&mut shards[0], &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut shards[0], &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut shards[1], &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let merged = CampaignMeta::merge_shards(shards).unwrap();
        assert!(!merged.is_complete(), "hipcc missing from one batch");
        assert_eq!(merged.sides_run, vec![Side::Nvcc]);
    }

    #[test]
    fn reference_side_stores_truth_under_one_key() {
        let config = cfg().with_programs(4);
        let mut meta = CampaignMeta::generate(&config);
        run_sides_ft(&mut meta, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
        assert!(meta.sides_run.contains(&Side::Reference));
        assert!(!meta.is_complete(), "reference alone is not a campaign");
        for t in &meta.tests {
            let recs = t.results.get(&reference_key()).expect("truth column present");
            assert_eq!(recs.len(), config.inputs_per_program);
            // exactly one reference column, no per-level duplication
            let ref_cols = t.results.keys().filter(|k| k.starts_with("reference:")).count();
            assert_eq!(ref_cols, 1);
        }
    }

    #[test]
    fn three_side_merge_is_complete_and_canonically_ordered() {
        let config = cfg().with_programs(3);
        let mut a = CampaignMeta::generate(&config);
        run_sides_ft(&mut a, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        run_sides_ft(&mut a, &[Side::Reference], &FtSession::plain(), ExecTier::Interp);
        let mut b = CampaignMeta::generate(&config);
        run_sides_ft(&mut b, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let merged = CampaignMeta::merge(a, b).unwrap();
        assert!(merged.is_complete());
        assert!(merged.has_reference());
        assert_eq!(merged.sides_run, vec![Side::Nvcc, Side::Hipcc, Side::Reference]);

        // the other grouping: the truth is built in the half that never
        // compiled nvcc, from its own nvcc O0 build
        let mut c = CampaignMeta::generate(&config);
        run_sides_ft(&mut c, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let mut d = CampaignMeta::generate(&config);
        let session = crate::checkpoint::FtSession::plain();
        let status = crate::checkpoint::run_sides_ft(
            &mut d,
            &[Side::Hipcc, Side::Reference],
            &session,
            ExecTier::Vm,
        );
        assert_eq!(status, crate::checkpoint::FtStatus::Complete);
        assert_eq!(d.sides_run, vec![Side::Hipcc, Side::Reference]);
        let regrouped = CampaignMeta::merge(c, d).unwrap();
        assert_eq!(regrouped.sides_run, merged.sides_run);
        assert_eq!(regrouped.tests, merged.tests, "grouping must not change any record");
    }

    #[test]
    fn unit_counter_names_equal_the_formatted_names_byte_for_byte() {
        for kind in [FaultKind::Panic, FaultKind::StepBudget, FaultKind::Timeout] {
            assert_eq!(
                FAULT_COUNTERS[kind as usize].name(),
                format!("campaign.faults.{}", kind.label())
            );
        }
        for class in crate::outcome::DiscrepancyClass::ALL {
            assert_eq!(DISC_COUNTERS[class.index()].name(), format!("campaign.disc.{class:?}"));
        }
    }

    #[test]
    fn v1_metadata_with_string_sides_still_loads() {
        // v1 wrote sides_run as plain strings; the typed schema must
        // accept the identical JSON
        let config = cfg().with_programs(2);
        let meta = CampaignMeta::generate(&config);
        let mut v: serde_json::Value = serde_json::to_value(&meta).unwrap();
        v["sides_run"] = serde_json::json!(["nvcc", "hipcc"]);
        let back: CampaignMeta = serde_json::from_value(v).unwrap();
        assert_eq!(back.sides_run, vec![Side::Nvcc, Side::Hipcc]);
        assert!(back.is_complete());
    }

    #[test]
    fn metrics_snapshot_survives_save_load_and_merge() {
        let config = cfg().with_programs(3);
        let mut a = CampaignMeta::generate(&config);
        run_sides_ft(&mut a, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
        let reg = obs::Registry::new();
        reg.counter("campaign.runs_done").add(10);
        reg.hist("span.campaign.generate").record(1234);
        a.metrics = Some(reg.snapshot());

        // save/load keeps the snapshot bit-identical
        let dir = std::env::temp_dir().join("difftest_meta_metrics_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meta.json");
        a.save(&path).unwrap();
        let back = CampaignMeta::load(&path).unwrap();
        assert_eq!(a, back);
        std::fs::remove_file(&path).ok();

        // merging halves adds their telemetry together
        let mut b = CampaignMeta::generate(&config);
        run_sides_ft(&mut b, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
        let reg2 = obs::Registry::new();
        reg2.counter("campaign.runs_done").add(5);
        b.metrics = Some(reg2.snapshot());
        let merged = CampaignMeta::merge(a, b).unwrap();
        let m = merged.metrics.expect("merged file keeps telemetry");
        assert_eq!(m.counter("campaign.runs_done"), 15);
        assert_eq!(m.hists["span.campaign.generate"].count, 1);

        // one-sided telemetry passes through merge untouched
        let mut c = CampaignMeta::generate(&config);
        c.metrics = Some(reg.snapshot());
        let d = CampaignMeta::generate(&config);
        let merged = CampaignMeta::merge(c, d).unwrap();
        assert_eq!(merged.metrics.unwrap().counter("campaign.runs_done"), 10);
    }

    #[test]
    fn metrics_field_is_optional_in_old_files() {
        // files written before telemetry existed must still load
        let config = cfg().with_programs(2);
        let meta = CampaignMeta::generate(&config);
        let mut v: serde_json::Value = serde_json::to_value(&meta).unwrap();
        v.as_object_mut().unwrap().remove("metrics");
        let back: CampaignMeta = serde_json::from_value(v).unwrap();
        assert_eq!(back, meta);
        assert!(back.metrics.is_none());
    }

    #[test]
    fn differential_tier_quarantines_a_source_that_does_not_parse_back() {
        // the parser folds `Neg(Lit)` into a signed literal, so this
        // program's emitted source parses to another program
        let config = cfg().with_programs(1);
        let mut program = generate_program(&config.gen, config.seed, 0);
        program.body.push(Stmt::Assign {
            target: LValue::Var("comp".into()),
            op: AssignOp::AddAssign,
            value: Expr::Neg(Box::new(Expr::Lit(1.5))),
        });
        let test = &CampaignMeta::generate(&config).tests[0];
        let devices = campaign_devices(&config);
        for toolchain in Toolchain::ALL {
            let key = SideKey::new(toolchain, OptLevel::O0);
            for tier in [ExecTier::Vm, ExecTier::Interp] {
                let mut build = TestBuild::new(&program, config.mode, tier);
                let (_, fault) = run_unit(&config, &devices, test, &mut build, key);
                assert_eq!(fault, None, "{key} {tier:?}");
            }
            let mut build = TestBuild::new(&program, config.mode, ExecTier::Differential);
            let (records, fault) = run_unit(&config, &devices, test, &mut build, key);
            let fault = fault.expect("the differential tier checks the round trip");
            assert_eq!(fault.kind, FaultKind::Panic, "{key}");
            assert!(fault.detail.contains("does not parse back"), "{key}: {}", fault.detail);
            assert!(records.iter().all(|r| r.error.is_some()), "{key}");
        }
    }

    #[test]
    fn hipified_mode_builds_through_the_translator() {
        let program = generate_program(&cfg().gen, 1, 0);
        let direct = build_side(&program, Toolchain::Hipcc, OptLevel::O0, TestMode::Direct);
        let converted = build_side(&program, Toolchain::Hipcc, OptLevel::O0, TestMode::Hipified);
        // the hipified kernel may differ (contract-at-O0) but both must
        // come from the same program
        assert_eq!(direct.program_id, converted.program_id);
        assert_eq!(direct.precision, converted.precision);
    }
}
