//! `varity-gpu campaign` — run a campaign (or one side of it) and save
//! JSON metadata; the CLI face of the Fig. 3 protocol.
//!
//! Telemetry surface:
//!
//! * `--metrics FILE` streams a JSONL event log (`campaign_start`,
//!   per-phase `phase` lines, the full counter/histogram dump, and a
//!   `campaign_end` trailer);
//! * `--progress` prints a live stderr line — runs done, throughput,
//!   ETA, and discrepancies found so far;
//! * `--trace FILE` collects a hierarchical span trace of the whole run
//!   (per-unit spans, per-pass compile events, per-exec events) and
//!   writes Chrome trace-event JSON loadable in Perfetto /
//!   `chrome://tracing`;
//! * the final [`obs::MetricsSnapshot`] always rides inside the saved
//!   metadata, so `varity-gpu analyze --profile` works on either half of
//!   a between-platform campaign.
//!
//! Fault-tolerance surface:
//!
//! * `--checkpoint DIR` journals every completed work unit, so the
//!   process can be killed at any instant and `--resume DIR` replays the
//!   journal, re-runs only the remaining units, and produces the same
//!   final report as an uninterrupted run (`--resume` takes its
//!   configuration from the checkpoint, ignoring config flags);
//! * `--fuel N` / `--timeout-ms N` bound each execution's instruction
//!   and wall-clock budgets; exhausted tests are quarantined, not fatal;
//! * `--max-faults N` is a circuit breaker: the campaign aborts (exit 3)
//!   once more than `N` tests fault;
//! * `--quarantine FILE` writes the fault log (JSONL: a config header
//!   line, then one `TestFault` per line) for `varity-gpu replay`;
//!   with `--checkpoint`/`--resume` it defaults to
//!   `DIR/quarantine.jsonl`.
//!
//! Scale-out surface (what `varity-gpu farm` workers run):
//!
//! * `--shard K/N` runs only the tests whose generation index ≡ K
//!   (mod N) — the slice `CampaignMeta::merge_shards` reassembles. With
//!   `--checkpoint` the spec is persisted in the directory, so
//!   `--resume` re-runs exactly the same slice with no flag needed;
//! * a `stop` file dropped in the checkpoint directory drains the run
//!   at the next test boundary (flush + exit 130), signal-free.
//!
//! Execution tiers:
//!
//! * `--exec-tier interp|vm|differential` picks how compiled kernels
//!   execute: the tree-walking reference interpreter, the compiled
//!   bytecode vm (the default — same bits, a fraction of the time), or
//!   both in lockstep with any bit difference quarantined as a vm bug.
//!   Tiers are bit-identical, so reports, checkpoints, and resumes are
//!   interchangeable across them.
//!
//! Ground truth:
//!
//! * `--reference` also runs every test through the double-double
//!   extended-precision executor (one strict O0 evaluation per input,
//!   correctly rounded at the end), recorded as a third side. `analyze`
//!   then scores each vendor against the truth and prints "who drifted"
//!   verdicts. Like the tier, it is runtime-only: pass it again on
//!   `--resume` to keep running the truth side.
//!
//! Result tables go to stdout; everything else goes to stderr.

use super::{flag, install_sigint_handler, parse_known};
use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, Checkpoint, FtSession, FtStatus, ShardSpec};
use difftest::fault::{self, TestFault};
use difftest::metadata::CampaignMeta;
use difftest::report::{render_digest, render_per_level, render_verdicts};
use difftest::side::Side;
use gpucc::pipeline::Toolchain;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAIRS: &[&str] = &[
    "--seed",
    "--programs",
    "--inputs",
    "--side",
    "--out",
    "--metrics",
    "--checkpoint",
    "--resume",
    "--fuel",
    "--timeout-ms",
    "--max-faults",
    "--quarantine",
    "--shard",
    "--trace",
    "--exec-tier",
];
const SWITCHES: &[&str] = &["--fp32", "--hipify", "--full", "--progress", "--reference"];

pub fn run(argv: &[String]) -> i32 {
    let args = match parse_known(argv, PAIRS, SWITCHES) {
        Ok(a) => a,
        Err(c) => return c,
    };
    if args.get("--checkpoint").is_some() && args.get("--resume").is_some() {
        eprintln!("--checkpoint and --resume are mutually exclusive (resume continues its own checkpoint)");
        return 2;
    }

    // The tier is an execution strategy, not campaign configuration: the
    // tiers are bit-identical, so it is deliberately NOT stored in the
    // checkpoint — a vm-tier resume of an interp-tier run (or vice versa)
    // produces the same bytes.
    let exec_tier: gpucc::ExecTier = match args.get("--exec-tier").unwrap_or("vm").parse() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Like the tier, the reference side is runtime-only: truth records are
    // journaled once run, but whether to (keep) running them is decided by
    // the flag on each invocation — including `--resume`.
    let with_reference = args.has("--reference");

    let max_faults: Option<u64> = match args.get("--max-faults") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("bad value for --max-faults: {v:?}");
                return 2;
            }
        },
    };

    // Configuration + checkpoint session. A resumed campaign must re-run
    // under the exact stored config (determinism is what makes replayed
    // and re-run units interchangeable), so `--resume` loads it from the
    // checkpoint directory and config flags are not consulted.
    let (config, checkpoint_dir, journal, replayed_units, shard) = if let Some(dir) =
        args.get("--resume")
    {
        if args.get("--shard").is_some() {
            eprintln!("--shard is stored in the checkpoint; --resume re-runs the same slice");
            return 2;
        }
        let dir = PathBuf::from(dir);
        match Checkpoint::resume(&dir) {
            Ok((ckpt, config, units)) => {
                let shard = ckpt.shard_spec();
                (config, Some(dir), Some(ckpt.into_journal()), units, shard)
            }
            Err(e) => {
                eprintln!("cannot resume checkpoint: {e}");
                return 1;
            }
        }
    } else {
        let mode = if args.has("--hipify") { TestMode::Hipified } else { TestMode::Direct };
        let mut config = CampaignConfig::default_for(args.precision(), mode);
        config.seed = flag!(args, "--seed", config.seed);
        config.n_programs = flag!(args, "--programs", config.n_programs);
        config.inputs_per_program = flag!(args, "--inputs", config.inputs_per_program);
        if args.has("--full") {
            config.n_programs = match args.precision() {
                progen::Precision::F64 => 3540,
                progen::Precision::F32 => 2840,
            };
        }
        config.budget.max_steps = flag!(args, "--fuel", config.budget.max_steps);
        if args.get("--timeout-ms").is_some() {
            config.budget.max_wall_ms = Some(flag!(args, "--timeout-ms", 0u64));
        }
        let shard: Option<ShardSpec> = match args.get("--shard") {
            None => None,
            Some(s) => match s.parse() {
                Ok(spec) => Some(spec),
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            },
        };
        match args.get("--checkpoint") {
            None => (config, None, None, Vec::new(), shard),
            Some(dir) => {
                let dir = PathBuf::from(dir);
                match Checkpoint::create_sharded(&dir, &config, shard) {
                    Ok(ckpt) => (config, Some(dir), Some(ckpt.into_journal()), Vec::new(), shard),
                    Err(e) => {
                        eprintln!("cannot create checkpoint: {e}");
                        return 1;
                    }
                }
            }
        }
    };
    let mode = config.mode;

    let sides: Vec<Toolchain> = match args.get("--side").unwrap_or("both") {
        "nvcc" => vec![Toolchain::Nvcc],
        "hipcc" => vec![Toolchain::Hipcc],
        "both" => vec![Toolchain::Nvcc, Toolchain::Hipcc],
        other => {
            eprintln!("unknown side {other:?} (use nvcc|hipcc|both)");
            return 2;
        }
    };

    let metrics_log = match args.get("--metrics") {
        None => None,
        Some(path) => match obs::JsonlWriter::create(Path::new(path)) {
            Ok(w) => Some((w, path.to_string())),
            Err(e) => {
                eprintln!("cannot create metrics log {path}: {e}");
                return 1;
            }
        },
    };

    if let Some(dir) = &checkpoint_dir {
        // printed up front so the resume command survives any kill -9
        eprintln!(
            "[campaign] checkpointing to {}; resume with `varity-gpu campaign --resume {}`",
            dir.display(),
            dir.display()
        );
    }

    // fresh registry per campaign so metrics describe exactly this run
    // (journal replay below merges the completed units' deltas back in)
    obs::reset();
    let trace_path = args.get("--trace").map(PathBuf::from);
    if trace_path.is_some() {
        obs::trace::start();
    }
    fault::reset_shutdown();
    install_sigint_handler();

    let started = Instant::now();
    if let Some((log, _)) = &metrics_log {
        let _ = log.event(
            "campaign_start",
            serde_json::json!({
                "precision": config.precision.label(),
                "mode": mode.label(),
                "programs": config.n_programs,
                "inputs_per_program": config.inputs_per_program,
                "levels": config.levels.iter().map(|l| l.label()).collect::<Vec<_>>(),
                "seed": config.seed,
                "exec_tier": exec_tier.label(),
                "sides": sides.iter().map(|s| s.name()).collect::<Vec<_>>(),
                "reference": with_reference,
            }),
        );
    }
    let log_phase = |name: &str, since: Instant| {
        if let Some((log, _)) = &metrics_log {
            let _ = log.event(
                "phase",
                serde_json::json!({ "name": name, "ms": since.elapsed().as_millis() as u64 }),
            );
        }
    };

    let t = Instant::now();
    let mut meta = match shard {
        Some(s) => {
            eprintln!(
                "[campaign] shard {s}: running {} of {} tests (index ≡ {} mod {})",
                (config.n_programs + s.count - 1 - s.index) / s.count,
                config.n_programs,
                s.index,
                s.count
            );
            CampaignMeta::generate_shard(&config, s.index, s.count)
        }
        None => CampaignMeta::generate(&config),
    };
    log_phase("generate", t);

    let expected_runs =
        (meta.tests.len() * config.inputs_per_program * config.levels.len() * sides.len()
            + if with_reference { meta.tests.len() * config.inputs_per_program } else { 0 })
            as u64;
    let progress = if args.has("--progress") { Some(Progress::spawn(expected_runs)) } else { None };

    let mut session = FtSession::new(journal, max_faults);
    if let Some(dir) = &checkpoint_dir {
        // A `stop` file in the checkpoint directory drains this run at
        // the next test boundary — how the farm supervisor winds down
        // workers without signals.
        session = session.with_stop_file(Checkpoint::stop_path(dir));
    }
    if !replayed_units.is_empty() {
        session.apply_replay(&mut meta, replayed_units);
        eprintln!("[campaign] resumed {} completed units from the journal", session.replayed());
    }

    // One test-major pass over every side: each test is generated and
    // built once for the vendors and the truth together.
    let mut run_sides: Vec<Side> = sides.iter().map(|&tc| Side::from(tc)).collect();
    if with_reference {
        run_sides.push(Side::Reference);
    }
    let t = Instant::now();
    let status = run_sides_ft(&mut meta, &run_sides, &session, exec_tier);
    log_phase("run", t);
    if let Some(p) = progress {
        p.finish();
    }

    let snap = obs::snapshot();
    meta.metrics = Some(snap.clone());
    if let Some((log, path)) = &metrics_log {
        let _ = log.write_snapshot(&snap);
        let _ = log.event(
            "campaign_end",
            serde_json::json!({
                "runs": snap.counter("campaign.runs_done"),
                "discrepancies": snap.counter("campaign.discrepancies"),
                "wall_ms": started.elapsed().as_millis() as u64,
            }),
        );
        eprintln!("metrics log written to {path}");
    }

    // The trace is written even for interrupted / fault-limited runs —
    // a trace of the run that died is exactly the one worth reading.
    if let Some(path) = &trace_path {
        let events = obs::trace::stop();
        match obs::trace::write_chrome(path, &events) {
            Ok(()) => eprintln!(
                "[campaign] trace written to {} ({} events)",
                path.display(),
                events.len()
            ),
            Err(e) => {
                eprintln!("cannot write trace {}: {e}", path.display());
                return 1;
            }
        }
    }

    // quarantine log: derived data, written atomically at the end (the
    // journal remains the source of truth while running)
    let faults = session.faults();
    let quarantine_path = args
        .get("--quarantine")
        .map(PathBuf::from)
        .or_else(|| checkpoint_dir.as_deref().map(Checkpoint::quarantine_path));
    if let Some(path) = &quarantine_path {
        if let Err(e) = write_quarantine(path, &config, &faults) {
            eprintln!("cannot write quarantine log: {e}");
            return 1;
        }
    }
    if !faults.is_empty() {
        match &quarantine_path {
            Some(path) => eprintln!(
                "[campaign] {} test(s) quarantined — inspect with `varity-gpu replay {}`",
                faults.len(),
                path.display()
            ),
            None => eprintln!(
                "[campaign] {} test(s) quarantined (pass --quarantine FILE to save the log)",
                faults.len()
            ),
        }
    }

    // The metadata carries its own quarantine ledger (canonical form:
    // sorted + deduped) so shard result files merge without losing or
    // double-counting faults.
    meta.quarantine = faults.clone();
    meta.quarantine.sort();
    meta.quarantine.dedup();

    if let Some(path) = args.get("--out") {
        if matches!(status, FtStatus::Complete) {
            if let Err(e) = meta.save(Path::new(path)) {
                eprintln!("cannot save metadata: {e}");
                return 1;
            }
            eprintln!("metadata saved to {path} (sides run: {:?})", meta.sides_run);
        } else {
            // A partial save would be indistinguishable from a finished
            // result (the farm folds `--out` files verbatim); the
            // checkpoint journal is the resumable source of truth.
            eprintln!("not saving metadata to {path}: campaign did not complete");
        }
    }

    match status {
        FtStatus::Complete => {}
        FtStatus::FaultLimit => {
            eprintln!(
                "fault limit exceeded ({} faults > {} tolerated); remaining units skipped",
                faults.len(),
                max_faults.unwrap_or(0)
            );
            return 3;
        }
        FtStatus::Interrupted => {
            if let Some(journal) = session.journal() {
                let _ = journal.sync();
            }
            match &checkpoint_dir {
                Some(dir) => eprintln!(
                    "interrupted; checkpoint flushed — resume with `varity-gpu campaign --resume {}`",
                    dir.display()
                ),
                None => eprintln!("interrupted (no --checkpoint; completed work was not saved)"),
            }
            return 130;
        }
        FtStatus::IoError(e) => {
            eprintln!("checkpoint journal I/O error: {e}");
            return 1;
        }
    }

    if meta.is_complete() {
        let report = analyze(&meta);
        println!("{}", render_digest(&report));
        println!("{}", render_per_level(&report, "discrepancies per optimization option"));
        let verdicts = render_verdicts(&report);
        if !verdicts.is_empty() {
            println!("{verdicts}");
        }
    } else {
        eprintln!(
            "half-campaign complete; run the other side against the same \
             metadata config and `varity-gpu analyze` the two files"
        );
    }
    0
}

/// Write the quarantine log: line 1 is a `{"config": ...}` header, then
/// one serialized [`TestFault`] per line — exactly what `varity-gpu
/// replay` consumes. Always written atomically; an empty fault list
/// still writes the header so replaying a clean campaign's log is a
/// clean no-op.
fn write_quarantine(
    path: &Path,
    config: &CampaignConfig,
    faults: &[TestFault],
) -> Result<(), String> {
    let mut out = String::new();
    out.push_str(
        &serde_json::to_string(&serde_json::json!({ "config": config }))
            .map_err(|e| e.to_string())?,
    );
    out.push('\n');
    for f in faults {
        out.push_str(&serde_json::to_string(f).map_err(|e| e.to_string())?);
        out.push('\n');
    }
    difftest::checkpoint::atomic_write(path, out.as_bytes()).map_err(|e| e.to_string())
}

/// Live progress reporter: a background thread that polls the campaign
/// counters and repaints one stderr status line until stopped.
struct Progress {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl Progress {
    fn spawn(expected: u64) -> Progress {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let runs = obs::global().counter("campaign.runs_done");
            let discrepancies = obs::global().counter("campaign.discrepancies");
            let started = Instant::now();
            loop {
                let done = runs.value();
                let secs = started.elapsed().as_secs_f64();
                let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
                let eta = if rate > 0.0 && expected > done {
                    format!("{:.0}s", (expected - done) as f64 / rate)
                } else {
                    "--".to_string()
                };
                eprint!(
                    "\r[campaign] {done}/{expected} runs ({:.1}%) | {rate:.0} runs/s | \
                     ETA {eta} | {} discrepancies ",
                    100.0 * done as f64 / expected.max(1) as f64,
                    discrepancies.value()
                );
                if stopped.load(Ordering::Relaxed) {
                    eprintln!();
                    return;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        Progress { stop, handle }
    }

    /// Stop the reporter after one final repaint with the end-state
    /// counters.
    fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}
