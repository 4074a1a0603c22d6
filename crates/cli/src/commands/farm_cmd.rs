//! `varity-gpu farm` — run a campaign as a supervised, self-healing
//! multi-worker service.
//!
//! The supervisor (this process) deals the campaign into `--shards`
//! round-robin slices, materializes each as a checkpoint directory
//! under `--dir`, and keeps `--workers` subprocesses in flight, each
//! running `varity-gpu campaign --resume <shard-dir>`. Workers that
//! crash, are killed, or hang past the heartbeat window are respawned
//! with jittered exponential backoff; shards that crash repeatedly
//! without progress are demoted to the poison quarantine
//! (`shard-NNN/poison.json` records the responsible slice). Finished
//! shards fold into an in-memory merge, written once to
//! `--dir/merged.json` when the run ends or drains (each shard's
//! `result.json` is what a restart re-folds from), and the final merged
//! report is identical to a single-process run of the same campaign —
//! the chaos harness in CI proves it byte-for-byte.
//!
//! Operational surface:
//!
//! * `--status-addr ADDR` serves live progress JSON over HTTP (`GET /`
//!   or `/status`) plus a Prometheus text exposition on `GET /metrics`
//!   that merges the supervisor's `farm_*` series with the rolling
//!   shard merge's `campaign_*` telemetry — the way to watch a run in
//!   flight, since `merged.json` appears only at its end;
//! * `--trace FILE` writes a Chrome trace-event JSON of supervisor-side
//!   shard lifecycle instants (spawns, deaths, expiries, poisons);
//! * `--chaos-kills N` makes the supervisor itself SIGKILL `N` random
//!   workers mid-progress (fault-tolerance self-test);
//! * `--reference` makes every worker also run the double-double
//!   ground-truth side of its shard, so the merged report carries "who
//!   drifted" verdicts (verdict stats are recomputed from the merged
//!   records at analyze time, so the fold order cannot skew them);
//! * Ctrl-C or `touch <dir>/stop` drains: leasing stops, in-flight
//!   workers flush their checkpoints, the exact resume command is
//!   printed, and the farm exits 130. Re-running the same command
//!   resumes: done shards fold back in, the rest continue from their
//!   journals.
//!
//! The same subcommand also spans machines:
//!
//! * `farm --coordinate ADDR --dir DIR …` runs no workers at all — it
//!   owns the lease queue behind a socket, write-ahead-journals every
//!   grant/heartbeat/complete/release/poison to `DIR/coord.journal`
//!   before replying, and folds shipped shard results in memory,
//!   writing `DIR/merged.json` once when the run ends or drains. The
//!   run ends as soon as every shard is settled and every agent has
//!   said goodbye; `--linger-ms` (default 3000) only caps the wait for
//!   an agent that vanished without one. Kill it anytime; re-running
//!   the same command replays the journal under a bumped epoch and
//!   fences the dead process's leases — no shard lost, none
//!   double-merged.
//! * `farm --join ADDR --dir DIR` leases shards from a coordinator over
//!   a length-prefixed, CRC-framed TCP protocol and runs the local
//!   farm's own supervision loop against it (every spawn is `campaign
//!   --resume`). The campaign shape comes from the coordinator's grant,
//!   so agents need no campaign flags. Every exchange runs under
//!   `--io-timeout-ms`; a failed one is retried on the loop's next timed
//!   pass, and an agent with no successful exchange for
//!   `--max-offline-ms` gives up, checkpoints kept. `--net-chaos N` arms
//!   the seeded wire adversary for self-tests. An agent that hears the
//!   run is done says goodbye once and exits.

use super::{flag, install_sigint_handler, parse_known};
use crate::args::Args;
use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::fault;
use difftest::report::{render_digest, render_per_level};
use farm::{
    run_agent, run_coordinator, run_farm, AgentConfig, BackoffPolicy, ChaosConfig, CoordConfig,
    FarmConfig, NetChaosConfig, WorkerSpec,
};
use std::path::Path;

const PAIRS: &[&str] = &[
    "--seed",
    "--programs",
    "--inputs",
    "--fuel",
    "--timeout-ms",
    "--dir",
    "--workers",
    "--shards",
    "--out",
    "--heartbeat-ms",
    "--grace-ms",
    "--crash-threshold",
    "--status-addr",
    "--chaos-kills",
    "--chaos-seed",
    "--trace",
    "--coordinate",
    "--join",
    "--agent-name",
    "--max-offline-ms",
    "--io-timeout-ms",
    "--linger-ms",
    "--net-chaos",
    "--net-chaos-seed",
];
const SWITCHES: &[&str] = &["--fp32", "--hipify", "--reference"];

pub fn run(argv: &[String]) -> i32 {
    let args = match parse_known(argv, PAIRS, SWITCHES) {
        Ok(a) => a,
        Err(c) => return c,
    };
    match (args.get("--coordinate"), args.get("--join")) {
        (Some(_), Some(_)) => {
            eprintln!("--coordinate and --join are exclusive roles; pick one per process");
            return 2;
        }
        (Some(bind), None) => return run_coordinate(&args, bind.to_string()),
        (None, Some(addr)) => return run_join(&args, addr.to_string()),
        (None, None) => {}
    }
    let Some(dir) = args.get("--dir") else {
        eprintln!("farm needs --dir DIR (shard checkpoints and the merged report live there)");
        return 2;
    };

    let mode = if args.has("--hipify") { TestMode::Hipified } else { TestMode::Direct };
    let mut campaign = CampaignConfig::default_for(args.precision(), mode);
    campaign.seed = flag!(args, "--seed", campaign.seed);
    campaign.n_programs = flag!(args, "--programs", campaign.n_programs);
    campaign.inputs_per_program = flag!(args, "--inputs", campaign.inputs_per_program);
    campaign.budget.max_steps = flag!(args, "--fuel", campaign.budget.max_steps);
    if args.get("--timeout-ms").is_some() {
        campaign.budget.max_wall_ms = Some(flag!(args, "--timeout-ms", 0u64));
    }

    let n_workers: usize = flag!(args, "--workers", 4);
    let n_shards: usize = flag!(args, "--shards", 2 * n_workers);
    if n_workers == 0 || n_shards == 0 {
        eprintln!("--workers and --shards must be at least 1");
        return 2;
    }
    if n_shards > campaign.n_programs {
        eprintln!(
            "--shards {n_shards} exceeds --programs {}; trailing shards would be empty",
            campaign.n_programs
        );
        return 2;
    }

    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary to spawn workers: {e}");
            return 1;
        }
    };
    let mut worker = WorkerSpec::new(program);
    worker.prefix_args = vec!["campaign".to_string()];
    if args.has("--reference") {
        // Runtime-only on the campaign side (not stored in the shard
        // checkpoints), so every worker resume must re-pass the flag.
        worker.prefix_args.push("--reference".to_string());
    }
    // Workers inherit a thread budget so `n_workers` processes don't
    // oversubscribe the machine.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = cores.div_ceil(n_workers).max(1);
    worker.env.push(("RAYON_NUM_THREADS".to_string(), threads.to_string()));

    let mut cfg = FarmConfig::new(campaign, n_shards, n_workers, dir, worker);
    cfg.heartbeat_ms = flag!(args, "--heartbeat-ms", cfg.heartbeat_ms);
    cfg.grace_ms = flag!(args, "--grace-ms", cfg.grace_ms);
    cfg.crash_threshold = flag!(args, "--crash-threshold", cfg.crash_threshold);
    if cfg.crash_threshold == 0 {
        eprintln!("--crash-threshold must be at least 1");
        return 2;
    }
    cfg.backoff = BackoffPolicy::default();
    cfg.seed = cfg.campaign.seed;
    cfg.status_addr = args.get("--status-addr").map(String::from);
    cfg.chaos = ChaosConfig {
        kills: flag!(args, "--chaos-kills", 0),
        seed: flag!(args, "--chaos-seed", cfg.campaign.seed),
    };

    eprintln!(
        "[farm] {} shard(s) x {} worker(s) over {} programs; checkpoints in {}",
        n_shards, n_workers, cfg.campaign.n_programs, dir
    );

    obs::reset();
    let trace_path = args.get("--trace").map(std::path::PathBuf::from);
    if trace_path.is_some() {
        obs::trace::start();
    }
    fault::reset_shutdown();
    install_sigint_handler();

    let report = match run_farm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("farm failed: {e}");
            return 1;
        }
    };

    // Supervisor-side trace only (workers are subprocesses): shard
    // lifecycle instants — spawns, deaths, expiries, poisons, drain.
    if let Some(path) = &trace_path {
        let events = obs::trace::stop();
        match obs::trace::write_chrome(path, &events) {
            Ok(()) => {
                eprintln!("[farm] trace written to {} ({} events)", path.display(), events.len())
            }
            Err(e) => {
                eprintln!("cannot write trace {}: {e}", path.display());
                return 1;
            }
        }
    }

    eprintln!(
        "[farm] done={} poisoned={} spawns={} respawns={} deaths={} expiries={} chaos_kills={}",
        report.shards_done,
        report.shards_poisoned.len(),
        report.spawns,
        report.respawns,
        report.worker_deaths,
        report.lease_expiries,
        report.chaos_kills
    );

    if report.drained {
        if let Some(hint) = &report.resume_hint {
            eprintln!("[farm] drained; {hint}");
        }
        return 130;
    }

    if let Some(merged) = &report.merged {
        if let Some(path) = args.get("--out") {
            if let Err(e) = merged.save(Path::new(path)) {
                eprintln!("cannot save merged metadata: {e}");
                return 1;
            }
            eprintln!("merged metadata saved to {path}");
        }
        if merged.is_complete() && report.shards_poisoned.is_empty() {
            let analysis = analyze(merged);
            println!("{}", render_digest(&analysis));
            println!("{}", render_per_level(&analysis, "discrepancies per optimization option"));
        }
    }

    if !report.shards_poisoned.is_empty() {
        eprintln!(
            "[farm] {} shard(s) poisoned: {:?} — see shard-NNN/poison.json for the \
             responsible seed ranges",
            report.shards_poisoned.len(),
            report.shards_poisoned
        );
        return 3;
    }
    0
}

/// `farm --coordinate ADDR`: own the lease queue behind a socket. No
/// workers run here; agents `--join` and ship shard results back.
fn run_coordinate(args: &Args, bind: String) -> i32 {
    let Some(dir) = args.get("--dir") else {
        eprintln!(
            "farm --coordinate needs --dir DIR (coord.journal, coord.addr, and merged.json \
             live there)"
        );
        return 2;
    };

    let mode = if args.has("--hipify") { TestMode::Hipified } else { TestMode::Direct };
    let mut campaign = CampaignConfig::default_for(args.precision(), mode);
    campaign.seed = flag!(args, "--seed", campaign.seed);
    campaign.n_programs = flag!(args, "--programs", campaign.n_programs);
    campaign.inputs_per_program = flag!(args, "--inputs", campaign.inputs_per_program);
    campaign.budget.max_steps = flag!(args, "--fuel", campaign.budget.max_steps);
    if args.get("--timeout-ms").is_some() {
        campaign.budget.max_wall_ms = Some(flag!(args, "--timeout-ms", 0u64));
    }

    let n_shards: usize = flag!(args, "--shards", 8);
    if n_shards == 0 {
        eprintln!("--shards must be at least 1");
        return 2;
    }
    if n_shards > campaign.n_programs {
        eprintln!(
            "--shards {n_shards} exceeds --programs {}; trailing shards would be empty",
            campaign.n_programs
        );
        return 2;
    }

    let mut cfg = CoordConfig::new(campaign, n_shards, bind, dir);
    cfg.heartbeat_ms = flag!(args, "--heartbeat-ms", cfg.heartbeat_ms);
    cfg.grace_ms = flag!(args, "--grace-ms", cfg.grace_ms);
    cfg.linger_ms = flag!(args, "--linger-ms", cfg.linger_ms);
    cfg.reference = args.has("--reference");
    cfg.status_addr = args.get("--status-addr").map(String::from);

    eprintln!(
        "[fleet-coord] dealing {} shard(s) over {} programs on {}; journal in {dir}",
        cfg.n_shards, cfg.campaign.n_programs, cfg.bind
    );

    obs::reset();
    fault::reset_shutdown();
    install_sigint_handler();

    let report = match run_coordinator(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet coordinator failed: {e}");
            return 1;
        }
    };

    eprintln!(
        "[fleet-coord] done={} poisoned={} epoch={} grants={} fenced={} dup_completes={} \
         expiries={} drained={}",
        report.shards_done,
        report.shards_poisoned.len(),
        report.epoch,
        report.grants,
        report.fence_rejections,
        report.dup_completes,
        report.lease_expiries,
        report.drained
    );

    if report.drained {
        if let Some(hint) = &report.resume_hint {
            eprintln!("[fleet-coord] drained; {hint}");
        }
        return 130;
    }

    if let Some(merged) = &report.merged {
        if let Some(path) = args.get("--out") {
            if let Err(e) = merged.save(Path::new(path)) {
                eprintln!("cannot save merged metadata: {e}");
                return 1;
            }
            eprintln!("merged metadata saved to {path}");
        }
        if merged.is_complete() && report.shards_poisoned.is_empty() {
            let analysis = analyze(merged);
            println!("{}", render_digest(&analysis));
            println!("{}", render_per_level(&analysis, "discrepancies per optimization option"));
        }
    }

    if !report.shards_poisoned.is_empty() {
        eprintln!(
            "[fleet-coord] {} shard(s) poisoned: {:?} — the reporting agent's \
             shard-NNN/poison.json records the responsible slice",
            report.shards_poisoned.len(),
            report.shards_poisoned
        );
        return 3;
    }
    0
}

/// `farm --join ADDR`: lease shards from a coordinator and run workers
/// exactly as the local farm does. The campaign shape rides in on the
/// grant, so no campaign flags are needed (or honored) here.
fn run_join(args: &Args, coordinator: String) -> i32 {
    let Some(dir) = args.get("--dir") else {
        eprintln!("farm --join needs --dir DIR (shard checkpoints live there)");
        return 2;
    };
    let n_workers: usize = flag!(args, "--workers", 4);
    if n_workers == 0 {
        eprintln!("--workers must be at least 1");
        return 2;
    }

    let program = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own binary to spawn workers: {e}");
            return 1;
        }
    };
    let mut worker = WorkerSpec::new(program);
    // `--reference` is appended per-lease when the grant demands it, so
    // a fleet's verdict policy is set once, on the coordinator.
    worker.prefix_args = vec!["campaign".to_string()];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = cores.div_ceil(n_workers).max(1);
    worker.env.push(("RAYON_NUM_THREADS".to_string(), threads.to_string()));

    let mut cfg = AgentConfig::new(coordinator, dir, n_workers, worker);
    if let Some(name) = args.get("--agent-name") {
        cfg.name = name.to_string();
    }
    cfg.crash_threshold = flag!(args, "--crash-threshold", cfg.crash_threshold);
    if cfg.crash_threshold == 0 {
        eprintln!("--crash-threshold must be at least 1");
        return 2;
    }
    cfg.grace_ms = flag!(args, "--grace-ms", cfg.grace_ms);
    cfg.max_offline_ms = flag!(args, "--max-offline-ms", cfg.max_offline_ms);
    cfg.io_timeout_ms = flag!(args, "--io-timeout-ms", cfg.io_timeout_ms);
    cfg.seed = flag!(args, "--seed", u64::from(std::process::id()));
    cfg.backoff = BackoffPolicy::default();
    cfg.net_chaos = NetChaosConfig {
        budget: flag!(args, "--net-chaos", 0),
        seed: flag!(args, "--net-chaos-seed", cfg.seed),
        ..NetChaosConfig::default()
    };

    eprintln!(
        "[fleet-agent {}] joining {} with {n_workers} worker(s); checkpoints in {dir}",
        cfg.name, cfg.coordinator
    );

    obs::reset();
    fault::reset_shutdown();
    install_sigint_handler();

    let report = match run_agent(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet agent failed: {e}");
            return 1;
        }
    };

    eprintln!(
        "[fleet-agent {}] completed={} poisoned={} fenced={} spawns={} deaths={} \
         faults_injected={} all_done={} drained={} gave_up={}",
        cfg.name,
        report.shards_completed,
        report.shards_poisoned,
        report.fenced,
        report.spawns,
        report.worker_deaths,
        report.faults_injected,
        report.all_done,
        report.drained,
        report.gave_up
    );

    if report.drained {
        eprintln!("[fleet-agent] drained; re-run the same command to rejoin and resume");
        return 130;
    }
    if report.gave_up {
        eprintln!(
            "[fleet-agent] coordinator unreachable past --max-offline-ms; checkpoints kept — \
             re-run the same command to rejoin and resume"
        );
        return 1;
    }
    0
}
