//! The local farm: `farm --dir` as a thin entry point over the shared
//! supervision loop ([`crate::fleet::agent`]), run against an
//! in-process [`CoordState`] instead of a remote coordinator.
//!
//! Before any worker starts, every shard directory a previous run left
//! under `--dir` is checked against this campaign, so a stale `--dir`
//! fails fast, naming the directory. Results fold in memory through
//! [`CampaignMeta::merge_shards_partial`], whose canonical order makes
//! the merge independent of completion order, and `merged.json` is
//! written once, when the run ends or drains. Each shard's `result.json`
//! and `poison.json` are the record a restart adopts.

use std::path::{Path, PathBuf};

use difftest::checkpoint::Checkpoint;
use difftest::metadata::{CampaignMeta, MetaError};
use difftest::CampaignConfig;

use crate::backoff::BackoffPolicy;
use crate::chaos::ChaosConfig;
use crate::fleet::agent::{inspect_shard, supervise, AgentConfig, Transport};
use crate::fleet::coord::CoordState;
use crate::lease::ShardId;
use crate::worker::WorkerSpec;

/// Everything the supervisor needs to run one farm.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// The campaign to run.
    pub campaign: CampaignConfig,
    /// Number of shards to deal the campaign into (the unit of lease,
    /// recovery, and merge; usually a small multiple of `n_workers`).
    pub n_shards: usize,
    /// Number of worker subprocesses to keep in flight. A shard whose
    /// worker exited with a `result.json` frees its slot at once: the
    /// next shard's worker starts before the result is folded.
    pub n_workers: usize,
    /// Farm root directory: holds `shard-NNN/` checkpoints,
    /// `merged.json` (written when the run ends or drains), and the
    /// drain `stop` file.
    pub dir: PathBuf,
    /// How to launch workers.
    pub worker: WorkerSpec,
    /// Lease heartbeat window: a leased shard whose journal shows no
    /// growth for this long is declared hung.
    pub heartbeat_ms: u64,
    /// Longest wait between passes of the supervision loop. Worker
    /// exits wake it at once; this bounds how late the timed checks run
    /// (the hang watchdog, the `stop` file, respawn backoff, the drain
    /// deadline).
    pub poll_ms: u64,
    /// Consecutive no-progress crashes before a shard is poisoned.
    pub crash_threshold: u32,
    /// Respawn backoff shape.
    pub backoff: BackoffPolicy,
    /// Seed for backoff jitter and chaos victim selection.
    pub seed: u64,
    /// How long a drain waits for workers to flush before hard-killing.
    pub grace_ms: u64,
    /// Bind address for the HTTP status endpoint (`None` = off).
    pub status_addr: Option<String>,
    /// Chaos-mode kills (budget 0 = off).
    pub chaos: ChaosConfig,
}

impl FarmConfig {
    /// A farm over `campaign` with production defaults: 30 s heartbeat,
    /// 50 ms poll, 3-crash breaker, default backoff, 10 s drain grace.
    pub fn new(
        campaign: CampaignConfig,
        n_shards: usize,
        n_workers: usize,
        dir: impl Into<PathBuf>,
        worker: WorkerSpec,
    ) -> FarmConfig {
        FarmConfig {
            campaign,
            n_shards,
            n_workers,
            dir: dir.into(),
            worker,
            heartbeat_ms: 30_000,
            poll_ms: 50,
            crash_threshold: 3,
            backoff: BackoffPolicy::default(),
            seed: 0,
            grace_ms: 10_000,
            status_addr: None,
            chaos: ChaosConfig::default(),
        }
    }
}

/// What a farm run produced.
#[derive(Debug)]
pub struct FarmReport {
    /// The rolling merge of every completed shard (`None` only if no
    /// shard finished). Complete iff `shards_poisoned` is empty and
    /// `drained` is false.
    pub merged: Option<CampaignMeta>,
    /// Shards folded into `merged`.
    pub shards_done: usize,
    /// Shards demoted to the poison quarantine.
    pub shards_poisoned: Vec<ShardId>,
    /// `true` if the run stopped on a drain request rather than
    /// completion.
    pub drained: bool,
    /// Worker processes spawned (including respawns).
    pub spawns: u64,
    /// Spawns that were recoveries of a previously-assigned shard.
    pub respawns: u64,
    /// Worker deaths observed (crashes, kills, hangs).
    pub worker_deaths: u64,
    /// Leases revoked for missed heartbeats.
    pub lease_expiries: u64,
    /// Workers killed by the built-in chaos adversary.
    pub chaos_kills: u64,
    /// The exact command to resume a drained farm, when `drained`.
    pub resume_hint: Option<String>,
}

/// Farm-level failures (worker spawn errors, merge protocol errors,
/// unusable farm directory).
#[derive(Debug)]
pub enum FarmError {
    /// Filesystem or process-management failure.
    Io(String),
    /// Shard results violated the merge protocol.
    Meta(MetaError),
    /// The configuration is unusable (zero shards/workers).
    Config(String),
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Io(m) => write!(f, "farm io error: {m}"),
            FarmError::Meta(e) => write!(f, "farm merge error: {e}"),
            FarmError::Config(m) => write!(f, "farm config error: {m}"),
        }
    }
}

impl std::error::Error for FarmError {}

impl From<MetaError> for FarmError {
    fn from(e: MetaError) -> FarmError {
        FarmError::Meta(e)
    }
}

pub(crate) fn io_err(e: impl std::fmt::Display) -> FarmError {
    FarmError::Io(e.to_string())
}

/// Directory of shard `k` under `root`.
pub fn shard_dir(root: &Path, shard: ShardId) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// Path of the merged metadata under `root`, written when a run ends.
pub fn merged_path(root: &Path) -> PathBuf {
    root.join("merged.json")
}

/// Path of the farm-level drain stop file.
pub fn farm_stop_path(root: &Path) -> PathBuf {
    root.join("stop")
}

/// Path of a shard's poison record.
pub fn poison_path(shard_dir: &Path) -> PathBuf {
    shard_dir.join("poison.json")
}

pub(crate) fn journal_len(shard_dir: &Path) -> u64 {
    std::fs::metadata(Checkpoint::journal_path(shard_dir)).map(|m| m.len()).unwrap_or(0)
}

/// Run a farm to completion (or drain): the shared supervision loop
/// against an in-process [`CoordState`].
pub fn run_farm(cfg: &FarmConfig) -> Result<FarmReport, FarmError> {
    if cfg.n_shards == 0 {
        return Err(FarmError::Config("need at least one shard and one worker".into()));
    }
    for k in 0..cfg.n_shards {
        inspect_shard(&cfg.dir, k, cfg.n_shards, &cfg.campaign)?;
    }
    let mut state = CoordState::resume(
        cfg.campaign.clone(),
        cfg.n_shards,
        cfg.heartbeat_ms,
        false,
        Vec::new(),
    )?;
    let agent = AgentConfig {
        name: "farm".into(),
        poll_ms: cfg.poll_ms,
        crash_threshold: cfg.crash_threshold,
        backoff: cfg.backoff,
        seed: cfg.seed,
        grace_ms: cfg.grace_ms,
        ..AgentConfig::new("", &cfg.dir, cfg.n_workers, cfg.worker.clone())
    };
    let run =
        supervise(&agent, Transport::Local(&mut state), cfg.status_addr.as_deref(), cfg.chaos)?;
    if let Some(m) = state.merged() {
        m.save(&merged_path(&cfg.dir))?;
    }
    Ok(FarmReport {
        shards_done: state.tally().2,
        shards_poisoned: state.poisoned_shards(),
        merged: state.take_merged(),
        drained: run.drained,
        spawns: run.spawns,
        respawns: run.respawns,
        worker_deaths: run.worker_deaths,
        lease_expiries: run.lease_expiries,
        chaos_kills: run.chaos_kills,
        resume_hint: run.drained.then(|| {
            format!(
                "re-run the same farm command with --dir {} — completed shards fold back in, \
                 in-flight shards resume from their journals",
                cfg.dir.display()
            )
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::coord::metrics_exposition;
    use difftest::checkpoint::ShardSpec;
    use difftest::TestMode;
    use progen::Precision;

    fn tiny_config() -> CampaignConfig {
        let mut c = CampaignConfig::default_for(Precision::F32, TestMode::Direct);
        c.n_programs = 6;
        c.inputs_per_program = 2;
        c
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("farm-sup-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// A worker spec that runs a shell script instead of the real CLI,
    /// so supervisor plumbing is testable without a cargo-built binary.
    fn script_worker(script: &str) -> WorkerSpec {
        let mut spec = WorkerSpec::new("/bin/sh");
        spec.prefix_args = vec!["-c".into(), script.into(), "farm-test-worker".into()];
        spec
    }

    #[test]
    fn rejects_zero_shards_and_zero_workers() {
        let cfg = FarmConfig::new(tiny_config(), 0, 1, temp_root("z0"), script_worker("exit 0"));
        assert!(matches!(run_farm(&cfg), Err(FarmError::Config(_))));
        let cfg = FarmConfig::new(tiny_config(), 1, 0, temp_root("z1"), script_worker("exit 0"));
        assert!(matches!(run_farm(&cfg), Err(FarmError::Config(_))));
        // A zero crash threshold would poison every shard on sight.
        let mut cfg =
            FarmConfig::new(tiny_config(), 1, 1, temp_root("z2"), script_worker("exit 0"));
        cfg.crash_threshold = 0;
        assert!(matches!(run_farm(&cfg), Err(FarmError::Config(_))));
    }

    #[test]
    fn always_crashing_workers_poison_every_shard() {
        let root = temp_root("poison");
        // $2 is "--resume <dir>": the script dies without journaling, so
        // the breaker sees pure no-progress crashes.
        let mut cfg = FarmConfig::new(tiny_config(), 2, 2, &root, script_worker("exit 7"));
        cfg.crash_threshold = 2;
        cfg.poll_ms = 5;
        cfg.backoff = BackoffPolicy { base_ms: 1, cap_ms: 2, jitter: 0.0 };
        let report = run_farm(&cfg).expect("farm runs");
        assert!(!report.drained);
        assert_eq!(report.shards_done, 0);
        assert_eq!(report.shards_poisoned.len(), 2, "both shards must trip the breaker");
        assert!(report.worker_deaths >= 4, "2 shards x threshold 2");
        assert!(report.merged.is_none());
        for k in 0..2 {
            let p = poison_path(&shard_dir(&root, k));
            assert!(p.exists(), "poison record for shard {k}");
            let record: serde_json::Value =
                serde_json::from_str(&std::fs::read_to_string(&p).unwrap()).unwrap();
            assert_eq!(record["consecutive_crashes"].as_u64(), Some(2));
            assert_eq!(record["shard_count"].as_u64(), Some(2));
        }
        // A restart adopts the records: no shard is crashed again, and
        // the records stay as the first run wrote them.
        let records: Vec<String> = (0..2)
            .map(|k| std::fs::read_to_string(poison_path(&shard_dir(&root, k))).unwrap())
            .collect();
        let report = run_farm(&cfg).expect("farm restarts");
        assert_eq!(report.spawns, 0, "poisoned shards are not re-run");
        assert_eq!(report.shards_poisoned, vec![0, 1]);
        for (k, record) in records.iter().enumerate() {
            let now = std::fs::read_to_string(poison_path(&shard_dir(&root, k))).unwrap();
            assert_eq!(&now, record, "shard {k}'s record was rewritten");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn progress_between_crashes_resets_the_crash_streak() {
        let root = temp_root("streak");
        let config = tiny_config();
        let dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = CampaignMeta::generate_shard(&config, 0, 1);
        meta.sides_run = vec![];
        meta.save(&dir.join("canned.json")).unwrap();
        // Each of the first three attempts journals a byte and then
        // crashes; the fourth finishes. Every crash follows progress, so
        // the streak never reaches the threshold of 2.
        let script = "n=$(cat \"$2/attempts\" 2>/dev/null || echo 0); n=$((n + 1)); \
                      echo $n > \"$2/attempts\"; \
                      if [ $n -le 3 ]; then printf x >> \"$2/journal.bin\"; exit 9; fi; \
                      cp \"$2/canned.json\" \"$2/result.json\"";
        let mut cfg = FarmConfig::new(config, 1, 1, &root, script_worker(script));
        cfg.crash_threshold = 2;
        cfg.poll_ms = 5;
        cfg.backoff = BackoffPolicy { base_ms: 1, cap_ms: 2, jitter: 0.0 };
        let report = run_farm_with_watchdog(cfg).expect("farm runs");
        assert!(report.shards_poisoned.is_empty(), "crashes after progress must not poison");
        assert_eq!(report.shards_done, 1);
        assert_eq!(report.worker_deaths, 3);
        assert_eq!((report.spawns, report.respawns), (4, 3));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn workers_that_finish_their_shards_complete_the_farm() {
        let root = temp_root("done");
        let config = tiny_config();
        // Fake workers: write a real per-shard result by regenerating
        // the shard from its spec (as the CLI would after running it),
        // here via a pre-serialized file the script copies into place.
        for k in 0..2usize {
            let dir = shard_dir(&root, k);
            std::fs::create_dir_all(&dir).unwrap();
            let mut meta = CampaignMeta::generate_shard(&config, k, 2);
            meta.sides_run = vec![];
            meta.save(&dir.join("canned.json")).unwrap();
        }
        let spec = script_worker("cp \"$2/canned.json\" \"$2/result.json\"");
        let mut cfg = FarmConfig::new(config.clone(), 2, 2, &root, spec);
        cfg.poll_ms = 5;
        let report = run_farm(&cfg).expect("farm runs");
        assert!(!report.drained);
        assert_eq!(report.shards_done, 2);
        assert!(report.shards_poisoned.is_empty());
        assert_eq!(report.worker_deaths, 0);
        let merged = report.merged.expect("merged report");
        assert_eq!(merged.tests.len(), config.n_programs, "all tests present");
        let on_disk = CampaignMeta::load(&merged_path(&root)).expect("merged.json written");
        assert!(on_disk == merged, "merged.json written at the end holds the final merge");
        // Canonical order regardless of which worker finished first.
        let indices: Vec<u64> = merged.tests.iter().map(|t| t.index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn farm_restart_adopts_finished_shards_without_respawning_them() {
        let root = temp_root("adopt");
        let config = tiny_config();
        // Shard 0 already finished in a "previous run".
        let done_dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&done_dir).unwrap();
        let mut meta0 = CampaignMeta::generate_shard(&config, 0, 2);
        meta0.sides_run = vec![];
        meta0.save(&done_dir.join("result.json")).unwrap();
        // Shard 1's worker finishes normally.
        let dir1 = shard_dir(&root, 1);
        std::fs::create_dir_all(&dir1).unwrap();
        let mut meta1 = CampaignMeta::generate_shard(&config, 1, 2);
        meta1.sides_run = vec![];
        meta1.save(&dir1.join("canned.json")).unwrap();
        let spec = script_worker("cp \"$2/canned.json\" \"$2/result.json\"");
        let mut cfg = FarmConfig::new(config.clone(), 2, 4, &root, spec);
        cfg.poll_ms = 5;
        let report = run_farm(&cfg).expect("farm runs");
        assert_eq!(report.shards_done, 2);
        assert_eq!(report.spawns, 1, "only shard 1 needed a worker");
        assert_eq!(report.merged.unwrap().tests.len(), config.n_programs);
        std::fs::remove_dir_all(&root).ok();
    }

    /// A farm of `n_shards` shards and `n_workers` script workers under
    /// `root`, each shard's result canned beforehand, whose workers run
    /// `prelude` and then copy the result into place. The loop polls
    /// every 10 s, so a run that waits out one poll takes 10 s.
    fn canned_farm(root: &Path, n_shards: usize, n_workers: usize, prelude: &str) -> FarmConfig {
        let config = tiny_config();
        for k in 0..n_shards {
            let dir = shard_dir(root, k);
            std::fs::create_dir_all(&dir).unwrap();
            let mut meta = CampaignMeta::generate_shard(&config, k, n_shards);
            meta.sides_run = vec![];
            meta.save(&dir.join("canned.json")).unwrap();
        }
        let script = format!("{prelude}cp \"$2/canned.json\" \"$2/result.json\"");
        let mut cfg = FarmConfig::new(config, n_shards, n_workers, root, script_worker(&script));
        cfg.poll_ms = 10_000;
        cfg
    }

    /// Run `cfg` and check that every shard completed within `bound`.
    fn assert_completes_within(cfg: FarmConfig, bound: std::time::Duration) {
        let (root, n_shards) = (cfg.dir.clone(), cfg.n_shards);
        let started = std::time::Instant::now();
        let report = run_farm_with_watchdog(cfg).expect("farm runs");
        let elapsed = started.elapsed();
        assert_eq!((report.spawns, report.shards_done), (n_shards as u64, n_shards));
        assert_eq!(report.merged.expect("merged report").tests.len(), tiny_config().n_programs);
        assert!(elapsed < bound, "{}: the farm waited out a poll: {elapsed:?}", root.display());
        std::fs::remove_dir_all(&root).ok();
    }

    /// With a 10 s poll, 2 workers over 4 shards finish in well under one
    /// poll: each worker's exit wakes the loop, which starts the next
    /// shard before it folds the finished one.
    #[test]
    fn worker_exits_wake_the_loop_instead_of_the_poll() {
        let cfg = canned_farm(&temp_root("wake"), 4, 2, "");
        assert_completes_within(cfg, std::time::Duration::from_secs(3));
    }

    /// The watcher drains a worker's stdout: a worker that prints more
    /// than a pipe holds would otherwise block and never finish.
    #[test]
    fn a_worker_that_floods_stdout_still_completes() {
        let cfg = canned_farm(&temp_root("flood"), 2, 2, "head -c 1048576 /dev/zero; ");
        assert_completes_within(cfg, std::time::Duration::from_secs(3));
    }

    /// Each loop owns its wake channel: two farms in one process never
    /// take each other's worker exits.
    #[test]
    fn two_concurrent_farms_each_finish_within_the_bound() {
        let farms: Vec<_> = ["pair-a", "pair-b"]
            .into_iter()
            .map(|tag| {
                let cfg = canned_farm(&temp_root(tag), 4, 2, "");
                std::thread::spawn(move || {
                    assert_completes_within(cfg, std::time::Duration::from_secs(3))
                })
            })
            .collect();
        for farm in farms {
            farm.join().expect("both farms finish within the bound");
        }
    }

    /// Run a farm on a watchdog thread so a regression that makes the
    /// event loop non-terminating fails the test instead of hanging it.
    fn run_farm_with_watchdog(cfg: FarmConfig) -> Result<FarmReport, FarmError> {
        let handle = std::thread::spawn(move || run_farm(&cfg));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !handle.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "farm loop failed to terminate within 60 s"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        handle.join().expect("no panic")
    }

    #[test]
    fn worker_that_progresses_then_hangs_still_expires() {
        let root = temp_root("hang-after-progress");
        // First attempt journals one byte then wedges; every respawn
        // wedges without progress. The moving-watermark heartbeat must
        // expire the first attempt too — under the old since-spawn
        // comparison its lease was refreshed forever and the farm never
        // terminated.
        let script = "if [ ! -f \"$2/mark\" ]; then : > \"$2/mark\"; \
                      printf x >> \"$2/journal.bin\"; fi; sleep 30";
        let mut cfg = FarmConfig::new(tiny_config(), 1, 1, &root, script_worker(script));
        cfg.heartbeat_ms = 200;
        cfg.poll_ms = 5;
        cfg.crash_threshold = 2;
        cfg.backoff = BackoffPolicy { base_ms: 1, cap_ms: 2, jitter: 0.0 };
        let report = run_farm_with_watchdog(cfg).expect("farm runs");
        assert!(report.lease_expiries >= 2, "both the progressing and the stuck attempt expire");
        assert_eq!(report.shards_poisoned, vec![0], "no-progress hangs trip the breaker");
        assert!(report.worker_deaths >= 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn crash_during_drain_is_still_counted_as_a_death() {
        let root = temp_root("drain-crash");
        std::fs::create_dir_all(&root).unwrap();
        // The worker segfault-alikes (exit 9) well after the drain
        // starts: the exit must be classified as a death, not a flush.
        let spec = script_worker("sleep 0.4; exit 9");
        let mut cfg = FarmConfig::new(tiny_config(), 1, 1, &root, spec);
        cfg.poll_ms = 5;
        cfg.grace_ms = 5_000;
        let handle = {
            let cfg = cfg.clone();
            std::thread::spawn(move || run_farm(&cfg))
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        std::fs::write(farm_stop_path(&root), b"x").unwrap();
        let report = handle.join().expect("no panic").expect("farm runs");
        assert!(report.drained);
        assert!(report.worker_deaths >= 1, "drain-time crash visible in the report");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn restart_rejects_a_result_from_a_different_campaign() {
        let root = temp_root("stale-result");
        let dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let mut other = tiny_config();
        other.n_programs += 1;
        let mut stale = CampaignMeta::generate_shard(&other, 0, 2);
        stale.sides_run = vec![];
        stale.save(&dir.join("result.json")).unwrap();
        let cfg = FarmConfig::new(tiny_config(), 2, 1, &root, script_worker("exit 0"));
        match run_farm(&cfg) {
            Err(FarmError::Config(msg)) => {
                assert!(msg.contains("shard-000"), "error names the stale directory: {msg}")
            }
            other => panic!("expected fail-fast config error, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn restart_rejects_a_checkpoint_with_a_different_shard_count() {
        let root = temp_root("stale-spec");
        let config = tiny_config();
        // A previous farm over the same campaign but dealt into 3
        // shards left a mid-flight checkpoint behind.
        let dir = shard_dir(&root, 0);
        let spec = ShardSpec { index: 0, count: 3 };
        Checkpoint::create_sharded(&dir, &config, Some(spec)).unwrap();
        let cfg = FarmConfig::new(config, 2, 1, &root, script_worker("exit 0"));
        match run_farm(&cfg) {
            Err(FarmError::Config(msg)) => {
                assert!(msg.contains("0/3"), "error names the stored shard spec: {msg}")
            }
            other => panic!("expected fail-fast config error, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stop_file_drains_the_farm_with_exit_hint() {
        let root = temp_root("drain");
        std::fs::create_dir_all(&root).unwrap();
        // Request the drain before the farm even starts: workers never
        // spawn, every shard stays available, and the report says so.
        std::fs::write(farm_stop_path(&root), b"x").unwrap();
        // run_farm clears stale stop files, so write it again from a
        // slow worker's perspective instead: use a worker that sleeps,
        // then drop the stop file mid-run.
        let spec = script_worker("sleep 5");
        let mut cfg = FarmConfig::new(tiny_config(), 2, 1, &root, spec);
        cfg.poll_ms = 5;
        cfg.grace_ms = 400;
        let handle = {
            let cfg = cfg.clone();
            std::thread::spawn(move || run_farm(&cfg))
        };
        std::thread::sleep(std::time::Duration::from_millis(150));
        std::fs::write(farm_stop_path(&root), b"x").unwrap();
        let report = handle.join().expect("no panic").expect("farm runs");
        assert!(report.drained);
        assert!(report.resume_hint.is_some());
        assert_eq!(report.shards_done, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn drain_writes_merged_json_with_exactly_the_folded_shards() {
        let root = temp_root("drain-merged");
        let config = tiny_config();
        // Shard 0 finishes at once; shard 1 is still running when the
        // drain starts and never finishes.
        let dir0 = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir0).unwrap();
        let mut meta0 = CampaignMeta::generate_shard(&config, 0, 2);
        meta0.sides_run = vec![];
        meta0.save(&dir0.join("canned.json")).unwrap();
        let spec = script_worker(
            "if [ -f \"$2/canned.json\" ]; then cp \"$2/canned.json\" \"$2/result.json\"; \
             else sleep 5; fi",
        );
        let mut cfg = FarmConfig::new(config, 2, 2, &root, spec);
        cfg.poll_ms = 5;
        cfg.grace_ms = 400;
        let handle = {
            let cfg = cfg.clone();
            std::thread::spawn(move || run_farm(&cfg))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !dir0.join("result.json").exists() {
            assert!(std::time::Instant::now() < deadline, "shard 0 never finished");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        // Give the supervisor a few polls to reap and fold shard 0.
        std::thread::sleep(std::time::Duration::from_millis(200));
        std::fs::write(farm_stop_path(&root), b"x").unwrap();
        let report = handle.join().expect("no panic").expect("farm runs");
        assert!(report.drained);
        assert_eq!(report.shards_done, 1);
        let on_disk = CampaignMeta::load(&merged_path(&root)).expect("merged.json written");
        assert!(report.merged.as_ref() == Some(&on_disk), "merged.json is the report's merge");
        assert!(on_disk == meta0, "merged.json holds exactly the one finished shard");
        std::fs::remove_dir_all(&root).ok();
    }

    /// The first worker of each shard writes a torn `result.json`, the
    /// second one that is JSON but no campaign result, the third the
    /// real result. The first is scrapped before it ships; the second is
    /// shipped, refused with `Regenerate` (never the fatal `Error`) and
    /// scrapped; the run then ends with the ordinary merge.
    #[test]
    fn unreadable_results_are_scrapped_and_regenerated() {
        let root = temp_root("unreadable");
        let script = "n=$(cat \"$2/attempts\" 2>/dev/null || echo 0); n=$((n + 1)); \
                      echo $n > \"$2/attempts\"; \
                      case $n in 1) printf '{\"config\":' > \"$2/result.json\" ;; \
                      2) printf '{\"config\":1}' > \"$2/result.json\" ;; \
                      *) cp \"$2/canned.json\" \"$2/result.json\" ;; esac";
        let mut cfg = canned_farm(&root, 2, 2, "");
        cfg.worker = script_worker(script);
        cfg.poll_ms = 5;
        let report = run_farm_with_watchdog(cfg).expect("the farm regenerates, not fails");
        assert_eq!((report.shards_done, report.spawns, report.worker_deaths), (2, 6, 0));
        let expected: Vec<CampaignMeta> = (0..2)
            .map(|k| {
                let mut m = CampaignMeta::generate_shard(&tiny_config(), k, 2);
                m.sides_run = vec![];
                m
            })
            .collect();
        let expected = CampaignMeta::merge_shards(expected).unwrap();
        assert!(report.merged.as_ref() == Some(&expected), "the ordinary merge");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn metrics_exposition_merges_farm_and_campaign_series() {
        obs::add("farm.spawns", 2);
        let mut meta = CampaignMeta::generate(&tiny_config());
        let mut campaign = obs::MetricsSnapshot::default();
        campaign.counters.insert("campaign.runs_done".into(), 12);
        let h = obs::Histogram::new();
        h.record(1500);
        campaign.hists.insert("span.campaign.unit".into(), h.snapshot());
        meta.metrics = Some(campaign);

        let text = metrics_exposition("farm.", Some(&meta));
        assert!(text.contains("farm_spawns"), "{text}");
        assert!(text.contains("campaign_runs_done 12"), "{text}");
        assert!(text.contains("# TYPE span_campaign_unit histogram"), "{text}");
        assert!(text.contains("span_campaign_unit_count 1"), "{text}");
        // No merged campaign yet: only the farm's own series appear.
        let farm_only = metrics_exposition("farm.", None);
        assert!(!farm_only.contains("campaign_runs_done"), "{farm_only}");
    }
}
