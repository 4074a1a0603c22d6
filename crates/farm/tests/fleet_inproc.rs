//! In-process fleet integration: a real coordinator socket, two real
//! agents with subprocess workers, and the seeded network adversary —
//! proving the chaos-tortured fleet merges byte-identical to a calm
//! run, with zero shards lost and zero double-merged.

use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use difftest::metadata::CampaignMeta;
use difftest::{CampaignConfig, TestMode};
use farm::supervisor::{shard_dir, FarmError};
use farm::{
    run_agent, run_coordinator, AgentConfig, AgentReport, BackoffPolicy, CoordConfig, CoordReport,
    NetChaosConfig, WorkerSpec,
};
use progen::Precision;

const N_SHARDS: usize = 5;

/// How long the coordinator may take to exit once both agents have.
/// Well under the calm run's 60 s linger: a coordinator that waits out
/// its linger instead of ending on the agents' goodbyes fails.
const COORD_EXIT_SECS: u64 = 15;

fn tiny_config() -> CampaignConfig {
    let mut c = CampaignConfig::default_for(Precision::F32, TestMode::Direct);
    c.n_programs = 10;
    c.inputs_per_program = 2;
    c
}

/// Workers are `/bin/sh` stand-ins that "finish" their shard by copying
/// a canned, deterministic result into place — the same trick the
/// supervisor tests use, so the fleet plumbing is testable without a
/// cargo-built CLI binary.
fn script_worker() -> WorkerSpec {
    sh_worker("cp \"$2/canned.json\" \"$2/result.json\"")
}

fn sh_worker(script: &str) -> WorkerSpec {
    let mut spec = WorkerSpec::new("/bin/sh");
    spec.prefix_args = vec!["-c".into(), script.into(), "fleet-test".into()];
    spec
}

/// Pre-place every shard's canned result under an agent's dir (agents
/// race for leases, so each must be able to run any shard).
fn seed_canned(agent_dir: &Path, config: &CampaignConfig, n_shards: usize) {
    for k in 0..n_shards {
        let dir = shard_dir(agent_dir, k);
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = CampaignMeta::generate_shard(config, k, n_shards);
        meta.sides_run = vec![];
        meta.save(&dir.join("canned.json")).unwrap();
    }
}

type CoordHandle = JoinHandle<Result<CoordReport, FarmError>>;

/// A coordinator over `n_shards` on a free loopback port, serving from
/// a thread; returns it with its address.
fn start_coordinator(
    dir: &Path,
    n_shards: usize,
    linger_ms: u64,
    poll_ms: u64,
) -> (CoordHandle, String) {
    let mut ccfg = CoordConfig::new(tiny_config(), n_shards, "127.0.0.1:0", dir);
    ccfg.heartbeat_ms = 2_000;
    ccfg.poll_ms = poll_ms;
    ccfg.linger_ms = linger_ms;
    let coord = std::thread::spawn(move || run_coordinator(&ccfg));
    (coord, wait_for_addr(dir))
}

fn wait_for_addr(coord_dir: &Path) -> String {
    let path = coord_dir.join("coord.addr");
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        if let Ok(s) = std::fs::read_to_string(&path) {
            if !s.trim().is_empty() {
                return s.trim().to_string();
            }
        }
        assert!(Instant::now() < deadline, "coordinator never published its address");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn join_with_watchdog<T: Send + 'static>(
    handle: std::thread::JoinHandle<T>,
    what: &str,
    secs: u64,
) -> T {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "{what} failed to terminate within {secs}s");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("no panic")
}

fn run_fleet(tag: &str, chaos_budget: u32, linger_ms: u64) -> (CoordReport, Vec<AgentReport>) {
    let root = temp_root(tag);
    let coord_dir: PathBuf = root.join("coord");
    let config = tiny_config();
    let (coord, addr) = start_coordinator(&coord_dir, N_SHARDS, linger_ms, 10);

    let mut agents = Vec::new();
    for i in 0..2u64 {
        let dir = root.join(format!("agent-{i}"));
        seed_canned(&dir, &config, N_SHARDS);
        let mut acfg = AgentConfig::new(&addr, &dir, 2, script_worker());
        acfg.name = format!("agent-{i}");
        acfg.poll_ms = 10;
        acfg.seed = 100 + i;
        acfg.io_timeout_ms = 1_000;
        acfg.max_offline_ms = 8_000;
        acfg.net_chaos = NetChaosConfig {
            budget: chaos_budget,
            seed: 7 + i,
            max_delay_ms: 80,
            partition_ms: 300,
        };
        agents.push(std::thread::spawn(move || run_agent(&acfg)));
    }

    let agent_reports: Vec<AgentReport> = agents
        .into_iter()
        .enumerate()
        .map(|(i, h)| join_with_watchdog(h, &format!("agent {i}"), 90).expect("agent runs"))
        .collect();
    let coord_report =
        join_with_watchdog(coord, "coordinator", COORD_EXIT_SECS).expect("coordinator runs");
    std::fs::remove_dir_all(&root).ok();
    (coord_report, agent_reports)
}

fn assert_complete(coord: &CoordReport, agents: &[AgentReport]) {
    assert!(!coord.drained, "fleet must finish, not drain");
    assert_eq!(coord.shards_done, N_SHARDS, "every shard folded exactly once");
    assert!(coord.shards_poisoned.is_empty());
    assert!(coord.grants >= N_SHARDS as u64);
    let merged = coord.merged.as_ref().expect("merged report");
    assert_eq!(merged.tests.len(), tiny_config().n_programs, "zero units lost");
    let indices: Vec<u64> = merged.tests.iter().map(|t| t.index).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(indices, sorted, "canonical order, zero units double-merged");
    let completed: u64 = agents.iter().map(|a| a.shards_completed).sum();
    assert_eq!(completed, N_SHARDS as u64, "agents account for every completion");
}

/// Calm: every goodbye arrives, so the coordinator ends with the last
/// agent and never sleeps out its 60 s linger.
#[test]
fn calm_fleet_completes_with_every_shard_counted_once() {
    let (coord, agents) = run_fleet("calm", 0, 60_000);
    assert_complete(&coord, &agents);
    assert_eq!(coord.fence_rejections, 0, "calm run needs no fencing");
    assert!(agents.iter().all(|a| a.all_done), "both agents heard the verdict");
    assert!(agents.iter().all(|a| !a.gave_up && !a.drained));
}

#[test]
fn chaos_tortured_fleet_merges_byte_identical_to_a_calm_run() {
    // Chaos may drop a goodbye, so the linger bound must stay short.
    let (calm, calm_agents) = run_fleet("ref", 0, 4_000);
    let (chaos, chaos_agents) = run_fleet("chaos", 24, 4_000);
    assert_complete(&calm, &calm_agents);
    assert_complete(&chaos, &chaos_agents);
    let injected: u32 = chaos_agents.iter().map(|a| a.faults_injected).sum();
    assert!(injected > 0, "the chaos budget must actually fire");
    let calm_bytes = serde_json::to_string(calm.merged.as_ref().unwrap()).unwrap();
    let chaos_bytes = serde_json::to_string(chaos.merged.as_ref().unwrap()).unwrap();
    assert_eq!(
        calm_bytes, chaos_bytes,
        "dropped/duplicated/truncated/partitioned exchanges must not change the merge"
    );
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("fleet-inproc-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// With a 10 s poll on the agent and on its coordinator, an agent running
/// 2 workers over 4 shards finishes in well under one poll: each worker's
/// exit wakes the agent, which leases and spawns the next shard before it
/// ships the finished one, each request wakes the coordinator, and the
/// agent's goodbye ends the run.
#[test]
fn an_agent_fills_every_slot_and_hears_all_done_with_its_last_result() {
    let root = temp_root("slots");
    let started = Instant::now();
    let (coord, addr) = start_coordinator(&root.join("coord"), 4, 60_000, 10_000);
    let dir = root.join("agent");
    seed_canned(&dir, &tiny_config(), 4);
    let mut acfg = AgentConfig::new(&addr, &dir, 2, script_worker());
    acfg.poll_ms = 10_000;
    let report = join_with_watchdog(std::thread::spawn(move || run_agent(&acfg)), "agent", 60)
        .expect("agent runs");
    let coord =
        join_with_watchdog(coord, "coordinator", COORD_EXIT_SECS).expect("coordinator runs");
    let elapsed = started.elapsed();
    assert!(report.all_done);
    assert_eq!((report.spawns, report.shards_completed), (4, 4));
    assert_eq!(coord.shards_done, 4);
    assert!(elapsed < Duration::from_secs(3), "the fleet waited out a poll: {elapsed:?}");
    std::fs::remove_dir_all(&root).ok();
}

/// A `result.json` that is JSON but no campaign result is shipped, and
/// the coordinator answers `Regenerate`, never the fatal `Error`: the
/// agent scraps it, a respawned worker writes the real one, and the run
/// ends with the calm run's merge.
#[test]
fn a_result_the_coordinator_cannot_parse_is_regenerated() {
    let root = temp_root("regenerate");
    let (coord, addr) = start_coordinator(&root.join("coord"), 2, 60_000, 10);
    let dir = root.join("agent");
    seed_canned(&dir, &tiny_config(), 2);
    let script = "if [ -f \"$2/refused\" ]; then cp \"$2/canned.json\" \"$2/result.json\"; \
                  else touch \"$2/refused\"; printf '{\"config\":1}' > \"$2/result.json\"; fi";
    let mut acfg = AgentConfig::new(&addr, &dir, 2, sh_worker(script));
    acfg.poll_ms = 10;
    let report = join_with_watchdog(std::thread::spawn(move || run_agent(&acfg)), "agent", 60)
        .expect("the agent regenerates, not fails");
    let coord =
        join_with_watchdog(coord, "coordinator", COORD_EXIT_SECS).expect("coordinator runs");
    assert!(report.all_done);
    assert_eq!((report.spawns, report.shards_completed, report.worker_deaths), (4, 2, 0));
    let shards: Vec<CampaignMeta> = (0..2)
        .map(|k| {
            let mut m = CampaignMeta::generate_shard(&tiny_config(), k, 2);
            m.sides_run = vec![];
            m
        })
        .collect();
    let expected = CampaignMeta::merge_shards(shards).unwrap();
    assert!(coord.merged.as_ref() == Some(&expected), "the calm run's merge");
    std::fs::remove_dir_all(&root).ok();
}

/// An agent whose workers always crash poisons its shards through a real
/// coordinator, and each record names the responsible slice as a local
/// farm's does. A later run hands the records in without re-running.
#[test]
fn an_agent_poison_record_names_the_slice_and_a_rejoin_adopts_it() {
    let root = temp_root("poison");
    let dir = root.join("agent");
    let run = |tag: &str| -> AgentReport {
        let (coord, addr) = start_coordinator(&root.join(tag), 2, 60_000, 10);
        let mut acfg = AgentConfig::new(&addr, &dir, 2, sh_worker("exit 7"));
        acfg.name = "crasher".into();
        acfg.poll_ms = 5;
        acfg.crash_threshold = 2;
        acfg.backoff = BackoffPolicy { base_ms: 1, cap_ms: 2, jitter: 0.0 };
        let report = join_with_watchdog(std::thread::spawn(move || run_agent(&acfg)), "agent", 60)
            .expect("agent runs");
        let coord =
            join_with_watchdog(coord, "coordinator", COORD_EXIT_SECS).expect("coordinator runs");
        assert_eq!(coord.shards_poisoned, vec![0, 1]);
        report
    };
    let first = run("coord-1");
    assert_eq!((first.shards_poisoned, first.worker_deaths), (2, 4));
    let config = tiny_config();
    for k in 0..2usize {
        let text = std::fs::read_to_string(shard_dir(&dir, k).join("poison.json")).unwrap();
        let record: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(record["shard"].as_u64(), Some(k as u64));
        assert_eq!(record["shard_count"].as_u64(), Some(2));
        assert_eq!(record["test_indices"].as_str(), Some(format!("i ≡ {k} (mod 2)").as_str()));
        assert_eq!(record["campaign_seed"].as_u64(), Some(config.seed));
        assert_eq!(record["n_programs"].as_u64(), Some(config.n_programs as u64));
        assert_eq!(record["consecutive_crashes"].as_u64(), Some(2));
        assert_eq!(record["agent"].as_str(), Some("crasher"));
        assert!(record["replay"].as_str().unwrap().contains("campaign --resume"), "{text}");
    }
    let second = run("coord-2");
    assert_eq!((second.shards_poisoned, second.spawns), (2, 0));
    std::fs::remove_dir_all(&root).ok();
}
