//! End-to-end fleet tests: a real `farm --coordinate` process, two real
//! `farm --join` agent processes with seeded network chaos, an agent
//! SIGKILL, and a mid-run coordinator SIGKILL + restart — and the merged
//! report must still be byte-identical to a single-process run, with the
//! fencing rejections that prove the exactly-once machinery actually
//! fired observable in `/metrics`.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use difftest::campaign::analyze;
use difftest::metadata::CampaignMeta;

/// Eight shards of 32 programs: agent 0 is killed holding its first
/// ones, and the rest wait for agent 1, whose seeded chaos drops its
/// first lease request.
const PROGRAMS: &str = "256";
const INPUTS: &str = "2";
const SEED: &str = "20240807";

fn varity(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_varity-gpu")).args(args).output().expect("binary runs")
}

fn spawn_varity(args: &[String]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_varity-gpu"))
        .args(args)
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("varity_fleet_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reserve a port by binding ephemeral and letting it go again, so the
/// coordinator can be killed and restarted on the *same* address.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port()
}

/// Parse `key=value` integers out of the `[fleet-coord] done=...` line.
fn fleet_counter(stderr: &str, key: &str) -> u64 {
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.contains("[fleet-coord]") && l.contains("done=") && l.contains("epoch="))
        .unwrap_or_else(|| panic!("no fleet summary line in stderr:\n{stderr}"));
    let needle = format!("{key}=");
    let start = line.find(&needle).unwrap_or_else(|| panic!("no {key} in: {line}")) + needle.len();
    line[start..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad {key} in: {line}"))
}

/// Minimal HTTP GET against the coordinator's status endpoint.
fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").ok()?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf).ok()?;
    Some(buf)
}

fn reference_meta(dir: &Path) -> CampaignMeta {
    let path = dir.join("reference.json");
    let out = varity(&[
        "campaign",
        "--programs",
        PROGRAMS,
        "--inputs",
        INPUTS,
        "--seed",
        SEED,
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "reference campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    CampaignMeta::load(&path).expect("reference metadata loads")
}

fn any_journal_under(agent_dir: &Path) -> bool {
    (0..8).any(|k| agent_dir.join(format!("shard-{k:03}")).join("journal.bin").exists())
}

/// Wait for a child with a deadline; on timeout, kill it and fail with
/// whatever stderr it produced so far.
fn wait_with_deadline(mut child: Child, what: &str, secs: u64) -> Output {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(_) => return child.wait_with_output().expect("wait_with_output"),
            None if Instant::now() > deadline => {
                child.kill().ok();
                let out = child.wait_with_output().expect("wait_with_output");
                panic!(
                    "{what} failed to exit within {secs}s:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The fleet acceptance bar: coordinator + 2 chaos-armed agents, a
/// seeded agent SIGKILL, a mid-run coordinator SIGKILL + journal-replay
/// restart — and the merged report is byte-identical to the
/// single-process run, with zero shards lost, zero double-merged, and
/// the fencing rejections visible in both the summary and `/metrics`.
#[test]
fn chaos_fleet_with_kills_and_restart_matches_single_process_run() {
    let dir = temp_dir("chaos");
    let reference = reference_meta(&dir);

    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let coord_dir = dir.join("coord");
    let merged_path = dir.join("merged.json");
    let coord_args: Vec<String> = [
        "farm",
        "--coordinate",
        &addr,
        "--dir",
        coord_dir.to_str().unwrap(),
        "--programs",
        PROGRAMS,
        "--inputs",
        INPUTS,
        "--seed",
        SEED,
        "--shards",
        "8",
        "--heartbeat-ms",
        "3000",
        "--linger-ms",
        "5000",
        "--out",
        merged_path.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let coord = spawn_varity(&coord_args);
    // The coordinator publishes its bound address once it is serving.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !coord_dir.join("coord.addr").exists() {
        assert!(Instant::now() < deadline, "coordinator never published coord.addr");
        std::thread::sleep(Duration::from_millis(25));
    }

    let agent_args = |i: usize| -> Vec<String> {
        [
            "farm",
            "--join",
            &addr,
            "--dir",
            dir.join(format!("agent-{i}")).to_str().unwrap(),
            "--workers",
            "2",
            "--agent-name",
            &format!("agent-{i}"),
            "--seed",
            &format!("{i}"),
            "--net-chaos",
            "10",
            "--net-chaos-seed",
            &format!("{}", 7 + i),
            "--io-timeout-ms",
            "1000",
            "--max-offline-ms",
            "60000",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let mut agent0 = spawn_varity(&agent_args(0));
    let agent1 = spawn_varity(&agent_args(1));

    // Wait for evidence of real work (a worker journaling in agent 0's
    // checkpoints), then SIGKILL that agent mid-shard.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !any_journal_under(&dir.join("agent-0")) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    agent0.kill().expect("agent SIGKILL");
    agent0.wait().expect("agent reaped");

    // Now SIGKILL the coordinator mid-run and restart it on the same
    // address: the journal replays, the epoch bumps, and the agents'
    // in-flight leases are fenced — that's the exactly-once machinery
    // the equivalence assert below depends on. Agent 1 must hold such a
    // lease first, and its net chaos may delay its first grant for longer
    // than a live agent 0 takes to run every shard. So agent 0 rejoins
    // only once agent 1's own workers journal: until then the free
    // shards wait for agent 1.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !any_journal_under(&dir.join("agent-1")) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
    }
    // Rejoining with the same dir adopts the surviving checkpoints.
    let agent0b = spawn_varity(&agent_args(0));
    let mut coord = coord;
    coord.kill().expect("coordinator SIGKILL");
    coord.wait().expect("coordinator reaped");
    let status_addr = format!("127.0.0.1:{}", free_port());
    let mut coord_args2 = coord_args.clone();
    coord_args2.push("--status-addr".to_string());
    coord_args2.push(status_addr.clone());
    let mut coord2 = spawn_varity(&coord_args2);

    // While the restarted coordinator runs, watch /metrics for the
    // fencing counter — the acceptance criterion wants the rejections
    // observable there, not just in the exit summary.
    let mut metrics_fencings = 0u64;
    let deadline = Instant::now() + Duration::from_secs(300);
    let coord2_out = loop {
        if let Some(body) = http_get(&status_addr, "/metrics") {
            // the sample line, not the `# TYPE fleet_fence_rejections
            // counter` line that precedes it
            let sample = body.lines().find_map(|l| l.strip_prefix("fleet_fence_rejections "));
            if let Some(v) = sample.and_then(|v| v.trim().parse().ok()) {
                metrics_fencings = metrics_fencings.max(v);
            }
        }
        match coord2.try_wait().expect("try_wait") {
            Some(_) => break coord2.wait_with_output().expect("coordinator output"),
            None if Instant::now() > deadline => {
                coord2.kill().ok();
                let out = coord2.wait_with_output().expect("coordinator output");
                panic!(
                    "restarted coordinator never finished:\n{}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    let stderr = String::from_utf8_lossy(&coord2_out.stderr).into_owned();
    assert_eq!(coord2_out.status.code(), Some(0), "restarted coordinator failed:\n{stderr}");

    // Both agents (the rejoined one and the survivor) hear AllDone.
    let a0 = wait_with_deadline(agent0b, "rejoined agent 0", 120);
    let a1 = wait_with_deadline(agent1, "agent 1", 120);
    assert_eq!(
        a0.status.code(),
        Some(0),
        "rejoined agent 0 failed:\n{}",
        String::from_utf8_lossy(&a0.stderr)
    );
    assert_eq!(
        a1.status.code(),
        Some(0),
        "agent 1 failed:\n{}",
        String::from_utf8_lossy(&a1.stderr)
    );

    // Exactly-once bookkeeping: all 8 shards folded, none poisoned, the
    // restart really bumped the epoch, and the fences really fired.
    assert_eq!(fleet_counter(&stderr, "done"), 8, "all shards folded:\n{stderr}");
    assert_eq!(fleet_counter(&stderr, "poisoned"), 0, "no shard poisoned:\n{stderr}");
    assert!(fleet_counter(&stderr, "epoch") >= 2, "restart must bump the epoch:\n{stderr}");
    let fenced = fleet_counter(&stderr, "fenced");
    assert!(fenced >= 1, "no fencing rejection despite a coordinator restart:\n{stderr}");
    assert!(
        metrics_fencings >= 1,
        "fence rejections never appeared in /metrics (summary says fenced={fenced}):\n{stderr}"
    );

    // The strongest claim: the chaos-tortured fleet's merged report is
    // byte-identical to the uninterrupted single-process run.
    let merged = CampaignMeta::load(&merged_path).expect("merged metadata loads");
    assert!(merged.is_complete(), "merged campaign ran both sides");
    let ref_report = serde_json::to_vec(&analyze(&reference)).unwrap();
    let fleet_report = serde_json::to_vec(&analyze(&merged)).unwrap();
    assert_eq!(ref_report, fleet_report, "fleet report diverges from single-process run");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_usage_errors() {
    // Roles are exclusive.
    let out = varity(&["farm", "--coordinate", "127.0.0.1:0", "--join", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    // Both roles need --dir.
    let out = varity(&["farm", "--coordinate", "127.0.0.1:0"]);
    assert_eq!(out.status.code(), Some(2));
    let out = varity(&["farm", "--join", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    // More shards than programs is rejected before binding anything.
    let out = varity(&[
        "farm",
        "--coordinate",
        "127.0.0.1:0",
        "--dir",
        "/tmp/x",
        "--programs",
        "2",
        "--shards",
        "8",
    ]);
    assert_eq!(out.status.code(), Some(2));
    // Help documents the fleet roles.
    let help = varity(&["help"]);
    let text = String::from_utf8_lossy(&help.stdout).into_owned();
    assert!(text.contains("--coordinate"), "help must document --coordinate");
    assert!(text.contains("--join"), "help must document --join");
}
