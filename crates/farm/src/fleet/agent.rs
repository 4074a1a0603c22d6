//! The supervision loop both deployments run: lease shards, run
//! workers, ship results back.
//!
//! Every worker spawn is a `campaign --resume` of an on-disk shard
//! checkpoint, so first assignment, crash recovery and hang recovery are
//! one operation. Per lease the loop reaps and classifies the worker,
//! treats journal growth as the heartbeat of a hang watchdog, counts
//! no-progress crashes toward poisoning, spaces respawns with jittered
//! backoff, and drains on `^C`, a `stop` file or a coordinator `Drain`.
//! Leases come from a [`CoordState`] through a `Transport`, the one
//! difference between `farm --dir` (the state in process) and `farm
//! --join` (a coordinator over TCP).
//!
//! The loop is event-driven. Between passes it blocks on a wake channel
//! of its own, which each worker's stdout watcher signals when the
//! worker exits (see [`crate::worker`]), so a finished shard is handed
//! off at once. `poll_ms` only bounds how late the timed checks run:
//! heartbeats, the journal-growth watchdog, the stop file, lease and
//! exchange retries, respawn backoff and the drain deadline. A lease
//! whose worker exited with a `result.json` stops counting against
//! `n_workers`, and each pass leases and spawns before it ships, so the
//! next shard's worker runs while the finished result ships. Shipping
//! reads `result.json`'s bytes and checks their syntax only; whoever
//! folds the result parses it, once. A `result.json` that fails the
//! check, or that the fold cannot parse ([`Reply::Regenerate`]), is
//! scrapped, and a respawned worker writes it again from the journal.
//!
//! The identity discipline is absolute: any [`Reply::Fenced`] means
//! this loop's claim on the shard is dead — kill the worker, drop the
//! lease, keep the checkpoint directory (a future re-grant resumes it).
//! Connection failures never destroy work either: a failed exchange is
//! retried on the next timed pass (a failed lease after 100 ms), and
//! only after `max_offline_ms` without a successful exchange does the
//! agent give up (checkpoints intact, exit nonzero, rejoin later).
//!
//! An agent that hears [`Reply::AllDone`] sends one [`Request::Leave`]
//! on its way out, so the coordinator can end the run as soon as the
//! last agent has gone.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use difftest::checkpoint::{atomic_write, Checkpoint, ShardSpec, JOURNAL_MAGIC};
use difftest::fault::shutdown_requested;
use difftest::metadata::CampaignMeta;
use difftest::CampaignConfig;
use serde::RawJson;

use crate::backoff::{Backoff, BackoffPolicy};
use crate::chaos::{ChaosConfig, ChaosKiller, MIN_JOURNAL_GROWTH};
use crate::fleet::client::FleetClient;
use crate::fleet::coord::{metrics_exposition, CoordState};
use crate::fleet::netchaos::NetChaosConfig;
use crate::proto::{Reply, Request};
use crate::status::StatusServer;
use crate::supervisor::{farm_stop_path, io_err, journal_len, poison_path, shard_dir, FarmError};
use crate::worker::{WorkerHandle, WorkerSpec};

/// Poll interval while chaos kills remain. A victim must be seen alive
/// with a grown journal, and a shard that finishes within one normal
/// poll would otherwise escape every kill.
const CHAOS_POLL_MS: u64 = 5;

/// Re-check interval for a worker whose stdout closed but which cannot
/// be reaped yet: exit closes the pipe just before the worker becomes
/// reapable.
const REAP_RECHECK_MS: u64 = 1;

/// Everything an agent needs to join a fleet.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Coordinator address (`host:port`).
    pub coordinator: String,
    /// Agent root: shard checkpoints are materialized under it, and its
    /// `stop` file drains this agent alone.
    pub dir: PathBuf,
    /// Self-chosen agent name (journal attribution on the coordinator).
    pub name: String,
    /// Worker subprocesses to keep in flight, and leases to hold for
    /// them. A lease whose worker exited with a `result.json` no longer
    /// counts, so its replacement is leased and spawned before the
    /// result ships.
    pub n_workers: usize,
    /// How to launch workers (`--reference` is appended per-lease when
    /// the grant demands it).
    pub worker: WorkerSpec,
    /// Longest wait between passes of the loop. Worker exits wake it
    /// at once; this bounds how late the timed checks run (heartbeats,
    /// the hang watchdog, the `stop` file, lease and exchange retries,
    /// respawn backoff, the drain deadline).
    pub poll_ms: u64,
    /// Consecutive no-progress crashes before the agent reports the
    /// shard as poison. Must be at least 1.
    pub crash_threshold: u32,
    /// Respawn backoff shape.
    pub backoff: BackoffPolicy,
    /// Seed for respawn backoff jitter.
    pub seed: u64,
    /// How long a drain waits for workers to flush before hard-killing.
    pub grace_ms: u64,
    /// Give up after this long without one successful exchange.
    pub max_offline_ms: u64,
    /// Per-exchange connect/read/write timeout.
    pub io_timeout_ms: u64,
    /// Seeded network adversary (budget 0 = off).
    pub net_chaos: NetChaosConfig,
}

impl AgentConfig {
    /// Agent joining `coordinator` with production defaults: 50 ms
    /// poll, 3-crash breaker, default backoff, 10 s drain grace, 60 s
    /// offline give-up, 2 s I/O timeouts, chaos off.
    pub fn new(
        coordinator: impl Into<String>,
        dir: impl Into<PathBuf>,
        n_workers: usize,
        worker: WorkerSpec,
    ) -> AgentConfig {
        AgentConfig {
            coordinator: coordinator.into(),
            dir: dir.into(),
            name: format!("agent-{}", std::process::id()),
            n_workers,
            worker,
            poll_ms: 50,
            crash_threshold: 3,
            backoff: BackoffPolicy::default(),
            seed: 0,
            grace_ms: 10_000,
            max_offline_ms: 60_000,
            io_timeout_ms: 2_000,
            net_chaos: NetChaosConfig::default(),
        }
    }
}

/// What a supervision run did.
#[derive(Debug, Default)]
pub struct AgentReport {
    /// Shard completions the coordinator accepted from this agent.
    pub shards_completed: u64,
    /// Shards this agent reported as poison (coordinator acked).
    pub shards_poisoned: u64,
    /// Leases lost to fencing (expired, reassigned, or orphaned by a
    /// coordinator restart).
    pub fenced: u64,
    /// Worker processes spawned.
    pub spawns: u64,
    /// Spawns that resumed a checkpoint an earlier worker had started.
    pub respawns: u64,
    /// Worker deaths observed (crashes, hangs, kills).
    pub worker_deaths: u64,
    /// Workers killed for a journal silent past the heartbeat window.
    pub lease_expiries: u64,
    /// Workers killed by the built-in chaos adversary.
    pub chaos_kills: u64,
    /// `true` if the run ended on a drain (local stop file, SIGINT, or
    /// coordinator `Drain`).
    pub drained: bool,
    /// `true` if the coordinator reported every shard settled.
    pub all_done: bool,
    /// `true` if the agent gave up after `max_offline_ms` without a
    /// successful exchange (checkpoints kept; rejoin resumes them).
    pub gave_up: bool,
    /// Network-chaos faults injected by this agent's client.
    pub faults_injected: u32,
}

/// Where the loop's requests go: the one difference between deployments.
pub(crate) enum Transport<'a> {
    /// `farm --dir`: the state machine in this process, without a journal;
    /// each shard's `result.json` and `poison.json` are the restart record.
    Local(&'a mut CoordState),
    /// `farm --join`: a coordinator over TCP.
    Remote(Box<FleetClient>),
}

impl Transport<'_> {
    fn call(&mut self, req: Request, now_ms: u64) -> std::io::Result<Reply> {
        match self {
            Transport::Local(state) => state.serve(req, now_ms, None),
            Transport::Remote(client) => client.call(&req),
        }
    }
}

/// What a shard directory already holds when its lease is granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Found {
    /// Nothing usable: a fresh checkpoint is created.
    Fresh,
    /// A checkpoint an earlier worker started: the next spawn resumes it.
    Checkpoint,
    /// A finished `result.json` for this campaign: ship it, don't spawn.
    Result,
    /// A poison record an earlier run wrote: report it, don't spawn.
    Poison,
}

/// What a lease still has to tell the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handoff {
    /// Nothing: the shard runs, or waits out a respawn backoff.
    None,
    /// Ship the finished `result.json`.
    Complete,
    /// Hand the lease back unfinished (drain).
    Release,
    /// The crash breaker tripped, or an earlier run's record was found.
    Poison,
}

/// One lease this loop holds, with its local run state.
#[derive(Debug)]
struct Held {
    shard: usize,
    n_shards: usize,
    config: Box<CampaignConfig>,
    epoch: u64,
    fence: u64,
    dir: PathBuf,
    heartbeat_ms: u64,
    spec: WorkerSpec,
    worker: Option<WorkerHandle>,
    /// The next spawn resumes a checkpoint an earlier worker started.
    resumed: bool,
    crashes: u32,
    backoff: Backoff,
    respawn_at_ms: u64,
    last_hb_ms: u64,
    last_progress_ms: u64,
    handoff: Handoff,
}

impl Held {
    /// Drop a `result.json` that cannot be shipped; a worker respawned
    /// now writes it again from the shard's journal.
    fn scrap_result(&mut self, now: u64) {
        std::fs::remove_file(self.dir.join("result.json")).ok();
        self.handoff = Handoff::None;
        self.respawn_at_ms = now;
    }

    /// The poison record: which slice of the campaign the shard owned
    /// and how to replay it, so the responsible seed range is never lost.
    fn poison_record(&self, agent: &str) -> serde_json::Value {
        let first_indices: Vec<usize> =
            (self.shard..self.config.n_programs).step_by(self.n_shards).take(8).collect();
        serde_json::json!({
            "shard": self.shard,
            "shard_count": self.n_shards,
            "agent": agent,
            "consecutive_crashes": self.crashes,
            "campaign_seed": self.config.seed,
            "n_programs": self.config.n_programs,
            "test_indices": format!("i ≡ {} (mod {})", self.shard, self.n_shards),
            "first_test_indices": first_indices,
            "replay": format!(
                "varity-gpu campaign --resume {} (after deleting {})",
                self.dir.display(),
                poison_path(&self.dir).display()
            ),
        })
    }
}

/// Check shard `shard`'s directory under `root` against the campaign
/// without changing it. A directory another campaign or geometry left is
/// an error naming it; a `result.json` that does not load is ignored.
pub(crate) fn inspect_shard(
    root: &Path,
    shard: usize,
    n_shards: usize,
    config: &CampaignConfig,
) -> Result<Found, FarmError> {
    let dir = shard_dir(root, shard);
    let stale = |what: &str| {
        FarmError::Config(format!(
            "{} {what} (its config does not match this run's --seed/--programs); \
             use a fresh --dir or delete the stale shard directory",
            dir.display()
        ))
    };
    if let Ok(json) = std::fs::read_to_string(Checkpoint::shard_path(&dir)) {
        let spec: ShardSpec = serde_json::from_str(&json).map_err(io_err)?;
        if spec.index != shard || spec.count != n_shards {
            return Err(FarmError::Config(format!(
                "{} was checkpointed as shard {spec} but this farm runs {n_shards} shards; \
                 use a fresh --dir or rerun with --shards {}",
                dir.display(),
                spec.count
            )));
        }
    }
    if let Ok(json) = std::fs::read_to_string(Checkpoint::config_path(&dir)) {
        let stored: CampaignConfig = serde_json::from_str(&json).map_err(io_err)?;
        if stored != *config {
            return Err(stale("was checkpointed for a different campaign"));
        }
    }
    if poison_path(&dir).exists() {
        return Ok(Found::Poison);
    }
    if let Ok(meta) = CampaignMeta::load(&dir.join("result.json")) {
        if meta.config != *config {
            return Err(stale("holds a result for a different campaign"));
        }
        return Ok(Found::Result);
    }
    // The journal is the last file a checkpoint gets. Without its magic
    // the checkpoint was cut short (its creator was killed mid-way), and
    // no worker could resume it: create it again.
    let created = journal_len(&dir) >= JOURNAL_MAGIC.len() as u64;
    Ok(if created { Found::Checkpoint } else { Found::Fresh })
}

/// Materialize (or adopt) the checkpoint directory for a granted shard.
fn materialize_shard(
    root: &Path,
    shard: usize,
    n_shards: usize,
    config: &CampaignConfig,
) -> Result<(PathBuf, Found), FarmError> {
    let found = inspect_shard(root, shard, n_shards, config)?;
    let dir = shard_dir(root, shard);
    match found {
        Found::Fresh => {
            let spec = ShardSpec { index: shard, count: n_shards };
            Checkpoint::create_sharded(&dir, config, Some(spec))?;
        }
        // A drained run left its stop file behind.
        Found::Checkpoint => {
            std::fs::remove_file(Checkpoint::stop_path(&dir)).ok();
        }
        Found::Result | Found::Poison => {}
    }
    Ok((dir, found))
}

/// Join a fleet and work until the coordinator reports completion, a
/// drain is requested, or the coordinator stays unreachable past
/// `max_offline_ms`. See the module docs for the loop's contract.
pub fn run_agent(cfg: &AgentConfig) -> Result<AgentReport, FarmError> {
    let client = FleetClient::new(&cfg.coordinator, cfg.io_timeout_ms, cfg.net_chaos);
    supervise(cfg, Transport::Remote(Box::new(client)), None, ChaosConfig::default())
}

/// Run the supervision loop against `transport` until the run is done,
/// drains, or (remote only) gives up. See the module docs.
pub(crate) fn supervise(
    cfg: &AgentConfig,
    transport: Transport<'_>,
    status_addr: Option<&str>,
    chaos: ChaosConfig,
) -> Result<AgentReport, FarmError> {
    if cfg.n_workers == 0 {
        return Err(FarmError::Config("need at least one worker".into()));
    }
    if cfg.crash_threshold == 0 {
        return Err(FarmError::Config("the crash threshold must be at least 1".into()));
    }
    std::fs::create_dir_all(&cfg.dir).map_err(io_err)?;
    // A stale stop file would drain a fresh run instantly.
    std::fs::remove_file(farm_stop_path(&cfg.dir)).ok();

    let tag = match &transport {
        Transport::Local(_) => "farm".to_string(),
        Transport::Remote(_) => format!("fleet[{}]", cfg.name),
    };
    let status = status_addr.map(StatusServer::bind).transpose().map_err(io_err)?;
    if let Some(s) = &status {
        eprintln!("{tag}: status endpoint at http://{}/", s.local_addr());
    }
    let (wake, woken) = mpsc::channel();
    let mut sup = Supervisor {
        cfg,
        transport,
        tag,
        wake,
        held: Vec::new(),
        report: AgentReport::default(),
        killer: ChaosKiller::new(chaos),
        draining: false,
        drain_asked: false,
        drain_deadline_ms: u64::MAX,
        next_lease_at_ms: 0,
        all_done: false,
    };

    let started = Instant::now();
    let mut last_publish_ms = 0u64;
    loop {
        let now = started.elapsed().as_millis() as u64;
        if sup.drain_asked || shutdown_requested() || farm_stop_path(&cfg.dir).exists() {
            sup.enter_drain(now);
        }
        sup.check_workers(now)?;
        sup.chaos();
        // Replacements start before finished shards ship.
        sup.lease_more(now)?;
        sup.spawn_due(now);
        sup.exchange_all(now)?;
        if let Some(s) = &status {
            if now >= last_publish_ms + 250 {
                last_publish_ms = now;
                sup.publish(s, now);
            }
        }
        if sup.finished(now) {
            break;
        }
        // Shipping freed a slot, or told us the run may be over.
        if !sup.lease_due(now) {
            sup.wait(&woken);
        }
    }

    if let Some(s) = status {
        sup.publish(&s, started.elapsed().as_millis() as u64);
        s.shutdown();
    }
    if let Transport::Remote(client) = &sup.transport {
        sup.report.faults_injected = client.faults_injected();
    }
    Ok(sup.report)
}

/// The loop's state between passes.
struct Supervisor<'a> {
    cfg: &'a AgentConfig,
    transport: Transport<'a>,
    /// Log prefix: `farm`, or `fleet[<agent name>]`.
    tag: String,
    /// This loop's wake channel; each worker's stdout watcher holds a
    /// clone and signals it when the worker exits.
    wake: Sender<()>,
    held: Vec<Held>,
    report: AgentReport,
    killer: ChaosKiller,
    draining: bool,
    /// The coordinator answered a keepalive with `Drain`.
    drain_asked: bool,
    drain_deadline_ms: u64,
    next_lease_at_ms: u64,
    all_done: bool,
}

impl Supervisor<'_> {
    /// Block until a worker exits or the next timed pass is due. Every
    /// exit signalled meanwhile is folded into the one pass that follows.
    fn wait(&self, woken: &Receiver<()>) {
        let mut poll_ms = self.cfg.poll_ms;
        if !self.killer.exhausted() {
            poll_ms = poll_ms.min(CHAOS_POLL_MS);
        }
        let poll = Duration::from_millis(poll_ms);
        let reaping = self.held.iter().any(|h| {
            let closed = h.worker.as_ref().and_then(|w| w.stdout_closed_at());
            closed.is_some_and(|t| t.elapsed() < poll)
        });
        let wait = if reaping { Duration::from_millis(REAP_RECHECK_MS).min(poll) } else { poll };
        if woken.recv_timeout(wait).is_ok() {
            while woken.try_recv().is_ok() {}
        }
    }

    /// Leases that hold a worker slot: all but those whose worker
    /// finished the shard and whose result waits to ship.
    fn busy(&self) -> usize {
        self.held.iter().filter(|h| h.handoff != Handoff::Complete).count()
    }

    /// Whether `lease_more` would ask for a lease now.
    fn lease_due(&self, now: u64) -> bool {
        !self.draining
            && !self.all_done
            && self.busy() < self.cfg.n_workers
            && now >= self.next_lease_at_ms
    }

    /// Stop leasing and ask every worker to flush at a unit boundary.
    fn enter_drain(&mut self, now: u64) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.drain_deadline_ms = now + self.cfg.grace_ms;
        let workers = self.held.iter().filter(|h| h.worker.is_some()).count();
        obs::add("farm.drains", 1);
        if obs::trace::active() {
            obs::trace::instant("farm.drain", vec![("workers", workers.into())]);
        }
        eprintln!(
            "{}: drain requested; waiting up to {} ms for {workers} worker(s) to flush",
            self.tag, self.cfg.grace_ms
        );
        for h in &mut self.held {
            let _ = std::fs::write(Checkpoint::stop_path(&h.dir), b"drain");
            match h.worker.as_mut() {
                Some(w) => w.interrupt(),
                // Waiting out a respawn backoff: nothing to flush.
                None if h.handoff == Handoff::None => h.handoff = Handoff::Release,
                None => {}
            }
        }
    }

    /// Reap exited workers and kill hung ones. Journal growth since the
    /// previous pass is the heartbeat (a moving watermark), so a worker
    /// that advances and then wedges still expires.
    fn check_workers(&mut self, now: u64) -> Result<(), FarmError> {
        for i in 0..self.held.len() {
            let h = &mut self.held[i];
            let Some(w) = h.worker.as_mut() else { continue };
            let exited = w.try_wait().map_err(io_err)?;
            let len = journal_len(&h.dir);
            let progressed = len > w.journal_len_at_spawn;
            if let Some(status) = exited {
                h.worker = None;
                if status.success() && h.dir.join("result.json").exists() {
                    h.handoff = Handoff::Complete;
                    h.crashes = 0;
                    h.backoff.reset();
                    continue;
                }
                if status.code() == Some(130) || (self.draining && status.success()) {
                    // Flushed at a unit boundary (drained, or interrupted
                    // from outside): no penalty. Any other exit, even in a
                    // drain, is a death, so drain-time failures stay visible.
                    h.handoff = Handoff::Release;
                    continue;
                }
            } else if len > w.journal_len_last_seen {
                w.journal_len_last_seen = len;
                h.last_progress_ms = now;
                continue;
            } else if now <= h.last_progress_ms + h.heartbeat_ms {
                continue;
            } else {
                eprintln!(
                    "{}: shard {} lease expired (no journal growth for {} ms); killing worker {}",
                    self.tag,
                    h.shard,
                    h.heartbeat_ms,
                    w.pid()
                );
                w.kill();
                h.worker = None;
                self.report.lease_expiries += 1;
                obs::add("farm.lease_expiries", 1);
                if obs::trace::active() {
                    obs::trace::instant("farm.lease_expiry", vec![("shard", h.shard.into())]);
                }
            }
            self.died(i, progressed, now);
        }
        Ok(())
    }

    /// Count a worker death and decide what lease `i` does next. Only
    /// no-progress crashes count toward poisoning, so a long shard that
    /// dies now and then but keeps advancing is never poisoned.
    fn died(&mut self, i: usize, progressed: bool, now: u64) {
        let h = &mut self.held[i];
        self.report.worker_deaths += 1;
        obs::add("farm.worker_deaths", 1);
        if obs::trace::active() {
            obs::trace::instant("farm.worker_death", vec![("shard", h.shard.into())]);
        }
        if progressed {
            h.crashes = 0;
            h.backoff.reset();
        }
        h.crashes = h.crashes.saturating_add(1);
        if self.draining {
            h.handoff = Handoff::Release;
        } else if h.crashes >= self.cfg.crash_threshold {
            h.handoff = Handoff::Poison;
        } else {
            h.respawn_at_ms = now + h.backoff.next_delay_ms();
        }
    }

    /// Chaos: SIGKILL a random worker that has made real progress. The
    /// next reap classifies the death, so chaos takes the exact recovery
    /// path a real crash would.
    fn chaos(&mut self) {
        if self.draining || self.killer.exhausted() {
            return;
        }
        let candidates: Vec<usize> = (0..self.held.len())
            .filter(|&i| {
                let h = &self.held[i];
                h.worker.as_ref().is_some_and(|w| {
                    journal_len(&h.dir) >= w.journal_len_at_spawn + MIN_JOURNAL_GROWTH
                })
            })
            .collect();
        let Some(i) = self.killer.pick(&candidates) else { return };
        let victim = self.held[i].shard;
        let Some(w) = self.held[i].worker.as_mut() else { return };
        let pid = w.pid();
        w.kill();
        // A worker that finished its shard since this pass's reap beat
        // the kill: the next reap ships its result, and the pick does
        // not count against the budget.
        if matches!(w.try_wait(), Ok(Some(status)) if status.success()) {
            self.killer.refund();
            return;
        }
        eprintln!(
            "{}: chaos kill {}: SIGKILL worker {pid} (shard {victim})",
            self.tag,
            self.killer.killed()
        );
        self.report.chaos_kills += 1;
        obs::add("farm.chaos_kills", 1);
        if obs::trace::active() {
            obs::trace::instant("farm.chaos_kill", vec![("shard", victim.into())]);
        }
    }

    /// One exchange per lease that has something to say. A lease the
    /// coordinator is done with makes the next lease request due at once.
    fn exchange_all(&mut self, now: u64) -> Result<(), FarmError> {
        for mut h in std::mem::take(&mut self.held) {
            if self.exchange(&mut h, now)? {
                self.held.push(h);
            } else {
                self.next_lease_at_ms = 0;
            }
        }
        Ok(())
    }

    /// Ship a result, report poison, hand a drained lease back, or keep
    /// the lease alive, as `h` needs. Returns whether `h` is still held.
    fn exchange(&mut self, h: &mut Held, now: u64) -> Result<bool, FarmError> {
        let (agent, shard, epoch, fence) = (self.cfg.name.clone(), h.shard, h.epoch, h.fence);
        let req = match h.handoff {
            Handoff::Complete => {
                let bytes = std::fs::read(h.dir.join("result.json")).map_err(io_err);
                let meta = match &self.transport {
                    // The in-process fold parses the bytes at once, and a
                    // torn or foreign result gets `Reply::Regenerate`:
                    // a syntax scan first would only read them twice.
                    Transport::Local(_) => bytes.map(RawJson::from_vec_unchecked),
                    // The bytes are framed raw into the message, so they
                    // must hold one JSON value before they leave.
                    Transport::Remote(_) => {
                        bytes.and_then(|b| RawJson::from_vec(b).map_err(io_err))
                    }
                };
                match meta {
                    Ok(meta) => Request::Complete { agent, shard, epoch, fence, meta },
                    Err(_) => {
                        h.scrap_result(now);
                        return Ok(true);
                    }
                }
            }
            Handoff::Poison => Request::Poison { agent, shard, epoch, fence, crashes: h.crashes },
            Handoff::Release => {
                Request::Release { agent, shard, epoch, fence, reason: "drain".into() }
            }
            Handoff::None if now >= h.last_hb_ms + (h.heartbeat_ms / 3).max(1) => {
                Request::Heartbeat { agent, shard, epoch, fence }
            }
            Handoff::None => return Ok(true),
        };
        let kind = req.kind();
        match self.transport.call(req, now) {
            Ok(Reply::Ok) => {}
            Ok(Reply::Fenced { reason }) => {
                eprintln!(
                    "{}: {kind} for shard {shard} fenced ({reason}); keeping the checkpoint",
                    self.tag
                );
                if let Some(mut w) = h.worker.take() {
                    w.kill();
                    self.report.worker_deaths += 1;
                    obs::add("farm.worker_deaths", 1);
                }
                self.report.fenced += 1;
                obs::add("farm.fenced", 1);
                return Ok(false);
            }
            Ok(Reply::Drain) => {
                self.drain_asked = true;
                return Ok(true);
            }
            Ok(Reply::Regenerate { reason }) => {
                eprintln!("{}: shard {shard}'s result was refused ({reason}); rerunning", self.tag);
                h.scrap_result(now);
                return Ok(true);
            }
            // Retrying cannot change the answer.
            Ok(Reply::Error { reason }) => {
                return Err(FarmError::Config(format!(
                    "coordinator rejected the {kind} of shard {shard}: {reason}"
                )))
            }
            Ok(_) | Err(_) => return Ok(true), // retry next pass
        }
        match h.handoff {
            Handoff::None => {
                h.last_hb_ms = now;
                return Ok(true);
            }
            Handoff::Complete => {
                self.report.shards_completed += 1;
                obs::add("farm.shards_done", 1);
                if obs::trace::active() {
                    obs::trace::instant("farm.shard_done", vec![("shard", shard.into())]);
                }
            }
            Handoff::Poison => {
                // A record an earlier run wrote stays as it is.
                let path = poison_path(&h.dir);
                if !path.exists() {
                    let bytes = serde_json::to_vec_pretty(&h.poison_record(&self.cfg.name))
                        .map_err(io_err)?;
                    atomic_write(&path, &bytes).map_err(io_err)?;
                    eprintln!(
                        "{}: shard {shard} poisoned after {} consecutive no-progress crashes ({})",
                        self.tag,
                        h.crashes,
                        path.display()
                    );
                }
                self.report.shards_poisoned += 1;
                obs::add("farm.shards_poisoned", 1);
            }
            Handoff::Release => {}
        }
        Ok(false)
    }

    /// Lease shards until every worker slot is taken, the coordinator
    /// has nothing to give, or a drain starts.
    fn lease_more(&mut self, now: u64) -> Result<(), FarmError> {
        while self.lease_due(now) {
            match self.transport.call(Request::Lease { agent: self.cfg.name.clone() }, now) {
                Ok(Reply::Grant {
                    shard,
                    n_shards,
                    epoch,
                    fence,
                    heartbeat_ms,
                    reference,
                    config,
                }) => {
                    let (dir, found) = materialize_shard(&self.cfg.dir, shard, n_shards, &config)?;
                    let mut spec = self.cfg.worker.clone();
                    if reference && !spec.prefix_args.iter().any(|a| a == "--reference") {
                        spec.prefix_args.push("--reference".into());
                    }
                    let mut h = Held {
                        shard,
                        n_shards,
                        config,
                        epoch,
                        fence,
                        dir,
                        heartbeat_ms,
                        spec,
                        worker: None,
                        resumed: found == Found::Checkpoint,
                        crashes: 0,
                        backoff: Backoff::new(self.cfg.backoff, self.cfg.seed ^ fence),
                        respawn_at_ms: now,
                        last_hb_ms: now,
                        last_progress_ms: now,
                        handoff: match found {
                            Found::Result => Handoff::Complete,
                            Found::Poison => Handoff::Poison,
                            Found::Fresh | Found::Checkpoint => Handoff::None,
                        },
                    };
                    // A shard an earlier run settled needs no worker: tell the
                    // coordinator now. Otherwise start the worker before the
                    // next exchange, which may wait on the coordinator.
                    if h.handoff == Handoff::None || self.exchange(&mut h, now)? {
                        self.held.push(h);
                        self.spawn_due(now);
                    }
                }
                Ok(Reply::Wait { retry_ms }) => self.next_lease_at_ms = now + retry_ms,
                Ok(Reply::AllDone) => self.all_done = true,
                Ok(Reply::Drain) => self.enter_drain(now),
                Ok(_) => self.next_lease_at_ms = now + 250,
                Err(_) => self.next_lease_at_ms = now + 100,
            }
        }
        Ok(())
    }

    /// Spawn workers for leases that need one, never more than
    /// `n_workers` at a time.
    fn spawn_due(&mut self, now: u64) {
        if self.draining {
            return;
        }
        let mut alive = self.held.iter().filter(|h| h.worker.is_some()).count();
        for i in 0..self.held.len() {
            let h = &mut self.held[i];
            if h.worker.is_some() || h.handoff != Handoff::None || now < h.respawn_at_ms {
                continue;
            }
            if alive >= self.cfg.n_workers {
                break;
            }
            let wake = self.wake.clone();
            match WorkerHandle::spawn(&h.spec, h.fence, h.shard, &h.dir, journal_len(&h.dir), wake)
            {
                Ok(w) => {
                    self.report.spawns += 1;
                    obs::add("farm.spawns", 1);
                    if obs::trace::active() {
                        obs::trace::instant(
                            "farm.spawn",
                            vec![("shard", h.shard.into()), ("worker", h.fence.into())],
                        );
                    }
                    if h.resumed {
                        self.report.respawns += 1;
                        obs::add("farm.respawns", 1);
                    }
                    h.resumed = true;
                    h.last_progress_ms = now;
                    h.worker = Some(w);
                    alive += 1;
                }
                Err(e) => {
                    // Spawn failure (fork limits, missing binary): a
                    // no-progress crash, so a hopeless run poisons
                    // instead of spinning.
                    eprintln!("{}: failed to spawn worker for shard {}: {e}", self.tag, h.shard);
                    self.died(i, false, now);
                }
            }
        }
    }

    /// Whether the run is over: drained, done (goodbye said), or, for a
    /// remote coordinator, unreachable for too long.
    fn finished(&mut self, now: u64) -> bool {
        if let Transport::Remote(client) = &self.transport {
            // No successful exchange for too long means the coordinator
            // (or the network to it) is gone. Keep every checkpoint; a
            // later --join resumes them.
            let offline_ms = client.ms_since_last_ok().unwrap_or(now);
            if client.consecutive_failures() > 0 && offline_ms > self.cfg.max_offline_ms {
                eprintln!(
                    "{}: no successful exchange for {offline_ms} ms; giving up \
                     (checkpoints kept under {})",
                    self.tag,
                    self.cfg.dir.display()
                );
                self.kill_all();
                self.report.gave_up = true;
                return true;
            }
        }
        if self.draining {
            if now > self.drain_deadline_ms {
                eprintln!("{}: drain grace expired; hard-killing the remaining workers", self.tag);
                self.kill_all();
            }
            // The drain ends once every lease has been handed back above.
            self.report.drained = self.held.is_empty();
            return self.report.drained;
        }
        if self.all_done && self.held.is_empty() {
            // Say goodbye once so the coordinator need not linger for
            // this agent. Best effort: a lost goodbye only costs the
            // coordinator its linger bound.
            let _ = self.transport.call(Request::Leave { agent: self.cfg.name.clone() }, now);
            self.report.all_done = true;
            return true;
        }
        false
    }

    fn kill_all(&mut self) {
        for mut w in self.held.drain(..).filter_map(|h| h.worker) {
            w.kill();
        }
    }

    /// Publish live progress and metrics to the status endpoint.
    fn publish(&self, status: &StatusServer, now: u64) {
        let (merged, shards) = match &self.transport {
            Transport::Local(state) => (state.merged(), Some(state.shard_status())),
            Transport::Remote(_) => (None, None),
        };
        status.publish_metrics(&metrics_exposition("farm.", merged));
        let r = &self.report;
        let farm_metrics = obs::snapshot().filter_prefix("farm.");
        status.publish(&serde_json::json!({
            "uptime_ms": now,
            "n_workers": self.cfg.n_workers,
            "shards": shards,
            "workers_alive": self.held.iter().filter(|h| h.worker.is_some()).count(),
            "spawns": r.spawns,
            "respawns": r.respawns,
            "worker_deaths": r.worker_deaths,
            "lease_expiries": r.lease_expiries,
            "chaos_kills": r.chaos_kills,
            "drained": self.draining,
            "metrics": serde_json::to_value(&farm_metrics).unwrap_or(serde_json::Value::Null),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest::TestMode;
    use progen::Precision;

    fn tiny_config() -> CampaignConfig {
        let mut c = CampaignConfig::default_for(Precision::F32, TestMode::Direct);
        c.n_programs = 6;
        c.inputs_per_program = 2;
        c
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fleet-agent-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn materialize_creates_a_resumable_checkpoint() {
        let root = temp_root("mat");
        let config = tiny_config();
        let (dir, found) = materialize_shard(&root, 1, 3, &config).unwrap();
        assert_eq!(found, Found::Fresh);
        assert!(Checkpoint::config_path(&dir).exists());
        let spec: ShardSpec =
            serde_json::from_str(&std::fs::read_to_string(Checkpoint::shard_path(&dir)).unwrap())
                .unwrap();
        assert_eq!((spec.index, spec.count), (1, 3));
        // Second materialization adopts instead of clobbering.
        let (dir2, found) = materialize_shard(&root, 1, 3, &config).unwrap();
        assert_eq!(dir, dir2);
        assert_eq!(found, Found::Checkpoint);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn materialize_recreates_a_checkpoint_cut_short_before_its_journal() {
        let root = temp_root("cut");
        let config = tiny_config();
        // An agent killed inside `create_sharded` leaves the config and
        // no shard spec or journal: no worker can resume that.
        let dir = shard_dir(&root, 1);
        std::fs::create_dir_all(&dir).unwrap();
        let json = serde_json::to_vec_pretty(&config).unwrap();
        std::fs::write(Checkpoint::config_path(&dir), json).unwrap();
        let (dir, found) = materialize_shard(&root, 1, 3, &config).unwrap();
        assert_eq!(found, Found::Fresh);
        let (ckpt, resumed, units) = Checkpoint::resume(&dir).expect("a resumable checkpoint");
        assert!(resumed == config && units.is_empty());
        let spec = ckpt.shard_spec().expect("a shard spec");
        assert_eq!((spec.index, spec.count), (1, 3));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn materialize_reports_a_finished_matching_result() {
        let root = temp_root("adopt");
        let config = tiny_config();
        let dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let mut meta = CampaignMeta::generate_shard(&config, 0, 2);
        meta.sides_run = vec![];
        meta.save(&dir.join("result.json")).unwrap();
        let (_, found) = materialize_shard(&root, 0, 2, &config).unwrap();
        assert_eq!(found, Found::Result, "a finished shard must be shipped, not re-run");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn materialize_rejects_results_and_checkpoints_from_other_campaigns() {
        let root = temp_root("mismatch");
        let config = tiny_config();
        let mut other = tiny_config();
        other.n_programs += 1;
        let dir = shard_dir(&root, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let mut stale = CampaignMeta::generate_shard(&other, 0, 2);
        stale.sides_run = vec![];
        stale.save(&dir.join("result.json")).unwrap();
        assert!(matches!(materialize_shard(&root, 0, 2, &config), Err(FarmError::Config(_))));
        // A mid-flight checkpoint with the wrong geometry is rejected
        // too (the same inspection a local farm runs at startup).
        let root2 = temp_root("mismatch2");
        let dir2 = shard_dir(&root2, 0);
        Checkpoint::create_sharded(&dir2, &config, Some(ShardSpec { index: 0, count: 5 })).unwrap();
        assert!(matches!(materialize_shard(&root2, 0, 2, &config), Err(FarmError::Config(_))));
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&root2).ok();
    }

    #[test]
    fn zero_workers_is_rejected() {
        let cfg = AgentConfig::new("127.0.0.1:1", temp_root("zw"), 0, WorkerSpec::new("/bin/sh"));
        assert!(matches!(run_agent(&cfg), Err(FarmError::Config(_))));
        // So is a zero crash threshold, before any connection attempt.
        let mut cfg =
            AgentConfig::new("127.0.0.1:1", temp_root("zt"), 1, WorkerSpec::new("/bin/sh"));
        cfg.crash_threshold = 0;
        assert!(matches!(run_agent(&cfg), Err(FarmError::Config(_))));
    }
}
