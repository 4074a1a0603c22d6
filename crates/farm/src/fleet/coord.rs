//! The fleet coordinator: the lease queue behind a socket, with a
//! write-ahead journal making every decision crash-safe.
//!
//! The heart is [`CoordState`], a *pure* state machine: `handle(req,
//! now_ms)` mutates the in-memory queue and returns the reply to send
//! plus the [`CoordEvent`]s that justify it. The server loop journals
//! those events — durably, via the CRC-framed [`CoordJournal`] —
//! *before* the reply leaves the socket, so an agent can never hold a
//! promise the journal doesn't know about. A journal append failure is
//! fatal by design: better to die and replay a truthful journal than to
//! keep serving from memory the disk disagrees with.
//!
//! Both servers call [`CoordState::serve`]: the coordinator with its
//! journal, a local farm (`farm --dir`, `CoordState` in process) without
//! one. Either way a shipped result moves into the merge uncopied; the
//! coordinator journals its `Done` event from the request by reference.
//!
//! [`run_coordinator`] keeps the state single-threaded. One acceptor
//! thread owns the listening socket and hands each accepted connection
//! over a channel to the state loop, which serves it as soon as it
//! arrives; between connections the loop blocks on that channel for at
//! most `poll_ms`, the pace of its timed checks (lease expiry, the
//! `stop` file, linger and the drain deadline). The acceptor is stopped
//! and joined, and the listener closed, before the run returns.
//!
//! Restart = replay: completed shards fold back into the merge, their
//! completing `(epoch, fence)` identity is remembered (a zombie agent
//! re-sending an old completion is re-acked idempotently, any other
//! stale identity is fenced), poisoned shards stay quarantined, and
//! in-flight leases are voided under a bumped epoch. No shard is lost;
//! no shard is double-merged.
//!
//! The run ends when every shard is settled and every agent the state
//! knows of — one that sent a live request, or one named in a replayed
//! grant — has said goodbye with [`Request::Leave`] after hearing
//! [`Reply::AllDone`]. `linger_ms` bounds the wait for agents that
//! vanish without one. The folded merge stays in memory until then and
//! `merged.json` is written once, when the run ends or drains; the
//! journaled `Done` events are what a restart re-folds from.

use std::collections::BTreeMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use difftest::checkpoint::atomic_write;
use difftest::fault::shutdown_requested;
use difftest::metadata::CampaignMeta;
use difftest::CampaignConfig;

use crate::coordjournal::{CoordEvent, CoordJournal};
use crate::lease::{LeaseState, ShardId, WorkQueue};
use crate::proto::{read_message, write_message, Reply, Request};
use crate::status::StatusServer;
use crate::supervisor::{farm_stop_path, io_err, merged_path, FarmError};

/// Suggested delay for [`Reply::Wait`].
pub const WAIT_RETRY_MS: u64 = 200;

/// Everything the coordinator needs to own one campaign's queue.
#[derive(Debug, Clone)]
pub struct CoordConfig {
    /// The campaign being dealt out.
    pub campaign: CampaignConfig,
    /// Shard count (the unit of lease, recovery, and merge).
    pub n_shards: usize,
    /// Address to listen on (`host:port`; port 0 picks a free port,
    /// published to `<dir>/coord.addr`).
    pub bind: String,
    /// Coordinator root: holds `coord.journal`, `merged.json` (written
    /// when the run ends or drains), `coord.addr`, and the drain `stop`
    /// file.
    pub dir: PathBuf,
    /// Lease heartbeat window: a granted shard with no agent keepalive
    /// for this long is expired and re-granted.
    pub heartbeat_ms: u64,
    /// Longest wait between passes of the state loop. Each accepted
    /// connection wakes it at once; this bounds how late the timed
    /// checks run (lease expiry, the `stop` file, linger, the drain
    /// deadline).
    pub poll_ms: u64,
    /// How long a drain keeps serving so agents can flush and release.
    pub grace_ms: u64,
    /// Ask agents to also run the double-double ground-truth side.
    pub reference: bool,
    /// Upper bound on how long to keep answering `AllDone` after the
    /// last shard settles. The run ends sooner, as soon as every known
    /// agent has said goodbye; the bound only matters for an agent that
    /// vanished (or whose goodbye was lost) without one.
    pub linger_ms: u64,
    /// Bind address for the HTTP status endpoint (`None` = off).
    pub status_addr: Option<String>,
}

impl CoordConfig {
    /// Coordinator over `campaign` with production defaults: 30 s
    /// heartbeat, 50 ms poll, 10 s drain grace, and at most 3 s of
    /// linger for agents that never say goodbye.
    pub fn new(
        campaign: CampaignConfig,
        n_shards: usize,
        bind: impl Into<String>,
        dir: impl Into<PathBuf>,
    ) -> CoordConfig {
        CoordConfig {
            campaign,
            n_shards,
            bind: bind.into(),
            dir: dir.into(),
            heartbeat_ms: 30_000,
            poll_ms: 50,
            grace_ms: 10_000,
            reference: false,
            linger_ms: 3_000,
            status_addr: None,
        }
    }
}

/// What a coordinator run produced.
#[derive(Debug)]
pub struct CoordReport {
    /// The rolling merge of every completed shard.
    pub merged: Option<CampaignMeta>,
    /// Shards folded into `merged`.
    pub shards_done: usize,
    /// Shards in the poison quarantine.
    pub shards_poisoned: Vec<ShardId>,
    /// `true` if the run stopped on a drain rather than completion.
    pub drained: bool,
    /// The epoch this process served under.
    pub epoch: u64,
    /// Leases granted this process.
    pub grants: u64,
    /// Stale-identity messages rejected (`Reply::Fenced`).
    pub fence_rejections: u64,
    /// Duplicate completions re-acked idempotently.
    pub dup_completes: u64,
    /// Leases expired for keepalive silence.
    pub lease_expiries: u64,
    /// The exact way to resume a drained fleet, when `drained`.
    pub resume_hint: Option<String>,
}

#[derive(Debug, Clone)]
struct Lease {
    fence: u64,
    agent: String,
}

/// The coordinator's pure state machine. All time is caller-supplied
/// milliseconds, so fencing, expiry, and grant policy are unit-testable
/// and proptestable without sockets or sleeping.
#[derive(Debug)]
pub struct CoordState {
    config: CampaignConfig,
    n_shards: usize,
    reference: bool,
    epoch: u64,
    next_fence: u64,
    queue: WorkQueue,
    leases: Vec<Option<Lease>>,
    done_identity: Vec<Option<(u64, u64)>>,
    merged: Option<CampaignMeta>,
    draining: bool,
    /// Every agent the run must hear a goodbye from, and whether it has.
    agents: BTreeMap<String, bool>,
    /// Counters mirrored into `obs` (`fleet.*`) and the final report.
    pub grants: u64,
    /// Stale-identity rejections issued.
    pub fence_rejections: u64,
    /// Duplicate completions re-acked.
    pub dup_completes: u64,
    /// Leases expired by `tick`.
    pub lease_expiries: u64,
}

impl CoordState {
    /// Rebuild the queue from a journal replay (`events` may be empty
    /// for a fresh start). The returned state serves under an epoch one
    /// past anything the journal has seen, with every in-flight lease
    /// voided and every fence token above any previously issued. Each
    /// journaled result moves into the merge.
    pub fn replay(
        config: CampaignConfig,
        n_shards: usize,
        heartbeat_ms: u64,
        reference: bool,
        events: Vec<CoordEvent>,
    ) -> Result<CoordState, FarmError> {
        let mut state = CoordState {
            config,
            n_shards,
            reference,
            epoch: 0,
            next_fence: 0,
            queue: WorkQueue::new(n_shards, heartbeat_ms),
            leases: vec![None; n_shards],
            done_identity: vec![None; n_shards],
            merged: None,
            draining: false,
            agents: BTreeMap::new(),
            grants: 0,
            fence_rejections: 0,
            dup_completes: 0,
            lease_expiries: 0,
        };
        let mut max_epoch = 0u64;
        let mut max_fence = 0u64;
        for ev in events {
            // An agent granted a lease before the restart may still be
            // out there; the run must hear its goodbye too.
            if let CoordEvent::Grant { agent, .. } = &ev {
                state.agents.insert(agent.clone(), false);
            }
            match ev {
                CoordEvent::Start { epoch, n_shards: n } => {
                    if n != n_shards {
                        return Err(FarmError::Config(format!(
                            "journal was written for {n} shards but this run wants {n_shards}; \
                             use a fresh --dir or rerun with --shards {n}"
                        )));
                    }
                    max_epoch = max_epoch.max(epoch);
                }
                CoordEvent::Grant { epoch, fence, shard, .. }
                | CoordEvent::Heartbeat { epoch, fence, shard }
                | CoordEvent::Release { epoch, fence, shard, .. } => {
                    if shard >= n_shards {
                        return Err(FarmError::Config(format!(
                            "journal references shard {shard} outside 0..{n_shards}"
                        )));
                    }
                    max_epoch = max_epoch.max(epoch);
                    max_fence = max_fence.max(fence);
                }
                CoordEvent::Poison { shard, epoch, fence, .. } => {
                    if shard >= n_shards {
                        return Err(FarmError::Config(format!(
                            "journal references shard {shard} outside 0..{n_shards}"
                        )));
                    }
                    max_epoch = max_epoch.max(epoch);
                    max_fence = max_fence.max(fence);
                    state.queue.poison(shard);
                }
                CoordEvent::Done { shard, epoch, fence, meta } => {
                    if shard >= n_shards {
                        return Err(FarmError::Config(format!(
                            "journal references shard {shard} outside 0..{n_shards}"
                        )));
                    }
                    max_epoch = max_epoch.max(epoch);
                    max_fence = max_fence.max(fence);
                    if state.done_identity[shard].is_none() {
                        if meta.config != state.config {
                            return Err(FarmError::Config(format!(
                                "journaled result for shard {shard} belongs to a different \
                                 campaign; use a fresh --dir"
                            )));
                        }
                        state.fold(*meta)?;
                        state.queue.complete(shard);
                        state.done_identity[shard] = Some((epoch, fence));
                    }
                }
            }
        }
        state.epoch = max_epoch + 1;
        state.next_fence = max_fence + 1;
        Ok(state)
    }

    /// The epoch this state serves under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The rolling merge so far.
    pub fn merged(&self) -> Option<&CampaignMeta> {
        self.merged.as_ref()
    }

    /// Take the merge out (end of run).
    pub fn take_merged(&mut self) -> Option<CampaignMeta> {
        self.merged.take()
    }

    /// `true` once every shard is done or poisoned.
    pub fn all_settled(&self) -> bool {
        self.queue.all_settled()
    }

    /// `true` once every shard is settled and every known agent — one
    /// that sent a live request or was named in a replayed grant — has
    /// said goodbye: nobody is left to tell `AllDone`.
    pub(crate) fn finished(&self) -> bool {
        self.all_settled() && self.agents.values().all(|&left| left)
    }

    /// Shards currently granted out.
    pub fn leased_count(&self) -> usize {
        self.queue.tally().1
    }

    /// Counts of (available, leased, done, poisoned) shards.
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        self.queue.tally()
    }

    /// Poisoned shards, lowest first.
    pub fn poisoned_shards(&self) -> Vec<ShardId> {
        (0..self.n_shards).filter(|&k| self.queue.state(k) == LeaseState::Poisoned).collect()
    }

    /// Enter drain mode: no new grants; agents are told to flush,
    /// release, and exit.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// `true` once `drain` was called.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Fold a result into the rolling merge. A rejected result leaves
    /// the merge exactly as it was.
    fn fold(&mut self, meta: CampaignMeta) -> Result<(), FarmError> {
        match &mut self.merged {
            None => self.merged = Some(meta),
            Some(acc) => acc.merge_from(meta)?,
        }
        obs::add("fleet.merge_folds", 1);
        Ok(())
    }

    fn fenced(&mut self, why: impl Into<String>) -> Reply {
        self.fence_rejections += 1;
        obs::add("fleet.fence_rejections", 1);
        Reply::Fenced { reason: why.into() }
    }

    /// Validate a shard-scoped `(shard, epoch, fence)` identity against
    /// the live lease table. `Ok` means the caller holds the current
    /// lease on `shard`.
    fn check_identity(&mut self, shard: usize, epoch: u64, fence: u64) -> Result<(), Reply> {
        if shard >= self.n_shards {
            return Err(Reply::Error { reason: format!("unknown shard {shard}") });
        }
        if epoch != self.epoch {
            return Err(self.fenced(format!(
                "stale epoch {epoch} (coordinator is at {}; it restarted since this lease)",
                self.epoch
            )));
        }
        match (&self.queue.state(shard), &self.leases[shard]) {
            (LeaseState::Leased { .. }, Some(l)) if l.fence == fence => Ok(()),
            _ => Err(self.fenced(format!("no live lease on shard {shard} with fence {fence}"))),
        }
    }

    /// Serve one request at virtual time `now_ms`. Returns the reply
    /// and the journal events that must be durable *before* the reply
    /// is sent. A completion's result is copied, into the merge and
    /// into its `Done` event; the servers use [`CoordState::serve`],
    /// which copies nothing.
    pub fn handle(&mut self, req: &Request, now_ms: u64) -> (Reply, Vec<CoordEvent>) {
        // Any request but a goodbye means the agent is (back) at work.
        let left = matches!(req, Request::Leave { .. });
        self.agents.insert(req.agent().to_owned(), left);
        match req {
            Request::Leave { .. } => (Reply::Ok, Vec::new()),
            Request::Lease { agent } => {
                if self.draining {
                    return (Reply::Drain, Vec::new());
                }
                if self.queue.all_settled() {
                    return (Reply::AllDone, Vec::new());
                }
                let fence = self.next_fence;
                match self.queue.acquire(now_ms, fence) {
                    None => (Reply::Wait { retry_ms: WAIT_RETRY_MS }, Vec::new()),
                    Some(shard) => {
                        self.next_fence += 1;
                        self.leases[shard] = Some(Lease { fence, agent: agent.clone() });
                        self.grants += 1;
                        obs::add("fleet.grants", 1);
                        let ev = CoordEvent::Grant {
                            shard,
                            epoch: self.epoch,
                            fence,
                            agent: agent.clone(),
                        };
                        let reply = Reply::Grant {
                            shard,
                            n_shards: self.n_shards,
                            epoch: self.epoch,
                            fence,
                            heartbeat_ms: self.queue.heartbeat_ms(),
                            reference: self.reference,
                            config: Box::new(self.config.clone()),
                        };
                        (reply, vec![ev])
                    }
                }
            }
            Request::Heartbeat { shard, epoch, fence, .. } => {
                if self.draining {
                    return (Reply::Drain, Vec::new());
                }
                if let Err(r) = self.check_identity(*shard, *epoch, *fence) {
                    return (r, Vec::new());
                }
                self.queue.heartbeat(*shard, now_ms);
                (
                    Reply::Ok,
                    vec![CoordEvent::Heartbeat { shard: *shard, epoch: *epoch, fence: *fence }],
                )
            }
            Request::Complete { shard, epoch, fence, meta, .. } => {
                let (shard, epoch, fence) = (*shard, *epoch, *fence);
                match self.admit(shard, epoch, fence, meta) {
                    Ok(true) => match self.settle(shard, epoch, fence, (**meta).clone()) {
                        Ok(()) => {
                            let ev = CoordEvent::Done { shard, epoch, fence, meta: meta.clone() };
                            (Reply::Ok, vec![ev])
                        }
                        Err(r) => (r, Vec::new()),
                    },
                    Ok(false) => (Reply::Ok, Vec::new()),
                    Err(r) => (r, Vec::new()),
                }
            }
            Request::Release { shard, epoch, fence, reason, .. } => {
                if let Err(r) = self.check_identity(*shard, *epoch, *fence) {
                    return (r, Vec::new());
                }
                self.queue.release(*shard, now_ms, 0);
                self.leases[*shard] = None;
                let ev = CoordEvent::Release {
                    shard: *shard,
                    epoch: *epoch,
                    fence: *fence,
                    reason: reason.clone(),
                };
                (Reply::Ok, vec![ev])
            }
            Request::Poison { shard, epoch, fence, crashes, .. } => {
                if let Err(r) = self.check_identity(*shard, *epoch, *fence) {
                    return (r, Vec::new());
                }
                self.queue.poison(*shard);
                self.leases[*shard] = None;
                obs::add("fleet.poisons", 1);
                let ev = CoordEvent::Poison {
                    shard: *shard,
                    epoch: *epoch,
                    fence: *fence,
                    crashes: *crashes,
                };
                (Reply::Ok, vec![ev])
            }
        }
    }

    /// Serve one request, for the coordinator (which passes its
    /// `journal`) and the local farm (which keeps none). Every journal
    /// event is appended before this returns, so the caller may send the
    /// reply once it has it. A completion is never copied: the shipped
    /// result moves into its `Done` event to be encoded, moves back out
    /// into the merge, and the event is appended once the merge has
    /// taken it. A completion the merge refuses (its result
    /// holds a different test under an index already folded) is answered
    /// `Reply::Error` and journals nothing: the merge keeps every shard
    /// folded so far, and the shard stays leased until its lease expires
    /// and it is granted again. `Err` is a journal failure, fatal to the
    /// coordinator.
    pub fn serve(
        &mut self,
        req: Request,
        now_ms: u64,
        journal: Option<&mut CoordJournal>,
    ) -> io::Result<Reply> {
        let Request::Complete { agent, shard, epoch, fence, meta } = req else {
            let (reply, events) = self.handle(&req, now_ms);
            if let Some(journal) = journal {
                for ev in &events {
                    journal.append(ev)?;
                }
            }
            return Ok(reply);
        };
        self.agents.insert(agent, false);
        match self.admit(shard, epoch, fence, &meta) {
            Ok(true) => {}
            Ok(false) => return Ok(Reply::Ok),
            Err(reply) => return Ok(reply),
        }
        let done = CoordEvent::Done { shard, epoch, fence, meta };
        let payload = journal.as_ref().map(|_| serde_json::to_vec(&done)).transpose()?;
        let CoordEvent::Done { meta, .. } = done else { unreachable!("built as a Done") };
        if let Err(reply) = self.settle(shard, epoch, fence, *meta) {
            return Ok(reply);
        }
        if let (Some(journal), Some(payload)) = (journal, payload) {
            journal.append_payload(&payload)?;
        }
        Ok(Reply::Ok)
    }

    /// Check a shipped result's identity and campaign. `Ok(true)`: a new
    /// completion, for [`CoordState::settle`]; `Ok(false)`: the exact
    /// identity that already completed this shard — even under an older
    /// epoch, replayed from the journal across a restart — re-acked
    /// without a second merge.
    fn admit(
        &mut self,
        shard: usize,
        epoch: u64,
        fence: u64,
        meta: &CampaignMeta,
    ) -> Result<bool, Reply> {
        if shard >= self.n_shards {
            return Err(Reply::Error { reason: format!("unknown shard {shard}") });
        }
        if self.done_identity[shard] == Some((epoch, fence)) {
            self.dup_completes += 1;
            obs::add("fleet.dup_completes", 1);
            return Ok(false);
        }
        self.check_identity(shard, epoch, fence)?;
        if meta.config != self.config {
            return Err(Reply::Error { reason: "shard result is for a different campaign".into() });
        }
        Ok(true)
    }

    /// Fold an admitted result into the merge and settle its shard.
    fn settle(
        &mut self,
        shard: usize,
        epoch: u64,
        fence: u64,
        meta: CampaignMeta,
    ) -> Result<(), Reply> {
        self.fold(meta)
            .map_err(|e| Reply::Error { reason: format!("merge rejected shard: {e}") })?;
        self.queue.complete(shard);
        self.leases[shard] = None;
        self.done_identity[shard] = Some((epoch, fence));
        obs::add("fleet.completes", 1);
        Ok(())
    }

    /// Shard tallies and per-shard lease states, for status endpoints.
    pub(crate) fn shard_status(&self) -> serde_json::Value {
        let (available, leased, done, poisoned) = self.tally();
        let states: Vec<String> = (0..self.n_shards)
            .map(|k| match self.queue.state(k) {
                LeaseState::Available { .. } => "available".into(),
                LeaseState::Leased { worker, .. } => format!("leased:{worker}"),
                LeaseState::Done => "done".into(),
                LeaseState::Poisoned => "poisoned".into(),
            })
            .collect();
        serde_json::json!({
            "available": available,
            "leased": leased,
            "done": done,
            "poisoned": poisoned,
            "states": states,
        })
    }

    /// Expire leases whose keepalive went silent past the heartbeat
    /// window. Returns the journal events (one `Release` per expiry)
    /// that must be durable before the shards are re-granted — which
    /// the caller guarantees by journaling them before the next
    /// `handle`.
    pub fn tick(&mut self, now_ms: u64) -> Vec<CoordEvent> {
        let mut events = Vec::new();
        for shard in self.queue.expired(now_ms) {
            let lease = self.leases[shard].take();
            self.queue.release(shard, now_ms, 0);
            self.lease_expiries += 1;
            obs::add("fleet.lease_expiries", 1);
            events.push(CoordEvent::Release {
                shard,
                epoch: self.epoch,
                fence: lease.as_ref().map(|l| l.fence).unwrap_or(0),
                reason: format!(
                    "lease expired (no keepalive from {})",
                    lease.map(|l| l.agent).unwrap_or_else(|| "unknown".into())
                ),
            });
        }
        events
    }
}

/// Path of the coordinator's write-ahead journal under `root`.
pub fn coord_journal_path(root: &std::path::Path) -> PathBuf {
    root.join("coord.journal")
}

/// Path of the published listen address under `root` (written
/// atomically once the socket is bound; `--bind host:0` runs discover
/// their port here).
pub fn coord_addr_path(root: &std::path::Path) -> PathBuf {
    root.join("coord.addr")
}

/// Bind the listening socket, riding out `EADDRINUSE` left behind by a
/// just-killed predecessor whose connections may still sit in
/// TIME_WAIT. A restarted coordinator should wait out the kernel, not
/// die: retry for ~75s (past Linux's 60s TIME_WAIT) before giving up.
fn bind_with_retry(addr: &str) -> Result<TcpListener, FarmError> {
    let deadline = Instant::now() + Duration::from_secs(75);
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(io_err(e)),
        }
    }
}

/// What the acceptor hands the state loop.
enum Accepted {
    /// A connection to serve.
    Conn(TcpStream),
    /// `accept` failed: fatal to the run.
    Failed(io::Error),
}

/// The thread that owns the listening socket and passes each accepted
/// connection to the state loop. Dropping it stops and joins the thread,
/// which closes the listener.
struct Acceptor {
    stop: Arc<AtomicBool>,
    /// Where a connection of our own reaches the listener.
    wake_addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    fn start(listener: TcpListener, to: Sender<Accepted>) -> io::Result<Acceptor> {
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            let loopback = match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            wake_addr.set_ip(loopback);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stopping = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("coord-accept".into())
            .spawn(move || accept_loop(&listener, &stopping, &to))?;
        Ok(Acceptor { stop, wake_addr, thread: Some(thread) })
    }
}

/// Hand each accepted connection to the state loop until `stop` is set
/// or `accept` fails.
fn accept_loop(listener: &TcpListener, stop: &AtomicBool, to: &Sender<Accepted>) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection from `Acceptor::drop`.
            if let Ok((mut stream, _)) = accepted {
                await_peer_close(&mut stream);
            }
            return;
        }
        let msg = match accepted {
            Ok((stream, _)) => Accepted::Conn(stream),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Accepted::Failed(e),
        };
        let failed = matches!(msg, Accepted::Failed(_));
        if to.send(msg).is_err() || failed {
            return;
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        // `accept` blocks, so a connection of our own wakes the thread.
        // Refused means the listener is already closed: the thread has
        // returned. If our own socket cannot be reached at all, the
        // thread is left to return at its next connection.
        match TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(2)) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
            Err(_) => return,
        }
        let _ = thread.join();
    }
}

/// Wait briefly for the client's close (it drops the socket right
/// after reading the reply). Being the passive closer keeps TIME_WAIT
/// off the coordinator's port, so a killed coordinator can rebind the
/// same address instead of colliding with its own ghost connections
/// for 60s.
fn await_peer_close(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
    let _ = std::io::Read::read(stream, &mut [0u8; 1]);
}

/// Serve one accepted connection: read a request, apply it, journal
/// the resulting events, then — and only then — send the reply. A
/// journal append failure is returned as fatal; a codec failure on the
/// wire just drops the connection.
fn serve_conn(
    stream: &mut TcpStream,
    state: &mut CoordState,
    journal: &mut CoordJournal,
    now_ms: u64,
) -> Result<(), FarmError> {
    stream.set_read_timeout(Some(Duration::from_millis(2_000))).ok();
    stream.set_write_timeout(Some(Duration::from_millis(2_000))).ok();
    let req = match read_message::<Request>(stream) {
        Ok(r) => r,
        Err(_) => {
            // Torn frame, wrong version, or a stranger: no state
            // change happened, so just drop the connection.
            obs::add("fleet.codec_errors", 1);
            return Ok(());
        }
    };
    let reply = state.serve(req, now_ms, Some(journal)).map_err(io_err)?;
    // Reply delivery is best-effort: if the agent vanished it will
    // retry, and the journal already reflects the truth.
    let _ = write_message(stream, &reply);
    await_peer_close(stream);
    Ok(())
}

fn healthz_snapshot(state: &CoordState, journal: &CoordJournal, now_ms: u64) -> serde_json::Value {
    serde_json::json!({
        "role": "coordinator",
        "epoch": state.epoch(),
        "journal_frames": journal.frames(),
        "journal_bytes": journal.len_bytes(),
        "uptime_ms": now_ms,
        "draining": state.draining(),
        "shards": state.shard_status(),
    })
}

/// The `/metrics` body: this process's own metrics under `prefix`
/// merged with the rolling shard merge's campaign telemetry. Both sides
/// merge order-independently (see `obs::MetricsSnapshot::merge` and the
/// merge proptests), so the exposition is the same whatever order
/// shards finished in.
pub(crate) fn metrics_exposition(prefix: &str, merged: Option<&CampaignMeta>) -> String {
    let mut snap = obs::snapshot().filter_prefix(prefix);
    if let Some(metrics) = merged.and_then(|m| m.metrics.as_ref()) {
        snap.merge(metrics);
    }
    obs::prom::render(&snap)
}

/// Run a coordinator to completion (or drain). Crash-safe by journal:
/// kill it at any instant and a restart on the same `--dir` resumes
/// with no shard lost or double-merged, under a bumped epoch that
/// fences every lease the dead process had granted.
pub fn run_coordinator(cfg: &CoordConfig) -> Result<CoordReport, FarmError> {
    if cfg.n_shards == 0 {
        return Err(FarmError::Config("need at least one shard".into()));
    }
    std::fs::create_dir_all(&cfg.dir).map_err(io_err)?;
    std::fs::remove_file(farm_stop_path(&cfg.dir)).ok();

    let journal_path = coord_journal_path(&cfg.dir);
    let (mut journal, events) = if journal_path.exists() {
        CoordJournal::open_for_resume(&journal_path).map_err(io_err)?
    } else {
        (CoordJournal::create(&journal_path).map_err(io_err)?, Vec::new())
    };
    let resumed = events.len();
    let mut state = CoordState::replay(
        cfg.campaign.clone(),
        cfg.n_shards,
        cfg.heartbeat_ms,
        cfg.reference,
        events,
    )?;
    journal
        .append(&CoordEvent::Start { epoch: state.epoch(), n_shards: cfg.n_shards })
        .map_err(io_err)?;
    journal.sync().map_err(io_err)?;
    if resumed > 0 {
        eprintln!(
            "fleet: coordinator resumed from {resumed} journaled event(s); serving epoch {}",
            state.epoch()
        );
    }

    let listener = bind_with_retry(&cfg.bind)?;
    let local = listener.local_addr().map_err(io_err)?;
    let (accepted, incoming) = mpsc::channel();
    let acceptor = Acceptor::start(listener, accepted).map_err(io_err)?;
    atomic_write(&coord_addr_path(&cfg.dir), local.to_string().as_bytes()).map_err(io_err)?;
    eprintln!("fleet: coordinator listening on {local} (epoch {})", state.epoch());

    let status = cfg.status_addr.as_deref().map(StatusServer::bind).transpose().map_err(io_err)?;
    if let Some(s) = &status {
        eprintln!("fleet: status endpoint at http://{}/", s.local_addr());
    }

    let started = Instant::now();
    let now_ms = |started: &Instant| started.elapsed().as_millis() as u64;
    let mut draining = false;
    let mut drain_deadline_ms = u64::MAX;
    let mut settled_at_ms: Option<u64> = None;
    let mut last_publish_ms = 0u64;
    let mut woken_by: Option<Accepted> = None;

    loop {
        let now = now_ms(&started);

        if !draining && (shutdown_requested() || farm_stop_path(&cfg.dir).exists()) {
            draining = true;
            drain_deadline_ms = now + cfg.grace_ms;
            state.drain();
            obs::add("fleet.drains", 1);
            eprintln!(
                "fleet: coordinator drain requested; serving releases for up to {} ms",
                cfg.grace_ms
            );
        }

        // Serve the connection that ended the wait and every one queued
        // behind it, one exchange per connection.
        let queued = std::iter::from_fn(|| incoming.try_recv().ok());
        for msg in woken_by.take().into_iter().chain(queued) {
            match msg {
                Accepted::Conn(mut stream) => {
                    serve_conn(&mut stream, &mut state, &mut journal, now)?
                }
                Accepted::Failed(e) => return Err(io_err(e)),
            }
        }

        for ev in state.tick(now) {
            journal.append(&ev).map_err(io_err)?;
        }

        if let Some(s) = &status {
            if now >= last_publish_ms + 250 {
                last_publish_ms = now;
                s.publish_healthz(&healthz_snapshot(&state, &journal, now));
                s.publish(&healthz_snapshot(&state, &journal, now));
                s.publish_metrics(&metrics_exposition("fleet.", state.merged()));
            }
        }

        if draining {
            if state.leased_count() == 0 || now > drain_deadline_ms {
                break;
            }
        } else if state.all_settled() {
            // Done once every agent has said goodbye; until then keep
            // answering AllDone, for at most the linger window, so an
            // agent that vanished cannot hold the run open.
            let settled_at = *settled_at_ms.get_or_insert(now);
            if state.finished() || now >= settled_at + cfg.linger_ms {
                break;
            }
        }

        woken_by = match incoming.recv_timeout(Duration::from_millis(cfg.poll_ms)) {
            Ok(msg) => Some(msg),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                return Err(FarmError::Io("the connection acceptor stopped".into()))
            }
        };
    }
    drop(acceptor);

    journal.sync().map_err(io_err)?;
    if let Some(m) = state.merged() {
        m.save(&merged_path(&cfg.dir))?;
    }
    if let Some(s) = status {
        s.publish_healthz(&healthz_snapshot(&state, &journal, now_ms(&started)));
        s.publish_metrics(&metrics_exposition("fleet.", state.merged()));
        s.shutdown();
    }

    let (_, _, done, _) = state.tally();
    let drained = draining;
    let mut report = CoordReport {
        merged: None,
        shards_done: done,
        shards_poisoned: state.poisoned_shards(),
        drained,
        epoch: state.epoch(),
        grants: state.grants,
        fence_rejections: state.fence_rejections,
        dup_completes: state.dup_completes,
        lease_expiries: state.lease_expiries,
        resume_hint: drained.then(|| {
            format!(
                "re-run the same coordinator command with --dir {} — the journal replays, \
                 agents re-join, and unfinished shards are re-leased",
                cfg.dir.display()
            )
        }),
    };
    report.merged = state.take_merged();
    Ok(report)
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

    fn shard_meta(config: &CampaignConfig, k: usize, n: usize) -> CampaignMeta {
        let mut m = CampaignMeta::generate_shard(config, k, n);
        m.sides_run = vec![];
        m
    }

    fn fresh(n_shards: usize) -> CoordState {
        CoordState::replay(tiny_config(), n_shards, 1_000, false, Vec::new()).unwrap()
    }

    fn grant_of(reply: Reply) -> (usize, u64, u64) {
        match reply {
            Reply::Grant { shard, epoch, fence, .. } => (shard, epoch, fence),
            other => panic!("expected Grant, got {other:?}"),
        }
    }

    #[test]
    fn a_rejected_completion_leaves_the_merge_and_the_queue_as_they_were() {
        let config = tiny_config();
        let mut st = fresh(2);
        let (shard0, epoch, fence) =
            grant_of(st.handle(&Request::Lease { agent: "a".into() }, 0).0);
        let meta0 = shard_meta(&config, shard0, 2);
        let meta = Box::new(meta0.clone());
        let done = Request::Complete { agent: "a".into(), shard: shard0, epoch, fence, meta };
        assert_eq!(st.serve(done, 0, None).unwrap(), Reply::Ok);
        let (shard1, epoch, fence) =
            grant_of(st.handle(&Request::Lease { agent: "b".into() }, 0).0);
        // shard 1's result plus a different test under one of shard 0's
        // indices: the merge must refuse it
        let mut forged = shard_meta(&config, shard1, 2);
        let mut clash = meta0.tests[0].clone();
        clash.program_id.push_str("_forged");
        forged.tests.push(clash);
        let tally = st.tally();
        let meta = Box::new(forged);
        let conflicting =
            Request::Complete { agent: "b".into(), shard: shard1, epoch, fence, meta };
        let reply = st.serve(conflicting, 0, None).unwrap();
        assert!(matches!(reply, Reply::Error { .. }), "got {reply:?}");
        assert!(st.merged() == Some(&meta0), "the merge still holds exactly shard 0");
        assert_eq!(st.tally(), tally, "shard 1 stays leased, shard 0 done");
    }

    #[test]
    fn grant_complete_grant_all_done_happy_path() {
        let mut st = fresh(2);
        assert_eq!(st.epoch(), 1, "fresh state serves epoch 1");
        let (r, evs) = st.handle(&Request::Lease { agent: "a".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        assert_eq!((shard, epoch, fence), (0, 1, 1));
        assert_eq!(evs.len(), 1);
        let meta = shard_meta(&tiny_config(), 0, 2);
        let complete =
            Request::Complete { agent: "a".into(), shard, epoch, fence, meta: Box::new(meta) };
        let (r, evs) = st.handle(&complete, 10);
        assert_eq!(r, Reply::Ok);
        assert!(matches!(evs[0], CoordEvent::Done { shard: 0, .. }));
        // The exact same Complete again: idempotent re-ack, no event,
        // nothing merged twice.
        let before = st.merged().unwrap().tests.len();
        let (r, evs) = st.handle(&complete, 20);
        assert_eq!(r, Reply::Ok);
        assert!(evs.is_empty(), "duplicate completion must not journal");
        assert_eq!(st.dup_completes, 1);
        assert_eq!(st.merged().unwrap().tests.len(), before);
        // Remaining shard, then AllDone.
        let (r, _) = st.handle(&Request::Lease { agent: "b".into() }, 30);
        let (shard, epoch, fence) = grant_of(r);
        assert_eq!(shard, 1);
        let meta = shard_meta(&tiny_config(), 1, 2);
        let (r, _) = st.handle(
            &Request::Complete { agent: "b".into(), shard, epoch, fence, meta: Box::new(meta) },
            40,
        );
        assert_eq!(r, Reply::Ok);
        assert!(st.all_settled());
        let (r, _) = st.handle(&Request::Lease { agent: "b".into() }, 50);
        assert_eq!(r, Reply::AllDone);
        assert_eq!(st.merged().unwrap().tests.len(), 6, "both shards folded");
    }

    #[test]
    fn expiry_voids_the_lease_and_the_zombie_is_fenced() {
        let mut st = fresh(1);
        let (r, _) = st.handle(&Request::Lease { agent: "zombie".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        // Keepalive works while the lease is live.
        let hb = Request::Heartbeat { agent: "zombie".into(), shard, epoch, fence };
        let (r, evs) = st.handle(&hb, 500);
        assert_eq!(r, Reply::Ok);
        assert!(matches!(evs[0], CoordEvent::Heartbeat { .. }));
        // Silence past the window: tick expires it.
        let evs = st.tick(5_000);
        assert_eq!(evs.len(), 1);
        assert!(
            matches!(&evs[0], CoordEvent::Release { reason, .. } if reason.contains("expired"))
        );
        assert_eq!(st.lease_expiries, 1);
        // The zombie's late completion is rejected, not merged.
        let meta = shard_meta(&tiny_config(), 0, 1);
        let (r, evs) = st.handle(
            &Request::Complete {
                agent: "zombie".into(),
                shard,
                epoch,
                fence,
                meta: Box::new(meta.clone()),
            },
            5_010,
        );
        assert!(matches!(r, Reply::Fenced { .. }), "got {r:?}");
        assert!(evs.is_empty());
        assert!(st.merged().is_none());
        assert_eq!(st.fence_rejections, 1);
        // Re-grant carries a strictly higher fence; the new holder's
        // completion lands.
        let (r, _) = st.handle(&Request::Lease { agent: "fresh".into() }, 5_020);
        let (shard2, epoch2, fence2) = grant_of(r);
        assert_eq!(shard2, shard);
        assert_eq!(epoch2, epoch);
        assert!(fence2 > fence, "fence must be monotonic across re-grants");
        let (r, _) = st.handle(
            &Request::Complete {
                agent: "fresh".into(),
                shard: shard2,
                epoch: epoch2,
                fence: fence2,
                meta: Box::new(meta),
            },
            5_030,
        );
        assert_eq!(r, Reply::Ok);
        assert_eq!(st.merged().unwrap().tests.len(), 6);
    }

    #[test]
    fn restart_replay_voids_leases_bumps_epoch_and_keeps_done_shards() {
        let config = tiny_config();
        let meta0 = shard_meta(&config, 0, 3);
        // Journal from a previous life: shard 0 done, shard 1 granted
        // (in flight at the kill), shard 2 poisoned.
        let events = vec![
            CoordEvent::Start { epoch: 1, n_shards: 3 },
            CoordEvent::Grant { shard: 0, epoch: 1, fence: 1, agent: "a".into() },
            CoordEvent::Done { shard: 0, epoch: 1, fence: 1, meta: Box::new(meta0.clone()) },
            CoordEvent::Grant { shard: 1, epoch: 1, fence: 2, agent: "a".into() },
            CoordEvent::Grant { shard: 2, epoch: 1, fence: 3, agent: "b".into() },
            CoordEvent::Poison { shard: 2, epoch: 1, fence: 3, crashes: 4 },
        ];
        let mut st = CoordState::replay(config.clone(), 3, 1_000, false, events).unwrap();
        assert_eq!(st.epoch(), 2, "epoch bumps past everything journaled");
        assert_eq!(st.tally(), (1, 0, 1, 1), "lease on shard 1 voided to available");
        assert_eq!(st.merged().unwrap().tests.len(), meta0.tests.len(), "done shard folded back");
        // The pre-restart holder of shard 1 heartbeats: stale epoch.
        let (r, _) =
            st.handle(&Request::Heartbeat { agent: "a".into(), shard: 1, epoch: 1, fence: 2 }, 0);
        assert!(matches!(r, Reply::Fenced { .. }));
        // A zombie re-sending shard 0's completion under its original
        // identity is re-acked without a second merge.
        let (r, evs) = st.handle(
            &Request::Complete {
                agent: "a".into(),
                shard: 0,
                epoch: 1,
                fence: 1,
                meta: Box::new(meta0),
            },
            0,
        );
        assert_eq!(r, Reply::Ok);
        assert!(evs.is_empty());
        assert_eq!(st.dup_completes, 1);
        // New grants start above every journaled fence.
        let (r, _) = st.handle(&Request::Lease { agent: "c".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        assert_eq!((shard, epoch), (1, 2));
        assert!(fence >= 4);
    }

    #[test]
    fn replay_rejects_a_journal_for_a_different_geometry_or_campaign() {
        let events = vec![CoordEvent::Start { epoch: 1, n_shards: 4 }];
        assert!(matches!(
            CoordState::replay(tiny_config(), 2, 1_000, false, events),
            Err(FarmError::Config(_))
        ));
        let mut other = tiny_config();
        other.n_programs += 1;
        let events = vec![CoordEvent::Done {
            shard: 0,
            epoch: 1,
            fence: 1,
            meta: Box::new(shard_meta(&other, 0, 2)),
        }];
        assert!(matches!(
            CoordState::replay(tiny_config(), 2, 1_000, false, events),
            Err(FarmError::Config(_))
        ));
    }

    #[test]
    fn draining_refuses_grants_but_still_accepts_completions() {
        let mut st = fresh(2);
        let (r, _) = st.handle(&Request::Lease { agent: "a".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        st.drain();
        let (r, _) = st.handle(&Request::Lease { agent: "b".into() }, 1);
        assert_eq!(r, Reply::Drain);
        let (r, _) = st.handle(&Request::Heartbeat { agent: "a".into(), shard, epoch, fence }, 2);
        assert_eq!(r, Reply::Drain, "keepalives also learn about the drain");
        let meta = shard_meta(&tiny_config(), 0, 2);
        let (r, _) = st.handle(
            &Request::Complete { agent: "a".into(), shard, epoch, fence, meta: Box::new(meta) },
            3,
        );
        assert_eq!(r, Reply::Ok, "in-flight work is never thrown away by a drain");
        assert_eq!(st.leased_count(), 0);
    }

    #[test]
    fn poison_message_quarantines_the_shard() {
        let mut st = fresh(1);
        let (r, _) = st.handle(&Request::Lease { agent: "a".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        let (r, evs) =
            st.handle(&Request::Poison { agent: "a".into(), shard, epoch, fence, crashes: 3 }, 1);
        assert_eq!(r, Reply::Ok);
        assert!(matches!(evs[0], CoordEvent::Poison { crashes: 3, .. }));
        assert!(st.all_settled());
        assert_eq!(st.poisoned_shards(), vec![0]);
        let (r, _) = st.handle(&Request::Lease { agent: "a".into() }, 2);
        assert_eq!(r, Reply::AllDone, "poisoned shards are settled, not re-leased");
    }

    #[test]
    fn leave_is_acked_and_journals_nothing() {
        let mut st = fresh(1);
        let (r, evs) = st.handle(&Request::Leave { agent: "a".into() }, 0);
        assert_eq!(r, Reply::Ok);
        assert!(evs.is_empty(), "a goodbye is not journaled");
        assert!(!st.finished(), "leaving settles no shard");
    }

    #[test]
    fn the_run_finishes_only_once_every_known_agent_has_left() {
        let config = tiny_config();
        // Before the restart "a" finished shard 0 and "b" was granted
        // shard 1; neither has said goodbye to this process.
        let events = vec![
            CoordEvent::Start { epoch: 1, n_shards: 2 },
            CoordEvent::Grant { shard: 0, epoch: 1, fence: 1, agent: "a".into() },
            CoordEvent::Done {
                shard: 0,
                epoch: 1,
                fence: 1,
                meta: Box::new(shard_meta(&config, 0, 2)),
            },
            CoordEvent::Grant { shard: 1, epoch: 1, fence: 2, agent: "b".into() },
        ];
        let mut st = CoordState::replay(config.clone(), 2, 1_000, false, events).unwrap();
        // "c" runs the last shard live.
        let (r, _) = st.handle(&Request::Lease { agent: "c".into() }, 0);
        let (shard, epoch, fence) = grant_of(r);
        let meta = Box::new(shard_meta(&config, shard, 2));
        let (r, _) =
            st.handle(&Request::Complete { agent: "c".into(), shard, epoch, fence, meta }, 1);
        assert_eq!(r, Reply::Ok);
        assert!(st.all_settled());
        assert!(!st.finished(), "no agent has left yet");
        let leave = |name: &str| Request::Leave { agent: name.into() };
        st.handle(&leave("c"), 2);
        assert!(!st.finished(), "the replayed grantees have not left");
        st.handle(&leave("a"), 3);
        assert!(!st.finished(), "b, named in a replayed grant, has not left");
        st.handle(&leave("b"), 4);
        assert!(st.finished(), "every known agent has left");
        // An agent that comes back must say goodbye again.
        let (r, _) = st.handle(&Request::Lease { agent: "a".into() }, 5);
        assert_eq!(r, Reply::AllDone);
        assert!(!st.finished(), "a is back at work");
        st.handle(&leave("a"), 6);
        assert!(st.finished());
    }

    #[test]
    fn serve_journals_the_bytes_handle_returns_and_the_same_merge() {
        let config = tiny_config();
        let dir = std::env::temp_dir().join(format!("fleet-coord-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path_serve, path_handle) = (dir.join("serve.journal"), dir.join("handle.journal"));
        let mut served = fresh(2);
        let mut handled = fresh(2);
        let mut j_serve = CoordJournal::create(&path_serve).unwrap();
        let mut j_handle = CoordJournal::create(&path_handle).unwrap();
        let mut exchange = |req: Request, now: u64| {
            let (reply, events) = handled.handle(&req, now);
            for ev in &events {
                j_handle.append(ev).unwrap();
            }
            let got = served.serve(req, now, Some(&mut j_serve)).unwrap();
            assert_eq!(got, reply);
            reply
        };
        for (k, agent) in ["a", "b"].into_iter().enumerate() {
            let (shard, epoch, fence) =
                grant_of(exchange(Request::Lease { agent: agent.into() }, 0));
            assert_eq!(shard, k);
            let meta = Box::new(shard_meta(&config, shard, 2));
            let complete = Request::Complete { agent: agent.into(), shard, epoch, fence, meta };
            assert_eq!(exchange(complete.clone(), 1), Reply::Ok);
            // a duplicate re-acks and journals nothing on either path
            assert_eq!(exchange(complete, 2), Reply::Ok);
        }
        let merged = served.merged().expect("both shards folded");
        assert!(Some(merged) == handled.merged());
        assert_eq!(j_serve.frames(), 4, "two grants, two completions");
        drop((j_serve, j_handle));
        let bytes = std::fs::read(&path_serve).unwrap();
        assert!(bytes == std::fs::read(&path_handle).unwrap(), "journals differ");
        let (_, events) = CoordJournal::open_for_resume(&path_serve).unwrap();
        let replayed = CoordState::replay(config, 2, 1_000, false, events).unwrap();
        assert!(replayed.merged() == Some(merged), "replay reproduces the merge");
        std::fs::remove_dir_all(&dir).ok();
    }

    type CoordRun = std::thread::JoinHandle<Result<CoordReport, FarmError>>;

    /// Run `cfg` on a thread; returns it with the address it published.
    fn spawn_coordinator(cfg: CoordConfig) -> (CoordRun, String) {
        let addr_path = coord_addr_path(&cfg.dir);
        let coord = std::thread::spawn(move || run_coordinator(&cfg));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match std::fs::read_to_string(&addr_path) {
                Ok(a) if !a.is_empty() => return (coord, a),
                _ => {}
            }
            assert!(Instant::now() < deadline, "coordinator never published its address");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The last goodbye ends the run without waiting out the 10 s poll,
    /// and the listener is closed by the time `run_coordinator` returns.
    #[test]
    fn the_address_is_free_again_the_moment_the_run_returns() {
        use crate::fleet::{FleetClient, NetChaosConfig};

        let dir = std::env::temp_dir().join(format!("fleet-coord-rebind-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = tiny_config();
        let mut cfg = CoordConfig::new(config.clone(), 1, "127.0.0.1:0", &dir);
        cfg.poll_ms = 10_000;
        let started = Instant::now();
        let (coord, addr) = spawn_coordinator(cfg);
        let mut client = FleetClient::new(addr.clone(), 2_000, NetChaosConfig::default());
        let lease = Request::Lease { agent: "a".into() };
        let (shard, epoch, fence) = grant_of(client.call(&lease).unwrap());
        let meta = Box::new(shard_meta(&config, shard, 1));
        let done = Request::Complete { agent: "a".into(), shard, epoch, fence, meta };
        assert_eq!(client.call(&done).unwrap(), Reply::Ok);
        assert_eq!(client.call(&lease).unwrap(), Reply::AllDone);
        assert_eq!(client.call(&Request::Leave { agent: "a".into() }).unwrap(), Reply::Ok);
        let report = coord.join().expect("no panic").expect("coordinator runs");
        let elapsed = started.elapsed();
        assert_eq!(report.shards_done, 1);
        TcpListener::bind(&addr).expect("the coordinator's address is free again");
        assert!(elapsed < Duration::from_secs(3), "the run waited out a poll: {elapsed:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_drained_coordinator_writes_merged_json_with_exactly_the_folded_shards() {
        use crate::fleet::{FleetClient, NetChaosConfig};

        let dir = std::env::temp_dir().join(format!("fleet-coord-drain-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = tiny_config();
        let mut cfg = CoordConfig::new(config.clone(), 2, "127.0.0.1:0", &dir);
        cfg.poll_ms = 5;
        let coord = std::thread::spawn(move || run_coordinator(&cfg));
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            match std::fs::read_to_string(coord_addr_path(&dir)) {
                Ok(a) if !a.is_empty() => break a,
                _ => {}
            }
            assert!(Instant::now() < deadline, "coordinator never published its address");
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut client = FleetClient::new(addr, 2_000, NetChaosConfig::default());
        let lease = Request::Lease { agent: "a".into() };

        // One shard finishes, the other is still held when the drain
        // starts.
        let (shard, epoch, fence) = grant_of(client.call(&lease).unwrap());
        let meta = shard_meta(&config, shard, 2);
        let done = Request::Complete {
            agent: "a".into(),
            shard,
            epoch,
            fence,
            meta: Box::new(meta.clone()),
        };
        assert_eq!(client.call(&done).unwrap(), Reply::Ok);
        let (shard, epoch, fence) = grant_of(client.call(&lease).unwrap());
        std::fs::write(farm_stop_path(&dir), b"drain").unwrap();
        let hb = Request::Heartbeat { agent: "a".into(), shard, epoch, fence };
        while client.call(&hb).unwrap() != Reply::Drain {
            assert!(Instant::now() < deadline, "the coordinator never noticed its stop file");
            std::thread::sleep(Duration::from_millis(5));
        }
        let release =
            Request::Release { agent: "a".into(), shard, epoch, fence, reason: "drain".into() };
        assert_eq!(client.call(&release).unwrap(), Reply::Ok);

        while !coord.is_finished() {
            assert!(Instant::now() < deadline, "drained coordinator failed to exit");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = coord.join().expect("no panic").expect("coordinator runs");
        assert!(report.drained);
        assert_eq!(report.shards_done, 1);
        let on_disk = CampaignMeta::load(&merged_path(&dir)).expect("merged.json written");
        assert!(report.merged.as_ref() == Some(&on_disk), "merged.json is the report's merge");
        assert!(on_disk == meta, "merged.json holds exactly the one finished shard");
        std::fs::remove_dir_all(&dir).ok();
    }
}
