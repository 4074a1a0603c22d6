//! Crash-safe campaign persistence and the fault-tolerant runner.
//!
//! A campaign at paper scale (Tables IV–X: tens of thousands of runs) is
//! a long-lived batch job. This module makes it killable at any instant:
//!
//! * [`atomic_write`] — temp file + fsync + rename in the destination
//!   directory, so a reader never observes a half-written file.
//! * [`FramedLog`] — a generic append-only log of [`encode_frame`]d
//!   payloads behind an 8-byte magic: the durability substrate shared
//!   by the checkpoint journal below and `farm`'s coordinator journal
//!   (and, frame-wise, the fleet wire protocol).
//! * [`Journal`] — an append-only checkpoint journal of CRC-framed
//!   [`UnitRecord`]s, one per completed (test, toolchain, level) work
//!   unit, each a compact binary `VGJRNL03` payload ([`crate::codec`])
//!   carrying the unit's results, faults and exact telemetry delta.
//!   Appends are write-through (no user-space buffering), so a `SIGKILL`
//!   between any two syscalls loses at most the record being written —
//!   and the CRC framing drops that torn tail on replay instead of
//!   failing. Older JSON journals (`VGJRNL01`, `VGJRNL02`) still resume:
//!   their valid prefix is rewritten as v3 before anything is appended.
//! * [`FtSession`] + [`run_sides_ft`] — the fault-tolerant, test-major
//!   runner: build each test once for every requested side, skip
//!   journal-replayed units, isolate each unit with
//!   [`crate::fault::catch_isolated`], capture the unit's exact metric
//!   deltas (so a resumed campaign's telemetry matches an uninterrupted
//!   run), enforce a `--max-faults` circuit breaker, and honour the
//!   cooperative shutdown flag between units.
//!
//! Work units are keyed by `(test index, [`SideKey`])`, and campaigns
//! are deterministic in their config, so replay + re-run of the
//! remaining units reproduces the uninterrupted campaign byte-for-byte —
//! the resume-equivalence property `tests/chaos.rs` proves under
//! injected crashes.

use crate::campaign::CampaignConfig;
use crate::codec::Names;
use crate::fault::{self, TestFault};
use crate::metadata::{campaign_devices, run_unit, CampaignMeta, MetaError, RunRecord, TestBuild};
use crate::side::{Side, SideKey};
use gpucc::ExecTier;
use progen::gen::generate_program;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Journal file magic written by this version: identifies the format
/// and its semantic version. v3 keeps v1/v2's CRC framing, but each
/// frame's payload is the binary unit record of [`crate::codec`]: a
/// varint test index, a one-byte side key, compact results and faults,
/// and the unit's telemetry as journal-local `(id, value)` pairs, with
/// each metric name defined in the frame that first uses it.
pub const JOURNAL_MAGIC: &[u8; 8] = b"VGJRNL03";

/// The v2 magic: JSON [`UnitRecord`] payloads, which may carry the
/// `"reference:O0"` ground-truth side alongside the vendor sides. Still
/// read; [`Journal::open_for_resume`] rewrites such a journal as v3.
pub const JOURNAL_MAGIC_V2: &[u8; 8] = b"VGJRNL02";

/// The v1 magic. Journals written before the reference side existed
/// still parse — their JSON side keys are a strict subset of v2's — so a
/// two-side campaign checkpointed under v1 resumes unchanged.
pub const JOURNAL_MAGIC_V1: &[u8; 8] = b"VGJRNL01";

/// Bounded retry count for one journal append (covers transient
/// ENOSPC-style failures; each retry truncates any partial write first).
const MAX_APPEND_ATTEMPTS: u32 = 4;

/// Base backoff between append retries (multiplied by the attempt number).
const APPEND_BACKOFF_MS: u64 = 5;

/// IEEE CRC-32 lookup table (polynomial 0xEDB88320), built at compile
/// time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// IEEE CRC-32 of `bytes` (the checksum framing every journal record).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: a uniquely named temp file in the
/// destination directory, `fsync`, then `rename` over the target (and a
/// best-effort directory fsync so the rename itself is durable). A
/// reader — or a crash at any instant — sees either the old file or the
/// complete new one, never a torn mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// One completed work unit: every input of one test, run on one
/// `(toolchain, level)` side. The journal's unit of progress — and of
/// loss: a crash forfeits at most the unit being written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Generation index of the test.
    pub index: u64,
    /// The side key this unit ran (serialized as the `"{side}:{level}"`
    /// string, wire-identical to the v1 journal's free-form field).
    pub side: SideKey,
    /// Results, one per input (error records for contained faults).
    pub records: Vec<RunRecord>,
    /// Faults contained while running this unit (quarantine source).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub faults: Vec<TestFault>,
    /// Exact telemetry deltas this unit produced, captured via
    /// `obs::with_capture`. Replaying them on resume makes a resumed
    /// campaign's metric totals match an uninterrupted run.
    #[serde(default, skip_serializing_if = "obs::MetricsSnapshot::is_empty")]
    pub metrics: obs::MetricsSnapshot,
}

/// Encode one payload as a CRC frame:
/// `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`. The framing
/// shared by checkpoint journals, the farm coordinator's journal, and
/// the fleet wire protocol.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Try to split one frame off the front of `bytes`. Returns the payload
/// and the total frame length consumed, or `None` when the bytes are
/// short, torn, or fail the CRC — callers treat that as "no (more)
/// valid frames here", never as a panic.
pub fn decode_frame(bytes: &[u8]) -> Option<(&[u8], usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let payload = bytes.get(8..8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    Some((payload, 8 + len))
}

struct LogInner {
    file: File,
    offset: u64,
}

/// A generic append-only, CRC-framed byte log: an 8-byte magic, then
/// [`encode_frame`]d payloads. Appends go straight to the OS (no
/// `BufWriter`), so they survive a process kill at any instant; a
/// machine-level crash can lose or tear only the final frame, which
/// replay detects by CRC and drops. [`Journal`] layers campaign
/// [`UnitRecord`]s on top; `farm`'s coordinator journal layers lease
/// state transitions on top — same durability contract, different
/// payloads and magic.
pub struct FramedLog {
    path: PathBuf,
    inner: Mutex<LogInner>,
}

impl FramedLog {
    /// Create (or truncate) a log at `path`, stamped with `magic`.
    pub fn create(path: &Path, magic: &[u8; 8]) -> io::Result<FramedLog> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(magic)?;
        file.sync_data()?;
        Ok(FramedLog::at(path, file, magic.len() as u64))
    }

    fn at(path: &Path, file: File, offset: u64) -> FramedLog {
        FramedLog { path: path.to_path_buf(), inner: Mutex::new(LogInner { file, offset }) }
    }

    /// Open an existing log, replaying its valid prefix. The file must
    /// start with one of the `accept`ed magics (a missing or wrong magic
    /// is a real error). `decode` sees the file's magic and each frame's
    /// payload in order, and returns the decoded value — each payload is
    /// decoded exactly once. Scanning stops at the first short, torn, or
    /// CRC-mismatched frame — or at the first frame `decode` rejects with
    /// `None` — and that tail is physically truncated away so subsequent
    /// appends extend a clean file. Returns the log positioned for
    /// appending, the file's magic, and the decoded frames.
    pub fn open_for_resume<T>(
        path: &Path,
        accept: &[&[u8; 8]],
        mut decode: impl FnMut(&[u8; 8], &[u8]) -> Option<T>,
    ) -> io::Result<(FramedLog, [u8; 8], Vec<T>)> {
        let bytes = std::fs::read(path)?;
        let magic = match bytes.first_chunk::<8>() {
            Some(m) if accept.contains(&m) => *m,
            _ => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "not a checkpoint journal"))
            }
        };
        let mut frames = Vec::new();
        let mut pos = magic.len();
        while let Some((payload, consumed)) = decode_frame(&bytes[pos..]) {
            let Some(frame) = decode(&magic, payload) else { break };
            frames.push(frame);
            pos += consumed;
        }
        let valid_end = pos as u64;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_end)?;
        file.seek(SeekFrom::Start(valid_end))?;
        Ok((FramedLog::at(path, file, valid_end), magic, frames))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current length of the valid log in bytes (magic + appended
    /// frames) — the journal-growth watermark heartbeats watch.
    pub fn len(&self) -> u64 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).offset
    }

    /// Whether the log holds no frames yet.
    pub fn is_empty(&self) -> bool {
        // An empty log still carries its 8-byte magic.
        self.len() <= 8
    }

    /// Append one payload as a CRC frame, with bounded retry + backoff
    /// on I/O errors. Each failed attempt truncates back to the frame
    /// start, so a partial write from a transient error (ENOSPC and
    /// friends) never corrupts the log.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        static APPENDS: obs::Name = obs::Name::new("checkpoint.appends");
        let frame = encode_frame(payload);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let start = inner.offset;
        let mut attempt = 0u32;
        loop {
            match write_frame(&mut inner, &frame) {
                Ok(()) => {
                    inner.offset = start + frame.len() as u64;
                    APPENDS.add(1);
                    return Ok(());
                }
                Err(e) => {
                    attempt += 1;
                    obs::add("checkpoint.append_retries", 1);
                    let _ = inner.file.set_len(start);
                    let _ = inner.file.seek(SeekFrom::Start(start));
                    if attempt >= MAX_APPEND_ATTEMPTS {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(
                        u64::from(attempt) * APPEND_BACKOFF_MS,
                    ));
                }
            }
        }
    }

    /// Flush log contents to stable storage (graceful shutdown and
    /// side completion; individual appends rely on write-through).
    pub fn sync(&self) -> io::Result<()> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).file.sync_data()
    }
}

/// Append-only, CRC-framed checkpoint journal of [`UnitRecord`]s: a
/// [`FramedLog`] under [`JOURNAL_MAGIC`] whose payloads are binary unit
/// records ([`crate::codec`]), plus the journal-local metric-name table
/// those records index into.
pub struct Journal {
    log: FramedLog,
    writer: Mutex<Writer>,
}

/// The append side's state: the name table every frame so far defined,
/// and the payload buffer it encodes into.
#[derive(Default)]
struct Writer {
    names: Names,
    payload: Vec<u8>,
}

impl Journal {
    /// Create (or truncate) a journal at `path`. It holds only the
    /// 8-byte magic until the first unit lands.
    pub fn create(path: &Path) -> io::Result<Journal> {
        let log = FramedLog::create(path, JOURNAL_MAGIC)?;
        Ok(Journal { log, writer: Mutex::default() })
    }

    /// Open an existing journal, replaying its valid prefix. The torn or
    /// corrupt tail (if any) is physically truncated away so subsequent
    /// appends extend a clean file. Returns the journal positioned for
    /// appending plus the replayed records. A frame that passes its CRC
    /// but fails to decode as a [`UnitRecord`] also stops the scan (those
    /// units simply re-run); a missing or wrong magic is a real error.
    ///
    /// A v1 or v2 (JSON) journal's valid prefix is rewritten as v3 with
    /// [`atomic_write`] before this returns, so no file mixes encodings:
    /// a crash mid-rewrite leaves the old journal, which the next resume
    /// migrates again.
    pub fn open_for_resume(path: &Path) -> io::Result<(Journal, Vec<UnitRecord>)> {
        let mut names = Names::default();
        let (log, magic, units) = FramedLog::open_for_resume(
            path,
            &[JOURNAL_MAGIC, JOURNAL_MAGIC_V2, JOURNAL_MAGIC_V1],
            |magic, p| match magic {
                JOURNAL_MAGIC => names.decode(p),
                _ => serde_json::from_slice::<UnitRecord>(p).ok(),
            },
        )?;
        if &magic == JOURNAL_MAGIC {
            let writer = Mutex::new(Writer { names, payload: Vec::new() });
            return Ok((Journal { log, writer }, units));
        }
        drop(log);
        let mut writer = Writer::default();
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for unit in &units {
            writer.payload.clear();
            writer.names.encode(unit, &mut writer.payload);
            bytes.extend_from_slice(&encode_frame(&writer.payload));
        }
        atomic_write(path, &bytes)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let end = file.seek(SeekFrom::End(0))?;
        let log = FramedLog::at(path, file, end);
        Ok((Journal { log, writer: Mutex::new(writer) }, units))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Append one unit record, with bounded retry + backoff on I/O
    /// errors. Each failed attempt truncates back to the frame start, so
    /// a partial write from a transient error (ENOSPC and friends) never
    /// corrupts the journal; the metric names a failed frame would have
    /// defined are defined again by the next frame that uses them.
    pub fn append(&self, unit: &UnitRecord) -> io::Result<()> {
        let mut guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let Writer { names, payload } = &mut *guard;
        let defined = names.len();
        payload.clear();
        names.encode(unit, payload);
        let result = self.log.append(payload);
        if result.is_err() {
            names.truncate(defined);
        }
        result
    }

    /// Flush journal contents to stable storage (graceful shutdown and
    /// side completion; individual appends rely on write-through).
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }
}

fn write_frame(inner: &mut LogInner, frame: &[u8]) -> io::Result<()> {
    #[cfg(feature = "chaos")]
    match crate::chaos::next_journal_fault() {
        Some(crate::chaos::JournalFault::IoError) => {
            return Err(io::Error::other("chaos: injected ENOSPC"));
        }
        Some(crate::chaos::JournalFault::PartialThenError) => {
            inner.file.write_all(&frame[..frame.len() / 2])?;
            return Err(io::Error::other("chaos: injected torn write"));
        }
        Some(crate::chaos::JournalFault::Crash) => {
            inner.file.write_all(frame)?;
            panic!("chaos: simulated crash after journal append");
        }
        Some(crate::chaos::JournalFault::CrashTorn) => {
            inner.file.write_all(&frame[..frame.len() / 2])?;
            panic!("chaos: simulated crash mid-append");
        }
        None => {}
    }
    inner.file.write_all(frame)
}

/// Which slice of a campaign a checkpoint covers: shard `index` of
/// `count`, i.e. the tests whose generation index is ≡ `index` (mod
/// `count`) — the subset [`CampaignMeta::generate_shard`] regenerates.
/// Persisted as `shard.json` in the checkpoint directory so `--resume`
/// re-runs exactly the same subset; the farm supervisor writes it once
/// when it creates a lease's checkpoint and every worker (first spawn or
/// respawn) just resumes the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Shard index in `0..count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl std::str::FromStr for ShardSpec {
    type Err = String;

    /// Parse the CLI's `K/N` form (`--shard 3/8`).
    fn from_str(s: &str) -> Result<ShardSpec, String> {
        let err = || format!("bad shard spec {s:?} (use K/N, e.g. 3/8)");
        let (k, n) = s.split_once('/').ok_or_else(err)?;
        let spec = ShardSpec {
            index: k.trim().parse().map_err(|_| err())?,
            count: n.trim().parse().map_err(|_| err())?,
        };
        if spec.count == 0 || spec.index >= spec.count {
            return Err(format!("shard index must satisfy K < N, got {spec}"));
        }
        Ok(spec)
    }
}

/// A checkpoint directory: the campaign config (written atomically at
/// creation), the journal, and — for farm leases — the `shard.json`
/// spec naming the campaign slice this directory owns.
/// `quarantine.jsonl` is derived data the CLI writes next to them when
/// the campaign finishes or stops, and a `stop` file dropped in the
/// directory asks the running worker to drain at the next unit boundary.
pub struct Checkpoint {
    dir: PathBuf,
    journal: Journal,
    shard: Option<ShardSpec>,
}

impl Checkpoint {
    /// Path of the config file inside a checkpoint directory.
    pub fn config_path(dir: &Path) -> PathBuf {
        dir.join("config.json")
    }

    /// Path of the journal inside a checkpoint directory.
    pub fn journal_path(dir: &Path) -> PathBuf {
        dir.join("journal.bin")
    }

    /// Path of the quarantine log inside a checkpoint directory.
    pub fn quarantine_path(dir: &Path) -> PathBuf {
        dir.join("quarantine.jsonl")
    }

    /// Path of the shard spec inside a checkpoint directory.
    pub fn shard_path(dir: &Path) -> PathBuf {
        dir.join("shard.json")
    }

    /// Path of the cooperative stop file inside a checkpoint directory.
    /// Creating it asks the worker running this checkpoint to stop at
    /// the next unit boundary, flush, and exit as interrupted — drain
    /// without signals.
    pub fn stop_path(dir: &Path) -> PathBuf {
        dir.join("stop")
    }

    /// Start a fresh checkpoint: create the directory, persist the
    /// config atomically, and truncate the journal.
    pub fn create(dir: &Path, config: &CampaignConfig) -> Result<Checkpoint, MetaError> {
        Self::create_sharded(dir, config, None)
    }

    /// Start a fresh checkpoint covering one shard of the campaign (or
    /// all of it when `shard` is `None`). Clears any stale `stop` file
    /// so a directory recycled from a drained run starts live.
    pub fn create_sharded(
        dir: &Path,
        config: &CampaignConfig,
        shard: Option<ShardSpec>,
    ) -> Result<Checkpoint, MetaError> {
        std::fs::create_dir_all(dir).map_err(meta_io)?;
        let json = serde_json::to_vec_pretty(config).map_err(meta_io)?;
        atomic_write(&Self::config_path(dir), &json).map_err(meta_io)?;
        if let Some(spec) = &shard {
            let spec_json = serde_json::to_vec_pretty(spec).map_err(meta_io)?;
            atomic_write(&Self::shard_path(dir), &spec_json).map_err(meta_io)?;
        }
        std::fs::remove_file(Self::stop_path(dir)).ok();
        let journal = Journal::create(&Self::journal_path(dir)).map_err(meta_io)?;
        Ok(Checkpoint { dir: dir.to_path_buf(), journal, shard })
    }

    /// Reopen a checkpoint directory: load the config (and the shard
    /// spec, if this checkpoint covers one) and replay the journal's
    /// valid prefix.
    pub fn resume(dir: &Path) -> Result<(Checkpoint, CampaignConfig, Vec<UnitRecord>), MetaError> {
        let json = std::fs::read_to_string(Self::config_path(dir)).map_err(meta_io)?;
        let config: CampaignConfig = serde_json::from_str(&json).map_err(meta_io)?;
        let shard = match std::fs::read_to_string(Self::shard_path(dir)) {
            Ok(s) => Some(serde_json::from_str(&s).map_err(meta_io)?),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(meta_io(e)),
        };
        let (journal, units) =
            Journal::open_for_resume(&Self::journal_path(dir)).map_err(meta_io)?;
        Ok((Checkpoint { dir: dir.to_path_buf(), journal, shard }, config, units))
    }

    /// The checkpoint's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint's journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The campaign slice this checkpoint covers (`None` = the whole
    /// campaign).
    pub fn shard_spec(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Take ownership of the journal (to hand to an [`FtSession`]).
    pub fn into_journal(self) -> Journal {
        self.journal
    }
}

fn meta_io(e: impl std::fmt::Display) -> MetaError {
    MetaError::Io(e.to_string())
}

/// How a fault-tolerant run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtStatus {
    /// Every unit ran (possibly with quarantined faults).
    Complete,
    /// The `--max-faults` circuit breaker tripped; remaining units were
    /// skipped.
    FaultLimit,
    /// A graceful shutdown was requested; completed units are
    /// checkpointed and the campaign can be resumed.
    Interrupted,
    /// The journal hit an unrecoverable I/O error (after bounded
    /// retries).
    IoError(String),
}

/// Shared state of one fault-tolerant campaign run (both sides): the
/// optional journal, the set of units already replayed from it, the
/// fault ledger, and the circuit breaker.
pub struct FtSession {
    journal: Option<Journal>,
    skip: HashSet<(u64, SideKey)>,
    max_faults: Option<u64>,
    heed_shutdown: bool,
    stop_file: Option<PathBuf>,
    faults: Mutex<Vec<TestFault>>,
    tripped: AtomicBool,
    io_error: OnceLock<String>,
}

impl FtSession {
    /// A session with a journal (checkpointing) and/or a fault cap.
    /// `max_faults` is the number of faults *tolerated*: `Some(0)` trips
    /// the breaker on the first fault. Sessions built this way honour
    /// the process-global shutdown flag between units.
    pub fn new(journal: Option<Journal>, max_faults: Option<u64>) -> FtSession {
        FtSession {
            journal,
            skip: HashSet::new(),
            max_faults,
            heed_shutdown: true,
            stop_file: None,
            faults: Mutex::new(Vec::new()),
            tripped: AtomicBool::new(false),
            io_error: OnceLock::new(),
        }
    }

    /// Also watch a stop file: when `path` comes into existence the
    /// session behaves exactly as if a graceful shutdown were requested
    /// — workers stop at the next unit boundary, the checkpoint is
    /// flushed, and the run reports [`FtStatus::Interrupted`]. This is
    /// how a farm supervisor drains worker *processes* it cannot (or
    /// chooses not to) signal: it drops [`Checkpoint::stop_path`] into
    /// the lease's checkpoint directory.
    pub fn with_stop_file(mut self, path: PathBuf) -> FtSession {
        self.stop_file = Some(path);
        self
    }

    /// A plain session: no journal, no skip set, no fault cap, and deaf
    /// to the global shutdown flag (so concurrent library users can't
    /// interrupt each other). Library callers of [`run_sides_ft`] use
    /// it — isolation and quarantine accounting always on, persistence
    /// opt-in.
    pub fn plain() -> FtSession {
        FtSession { heed_shutdown: false, ..FtSession::new(None, None) }
    }

    /// Whether the session's stop file exists (checked between units,
    /// alongside the global shutdown flag).
    fn stop_file_present(&self) -> bool {
        self.stop_file.as_deref().is_some_and(|p| p.exists())
    }

    /// Apply journal-replayed units to the regenerated campaign: store
    /// their results, mark them skipped, adopt their faults, and fold
    /// their telemetry into the global metrics (when telemetry is on).
    /// Duplicate `(index, side)` units — possible when a dropped tail
    /// was re-run before a second crash — are applied once.
    pub fn apply_replay(&mut self, meta: &mut CampaignMeta, units: Vec<UnitRecord>) {
        for unit in units {
            if !self.skip.insert((unit.index, unit.side)) {
                continue;
            }
            let test = match meta.tests.get_mut(unit.index as usize) {
                Some(t) if t.index == unit.index => Some(t),
                _ => meta.tests.iter_mut().find(|t| t.index == unit.index),
            };
            let Some(test) = test else { continue };
            test.results.insert(unit.side.to_string(), unit.records);
            self.faults.lock().unwrap_or_else(PoisonError::into_inner).extend(unit.faults);
            if obs::enabled() && !unit.metrics.is_empty() {
                obs::global().merge_snapshot(&unit.metrics);
            }
        }
    }

    /// Number of units already replayed from the journal.
    pub fn replayed(&self) -> usize {
        self.skip.len()
    }

    /// All faults seen so far (replayed + contained this run).
    pub fn faults(&self) -> Vec<TestFault> {
        self.faults.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Whether the fault circuit breaker tripped.
    pub fn fault_limit_hit(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// How this session would report its run so far.
    pub fn status(&self) -> FtStatus {
        if let Some(e) = self.io_error.get() {
            return FtStatus::IoError(e.clone());
        }
        if self.fault_limit_hit() {
            return FtStatus::FaultLimit;
        }
        if (self.heed_shutdown && fault::shutdown_requested()) || self.stop_file_present() {
            return FtStatus::Interrupted;
        }
        FtStatus::Complete
    }

    /// The session's journal, if checkpointing.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    fn stopped(&self) -> bool {
        self.fault_limit_hit() || self.io_error.get().is_some()
    }

    fn register_fault(&self, fault: TestFault) {
        let count = {
            let mut v = self.faults.lock().unwrap_or_else(PoisonError::into_inner);
            v.push(fault);
            v.len() as u64
        };
        if let Some(max) = self.max_faults {
            if count > max && !self.tripped.swap(true, Ordering::SeqCst) {
                obs::add("campaign.fault_limit_tripped", 1);
            }
        }
    }

    fn record_io_error(&self, e: &io::Error) {
        let _ = self.io_error.set(e.to_string());
    }
}

/// Execute `sides` of a campaign fault-tolerantly, test-major: per-unit
/// isolation and quarantine, journal checkpointing, metric capture,
/// circuit breaker, and cooperative shutdown. Units already in the
/// session's skip set (journal replay) are not re-run — and because
/// campaigns are deterministic in their config, the final metadata is
/// identical to an uninterrupted run's.
///
/// Each test's program is generated here, once (set-up drew its inputs
/// from the program's header), and every requested `(side, level)` unit
/// runs from one [`crate::metadata::TestBuild`]: the generated program
/// compiled as it is wherever no translator rewrites its source, one
/// CUDA emission, HIPIFY and parse for a hipified campaign's hipcc
/// side (and, on the differential tier, one round-trip check per
/// toolchain that compiles the generated program), one compile per
/// pass schedule, executables derived only as `tier` needs them, one
/// execution per class of levels whose kernels run alike (a later
/// level copies an error-free run's records, and is still journaled as
/// its own unit), and the ground truth ([`Side::Reference`], one
/// `"reference:O0"` unit per test) evaluated on nvcc's O0 build. Sides
/// run in the canonical nvcc–hipcc–reference order within a test,
/// whatever order `sides` lists them in; units are still journaled one
/// per `(test, SideKey)`.
///
/// The tier is a *runtime* selection, deliberately not part of
/// [`CampaignConfig`]: configs are identity (merges compare them,
/// checkpoints persist them), and because the vm tier is bit-identical
/// to the interpreter — including `ExecError` display strings — the
/// same checkpoint can be started under one tier and resumed under
/// another, or replayed into a byte-identical report either way.
pub fn run_sides_ft(
    meta: &mut CampaignMeta,
    sides: &[Side],
    session: &FtSession,
    tier: ExecTier,
) -> FtStatus {
    static RUN: obs::SpanName = obs::SpanName::new("campaign.run");
    let _span = RUN.start().attr("tier", tier.label());
    let config = meta.config.clone();
    let sides: Vec<Side> = Side::ALL.into_iter().filter(|s| sides.contains(s)).collect();
    // every unit a test owes, in canonical side order
    let keys: Vec<SideKey> = sides
        .iter()
        .flat_map(|&side| match side {
            Side::Reference => vec![SideKey::REFERENCE],
            vendor => config.levels.iter().map(|&l| SideKey::new(vendor, l)).collect(),
        })
        .collect();
    let devices = campaign_devices(&config);
    let halted = || {
        session.stopped()
            || (session.heed_shutdown && fault::shutdown_requested())
            || session.stop_file_present()
    };
    crate::par::map(&mut meta.tests, |test| {
        if halted() {
            return;
        }
        let needed: Vec<SideKey> = keys
            .iter()
            .copied()
            .filter(|key| !session.skip.contains(&(test.index, *key)))
            .collect();
        if needed.is_empty() {
            return;
        }
        // Capture the generation delta too and ride it on the test's
        // first journaled unit: a resume that replays the whole test
        // never regenerates, yet its metric totals must still match an
        // uninterrupted run's. (A partially replayed test regenerates —
        // genuinely re-done work, counted again.)
        let (program, gen_delta) =
            obs::with_capture(|| generate_program(&config.gen, config.seed, test.index));
        let mut gen_delta = Some(gen_delta);
        let mut build = TestBuild::new(&program, config.mode, tier);
        for key in needed {
            if halted() {
                return;
            }
            let ((records, fault_rec), mut unit_metrics) =
                obs::with_capture(|| run_unit(&config, &devices, test, &mut build, key));
            if let Some(g) = gen_delta.take() {
                unit_metrics.merge(&g);
            }
            let unit = UnitRecord {
                index: test.index,
                side: key,
                records,
                faults: fault_rec.clone().into_iter().collect(),
                metrics: unit_metrics,
            };
            if let Some(journal) = &session.journal {
                if let Err(e) = journal.append(&unit) {
                    session.record_io_error(&e);
                    return;
                }
            }
            test.results.insert(key.to_string(), unit.records);
            if let Some(f) = fault_rec {
                session.register_fault(f);
            }
        }
    });
    let status = session.status();
    if status == FtStatus::Complete {
        for side in sides {
            mark_side_run(meta, side);
        }
        if let Some(journal) = &session.journal {
            let _ = journal.sync();
        }
    }
    status
}

/// Record that `side` finished, keeping `sides_run` in the canonical
/// (vendors-first) order so single-process runs match farm merges
/// byte-for-byte regardless of which side completed first.
fn mark_side_run(meta: &mut CampaignMeta, side: Side) {
    if !meta.sides_run.contains(&side) {
        meta.sides_run.push(side);
        meta.sides_run.sort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpucc::pipeline::OptLevel;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn atomic_write_replaces_content() {
        let dir = std::env::temp_dir().join("difftest_atomic_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        // no temp files left behind
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "leftover temp files: {stray:?}");
        std::fs::remove_file(&path).ok();
    }

    fn unit(index: u64, side: &str) -> UnitRecord {
        UnitRecord {
            index,
            side: side.parse().unwrap(),
            records: vec![RunRecord {
                bits: index ^ 0xDEAD,
                outcome: fpcore::classify::Outcome::Num,
                printed: format!("v{index}"),
                exceptions: fpcore::exceptions::ExceptionFlags::new(),
                error: None,
            }],
            faults: Vec::new(),
            metrics: obs::MetricsSnapshot::default(),
        }
    }

    #[test]
    fn journal_roundtrips_records() {
        let dir = std::env::temp_dir().join("difftest_journal_roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let j = Journal::create(&path).unwrap();
        for i in 0..5 {
            j.append(&unit(i, "nvcc:O0")).unwrap();
        }
        drop(j);
        let (_j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units.len(), 5);
        assert_eq!(units[3], unit(3, "nvcc:O0"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_drops_torn_tail_and_appends_cleanly_after() {
        let dir = std::env::temp_dir().join("difftest_journal_torn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let j = Journal::create(&path).unwrap();
        j.append(&unit(0, "nvcc:O0")).unwrap();
        j.append(&unit(1, "nvcc:O0")).unwrap();
        drop(j);
        // tear the file mid-way through the second record
        let full = std::fs::read(&path).unwrap();
        let torn_len = full.len() - 7;
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(torn_len as u64).unwrap();
        drop(f);
        let (j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units.len(), 1, "torn tail record must be dropped, not fatal");
        assert_eq!(units[0].index, 0);
        // the torn bytes were truncated away; appending resumes cleanly
        j.append(&unit(1, "nvcc:O0")).unwrap();
        j.append(&unit(2, "nvcc:O0")).unwrap();
        drop(j);
        let (_j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units.iter().map(|u| u.index).collect::<Vec<_>>(), vec![0, 1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_rejects_corrupt_crc_tail_but_keeps_prefix() {
        let dir = std::env::temp_dir().join("difftest_journal_crc");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let j = Journal::create(&path).unwrap();
        j.append(&unit(0, "hipcc:O3")).unwrap();
        j.append(&unit(1, "hipcc:O3")).unwrap();
        drop(j);
        // flip one byte in the last record's payload
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units.len(), 1, "CRC-mismatched tail must be dropped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_codec_roundtrips_and_rejects_torn_or_corrupt_bytes() {
        let frame = encode_frame(b"hello, frame");
        let (payload, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(payload, b"hello, frame");
        assert_eq!(consumed, frame.len());
        // every possible truncation is rejected, never a panic
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_none(), "torn at {cut}");
        }
        // a flipped payload byte fails the CRC
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(decode_frame(&bad).is_none());
        // trailing garbage after a valid frame is not this frame's problem
        let mut two = frame.clone();
        two.extend_from_slice(b"\xFF\xFF\xFF");
        assert_eq!(decode_frame(&two).unwrap().1, frame.len());
    }

    #[test]
    fn framed_log_roundtrips_under_a_custom_magic_and_drops_torn_tails() {
        const MAGIC: &[u8; 8] = b"VGTEST01";
        let dir = std::env::temp_dir().join("difftest_framed_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let log = FramedLog::create(&path, MAGIC).unwrap();
        assert!(log.is_empty());
        log.append(b"alpha").unwrap();
        log.append(b"beta").unwrap();
        let len = log.len();
        assert_eq!(len, 8 + (8 + 5) + (8 + 4));
        drop(log);
        // tear the file mid-way through the second frame
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (log, magic, payloads) =
            FramedLog::open_for_resume(&path, &[MAGIC], |_, p| Some(p.to_vec())).unwrap();
        assert_eq!(&magic, MAGIC);
        assert_eq!(payloads, vec![b"alpha".to_vec()]);
        log.append(b"gamma").unwrap();
        drop(log);
        // a validator rejection also stops the scan and truncates
        let (log, _, payloads) =
            FramedLog::open_for_resume(&path, &[MAGIC], |_, p| (p != b"gamma").then(|| p.to_vec()))
                .unwrap();
        assert_eq!(payloads, vec![b"alpha".to_vec()]);
        assert_eq!(log.len(), 8 + (8 + 5));
        drop(log);
        // the wrong magic is a hard error
        assert!(FramedLog::open_for_resume(&path, &[b"VGOTHER1"], |_, _| Some(())).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn framed_log_keeps_appending_after_a_panic_poisons_its_lock() {
        // the chaos `Crash` fault panics while holding the log's lock;
        // the rest of the campaign must keep appending
        let dir = std::env::temp_dir().join("difftest_framed_log_poison");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.bin");
        let log = FramedLog::create(&path, JOURNAL_MAGIC).unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = log.inner.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poison the log lock");
        }));
        assert!(caught.is_err());
        assert!(log.inner.is_poisoned());
        log.append(b"after").unwrap();
        assert_eq!(log.len(), 8 + (8 + 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_rejects_bad_magic() {
        let dir = std::env::temp_dir().join("difftest_journal_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        std::fs::write(&path, b"garbage-not-a-journal").unwrap();
        assert!(Journal::open_for_resume(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_dir_create_resume_roundtrip() {
        use progen::ast::Precision;
        let config = CampaignConfig::default_for(Precision::F64, crate::campaign::TestMode::Direct)
            .with_programs(2);
        let dir = std::env::temp_dir().join("difftest_checkpoint_dir_test");
        std::fs::remove_dir_all(&dir).ok();
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        assert_eq!(ckpt.shard_spec(), None);
        ckpt.journal().append(&unit(0, "nvcc:O0")).unwrap();
        drop(ckpt);
        let (ckpt, back, units) = Checkpoint::resume(&dir).unwrap();
        assert_eq!(back, config);
        assert_eq!(units.len(), 1);
        assert_eq!(ckpt.shard_spec(), None, "no shard.json means a whole-campaign checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_spec_parses_and_rejects_malformed_input() {
        use std::str::FromStr;
        assert_eq!(ShardSpec::from_str("3/8").unwrap(), ShardSpec { index: 3, count: 8 });
        assert_eq!(ShardSpec::from_str("0/1").unwrap().to_string(), "0/1");
        for bad in ["", "3", "3/", "/8", "8/3", "3/3", "a/b", "3/0"] {
            assert!(ShardSpec::from_str(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn sharded_checkpoint_persists_its_spec_across_resume() {
        use progen::ast::Precision;
        let config = CampaignConfig::default_for(Precision::F64, crate::campaign::TestMode::Direct)
            .with_programs(6);
        let dir = std::env::temp_dir().join("difftest_checkpoint_shard_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = ShardSpec { index: 2, count: 3 };
        let ckpt = Checkpoint::create_sharded(&dir, &config, Some(spec)).unwrap();
        assert_eq!(ckpt.shard_spec(), Some(spec));
        drop(ckpt);
        let (ckpt, back, units) = Checkpoint::resume(&dir).unwrap();
        assert_eq!(back, config);
        assert!(units.is_empty());
        assert_eq!(ckpt.shard_spec(), Some(spec), "shard.json must survive resume");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_sharded_clears_a_stale_stop_file() {
        use progen::ast::Precision;
        let config = CampaignConfig::default_for(Precision::F64, crate::campaign::TestMode::Direct)
            .with_programs(2);
        let dir = std::env::temp_dir().join("difftest_checkpoint_stale_stop");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(Checkpoint::stop_path(&dir), b"").unwrap();
        let _ckpt = Checkpoint::create(&dir, &config).unwrap();
        assert!(!Checkpoint::stop_path(&dir).exists(), "fresh checkpoints must start live");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stop_file_drains_the_session_at_a_unit_boundary() {
        use progen::ast::Precision;
        let config = CampaignConfig::default_for(Precision::F64, crate::campaign::TestMode::Direct)
            .with_programs(3);
        let dir = std::env::temp_dir().join("difftest_stop_file_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let stop = Checkpoint::stop_path(&dir);

        // stop file absent: the run completes
        let session = FtSession::plain().with_stop_file(stop.clone());
        let mut meta = CampaignMeta::generate(&config);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Nvcc], &session, ExecTier::Interp),
            FtStatus::Complete
        );

        // stop file present up front: nothing runs, status is Interrupted
        std::fs::write(&stop, b"").unwrap();
        let session = FtSession::plain().with_stop_file(stop.clone());
        let mut meta = CampaignMeta::generate(&config);
        let status = run_sides_ft(&mut meta, &[Side::Hipcc], &session, ExecTier::Interp);
        assert_eq!(status, FtStatus::Interrupted);
        assert!(meta.tests.iter().all(|t| t.results.is_empty()), "no unit may start");
        assert!(!meta.sides_run.contains(&Side::Hipcc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_magic_journal_resumes_under_the_v2_parser() {
        // a journal written before the reference side existed: v1 magic,
        // identical framing. It must replay (and keep appending) as-is.
        let dir = std::env::temp_dir().join("difftest_journal_v1_magic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.bin");
        let payload = serde_json::to_vec(&unit(7, "hipcc:O3_FM")).unwrap();
        let mut bytes = JOURNAL_MAGIC_V1.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        let (j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units, vec![unit(7, "hipcc:O3_FM")]);
        assert_eq!(units[0].side, SideKey::new(Side::Hipcc, OptLevel::O3Fm));
        j.append(&unit(8, "reference:O0")).unwrap();
        drop(j);
        let (_j, units) = Journal::open_for_resume(&path).unwrap();
        assert_eq!(units.iter().map(|u| u.index).collect::<Vec<_>>(), vec![7, 8]);
        assert_eq!(units[1].side, SideKey::REFERENCE);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reference_side_checkpoints_and_resumes() {
        use progen::ast::Precision;
        let config = CampaignConfig::default_for(Precision::F64, crate::campaign::TestMode::Direct)
            .with_programs(3);
        let dir = std::env::temp_dir().join("difftest_reference_ft_test");
        std::fs::remove_dir_all(&dir).ok();

        // run the reference side to completion under a journal
        let ckpt = Checkpoint::create(&dir, &config).unwrap();
        let session = FtSession::new(Some(ckpt.into_journal()), None);
        let mut meta = CampaignMeta::generate(&config);
        assert_eq!(
            run_sides_ft(&mut meta, &[Side::Reference], &session, ExecTier::Interp),
            FtStatus::Complete
        );
        assert_eq!(meta.sides_run, vec![Side::Reference]);

        // resume: every unit replays, nothing re-runs, results identical
        let (ckpt, back, units) = Checkpoint::resume(&dir).unwrap();
        assert_eq!(back, config);
        assert_eq!(units.len(), 3);
        assert!(units.iter().all(|u| u.side == SideKey::REFERENCE));
        let mut resumed = CampaignMeta::generate(&config);
        let mut session = FtSession::new(Some(ckpt.into_journal()), None);
        session.apply_replay(&mut resumed, units);
        assert_eq!(session.replayed(), 3);
        assert_eq!(
            run_sides_ft(&mut resumed, &[Side::Reference], &session, ExecTier::Interp),
            FtStatus::Complete
        );
        for (a, b) in meta.tests.iter().zip(&resumed.tests) {
            assert_eq!(a.results, b.results);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
