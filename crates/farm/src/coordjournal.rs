//! The fleet coordinator's write-ahead journal.
//!
//! Every lease-queue state transition — grant, heartbeat, release,
//! poison, completion — is appended here *before* the reply leaves the
//! socket, using the same CRC-framed, torn-tail-tolerant log the
//! checkpoint journal is built on ([`difftest::checkpoint::FramedLog`]).
//! A coordinator killed at any instant restarts by replaying this file:
//! completed shards fold back into the merge (no shard lost), their
//! `(epoch, fence)` identity is remembered (no shard double-completed —
//! a zombie agent re-sending an old completion is either re-acked
//! idempotently or fenced), and in-flight leases are voided under a new
//! epoch so their holders get [`crate::proto::Reply::Fenced`] on next
//! contact.
//!
//! Because a reply is only sent after its events are durably framed, an
//! agent can never hold a grant the journal doesn't know about. The
//! opposite — a journaled grant whose reply was lost — is harmless: the
//! lease expires unheartbeaten and is re-granted.
//!
//! Each frame's payload is the event's compact JSON, written and read by
//! the workspace's one streaming codec. A `Done` event carries a whole
//! shard result as the bytes the agent shipped ([`RawJson`]): an append
//! writes the frame header and then streams the event, the result going
//! from its received buffer to the file, so no copy of it is made. On
//! replay, a `Done` whose result does not parse as a campaign result
//! ends the valid prefix, as a frame that fails its CRC does. A restart
//! parses each journaled result once: the scan that checks it hands the
//! parsed result on to the replay ([`Replayed`]), and the result's bytes
//! stay a share of the file's buffer, not a copy.

use std::io;
use std::path::Path;

use difftest::checkpoint::FramedLog;
use difftest::metadata::CampaignMeta;
use serde::{Deserialize, RawJson, Serialize};

/// Magic tag opening a coordinator journal.
pub const COORD_MAGIC: &[u8; 8] = b"VGCOORD1";

/// One journaled lease-queue transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "ev")]
pub enum CoordEvent {
    /// A coordinator (re)started and owns the queue under `epoch`.
    /// Appended once per process start; replay derives the next epoch
    /// from the maximum epoch any event carries.
    Start {
        /// The new coordinator epoch.
        epoch: u64,
        /// Shard count of the campaign (sanity-checked on replay).
        n_shards: usize,
    },
    /// A lease was granted.
    Grant {
        /// Shard leased.
        shard: usize,
        /// Epoch the lease belongs to.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
        /// Agent holding it.
        agent: String,
    },
    /// A lease's deadline was pushed out by an agent keepalive.
    Heartbeat {
        /// Shard heartbeaten.
        shard: usize,
        /// Epoch of the lease.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
    },
    /// A lease went back to the pool (agent gave it up, or the
    /// coordinator expired it for heartbeat silence).
    Release {
        /// Shard released.
        shard: usize,
        /// Epoch of the voided lease.
        epoch: u64,
        /// Fencing token of the voided lease.
        fence: u64,
        /// Why (agent's reason, or "lease expired").
        reason: String,
    },
    /// A shard was demoted to the poison quarantine.
    Poison {
        /// Shard poisoned.
        shard: usize,
        /// Epoch of the lease that reported it.
        epoch: u64,
        /// Fencing token of the lease that reported it.
        fence: u64,
        /// Consecutive no-progress crashes the reporting agent saw.
        crashes: u32,
    },
    /// A shard completed and its results were folded into the merge.
    /// Replay rebuilds the merge from these payloads alone, so the
    /// journal — not coordinator memory — is the source of truth.
    Done {
        /// Shard completed.
        shard: usize,
        /// Epoch of the completing lease.
        epoch: u64,
        /// Fencing token of the completing lease — a later duplicate
        /// `Complete` carrying exactly this identity is re-acked
        /// idempotently; any other identity is fenced.
        fence: u64,
        /// The shard's full result: the bytes the agent shipped.
        meta: RawJson,
    },
}

impl CoordEvent {
    /// Short kind label (logs, counters).
    pub fn kind(&self) -> &'static str {
        match self {
            CoordEvent::Start { .. } => "start",
            CoordEvent::Grant { .. } => "grant",
            CoordEvent::Heartbeat { .. } => "heartbeat",
            CoordEvent::Release { .. } => "release",
            CoordEvent::Poison { .. } => "poison",
            CoordEvent::Done { .. } => "done",
        }
    }
}

/// One event read back from a journal. A `Done` comes with its result
/// parsed, by the scan that checked it, so the replay folds it without
/// parsing it again.
#[derive(Debug)]
pub struct Replayed {
    event: CoordEvent,
    /// A `Done`'s parsed result; `None` for every other event.
    result: Option<Box<CampaignMeta>>,
}

impl Replayed {
    /// `event`, with its result parsed if it is a `Done`; `None` if that
    /// result does not parse as a campaign result.
    pub fn parse(event: CoordEvent) -> Option<Replayed> {
        let result = match &event {
            CoordEvent::Done { meta, .. } => Some(Box::new(parse_result(meta).ok()?)),
            _ => None,
        };
        Some(Replayed { event, result })
    }

    /// The journaled event.
    pub fn event(&self) -> &CoordEvent {
        &self.event
    }

    /// The event, and for a `Done`, its parsed result.
    pub fn into_parts(self) -> (CoordEvent, Option<Box<CampaignMeta>>) {
        (self.event, self.result)
    }
}

/// Parse a shard result: the one place the farm turns a result's bytes
/// into a [`CampaignMeta`]. Each parse counts in `fleet.result_parses`.
pub(crate) fn parse_result(result: &RawJson) -> serde::Result<CampaignMeta> {
    static PARSES: obs::Name = obs::Name::new("fleet.result_parses");
    PARSES.add(1);
    result.parse()
}

/// A replayed event equals the event journaled.
impl PartialEq<CoordEvent> for Replayed {
    fn eq(&self, other: &CoordEvent) -> bool {
        self.event == *other
    }
}

/// Append-only, CRC-framed coordinator journal.
pub struct CoordJournal {
    log: FramedLog,
    frames: u64,
}

impl CoordJournal {
    /// Create a fresh journal at `path` (truncating any old file).
    pub fn create(path: &Path) -> io::Result<CoordJournal> {
        Ok(CoordJournal { log: FramedLog::create(path, COORD_MAGIC)?, frames: 0 })
    }

    /// Open an existing journal, truncating any torn tail, and return
    /// it together with every intact event in append order, each `Done`
    /// with its result parsed. A `Done` whose result does not parse is
    /// not intact: the tail is cut there. A file that is not a
    /// coordinator journal is a hard error.
    pub fn open_for_resume(path: &Path) -> io::Result<(CoordJournal, Vec<Replayed>)> {
        let (log, _, events) = FramedLog::open_for_resume(path, &[COORD_MAGIC], |_, p| {
            Replayed::parse(p.parse().ok()?)
        })?;
        let frames = events.len() as u64;
        Ok((CoordJournal { log, frames }, events))
    }

    /// Durably append one event (write-through; bounded internal
    /// retries). The caller must not send the reply this event backs
    /// until this returns `Ok` — and must treat `Err` as fatal, exiting
    /// so the restart path replays a journal that matches what agents
    /// were told.
    pub fn append(&mut self, ev: &CoordEvent) -> io::Result<()> {
        self.log.append_with(&|out| serde::to_writer(out, ev))?;
        self.frames += 1;
        Ok(())
    }

    /// Number of intact events (replayed + appended this process).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Journal length in bytes (magic + frames).
    pub fn len_bytes(&self) -> u64 {
        self.log.len()
    }

    /// fsync the journal file.
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use difftest::checkpoint::run_sides_ft;
    use difftest::FtSession;
    use gpucc::ExecTier;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("coordjournal-{tag}-{}", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    fn sample_events() -> Vec<CoordEvent> {
        vec![
            CoordEvent::Start { epoch: 1, n_shards: 2 },
            CoordEvent::Grant { shard: 0, epoch: 1, fence: 1, agent: "a1".into() },
            CoordEvent::Heartbeat { shard: 0, epoch: 1, fence: 1 },
            CoordEvent::Release { shard: 0, epoch: 1, fence: 1, reason: "lease expired".into() },
            CoordEvent::Grant { shard: 1, epoch: 1, fence: 2, agent: "a2".into() },
            CoordEvent::Poison { shard: 1, epoch: 1, fence: 2, crashes: 3 },
        ]
    }

    #[test]
    fn journal_replays_exactly_what_was_appended() {
        let path = temp_path("roundtrip");
        let mut j = CoordJournal::create(&path).unwrap();
        let events = sample_events();
        for ev in &events {
            j.append(ev).unwrap();
        }
        assert_eq!(j.frames(), events.len() as u64);
        drop(j);
        let (j2, replayed) = CoordJournal::open_for_resume(&path).unwrap();
        assert_eq!(replayed, events);
        assert_eq!(j2.frames(), events.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue_cleanly() {
        let path = temp_path("torn");
        let mut j = CoordJournal::create(&path).unwrap();
        let events = sample_events();
        for ev in &events {
            j.append(ev).unwrap();
        }
        let full = j.len_bytes();
        drop(j);
        // Simulate a kill mid-append: chop the last frame in half.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 10).unwrap();
        drop(f);
        let (mut j2, replayed) = CoordJournal::open_for_resume(&path).unwrap();
        assert_eq!(replayed, events[..events.len() - 1], "torn last event dropped");
        // The journal remains appendable after truncation.
        j2.append(&CoordEvent::Start { epoch: 2, n_shards: 2 }).unwrap();
        drop(j2);
        let (_, again) = CoordJournal::open_for_resume(&path).unwrap();
        assert_eq!(again.len(), events.len(), "replaced the torn frame");
        assert_eq!(
            again.last().map(Replayed::event),
            Some(&CoordEvent::Start { epoch: 2, n_shards: 2 })
        );
        std::fs::remove_file(&path).ok();
    }

    /// Shard `k` of 2 of the shard result fixture's campaign, run.
    fn shard(k: usize) -> CampaignMeta {
        let mut meta = crate::proto::tests::shard_result();
        if k == 1 {
            let config = meta.config.clone();
            meta = CampaignMeta::generate_shard(&config, 1, 2);
            for side in difftest::Side::VENDORS {
                run_sides_ft(&mut meta, &[side], &FtSession::plain(), ExecTier::Interp);
            }
        }
        meta
    }

    fn done(shard: usize, epoch: u64, fence: u64, meta: &CampaignMeta) -> CoordEvent {
        CoordEvent::Done { shard, epoch, fence, meta: RawJson::encode(meta) }
    }

    #[test]
    fn done_events_read_back_and_keep_the_stored_bytes() {
        let done = done(0, 2, 9, &shard(0));
        let mut events = sample_events();
        events.push(done);
        for ev in events {
            let payload = serde_json::to_vec(&ev).unwrap();
            assert_eq!(serde_json::from_slice::<CoordEvent>(&payload).unwrap(), ev);
        }
        // a Done payload an earlier build journaled
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json/event_done.json");
        let stored = std::fs::read(path).unwrap();
        let done: CoordEvent = serde_json::from_slice(&stored).unwrap();
        assert_eq!(done.kind(), "done");
        assert!(serde_json::to_vec(&done).unwrap() == stored, "Done payload bytes changed");
    }

    #[test]
    fn a_replayed_journal_reproduces_the_merge() {
        use crate::fleet::coord::CoordState;
        let (meta0, meta1) = (shard(0), shard(1));
        let config = meta0.config.clone();
        let events = vec![
            CoordEvent::Start { epoch: 1, n_shards: 2 },
            CoordEvent::Grant { shard: 1, epoch: 1, fence: 1, agent: "a".into() },
            CoordEvent::Grant { shard: 0, epoch: 1, fence: 2, agent: "b".into() },
            done(1, 1, 1, &meta1),
            CoordEvent::Heartbeat { shard: 0, epoch: 1, fence: 2 },
            done(0, 1, 2, &meta0),
        ];
        // every payload written straight into the framed log
        let path = temp_path("replayed");
        let log = FramedLog::create(&path, COORD_MAGIC).unwrap();
        for ev in &events {
            log.append(&serde_json::to_vec(ev).unwrap()).unwrap();
        }
        drop(log);
        let (_, replayed) = CoordJournal::open_for_resume(&path).unwrap();
        assert_eq!(replayed, events);
        let state = CoordState::resume(config.clone(), 2, 1_000, false, replayed).unwrap();
        let expected = CampaignMeta::merge_shards(vec![meta0, meta1]).unwrap();
        let merged = state.merged().expect("both shards folded");
        assert!(*merged == expected, "replay reproduces the merge");
        // and the journal's own appends hold the same bytes
        let written = std::fs::read(&path).unwrap();
        let mut j = CoordJournal::create(&path).unwrap();
        for ev in &events {
            j.append(ev).unwrap();
        }
        drop(j);
        assert!(std::fs::read(&path).unwrap() == written, "journal bytes differ");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_restart_parses_each_journaled_result_once() {
        use crate::fleet::coord::CoordState;
        let (meta0, meta1) = (shard(0), shard(1));
        let config = meta0.config.clone();
        let path = temp_path("parse-once");
        let mut j = CoordJournal::create(&path).unwrap();
        for ev in [
            CoordEvent::Start { epoch: 1, n_shards: 2 },
            done(1, 1, 1, &meta1),
            done(0, 1, 2, &meta0),
            // a duplicate Done of an already folded shard
            done(0, 1, 2, &meta0),
        ] {
            j.append(&ev).unwrap();
        }
        drop(j);
        // a capture sees only this thread's telemetry
        let (state, parses) = obs::with_capture(|| {
            let (_, replayed) = CoordJournal::open_for_resume(&path).unwrap();
            CoordState::resume(config.clone(), 2, 1_000, false, replayed).unwrap()
        });
        assert_eq!(parses.counter("fleet.result_parses"), 3, "one parse per journaled result");
        let expected = CampaignMeta::merge_shards(vec![meta0, meta1]).unwrap();
        assert!(*state.merged().expect("both shards folded") == expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_done_whose_result_does_not_parse_ends_the_valid_prefix() {
        let path = temp_path("unparsable");
        let mut j = CoordJournal::create(&path).unwrap();
        let events = sample_events();
        let unparsable = RawJson::from_vec(br#"{"config":1}"#.to_vec()).unwrap();
        for ev in &events[..2] {
            j.append(ev).unwrap();
        }
        let kept = j.len_bytes();
        j.append(&CoordEvent::Done { shard: 0, epoch: 1, fence: 1, meta: unparsable }).unwrap();
        j.append(&events[2]).unwrap();
        drop(j);
        let (j, replayed) = CoordJournal::open_for_resume(&path).unwrap();
        assert_eq!(replayed, events[..2], "the scan stops at the unparsable result");
        assert_eq!(j.len_bytes(), kept, "and the tail from it on is cut");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_foreign_file_is_rejected_not_misparsed() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"not a journal at all").unwrap();
        assert!(CoordJournal::open_for_resume(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
