//! Fleet wire protocol: the lease queue's semantics as messages.
//!
//! One request/reply exchange per TCP connection, framed exactly like a
//! checkpoint journal record — a protocol version byte, then
//! `[payload_len: u32 LE][crc32(payload): u32 LE][payload JSON]`. A
//! payload is the message's compact JSON, written and read by the
//! workspace's one streaming codec. A [`Request::Complete`] carries a
//! whole shard result as a [`RawJson`]: the bytes of the agent's
//! `result.json`, checked for syntax only, written into the frame as
//! they are and read back as a share of the received payload. The
//! coordinator parses them once, to fold them. [`write_message`]
//! writes the frame header and then the payload's parts, its CRC taken
//! over those parts, so no frame-sized copy is made on either side.
//! The CRC rejects torn frames
//! (a truncated send, an injected chaos fault); the version byte
//! rejects an old agent before it can misparse anything; the length
//! prefix bounds allocation. Decoding arbitrary bytes never panics —
//! every malformed input is an `io::Error` the caller's retry loop
//! absorbs (`tests/proto_proptest.rs` proves it).
//!
//! Exactly-once completion does not come from the transport (the chaos
//! layer duplicates and drops at will) but from the identity carried in
//! every shard-scoped message: the coordinator `epoch` (bumped on every
//! restart) and the per-lease `fence` token (globally monotonic, a new
//! one per grant). A partitioned "zombie" agent finishing a shard that
//! was re-leased to someone else presents a stale fence and gets
//! [`Reply::Fenced`] — its result is dropped, not merged twice.

use difftest::campaign::CampaignConfig;
use difftest::checkpoint::{crc32, frame_header, write_frame};
use serde::{Deserialize, RawJson, Serialize};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Wire protocol version. Bumped on any incompatible message change;
/// a coordinator rejects other versions before parsing a payload.
pub const PROTO_VERSION: u8 = 1;

/// Largest payload a frame may carry (shard `CampaignMeta` results ride
/// the wire, so this is generous — but bounded, so a corrupt length
/// prefix cannot demand an absurd allocation).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// What an agent asks the coordinator. Every shard-scoped request
/// carries the `(epoch, fence)` identity of the lease it acts under;
/// the coordinator rejects stale identities with [`Reply::Fenced`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum Request {
    /// Lease the next available shard.
    Lease {
        /// Self-chosen agent name (diagnostics and journal attribution).
        agent: String,
    },
    /// Keepalive for a held lease: pushes the coordinator-side deadline
    /// out, exactly as journal growth does for a local farm worker.
    Heartbeat {
        /// Agent name.
        agent: String,
        /// Shard the lease covers.
        shard: usize,
        /// Coordinator epoch the lease was granted under.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
    },
    /// Ship a finished shard's results for the incremental merge.
    Complete {
        /// Agent name.
        agent: String,
        /// Shard the lease covers.
        shard: usize,
        /// Coordinator epoch the lease was granted under.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
        /// The shard's complete `CampaignMeta`: the bytes of the
        /// worker's `result.json`, which the coordinator parses to fold.
        meta: RawJson,
    },
    /// Give a lease back unfinished (drain, local failure, shutdown).
    /// The checkpoint journal stays on the agent's disk; a future lease
    /// of the same shard — on any machine — resumes from whatever
    /// journal that machine has, or from scratch, without re-merging or
    /// losing completed units.
    Release {
        /// Agent name.
        agent: String,
        /// Shard the lease covers.
        shard: usize,
        /// Coordinator epoch the lease was granted under.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
        /// Why the agent gave the shard back (diagnostics).
        reason: String,
    },
    /// The shard tripped the agent's no-progress crash breaker: demote
    /// it to the poison quarantine instead of re-leasing it forever.
    Poison {
        /// Agent name.
        agent: String,
        /// Shard the lease covers.
        shard: usize,
        /// Coordinator epoch the lease was granted under.
        epoch: u64,
        /// Fencing token of the lease.
        fence: u64,
        /// Consecutive no-progress crashes the agent observed.
        crashes: u32,
    },
    /// Goodbye: the agent heard [`Reply::AllDone`] and is exiting. Not
    /// journaled; it only lets the coordinator stop waiting for this
    /// agent instead of lingering for it.
    Leave {
        /// Agent name.
        agent: String,
    },
}

impl Request {
    /// Short kind label (journal events, counters, logs).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Lease { .. } => "lease",
            Request::Heartbeat { .. } => "heartbeat",
            Request::Complete { .. } => "complete",
            Request::Release { .. } => "release",
            Request::Poison { .. } => "poison",
            Request::Leave { .. } => "leave",
        }
    }

    /// The agent that sent the request.
    pub(crate) fn agent(&self) -> &str {
        match self {
            Request::Lease { agent }
            | Request::Heartbeat { agent, .. }
            | Request::Complete { agent, .. }
            | Request::Release { agent, .. }
            | Request::Poison { agent, .. }
            | Request::Leave { agent } => agent,
        }
    }
}

/// What the coordinator answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type")]
pub enum Reply {
    /// A lease: run this shard. The agent materializes (or adopts) the
    /// shard's checkpoint directory from `config` + the shard spec and
    /// spawns `campaign --resume` workers exactly as a local farm does.
    Grant {
        /// Shard index leased.
        shard: usize,
        /// Total shard count of the campaign.
        n_shards: usize,
        /// Coordinator epoch this lease belongs to.
        epoch: u64,
        /// Fencing token: must accompany every later message about this
        /// lease. A reassigned shard gets a new, higher fence, so the
        /// old holder's messages are rejected.
        fence: u64,
        /// Coordinator-side heartbeat window; the agent should send
        /// [`Request::Heartbeat`] comfortably more often than this.
        heartbeat_ms: u64,
        /// Whether workers must also run the double-double ground-truth
        /// side (`campaign --reference`, runtime-only config).
        reference: bool,
        /// The campaign config the shard's checkpoint must be created
        /// (or validated) against.
        config: Box<CampaignConfig>,
    },
    /// Nothing leasable right now (all out, backing off, or settling):
    /// ask again in `retry_ms`.
    Wait {
        /// Suggested delay before the next [`Request::Lease`].
        retry_ms: u64,
    },
    /// Every shard is terminally settled; the agent can exit cleanly.
    AllDone,
    /// The coordinator is draining: stop leasing, flush and release
    /// held shards, exit as interrupted (130).
    Drain,
    /// Acknowledged (heartbeat extended, completion merged or already
    /// merged, release/poison recorded, goodbye heard).
    Ok,
    /// The `(epoch, fence)` identity is stale: the lease expired, was
    /// reassigned, or predates a coordinator restart. The agent must
    /// kill the shard's worker and drop the lease (keeping its local
    /// checkpoint for a possible future re-grant).
    Fenced {
        /// Human-readable cause (diagnostics).
        reason: String,
    },
    /// The request could not be served (malformed, journal write
    /// failure mid-shutdown). The agent retries with backoff.
    Error {
        /// Human-readable cause (diagnostics).
        reason: String,
    },
    /// The shipped result is well-formed JSON but not a shard result.
    /// The agent scraps its `result.json` and a respawned worker writes
    /// it again from the shard's journal; the lease stays live and
    /// nothing is journaled.
    Regenerate {
        /// Why the result could not be read (diagnostics).
        reason: String,
    },
}

impl Reply {
    /// Short kind label (counters, logs).
    pub fn kind(&self) -> &'static str {
        match self {
            Reply::Grant { .. } => "grant",
            Reply::Wait { .. } => "wait",
            Reply::AllDone => "all_done",
            Reply::Drain => "drain",
            Reply::Ok => "ok",
            Reply::Fenced { .. } => "fenced",
            Reply::Error { .. } => "error",
            Reply::Regenerate { .. } => "regenerate",
        }
    }
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Serialize `msg` and write it as one versioned CRC frame: the header,
/// then the payload as the codec streams it, so a [`RawJson`] inside
/// goes from its own buffer to the socket.
pub fn write_message<T: Serialize>(w: &mut impl Write, msg: &T) -> io::Result<()> {
    let payload = |out: &mut dyn Write| serde::to_writer(out, msg);
    let (header, len) = frame_header(&payload)?;
    if len > MAX_FRAME_BYTES as usize {
        return Err(invalid(format!("frame too large: {len} bytes")));
    }
    let mut versioned = [PROTO_VERSION; 9];
    versioned[1..].copy_from_slice(&header);
    write_frame(w, &versioned, len, &payload)
}

/// Read one versioned CRC frame and deserialize it. A [`RawJson`] in
/// the message shares the received payload. Every malformed input —
/// wrong version, oversized or short frame, CRC mismatch, unparsable
/// JSON — is an `io::Error`; this function never panics on arbitrary
/// bytes.
pub fn read_message<T: Deserialize>(r: &mut impl Read) -> io::Result<T> {
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    if version[0] != PROTO_VERSION {
        return Err(invalid(format!(
            "unsupported protocol version {} (want {PROTO_VERSION})",
            version[0]
        )));
    }
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    if len > MAX_FRAME_BYTES {
        return Err(invalid(format!("oversized frame: {len} bytes")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(invalid("frame CRC mismatch"));
    }
    Ok(serde::from_shared(&Arc::new(payload))?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(msg: &T) -> T {
        let mut buf = Vec::new();
        write_message(&mut buf, msg).unwrap();
        read_message(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn requests_and_replies_roundtrip() {
        let reqs = [
            Request::Lease { agent: "a1".into() },
            Request::Heartbeat { agent: "a1".into(), shard: 3, epoch: 2, fence: 41 },
            Request::Release {
                agent: "a2".into(),
                shard: 0,
                epoch: 1,
                fence: 7,
                reason: "drain".into(),
            },
            Request::Poison { agent: "a2".into(), shard: 5, epoch: 1, fence: 9, crashes: 3 },
            Request::Leave { agent: "a2".into() },
        ];
        for r in &reqs {
            assert_eq!(&roundtrip(r), r, "{}", r.kind());
        }
        let replies = [
            Reply::Wait { retry_ms: 150 },
            Reply::AllDone,
            Reply::Drain,
            Reply::Ok,
            Reply::Fenced { reason: "lease reassigned".into() },
            Reply::Error { reason: "journal write failed".into() },
            Reply::Regenerate { reason: "missing field `sides_run`".into() },
        ];
        for r in &replies {
            assert_eq!(&roundtrip(r), r, "{}", r.kind());
        }
    }

    #[test]
    fn version_mismatch_is_rejected_before_the_payload() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Reply::Ok).unwrap();
        buf[0] = PROTO_VERSION + 1;
        let err = read_message::<Reply>(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("protocol version"), "{err}");
    }

    #[test]
    fn corrupt_and_torn_frames_are_errors_not_panics() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Lease { agent: "x".into() }).unwrap();
        // flip a payload byte: CRC mismatch
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x20;
        let err = read_message::<Request>(&mut Cursor::new(bad)).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        // every truncation point: clean error
        for cut in 0..buf.len() {
            assert!(read_message::<Request>(&mut Cursor::new(&buf[..cut])).is_err(), "cut {cut}");
        }
        // an absurd length prefix is bounded, not allocated
        let mut huge = vec![PROTO_VERSION];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let err = read_message::<Request>(&mut Cursor::new(huge)).unwrap_err();
        assert!(err.to_string().contains("oversized"), "{err}");
    }

    /// A real shard result: shard 0 of 2 of a 4-program campaign, both
    /// vendors run, with telemetry and a quarantined fault.
    pub(crate) fn shard_result() -> difftest::metadata::CampaignMeta {
        use difftest::checkpoint::run_sides_ft;
        use difftest::{FaultKind, FtSession, TestFault, TestMode};
        use gpucc::ExecTier;
        let mut config =
            CampaignConfig::default_for(progen::Precision::F32, TestMode::Direct).with_programs(4);
        config.inputs_per_program = 1;
        let mut meta = difftest::metadata::CampaignMeta::generate_shard(&config, 0, 2);
        for side in difftest::Side::VENDORS {
            run_sides_ft(&mut meta, &[side], &FtSession::plain(), ExecTier::Interp);
        }
        let reg = obs::Registry::new();
        reg.counter("campaign.runs_done").add(20);
        reg.hist("span.campaign.unit").record(4_321);
        meta.metrics = Some(reg.snapshot());
        meta.quarantine.push(TestFault {
            index: 2,
            program_id: meta.tests[1].program_id.clone(),
            seed: config.seed,
            side: "hipcc:O3_FM".into(),
            kind: FaultKind::StepBudget,
            detail: "step limit \"exceeded\"".into(),
        });
        meta
    }

    fn complete() -> Request {
        Request::Complete {
            agent: "agent-ü".into(),
            shard: 0,
            epoch: 3,
            fence: 17,
            meta: RawJson::encode(&shard_result()),
        }
    }

    /// The payload of a `Complete` frame written by an earlier build.
    fn stored_complete() -> Vec<u8> {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/json/request_complete.json");
        std::fs::read(path).expect("the Complete fixture")
    }

    #[test]
    fn request_frames_read_back_and_keep_the_stored_bytes() {
        let mut reqs = vec![complete()];
        reqs.extend([
            Request::Lease { agent: "a1".into() },
            Request::Heartbeat { agent: "a1".into(), shard: 3, epoch: 2, fence: 41 },
            Request::Leave { agent: "a2".into() },
        ]);
        for req in &reqs {
            assert_eq!(&roundtrip(req), req, "{}", req.kind());
        }
        let stored = stored_complete();
        let mut frame = vec![PROTO_VERSION];
        frame.extend_from_slice(&difftest::checkpoint::encode_frame(&stored));
        let req: Request = read_message(&mut Cursor::new(&frame)).unwrap();
        assert_eq!(req.kind(), "complete");
        let mut written = Vec::new();
        write_message(&mut written, &req).unwrap();
        assert!(written == frame, "a stored Complete frame is rewritten byte-identical");
    }

    #[test]
    fn a_damaged_complete_is_an_error_or_a_valid_request() {
        let payload = stored_complete();
        for cut in 0..payload.len() {
            let torn = serde_json::from_slice::<Request>(&payload[..cut]);
            assert!(torn.is_err(), "truncation at {cut} decoded");
        }
        let mut damaged = payload.clone();
        let mut valid = 0;
        for pos in 0..payload.len() {
            for bit in 0..8 {
                damaged[pos] ^= 1 << bit;
                if let Ok(req) = serde_json::from_slice::<Request>(&damaged) {
                    let again = serde_json::to_vec(&req).unwrap();
                    let back: Request = serde_json::from_slice(&again).unwrap();
                    assert!(back == req, "flip of bit {bit} at byte {pos}: no round trip");
                    valid += 1;
                }
                damaged[pos] ^= 1 << bit;
            }
        }
        // flips inside strings and digits leave valid requests
        assert!(valid > 0);
    }

    #[test]
    fn valid_frame_of_the_wrong_message_type_is_an_error() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Reply::Drain).unwrap();
        assert!(read_message::<Request>(&mut Cursor::new(buf)).is_err());
    }
}
