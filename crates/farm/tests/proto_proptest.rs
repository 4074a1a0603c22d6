//! Property tests for the fleet wire codec.
//!
//! The protocol promise the fleet leans on: a frame that arrives intact
//! decodes to exactly the message that was sent, and a frame that
//! arrives damaged *in any way* — torn mid-byte, bit-flipped anywhere,
//! fed from a hostile peer — is rejected with an `io::Error`, never a
//! panic and never a silently wrong message. The chaos layer's
//! `Truncate` fault and every partition-severed socket reduce to these
//! properties.

use difftest::metadata::CampaignMeta;
use difftest::{CampaignConfig, TestMode};
use farm::proto::{read_message, write_message, Reply, Request};
use progen::Precision;
use proptest::prelude::*;
use serde::RawJson;

fn config() -> CampaignConfig {
    CampaignConfig::default_for(Precision::F32, TestMode::Direct).with_programs(6)
}

fn meta() -> CampaignMeta {
    CampaignMeta::generate_shard(&config(), 0, 2)
}

/// Every `Request` variant, with proptest-drawn scalar fields.
fn request_strategy() -> impl Strategy<Value = Request> {
    let s = (any::<String>(), 0usize..64, any::<u64>(), any::<u64>());
    prop_oneof![
        any::<String>().prop_map(|agent| Request::Lease { agent }),
        s.clone().prop_map(|(agent, shard, epoch, fence)| Request::Heartbeat {
            agent,
            shard,
            epoch,
            fence
        }),
        s.clone().prop_map(|(agent, shard, epoch, fence)| Request::Complete {
            agent,
            shard,
            epoch,
            fence,
            meta: RawJson::encode(&meta()),
        }),
        (s.clone(), any::<String>()).prop_map(|((agent, shard, epoch, fence), reason)| {
            Request::Release { agent, shard, epoch, fence, reason }
        }),
        (s, any::<u32>()).prop_map(|((agent, shard, epoch, fence), crashes)| Request::Poison {
            agent,
            shard,
            epoch,
            fence,
            crashes
        }),
        any::<String>().prop_map(|agent| Request::Leave { agent }),
    ]
}

/// Every `Reply` variant, with proptest-drawn scalar fields.
fn reply_strategy() -> impl Strategy<Value = Reply> {
    prop_oneof![
        (0usize..64, 1usize..64, any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(shard, n_shards, epoch, fence, heartbeat_ms, reference)| Reply::Grant {
                shard,
                n_shards,
                epoch,
                fence,
                heartbeat_ms,
                reference,
                config: Box::new(config()),
            }
        ),
        any::<u64>().prop_map(|retry_ms| Reply::Wait { retry_ms }),
        Just(Reply::AllDone),
        Just(Reply::Drain),
        Just(Reply::Ok),
        any::<String>().prop_map(|reason| Reply::Fenced { reason }),
        any::<String>().prop_map(|reason| Reply::Error { reason }),
        any::<String>().prop_map(|reason| Reply::Regenerate { reason }),
    ]
}

fn encode<T: serde::Serialize>(msg: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    write_message(&mut buf, msg).expect("encoding to a Vec cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_request_roundtrips_bit_exactly(req in request_strategy()) {
        let buf = encode(&req);
        let back: Request = read_message(&mut buf.as_slice()).expect("intact frame decodes");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn any_reply_roundtrips_bit_exactly(reply in reply_strategy()) {
        let buf = encode(&reply);
        let back: Reply = read_message(&mut buf.as_slice()).expect("intact frame decodes");
        prop_assert_eq!(back, reply);
    }

    /// A hostile or confused peer can write anything into the socket;
    /// the decoder must answer with an error, never a panic. (A panic
    /// here fails the test by itself; the assert documents that the
    /// random stream essentially never forms a valid frame.)
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let req = read_message::<Request>(&mut bytes.as_slice());
        let reply = read_message::<Reply>(&mut bytes.as_slice());
        // Valid frames open with the version byte and a CRC-consistent
        // header; a random prefix passing all of that is ~2^-32.
        if bytes.first() != Some(&farm::proto::PROTO_VERSION) {
            prop_assert!(req.is_err() && reply.is_err());
        }
    }

    /// Tear a valid frame at every possible byte boundary: every prefix
    /// must be rejected (UnexpectedEof or CRC mismatch), because a torn
    /// TCP stream is exactly what a partition or truncation fault leaves
    /// behind.
    #[test]
    fn every_torn_prefix_of_a_valid_frame_is_rejected(req in request_strategy()) {
        let buf = encode(&req);
        for cut in 0..buf.len() {
            let torn = &buf[..cut];
            prop_assert!(
                read_message::<Request>(&mut &*torn).is_err(),
                "prefix of {} of {} bytes decoded",
                cut,
                buf.len()
            );
        }
    }

    /// Flip one bit anywhere in a valid frame: version check, length
    /// sanity, or CRC must catch it — a corrupted frame never decodes
    /// as if intact. (Flipping a length bit may also leave the reader
    /// starved; both are errors, neither is a wrong message.)
    #[test]
    fn any_single_bit_flip_is_rejected(
        req in request_strategy(),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut buf = encode(&req);
        let pos = pos.index(buf.len());
        buf[pos] ^= 1 << bit;
        // Longer than any length field can now claim, so a shrunk
        // length reads a short payload and fails CRC rather than Eof.
        buf.extend_from_slice(&[0u8; 8]);
        match read_message::<Request>(&mut buf.as_slice()) {
            Err(_) => {}
            Ok(back) => {
                // The only byte whose flip may legally still decode is
                // none: payload is CRC-guarded, header is structural.
                prop_assert!(false, "corrupt frame decoded: flipped byte {pos}, got {:?}", back.kind());
            }
        }
    }
}
