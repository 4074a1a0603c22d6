//! The stored and wire JSON contract: documents written by earlier
//! builds read back with their type and write out byte-identical.
//!
//! `tests/fixtures/json` holds one of each document the workspace keeps
//! on disk or sends over the socket: two campaign results (one with a
//! quarantine), a checkpoint's `config.json` and `shard.json`, a farm
//! `poison.json`, the payloads of a `Complete` frame, a `Grant` reply and
//! two coordinator journal events, a `/status` body, a `--metrics` log
//! and a `--quarantine` log. Each is read the way production reads it
//! and written the way production writes it (compact, or two-space
//! pretty for the checkpoint and poison files).
//!
//! The campaign results hold ground-truth records, whose NaN signs can
//! differ between debug and release builds, so they are never
//! regenerated here: only the committed bytes are the same in every
//! build.

use difftest::campaign::CampaignConfig;
use difftest::checkpoint::ShardSpec;
use difftest::metadata::CampaignMeta;
use difftest::TestFault;
use farm::proto::{read_message, write_message, Reply, Request};
use farm::{CoordEvent, CoordJournal};
use serde::{Deserialize, RawJson, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/json").join(name)
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn same(name: &str, written: &[u8], stored: &[u8]) {
    if written != stored {
        let at = written.iter().zip(stored).take_while(|(a, b)| a == b).count();
        let around = |b: &[u8]| {
            String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())]).into_owned()
        };
        panic!(
            "{name}: written bytes differ from the fixture at byte {at}\n written: {}\n  stored: {}",
            around(written),
            around(stored)
        );
    }
}

/// `value` streamed through `serde::to_writer`.
fn streamed<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    serde::to_writer(&mut out, value).unwrap();
    out
}

/// Read `name` as a `T` and write it back compact, into a buffer and
/// streamed.
fn compact<T: Serialize + Deserialize>(name: &str) -> T {
    let stored = fixture(name);
    let value: T = serde_json::from_slice(&stored).unwrap_or_else(|e| panic!("{name}: {e}"));
    same(name, &serde_json::to_vec(&value).unwrap(), &stored);
    same(&format!("{name} streamed"), &streamed(&value), &stored);
    value
}

/// Read `name` as a `T` and write it back two-space pretty.
fn pretty<T: Serialize + Deserialize>(name: &str) {
    let stored = fixture(name);
    let value: T = serde_json::from_slice(&stored).unwrap_or_else(|e| panic!("{name}: {e}"));
    same(name, &serde_json::to_vec_pretty(&value).unwrap(), &stored);
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("json-contract-{tag}-{}.json", std::process::id()))
}

#[test]
fn campaign_results_load_and_save_byte_identical() {
    for name in ["result_fp32_hipify_reference.json", "result_fuel200.json"] {
        let meta =
            CampaignMeta::load(&fixture_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let out = temp_path("result");
        meta.save(&out).unwrap();
        same(name, &std::fs::read(&out).unwrap(), &fixture(name));
        std::fs::remove_file(&out).ok();
        let meta2: CampaignMeta = compact(name);
        assert!(meta2 == meta, "{name}: the two readers disagree");
    }
    let fuel = CampaignMeta::load(&fixture_path("result_fuel200.json")).unwrap();
    assert!(!fuel.quarantine.is_empty(), "the fuel-limited result keeps its quarantine");
    let truth = CampaignMeta::load(&fixture_path("result_fp32_hipify_reference.json")).unwrap();
    assert!(truth.sides_run.contains(&difftest::Side::Reference));
}

#[test]
fn checkpoint_and_poison_files_rewrite_pretty() {
    pretty::<CampaignConfig>("config.json");
    pretty::<ShardSpec>("shard.json");
    pretty::<Value>("poison.json");
}

#[test]
fn frame_and_journal_payloads_rewrite_compact() {
    let complete: Request = compact("request_complete.json");
    assert_eq!(complete.kind(), "complete");
    let mut frame = Vec::new();
    write_message(&mut frame, &complete).unwrap();
    same("request_complete.json", &frame[9..], &fixture("request_complete.json"));
    assert!(read_message::<Request>(&mut frame.as_slice()).unwrap() == complete);
    let grant: Reply = compact("reply_grant.json");
    assert_eq!(grant.kind(), "grant");
    let done: CoordEvent = compact("event_done.json");
    assert_eq!(done.kind(), "done");
    let release: CoordEvent = compact("event_release.json");
    assert_eq!(release.kind(), "release");
}

#[test]
fn status_metrics_and_quarantine_lines_rewrite_compact() {
    let status = fixture("status.json");
    let value: Value = serde_json::from_slice(&status).unwrap();
    same("status.json", value.to_string().as_bytes(), &status);
    same("status.json streamed", &streamed(&value), &status);

    let log = String::from_utf8(fixture("metrics.jsonl")).unwrap();
    for (i, line) in log.lines().enumerate() {
        let value: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        same(&format!("metrics.jsonl line {i}"), value.to_string().as_bytes(), line.as_bytes());
        same(&format!("metrics.jsonl line {i} streamed"), &streamed(&value), line.as_bytes());
    }

    #[derive(Deserialize)]
    struct Header {
        config: CampaignConfig,
    }
    let log = String::from_utf8(fixture("quarantine.jsonl")).unwrap();
    let mut lines = log.lines();
    let header = lines.next().expect("a config header");
    let parsed: Header = serde_json::from_str(header).unwrap();
    let header_value = serde_json::json!({ "config": parsed.config });
    let written = serde_json::to_string(&header_value).unwrap();
    same("quarantine.jsonl header", written.as_bytes(), header.as_bytes());
    same("quarantine.jsonl header streamed", &streamed(&header_value), header.as_bytes());
    let mut faults = 0;
    for line in lines {
        let fault: TestFault = serde_json::from_str(line).unwrap();
        same(
            "quarantine.jsonl fault",
            serde_json::to_string(&fault).unwrap().as_bytes(),
            line.as_bytes(),
        );
        same("quarantine.jsonl fault streamed", &streamed(&fault), line.as_bytes());
        faults += 1;
    }
    assert!(faults > 0, "the quarantine log holds faults");
}

/// `{"tag":"Variant",rest}` with the tag member moved last.
fn tag_last(bytes: &[u8], tag: &str) -> Vec<u8> {
    let text = std::str::from_utf8(bytes).unwrap();
    let prefix = text.split_inclusive(',').next().unwrap();
    assert!(prefix.starts_with(&format!("{{\"{tag}\":")), "the tag leads: {prefix}");
    let member = &prefix[1..prefix.len() - 1];
    let rest = &text[prefix.len()..text.len() - 1];
    format!("{{{rest},{member}}}").into_bytes()
}

#[test]
fn an_internal_tag_is_read_at_any_position() {
    let stored = fixture("request_complete.json");
    let moved = tag_last(&stored, "type");
    assert!(moved.ends_with(b",\"type\":\"Complete\"}"));
    let first: Request = serde_json::from_slice(&stored).unwrap();
    let last: Request = serde_json::from_slice(&moved).unwrap();
    assert!(first == last, "Complete: the tag's position changed the value");
    let mut frame = Vec::new();
    write_message(&mut frame, &first).unwrap();
    let mut moved_frame = vec![frame[0]];
    moved_frame.extend_from_slice(&difftest::checkpoint::encode_frame(&moved));
    assert!(read_message::<Request>(&mut moved_frame.as_slice()).unwrap() == first);

    let stored = fixture("event_done.json");
    let moved = tag_last(&stored, "ev");
    assert!(moved.ends_with(b",\"ev\":\"Done\"}"));
    let first: CoordEvent = serde_json::from_slice(&stored).unwrap();
    let last: CoordEvent = serde_json::from_slice(&moved).unwrap();
    assert!(first == last, "Done: the tag's position changed the value");
}

/// A `Complete` frame and a journaled `Done` built from a stored
/// result's bytes, as an agent ships them, equal the ones encoded from
/// the parsed result; each reads back to those bytes, with its tag first
/// or last.
#[test]
fn frames_of_a_result_s_bytes_equal_frames_of_the_parsed_result() {
    for name in ["result_fp32_hipify_reference.json", "result_fuel200.json"] {
        let bytes = fixture(name);
        let parsed = CampaignMeta::load(&fixture_path(name)).unwrap();
        let shipped = RawJson::from_vec(bytes.clone()).unwrap();
        let encoded = RawJson::encode(&parsed);
        let complete = |meta| Request::Complete {
            agent: "agent-ü".into(),
            shard: 3,
            epoch: 2,
            fence: 41,
            meta,
        };
        let frame = |req: &Request| {
            let mut frame = Vec::new();
            write_message(&mut frame, req).unwrap();
            frame
        };
        let shipped_frame = frame(&complete(shipped.clone()));
        same(name, &shipped_frame, &frame(&complete(encoded.clone())));
        let Request::Complete { meta, .. } = read_message(&mut shipped_frame.as_slice()).unwrap()
        else {
            panic!("{name}: not a Complete")
        };
        assert!(meta.as_bytes() == bytes.as_slice(), "{name}: the frame carries the file's bytes");
        let moved = tag_last(&shipped_frame[9..], "type");
        let last: Request = serde_json::from_slice(&moved).unwrap();
        assert!(last == complete(shipped.clone()), "{name}: Complete with its tag last");

        let journal = |meta| {
            let path = temp_path("done-frame");
            let mut j = CoordJournal::create(&path).unwrap();
            j.append(&CoordEvent::Done { shard: 3, epoch: 2, fence: 41, meta }).unwrap();
            drop(j);
            let written = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            written
        };
        let shipped_journal = journal(shipped.clone());
        same(name, &shipped_journal, &journal(encoded));
        let moved = tag_last(&shipped_journal[16..], "ev");
        let last: CoordEvent = serde_json::from_slice(&moved).unwrap();
        let done = CoordEvent::Done { shard: 3, epoch: 2, fence: 41, meta: shipped };
        assert!(last == done, "{name}: Done with its tag last");
    }
}

#[test]
fn malformed_documents_are_errors() {
    let lease = |agent: &str| format!("{{\"type\":\"Lease\",\"agent\":\"{agent}\"}}");
    assert!(serde_json::from_str::<Request>(&lease("a1")).is_ok());
    for agent in ["\\ud83d\\u0041", "a\u{1}b"] {
        let doc = lease(agent);
        assert!(serde_json::from_str::<Request>(&doc).is_err(), "{doc:?} read as a Lease");
    }
    let config: CampaignConfig = serde_json::from_slice(&fixture("config.json")).unwrap();
    let text = serde_json::to_string(&config).unwrap();
    assert!(serde_json::from_str::<CampaignConfig>(&text).is_ok());
    for (member, bad) in [
        ("\"n_programs\":6", "\"n_programs\":01"),
        ("\"if_prob\":0.3", "\"if_prob\":1e400"),
        ("\"seed\":2024", "\"seed\":5,\"seed\":2024"),
    ] {
        assert!(text.contains(member), "{member}");
        let doc = text.replacen(member, bad, 1);
        assert!(serde_json::from_str::<CampaignConfig>(&doc).is_err(), "{bad} read as a config");
    }
}
