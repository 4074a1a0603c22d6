//! Campaign metadata through the workspace's JSON codec: every campaign
//! shape saves, loads and reads back to the value it was written from,
//! and stored results rewrite byte-identical; the reader takes any
//! layout of the same document and rejects what is not one; and damaged
//! bytes (every truncation, every single-bit flip) come back as `Err` or
//! as a valid value, never as a panic. Plain loops, so this runs
//! offline.

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::{FaultKind, Side, TestFault};
use gpucc::interp::ExecBudget;
use gpucc::pipeline::OptLevel;
use gpucc::ExecTier;
use progen::Precision;
use serde_json::Value;
use std::sync::OnceLock;

/// Strings with every character class the escaper handles: quotes,
/// backslashes, the short escapes, other control characters, DEL and
/// non-ASCII text.
const ODD: &str = "q\"uote \\ back /slash \n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f} é 漢字 😀";

fn config(precision: Precision, mode: TestMode, programs: usize) -> CampaignConfig {
    CampaignConfig::default_for(precision, mode).with_programs(programs)
}

/// Generate `config` and run `sides` on the vm tier, keeping the
/// session's quarantine as the CLI does.
fn run(config: CampaignConfig, sides: &[Side]) -> CampaignMeta {
    let mut meta = CampaignMeta::generate(&config);
    let session = FtSession::plain();
    run_sides_ft(&mut meta, sides, &session, ExecTier::Vm);
    meta.quarantine = session.faults();
    meta.quarantine.sort();
    meta.quarantine.dedup();
    meta
}

fn metrics() -> obs::MetricsSnapshot {
    let reg = obs::Registry::new();
    reg.counter("campaign.runs_done").add(70);
    reg.hist("span.campaign.generate").record(1234);
    reg.hist("span.campaign.generate").record(99_000);
    reg.snapshot()
}

/// Every shape the codec must reproduce, by name.
fn shapes() -> &'static [(&'static str, CampaignMeta)] {
    static SHAPES: OnceLock<Vec<(&'static str, CampaignMeta)>> = OnceLock::new();
    SHAPES.get_or_init(|| {
        let both = [Side::Nvcc, Side::Hipcc];
        let fp64 = config(Precision::F64, TestMode::Direct, 6);
        assert_eq!(fp64.inputs_per_program, 7);
        let fp64_direct = run(fp64.clone(), &both);

        let truth = run(
            config(Precision::F32, TestMode::Hipified, 6),
            &[Side::Nvcc, Side::Hipcc, Side::Reference],
        );

        let mut fuel = fp64.clone();
        fuel.budget = ExecBudget::steps(200);
        let faulted = run(fuel, &both);
        assert!(!faulted.quarantine.is_empty(), "a 200-step budget quarantines tests");
        assert!(
            faulted
                .tests
                .iter()
                .flat_map(|t| t.results.values().flatten())
                .any(|r| r.error.is_some()),
            "a 200-step budget leaves error records"
        );

        let mut with_metrics = fp64_direct.clone();
        with_metrics.metrics = Some(metrics());

        let mut odd = run(config(Precision::F64, TestMode::Direct, 2), &both);
        odd.tests[0].program_id = ODD.to_string();
        let records = odd.tests[1].results.values_mut().next().expect("a result column");
        records[0].printed = ODD.to_string();
        records[1].error = Some(ODD.to_string());
        let column = records.clone();
        odd.tests[1].results.insert(format!("{ODD}:O9"), column);
        odd.quarantine.push(TestFault {
            index: 1,
            program_id: ODD.to_string(),
            seed: 7,
            side: "nvcc:O0".to_string(),
            kind: FaultKind::Panic,
            detail: ODD.to_string(),
        });

        vec![
            ("fp64-direct", fp64_direct),
            ("fp32-hipify-reference", truth),
            ("fuel-200-faulted", faulted),
            ("metrics", with_metrics),
            ("nvcc-only-half", run(fp64.clone(), &[Side::Nvcc])),
            ("zero-tests", run(fp64.with_programs(0), &both)),
            ("odd-strings", odd),
        ]
    })
}

fn to_bytes(meta: &CampaignMeta) -> Vec<u8> {
    serde_json::to_vec(meta).expect("campaign metadata serializes")
}

fn read(bytes: &[u8], what: &str) -> CampaignMeta {
    serde_json::from_slice(bytes).unwrap_or_else(|e| panic!("{what}: {e}"))
}

fn rejects(bytes: &[u8]) -> bool {
    serde_json::from_slice::<CampaignMeta>(bytes).is_err()
}

#[test]
fn every_shape_saves_loads_and_reads_back() {
    let dir = std::env::temp_dir().join(format!("meta_json_shapes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, meta) in shapes() {
        let bytes = to_bytes(meta);
        assert!(read(&bytes, name) == *meta, "{name}: the value survives the round trip");
        let path = dir.join(format!("{name}.json"));
        meta.save(&path).unwrap();
        assert!(std::fs::read(&path).unwrap() == bytes, "{name}: save writes the compact bytes");
        assert!(CampaignMeta::load(&path).unwrap() == *meta, "{name}: load reads it back");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_results_rewrite_byte_identical() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../farm/tests/fixtures/json");
    for name in ["result_fp32_hipify_reference.json", "result_fuel200.json"] {
        let stored = std::fs::read(format!("{dir}/{name}")).unwrap();
        let meta = read(&stored, name);
        let written = to_bytes(&meta);
        assert!(
            written == stored,
            "{name}: bytes differ at offset {} ({} vs {} bytes)",
            first_difference(&written, &stored),
            written.len(),
            stored.len()
        );
    }
}

/// The stored FP32 result with its tests tiled, under fresh indices,
/// until the document holds at least `bytes` bytes.
fn large_result(bytes: usize) -> CampaignMeta {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../farm/tests/fixtures/json");
    let name = "result_fp32_hipify_reference.json";
    let stored = std::fs::read(format!("{dir}/{name}")).unwrap();
    let mut meta = read(&stored, name);
    let tile = std::mem::take(&mut meta.tests);
    let tile_bytes = stored.len() - to_bytes(&meta).len();
    let copies = bytes / tile_bytes + 1;
    meta.tests = (0..copies)
        .flat_map(|k| tile.iter().cloned().map(move |t| (k, t)))
        .enumerate()
        .map(|(i, (_, mut t))| {
            t.index = i as u64;
            t
        })
        .collect();
    meta
}

/// A sink that keeps what it is given and the size of each write.
#[derive(Default)]
struct Counting {
    bytes: Vec<u8>,
    writes: Vec<usize>,
}

impl std::io::Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        self.writes.push(buf.len());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_large_result_streams_in_bounded_writes_of_the_compact_bytes() {
    let meta = large_result(2 << 20);
    let compact = to_bytes(&meta);
    assert!(compact.len() >= 2 << 20, "{} bytes", compact.len());
    let mut sink = Counting::default();
    serde::to_writer(&mut sink, &meta).unwrap();
    let largest = sink.writes.iter().copied().max().unwrap_or(0);
    assert!(largest <= 128 << 10, "a write of {largest} bytes");
    assert!(sink.writes.len() >= compact.len() / (128 << 10), "{} writes", sink.writes.len());
    assert!(
        sink.bytes == compact,
        "streamed bytes differ at {}",
        first_difference(&sink.bytes, &compact)
    );
    let path = std::env::temp_dir().join(format!("meta-json-large-{}.json", std::process::id()));
    meta.save(&path).unwrap();
    assert!(std::fs::read(&path).unwrap() == compact, "save writes the compact bytes");
    std::fs::remove_file(&path).ok();
}

/// A sink that takes `left` more bytes and then fails.
struct FailAfter<W> {
    inner: W,
    left: usize,
}

impl<W: std::io::Write> std::io::Write for FailAfter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.len() > self.left {
            return Err(std::io::Error::other("the disk is full"));
        }
        self.left -= buf.len();
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A save is `atomic_write_with` over `serde::to_writer`: when its sink
/// fails partway, the save fails, its temp file is gone and the file it
/// would have replaced is as it was.
#[test]
fn a_save_whose_sink_fails_partway_leaves_the_old_file() {
    let dir = std::env::temp_dir().join(format!("meta-json-failing-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("merged.json");
    let old = &shapes()[0].1;
    old.save(&target).unwrap();
    let before = std::fs::read(&target).unwrap();
    let meta = large_result(1 << 20);
    let result = difftest::atomic_write_with(&target, |file| {
        serde::to_writer(FailAfter { inner: file, left: 300 << 10 }, &meta)
    });
    assert!(result.is_err(), "the failing sink's error comes back");
    assert!(std::fs::read(&target).unwrap() == before, "the old file is untouched");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["merged.json"], "the temp file is removed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strings_escape_as_serde_json_escapes_them() {
    let escaped = "\"q\\\"uote \\\\ back /slash \\n\\r\\t\\b\\f\\u0000\\u001f\u{7f} é 漢字 😀\"";
    assert_eq!(serde_json::to_string(ODD).unwrap(), escaped);
    assert_eq!(serde_json::from_str::<String>(escaped).unwrap(), ODD);
}

fn first_difference(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()))
}

/// `v` as compact JSON with every object's members in reverse key order.
fn reversed(v: &Value, out: &mut String) {
    match v {
        Value::Object(m) => {
            out.push('{');
            for (i, (k, v)) in m.iter().rev().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(k).unwrap());
                out.push(':');
                reversed(v, out);
            }
            out.push('}');
        }
        Value::Array(a) => {
            out.push('[');
            for (i, v) in a.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reversed(v, out);
            }
            out.push(']');
        }
        leaf => out.push_str(&serde_json::to_string(leaf).unwrap()),
    }
}

#[test]
fn reader_accepts_whitespace_any_member_order_and_unknown_members() {
    for (name, meta) in shapes() {
        // whitespace: pretty printing, with \r\n\t for every newline
        // (a newline inside a string is escaped, so every raw one is
        // layout)
        let pretty = serde_json::to_vec_pretty(meta).unwrap();
        let mut spaced = b" \t".to_vec();
        for &b in &pretty {
            match b {
                b'\n' => spaced.extend_from_slice(b"\r\n\t"),
                b => spaced.push(b),
            }
        }
        spaced.extend_from_slice(b"\n\n ");
        assert!(read(&spaced, name) == *meta, "{name}: whitespace");

        // member order: sorted by key, and reverse-sorted
        let value = serde_json::to_value(meta).unwrap();
        let sorted = serde_json::to_vec(&value).unwrap();
        assert!(sorted != to_bytes(meta) || meta.tests.is_empty());
        assert!(read(&sorted, name) == *meta, "{name}: sorted members");
        let mut backwards = String::new();
        reversed(&value, &mut backwards);
        assert!(read(backwards.as_bytes(), name) == *meta, "{name}: reversed members");

        // unknown members at every level the codec reads by hand
        let junk = serde_json::json!({"a": [1, 2.5, -3, true, null, {"b": "\u{1}x"}], "c": {}});
        let mut v = value.clone();
        v["zz_top"] = junk.clone();
        if !meta.tests.is_empty() {
            v["tests"][0]["zz_test"] = junk.clone();
            v["tests"][0]["inputs"][0]["zz_input"] = junk.clone();
            let key = meta.tests[0].results.keys().next().cloned();
            if let Some(key) = key {
                v["tests"][0]["results"][key.as_str()][0]["zz_record"] = junk.clone();
            }
        }
        let bytes = serde_json::to_vec(&v).unwrap();
        assert!(read(&bytes, name) == *meta, "{name}: unknown members");
    }
}

#[test]
fn reader_accepts_absent_and_null_optional_members() {
    let (_, meta) = &shapes()[3];
    assert!(meta.metrics.is_some());
    let mut v = serde_json::to_value(meta).unwrap();
    v["metrics"] = Value::Null;
    let back = read(&serde_json::to_vec(&v).unwrap(), "null metrics");
    assert!(back.metrics.is_none() && back.tests == meta.tests);
    v.as_object_mut().unwrap().remove("metrics");
    let back = read(&serde_json::to_vec(&v).unwrap(), "absent metrics");
    assert!(back.metrics.is_none());

    let (_, meta) = &shapes()[2];
    assert!(!meta.quarantine.is_empty());
    let mut v = serde_json::to_value(meta).unwrap();
    v.as_object_mut().unwrap().remove("quarantine");
    for test in v["tests"].as_array_mut().unwrap() {
        let results = test["results"].as_object_mut().unwrap();
        let keys: Vec<String> = results.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            for record in results.get_mut(&key).unwrap().as_array_mut().unwrap() {
                record.as_object_mut().unwrap().remove("exceptions");
            }
        }
    }
    let back = read(&serde_json::to_vec(&v).unwrap(), "absent quarantine and exceptions");
    assert!(back.quarantine.is_empty());
    let records = back.tests.iter().flat_map(|t| t.results.values().flatten());
    assert!(records.clone().all(|r| r.exceptions.is_empty()));
    assert_eq!(
        records.count(),
        meta.tests.iter().flat_map(|t| t.results.values().flatten()).count()
    );
}

#[test]
fn reader_decodes_every_string_escape() {
    let (_, meta) = &shapes()[6];
    let bytes = to_bytes(meta);
    let id = &meta.tests[1].program_id;
    let plain = format!("\"program_id\":{}", serde_json::to_string(id).unwrap());
    let text = String::from_utf8(bytes).unwrap();
    assert!(text.contains(&plain));
    // the same id spelled with \u escapes (one a surrogate pair) and `\/`
    let mut escaped = String::from("\"program_id\":\"");
    for ch in id.chars() {
        let mut units = [0u16; 2];
        for unit in ch.encode_utf16(&mut units) {
            escaped.push_str(&format!("\\u{unit:04X}"));
        }
    }
    escaped.push('"');
    let mut expected = meta.clone();
    let respelled = text.replacen(&plain, &escaped, 1);
    assert!(read(respelled.as_bytes(), "\\u escapes") == expected);
    let slashed = text.replacen(&plain, &plain.replacen("varity_", "varity\\/", 1), 1);
    expected.tests[1].program_id = id.replacen("varity_", "varity/", 1);
    assert!(read(slashed.as_bytes(), "\\/ escape") == expected);
    // the odd strings hold every short escape and \u00XX form
    assert!(read(text.as_bytes(), "short escapes") == *meta);
    let emoji = "\"\\ud83d\\ude00\"";
    let with_emoji = text.replacen(&plain, &format!("\"program_id\":{emoji}"), 1);
    expected.tests[1].program_id = "😀".to_string();
    assert!(read(with_emoji.as_bytes(), "surrogate pair") == expected);
    for lone in ["\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83dx\"", "\"\\ud83d\\u0041\""] {
        let bad = text.replacen(&plain, &format!("\"program_id\":{lone}"), 1);
        assert!(rejects(bad.as_bytes()), "{lone} is a lone surrogate");
    }
}

#[test]
fn reader_rejects_missing_mistyped_and_trailing_members() {
    let (_, meta) = &shapes()[0];
    let value = serde_json::to_value(meta).unwrap();
    let rejected = |v: &Value, what: &str| {
        let bytes = serde_json::to_vec(v).unwrap();
        assert!(rejects(&bytes), "{what} must not load");
    };
    for key in ["config", "sides_run", "tests"] {
        let mut v = value.clone();
        v.as_object_mut().unwrap().remove(key);
        rejected(&v, &format!("missing {key}"));
    }
    for key in ["index", "program_id", "inputs", "results"] {
        let mut v = value.clone();
        v["tests"][0].as_object_mut().unwrap().remove(key);
        rejected(&v, &format!("missing test {key}"));
    }
    let column = meta.tests[0].results.keys().next().unwrap().clone();
    for key in ["bits", "outcome", "printed", "error"] {
        let mut v = value.clone();
        v["tests"][0]["results"][column.as_str()][0].as_object_mut().unwrap().remove(key);
        rejected(&v, &format!("missing record {key}"));
    }
    let mut v = value.clone();
    v["tests"][0]["inputs"][0].as_object_mut().unwrap().remove("values");
    rejected(&v, "missing values");

    for bad in [serde_json::json!({}), serde_json::json!([1]), Value::Null] {
        let mut v = value.clone();
        v["tests"] = bad.clone();
        rejected(&v, &format!("tests = {bad}"));
    }
    let mistyped: [(&str, Value); 12] = [
        ("index", serde_json::json!("1")),
        ("index", serde_json::json!(-1)),
        ("index", serde_json::json!(1.5)),
        ("program_id", serde_json::json!(5)),
        ("inputs", serde_json::json!([{"values": [{"Float": "x"}]}])),
        ("inputs", serde_json::json!([{"values": [{"Int": 1.5}]}])),
        ("inputs", serde_json::json!([{"values": [{"Float": 1.0, "Int": 1}]}])),
        ("inputs", serde_json::json!([{"values": [{"Double": 1.0}]}])),
        ("inputs", serde_json::json!([{"values": ["Float"]}])),
        ("results", serde_json::json!([])),
        ("results", serde_json::json!({"nvcc:O0": {}})),
        ("program_id", Value::Null),
    ];
    for (key, bad) in mistyped {
        let mut v = value.clone();
        v["tests"][0][key] = bad.clone();
        rejected(&v, &format!("test {key} = {bad}"));
    }
    let record_mistyped: [(&str, Value); 8] = [
        ("bits", serde_json::json!(-1)),
        ("bits", serde_json::json!(1.5)),
        ("bits", serde_json::json!("7")),
        ("outcome", serde_json::json!("Bogus")),
        ("outcome", serde_json::json!(1)),
        ("printed", serde_json::json!(5)),
        ("exceptions", serde_json::json!(256)),
        ("error", serde_json::json!(5)),
    ];
    for (key, bad) in record_mistyped {
        let mut v = value.clone();
        v["tests"][0]["results"][column.as_str()][0][key] = bad.clone();
        rejected(&v, &format!("record {key} = {bad}"));
    }

    let bytes = to_bytes(meta);
    for tail in [&b"x"[..], b"{}", b",", b"]", b" 1", b"\0"] {
        let mut bad = bytes.clone();
        bad.extend_from_slice(tail);
        assert!(rejects(&bad), "trailing {tail:?} must not load");
    }
    // a repeated struct member is an error, not a silent pick
    let text = String::from_utf8(bytes).unwrap();
    let dup = text.replacen("{\"index\":", "{\"index\":0,\"index\":", 1);
    assert!(rejects(dup.as_bytes()), "repeated member");
}

#[test]
fn empty_wrong_shape_and_truncated_files_are_errors() {
    let dir = std::env::temp_dir().join(format!("meta_json_corrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let load = |bytes: &[u8]| {
        let path = dir.join("meta.json");
        std::fs::write(&path, bytes).unwrap();
        CampaignMeta::load(&path)
    };
    assert!(load(b"").is_err());
    for bad in [&b"{}"[..], b"null", b"[]", b"42", b"\"meta\"", b"{\"config\":3}", b"\xff"] {
        assert!(load(bad).is_err(), "{:?} must not load", String::from_utf8_lossy(bad));
    }
    assert!(CampaignMeta::load(&dir.join("absent.json")).is_err());
    let full = to_bytes(&shapes()[0].1);
    for cut in (0..full.len()).step_by(97).chain([full.len() - 1]) {
        assert!(load(&full[..cut]).is_err(), "truncation at {cut} bytes must not load");
    }
    assert!(load(&full).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// A 20-program `--fp32 --hipify --reference --inputs 1` result at O0
/// and O3_FM, with one error record: every member the codec reads by
/// hand, in few enough bytes that every flip stays affordable in a debug
/// build.
fn damage_fixture() -> Vec<u8> {
    let mut config = config(Precision::F32, TestMode::Hipified, 20);
    config.inputs_per_program = 1;
    config.levels = vec![OptLevel::O0, OptLevel::O3Fm];
    let mut meta = run(config, &[Side::Nvcc, Side::Hipcc, Side::Reference]);
    let column = meta.tests[1].results.values_mut().next().expect("a result column");
    column[0].error = Some("step limit exceeded".to_string());
    to_bytes(&meta)
}

/// Run `check` on every position of `0..len`, split over a few threads.
fn each_position(len: usize, check: impl Fn(usize) + Sync) {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    std::thread::scope(|s| {
        for t in 0..threads {
            let check = &check;
            s.spawn(move || (t..len).step_by(threads).for_each(check));
        }
    });
}

#[test]
fn every_truncation_and_bit_flip_is_an_error_or_a_valid_value() {
    let full = damage_fixture();
    each_position(full.len(), |cut| {
        assert!(rejects(&full[..cut]), "truncation at {cut} bytes loaded");
    });
    let valid = std::sync::atomic::AtomicUsize::new(0);
    each_position(full.len(), |pos| {
        let mut damaged = full.clone();
        for bit in 0..8 {
            damaged[pos] ^= 1 << bit;
            if let Ok(meta) = serde_json::from_slice::<CampaignMeta>(&damaged) {
                let back = read(&to_bytes(&meta), "rewritten");
                assert!(back == meta, "flip of bit {bit} at byte {pos}: no round trip");
                valid.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            damaged[pos] ^= 1 << bit;
        }
    });
    // flips inside strings and digits leave valid documents
    assert!(valid.into_inner() > 0);
}
