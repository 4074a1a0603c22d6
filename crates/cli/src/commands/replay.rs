//! `varity-gpu replay` — re-run quarantined tests from a campaign's
//! quarantine log.
//!
//! The log (written by `campaign --quarantine` / `--checkpoint`) is
//! JSONL: line 1 is a `{"config": ...}` header with the full
//! [`CampaignConfig`], each following line one [`TestFault`]. Campaigns
//! are deterministic in their config, so `(seed, index)` regenerates the
//! exact faulting program and inputs; replay rebuilds the faulted side
//! and runs every input under the same budget, reporting whether the
//! fault reproduces.
//!
//! Faults replay inside the same isolation the campaign uses
//! ([`difftest::fault::catch_isolated`]), so replaying a panicking test
//! prints the contained panic instead of crashing the tool.
//!
//! Exit codes: 0 = replay ran (whether or not faults reproduced),
//! 1 = I/O or malformed log, 2 = usage error.

use super::parse_known;
use difftest::campaign::CampaignConfig;
use difftest::fault::{catch_isolated, TestFault};
use difftest::metadata::build_side;
use gpucc::interp::{execute_prepared_budgeted, prepare};
use gpucc::pipeline::{OptLevel, Toolchain};
use gpusim::{Device, DeviceKind};
use progen::gen::generate_program;
use progen::inputs::generate_inputs;

const PAIRS: &[&str] = &["--index"];
const SWITCHES: &[&str] = &[];

pub fn run(argv: &[String]) -> i32 {
    let args = match parse_known(argv, PAIRS, SWITCHES) {
        Ok(a) => a,
        Err(c) => return c,
    };
    let [path] = args.positional() else {
        eprintln!("usage: varity-gpu replay FILE [--index N]");
        return 2;
    };
    let only_index: Option<u64> = match args.get("--index") {
        None => None,
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("bad value for --index: {v:?}");
                return 2;
            }
        },
    };

    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read quarantine log {path}: {e}");
            return 1;
        }
    };
    let (config, faults) = match parse_quarantine(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("malformed quarantine log {path}: {e}");
            return 1;
        }
    };

    let selected: Vec<&TestFault> = match only_index {
        None => faults.iter().collect(),
        Some(i) => faults.iter().filter(|f| f.index == i).collect(),
    };
    if selected.is_empty() {
        println!("nothing to replay ({} fault(s) in log)", faults.len());
        return 0;
    }

    eprintln!("[replay] {} quarantined test(s) from {path}", selected.len());
    for fault in selected {
        replay_one(&config, fault);
    }
    0
}

/// Parse the quarantine JSONL: config header line + fault lines.
fn parse_quarantine(text: &str) -> Result<(CampaignConfig, Vec<TestFault>), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty file")?;
    #[derive(serde::Deserialize)]
    struct Header {
        config: CampaignConfig,
    }
    let header: Header =
        serde_json::from_str(header).map_err(|e| format!("bad config header: {e}"))?;
    let mut faults = Vec::new();
    for (i, line) in lines.enumerate() {
        let fault: TestFault =
            serde_json::from_str(line).map_err(|e| format!("bad fault on line {}: {e}", i + 2))?;
        faults.push(fault);
    }
    Ok((header.config, faults))
}

/// Parse a `"{toolchain}:{level}"` side key back into its parts.
fn parse_side_key(side: &str) -> Option<(Toolchain, OptLevel)> {
    let (tc, level) = side.split_once(':')?;
    let tc = match tc {
        "nvcc" => Toolchain::Nvcc,
        "hipcc" => Toolchain::Hipcc,
        _ => return None,
    };
    let level = OptLevel::ALL.into_iter().find(|l| l.label() == level)?;
    Some((tc, level))
}

fn replay_one(config: &CampaignConfig, fault: &TestFault) {
    println!(
        "replay index {} ({}) side {} — quarantined as {}: {}",
        fault.index, fault.program_id, fault.side, fault.kind, fault.detail
    );
    let Some((toolchain, level)) = parse_side_key(&fault.side) else {
        println!("  cannot parse side key {:?}; skipping", fault.side);
        return;
    };
    let program = generate_program(&config.gen, fault.seed, fault.index);
    if program.id != fault.program_id {
        println!(
            "  regenerated id {} != recorded {}; config/log mismatch, skipping",
            program.id, fault.program_id
        );
        return;
    }
    let inputs = generate_inputs(&program, fault.seed, config.inputs_per_program);
    let device = Device::with_quirks(
        match toolchain {
            Toolchain::Nvcc => DeviceKind::NvidiaLike,
            Toolchain::Hipcc => DeviceKind::AmdLike,
        },
        config.quirks,
    );
    let outcome = catch_isolated(|| {
        let ir = build_side(&program, toolchain, level, config.mode);
        let kernel = prepare(&ir).expect("generated kernels are valid");
        inputs
            .iter()
            .map(|input| match execute_prepared_budgeted(&kernel, &device, input, config.budget) {
                Ok(r) => format!("ok {}", r.value.format_exact()),
                Err(e) => format!("error: {e}"),
            })
            .collect::<Vec<String>>()
    });
    match outcome {
        Ok(results) => {
            for (i, r) in results.iter().enumerate() {
                println!("  input {i}: {r}");
            }
            let reproduced = results.iter().any(|r| r.starts_with("error:"));
            // an injected (chaos) panic won't reproduce in a binary
            // built without the chaos feature — that's a "no" here
            println!("  fault reproduced: {}", if reproduced { "yes" } else { "no" });
        }
        Err(msg) => {
            println!("  panicked (contained): {msg}");
            println!("  fault reproduced: yes");
        }
    }
}
