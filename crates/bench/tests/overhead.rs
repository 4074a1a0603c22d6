//! Telemetry overhead guard.
//!
//! The obs instrumentation must stay cheap enough to leave on by
//! default: this test runs the same small campaign on the interpreter
//! tier with telemetry off and on, and fails if the instrumented run
//! costs more than 25% extra wall-clock. The design budget is ~5%; the
//! looser bound absorbs CI jitter while still catching an accidental
//! hot-loop regression (per-run registry lookups, per-op counter bumps),
//! which shows up as 2–10×, not 1.25×.
//!
//! The off and on runs are timed in interleaved rounds, each round
//! running one of each and alternating which goes first, and each
//! setting keeps its best time (best-of filters scheduler noise far
//! better than averaging). A block of off runs followed by a block of on
//! runs would put any drift in machine speed between the blocks on one
//! side of the ratio.

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::Side;
use gpucc::ExecTier;
use progen::ast::Precision;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn run_once(config: &CampaignConfig) -> Duration {
    let start = Instant::now();
    let mut meta = CampaignMeta::generate(config);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
    black_box(&meta);
    start.elapsed()
}

/// Interleaved off/on rounds; each setting keeps its best time.
const ROUNDS: usize = 10;

#[test]
fn telemetry_overhead_stays_within_budget() {
    let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(60);

    // warm up allocators, thread pools, and code paths on both settings
    obs::set_enabled(false);
    run_once(&config);
    obs::set_enabled(true);
    run_once(&config);

    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for round in 0..ROUNDS {
        let order = if round % 2 == 0 { [false, true] } else { [true, false] };
        for enabled in order {
            obs::set_enabled(enabled);
            let t = run_once(&config);
            let best = if enabled { &mut on } else { &mut off };
            *best = (*best).min(t);
        }
    }
    obs::set_enabled(true); // leave the process-global switch as found

    let ratio = on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    eprintln!("telemetry on/off ratio {ratio:.3} (on {on:?}, off {off:?})");
    assert!(
        ratio <= 1.25,
        "telemetry overhead {:.1}% (on {:?} vs off {:?}) exceeds the budget",
        (ratio - 1.0) * 100.0,
        on,
        off
    );
}
