//! Exception-flag divergence between the platforms (GPU-FPX-style):
//! which IEEE events one platform raises and the other does not, including
//! the *silent* cases where the printed values agree bit-for-bit but the
//! exception behaviour differs — invisible to the paper's comparison.
//!
//! Usage: `exceptions_diff [--programs N] [--fp32] [--seed S]`

use difftest::campaign::{CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::stats::exception_diff;
use difftest::Side;
use gpucc::ExecTier;
use progen::ast::Precision;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fp32 = args.iter().any(|a| a == "--fp32");
    let programs = args
        .iter()
        .position(|a| a == "--programs")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(600);
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024);

    let precision = if fp32 { Precision::F32 } else { Precision::F64 };
    let mut cfg = CampaignConfig::default_for(precision, TestMode::Direct).with_programs(programs);
    cfg.seed = seed;

    eprintln!("running {} {} programs …", programs, precision.label());
    let mut meta = CampaignMeta::generate(&cfg);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);

    let rows = exception_diff::analyze(&meta);
    println!("{}", exception_diff::render(&rows));
    println!(
        "('silent' runs print bit-identical values but raised different\n\
         exception events along the way — only exception-level tooling like\n\
         GPU-FPX can see them; value-comparing campaigns cannot)"
    );
}
