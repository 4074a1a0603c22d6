//! Input-feature attribution: which input characteristics correlate with
//! discrepancies. The paper's case study 1 noted only one of ten inputs
//! triggered the `fmod` divergence; this quantifies the phenomenon
//! campaign-wide.
//!
//! Usage: `input_analysis [--programs N] [--fp32] [--seed S]`

use difftest::campaign::{analyze, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::stats::input_features;
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
        .unwrap_or(800);
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
    let campaign = analyze(&meta);
    let features = input_features::analyze(&meta);
    println!("{}", input_features::render(&features, &campaign));
    println!(
        "(an input is 'discrepant' if any optimization level diverged on it;\n\
         features are not exclusive — an input can appear in several rows)"
    );
}
