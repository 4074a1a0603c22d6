//! Tolerance sweep: how many of the campaign's `Num, Num` discrepancies
//! are last-ULP noise vs gross divergence? Runs one campaign, stores the
//! exact result bits, then re-analyzes under increasingly permissive
//! relative tolerances — quantifying the "small numerical difference …
//! magnified with each loop iteration" spectrum of the paper's case
//! study 1 without re-executing anything.
//!
//! Usage: `tolerance [--programs N] [--fp32] [--seed S]`

use difftest::campaign::{analyze_with_tolerance, CampaignConfig, TestMode};
use difftest::checkpoint::{run_sides_ft, FtSession};
use difftest::metadata::CampaignMeta;
use difftest::outcome::DiscrepancyClass;
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
        .unwrap_or(500);
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2024);

    let precision = if fp32 { Precision::F32 } else { Precision::F64 };
    let mut cfg = CampaignConfig::default_for(precision, TestMode::Direct).with_programs(programs);
    cfg.seed = seed;

    eprintln!("running {} {} programs once …", programs, precision.label());
    let mut meta = CampaignMeta::generate(&cfg);
    run_sides_ft(&mut meta, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    run_sides_ft(&mut meta, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);

    println!(
        "DISCREPANCIES vs RELATIVE TOLERANCE ({} programs, {}, seed {seed})\n",
        programs,
        precision.label()
    );
    println!("{:>12}{:>16}{:>12}{:>18}", "rel tol", "discrepancies", "Num,Num", "cross-class");
    let tolerances = [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1];
    let mut prev = u64::MAX;
    for tol in tolerances {
        let report = analyze_with_tolerance(&meta, tol);
        let total = report.total_discrepancies();
        let numnum = report.class_totals()[DiscrepancyClass::NumNum.index()];
        println!(
            "{:>12}{:>16}{:>12}{:>18}",
            if tol == 0.0 { "bitwise".to_string() } else { format!("{tol:e}") },
            total,
            numnum,
            total - numnum
        );
        assert!(total <= prev, "tolerance must be monotone");
        prev = total;
    }
    println!(
        "\n(cross-class discrepancies — NaN/Inf/Zero flips — are immune to\n\
         tolerance by definition; the Num,Num column shows how much of the\n\
         campaign's signal is last-ULP noise vs structural divergence)"
    );
}
