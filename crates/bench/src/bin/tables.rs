//! Regenerate the paper's Tables IV–X: the three campaigns (FP64 direct,
//! FP64 HIPIFY-converted, FP32 direct) with per-level discrepancy
//! breakdowns and adjacency matrices.
//!
//! Usage: `tables [--programs N] [--full] [--seed S]`
//!
//! `--full` scales to the paper's 3,540/2,840-program campaigns (a few
//! seconds in a release build on two cores, about 20 s in a debug
//! build); the default is a few hundred programs — counts shrink
//! proportionally but every *shape* claim of §IV holds.

use difftest::campaign::{run_campaign, CampaignConfig, TestMode};
use difftest::report::{render_adjacency, render_per_level, render_summary};
use progen::ast::Precision;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut programs: Option<usize> = None;
    let mut seed = 2024u64;
    let mut full = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--programs" => {
                i += 1;
                programs = Some(args[i].parse().expect("--programs N"));
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed S");
            }
            "--full" => full = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut fp64 = CampaignConfig::default_for(Precision::F64, TestMode::Direct);
    let mut fp64_hipify = CampaignConfig::default_for(Precision::F64, TestMode::Hipified);
    let mut fp32 = CampaignConfig::default_for(Precision::F32, TestMode::Direct);
    if full {
        fp64.n_programs = 3540;
        fp64_hipify.n_programs = 3540;
        fp32.n_programs = 2840;
    }
    if let Some(n) = programs {
        fp64.n_programs = n;
        fp64_hipify.n_programs = n;
        fp32.n_programs = n;
    }
    for cfg in [&mut fp64, &mut fp64_hipify, &mut fp32] {
        cfg.seed = seed;
    }

    eprintln!(
        "running campaigns: FP64 {}p, FP64-HIPIFY {}p, FP32 {}p ...",
        fp64.n_programs, fp64_hipify.n_programs, fp32.n_programs
    );
    let t0 = std::time::Instant::now();
    let r64 = run_campaign(&fp64);
    eprintln!("FP64 done in {:.1?}", t0.elapsed());
    let t1 = std::time::Instant::now();
    let r64h = run_campaign(&fp64_hipify);
    eprintln!("FP64-HIPIFY done in {:.1?}", t1.elapsed());
    let t2 = std::time::Instant::now();
    let r32 = run_campaign(&fp32);
    eprintln!("FP32 done in {:.1?}", t2.elapsed());

    println!("{}", render_summary(&[&r64, &r64h, &r32]));
    println!(
        "{}",
        render_per_level(&r64, "TABLE V — DISCREPANCIES PER OPTIMIZATION OPTION (FP64)")
    );
    println!("{}", render_adjacency(&r64, "TABLE VI — ADJACENCY MATRICES (FP64)"));
    println!(
        "{}",
        render_per_level(
            &r64h,
            "TABLE VII — DISCREPANCIES PER OPTIMIZATION OPTION (HIPIFY-CONVERTED FP64)"
        )
    );
    println!(
        "{}",
        render_adjacency(&r64h, "TABLE VIII — ADJACENCY MATRICES (HIPIFY-CONVERTED FP64)")
    );
    println!(
        "{}",
        render_per_level(&r32, "TABLE IX — DISCREPANCIES PER OPTIMIZATION OPTION (FP32)")
    );
    println!("{}", render_adjacency(&r32, "TABLE X — ADJACENCY MATRICES (FP32)"));
}
