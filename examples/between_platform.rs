//! The between-platform protocol of the paper's Fig. 3.
//!
//! GPUs from different vendors live in different clusters, so a campaign
//! runs in two halves: cluster `C1` (NVIDIA) generates the tests, runs its
//! compiler, and saves a JSON metadata file; cluster `C2` (AMD) regenerates
//! the *same* tests from the shared configuration, runs its side, and the
//! merged metadata is analyzed.
//!
//! Run with: `cargo run --release --example between_platform`

use gpu_numerics::difftest::campaign::{analyze, CampaignConfig, TestMode};
use gpu_numerics::difftest::checkpoint::{run_sides_ft, FtSession};
use gpu_numerics::difftest::metadata::CampaignMeta;
use gpu_numerics::difftest::report::render_digest;
use gpu_numerics::difftest::Side;
use gpu_numerics::gpucc::ExecTier;
use gpu_numerics::progen::Precision;

fn main() {
    let dir = std::env::temp_dir().join("gpu_numerics_between_platform");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let c1_path = dir.join("lassen_metadata.json");
    let c2_path = dir.join("tioga_metadata.json");

    let config = CampaignConfig::default_for(Precision::F64, TestMode::Direct).with_programs(60);

    // ---- cluster C1 (the NVIDIA system) ----
    println!("[C1/Lassen-sim] generating tests and running the nvcc side…");
    let mut c1 = CampaignMeta::generate(&config);
    run_sides_ft(&mut c1, &[Side::Nvcc], &FtSession::plain(), ExecTier::Interp);
    c1.save(&c1_path).expect("save C1 metadata");
    println!("[C1/Lassen-sim] saved {} tests to {}", c1.tests.len(), c1_path.display());

    // ---- cluster C2 (the AMD system) ----
    // C2 loads the metadata, regenerates the exact same tests and inputs
    // from the embedded config, and runs its own side.
    println!("[C2/Tioga-sim]  loading metadata and running the hipcc side…");
    let mut c2 = CampaignMeta::load(&c1_path).expect("load on C2");
    for test in &c2.tests.clone() {
        // sanity: regeneration is bit-identical (ids checked internally)
        let p = c2.program_for(test);
        assert_eq!(p.id, test.program_id);
    }
    run_sides_ft(&mut c2, &[Side::Hipcc], &FtSession::plain(), ExecTier::Interp);
    c2.save(&c2_path).expect("save C2 metadata");

    // ---- merge + analyze ----
    let merged = CampaignMeta::merge(c1, c2).expect("same campaign");
    assert!(merged.is_complete());
    let report = analyze(&merged);
    println!("\n{}", render_digest(&report));
    for (level, stats) in &report.per_level {
        println!(
            "  {:<6} {:>4} discrepancies in {:>6} runs",
            level.label(),
            stats.discrepancies,
            stats.runs
        );
    }

    std::fs::remove_file(&c1_path).ok();
    std::fs::remove_file(&c2_path).ok();
}
