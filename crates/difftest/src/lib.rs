//! # difftest — the differential-testing harness
//!
//! End-to-end implementation of the paper's testing campaign:
//!
//! 1. generate `N` random programs and `K` inputs each ([`progen`]);
//! 2. for every optimization level, compile each test with the nvcc-like
//!    and hipcc-like toolchains ([`gpucc`]) — routing the hipcc side
//!    through the HIPIFY translator in HIPIFY mode ([`hipify`]);
//! 3. execute both binaries on their devices ([`gpusim`]) with the same
//!    inputs;
//! 4. compare results bitwise, classify discrepancies into the paper's
//!    seven classes ([`outcome`], [`compare`]) — and, when the
//!    double-double ground-truth side ran ([`side`], `campaign
//!    --reference`), score every strict-cell discrepancy against the
//!    truth and say *who drifted* ([`verdict`]);
//! 5. aggregate per-level class counts and adjacency matrices and render
//!    the paper's tables ([`report`]);
//! 6. persist / merge campaign metadata as JSON for the between-platform
//!    protocol of Fig. 3 ([`metadata`]), written and read in one pass
//!    with no intermediate tree by the workspace's JSON codec;
//! 7. shrink failure-inducing tests to minimal reproducers ([`reduce`]);
//! 8. isolate the first diverging statement via trace alignment
//!    ([`isolate`]) — pLiner-style root-cause localization;
//! 9. attribute discrepancies to the fast-math passes that rewrote the
//!    offending kernels ([`attribution`]), and carry campaign telemetry
//!    (spans, counters, throughput) through the metadata protocol
//!    ([`obs`]);
//! 10. survive their own failures: per-test isolation and quarantine
//!     ([`fault`]), crash-safe checkpoint/resume via an append-only
//!     CRC-framed journal ([`checkpoint`]), and — under the test-only
//!     `chaos` feature — injected crashes, torn writes, and I/O errors
//!     that prove the recovery paths ([`chaos`]);
//! 11. scale out: one ordered thread map over a campaign's tests
//!     ([`par`]), shard-sliced generation
//!     ([`metadata::CampaignMeta::generate_shard`]), sharded checkpoints
//!     ([`checkpoint::ShardSpec`]), stop-file drain, and order-independent
//!     incremental shard merging
//!     ([`metadata::CampaignMeta::merge_shards_partial`]) — the worker-
//!     side primitives the `farm` crate's supervisor composes into a
//!     self-healing multi-process fuzzing service.

#![deny(missing_docs)]

pub mod attribution;
pub mod campaign;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod checkpoint;
pub mod codec;
pub mod compare;
pub mod cross;
pub mod fault;
pub mod isolate;
pub mod metadata;
pub mod outcome;
pub mod par;
pub mod reduce;
pub mod report;
pub mod side;
pub mod stats;
pub mod verdict;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport, TestMode};
pub use checkpoint::{
    atomic_write, atomic_write_with, Checkpoint, FtSession, FtStatus, Journal, ShardSpec,
};
pub use compare::compare_runs;
pub use fault::{FaultKind, TestFault};
pub use outcome::DiscrepancyClass;
pub use side::{Side, SideKey};
pub use verdict::{judge, TruthScore, Verdict, VerdictStats};
