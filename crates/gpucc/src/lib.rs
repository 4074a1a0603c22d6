//! # gpucc — the simulated GPU compilers (`nvcc`-like and `hipcc`-like)
//!
//! A small but real optimizing compiler for the Varity kernel language:
//!
//! * [`ir`] — a register-based instruction IR inside structured control
//!   flow. Expressions become three-address instruction sequences;
//!   `if`/`for` stay structured (the kernels Varity emits are reducible by
//!   construction). Variables are dense slots, with one name table per
//!   kernel. It is the only IR between the AST and the bytecode: the
//!   passes, the listing, the tree walk and the bytecode lowering read
//!   it.
//! * [`lower`] — AST → IR lowering (compound assignments are expanded, so
//!   passes see the full data flow; every variable gets its slot).
//! * [`passes`] — the optimization passes: constant folding, FMA
//!   contraction, value numbering (CSE), dead-code elimination, and the
//!   fast-math set (reassociation, reciprocal substitution,
//!   finite-math-only simplification).
//! * [`pipeline`] — which passes run for `{nvcc, hipcc} × {O0..O3, O3_FM}`.
//!   The two toolchains differ exactly where the real ones do: FMA
//!   association preference, and the fast-math sets (`-ffast-math` vs
//!   `-DHIP_FAST_MATH`, which omits finite-math-only — paper §III-D).
//! * [`interp`] — the one tree-walking executor: a single walk over the
//!   IR, generic over an arithmetic domain. Its vendor domain executes
//!   compiled IR against a `gpusim::Device`, tracking IEEE exception
//!   flags and an operation-cost estimate; it is the vendor-faithful
//!   executor both campaign sides run on.
//! * [`vm`] — the compiled execution tier: IR lowered once to a flat,
//!   register-allocated bytecode and run by a dispatch loop. Only the
//!   dispatch is its own: it executes through [`interp`]'s vendor
//!   arithmetic, step meter, frame and telemetry flush, and a
//!   differential test battery and an [`vm::ExecTier::Differential`]
//!   runtime mode check it bit for bit against the walk.
//! * [`refexec`] — the extended-precision ground truth: the walk's
//!   second domain, evaluating the same IR over `fpcore::dd`
//!   double-double values with a single final rounding, providing the
//!   campaign's third (`reference`) side and the "who drifted" verdicts.
//! * [`cost`] — the per-instruction cost model behind the simulated
//!   runtimes of the paper's Table I.

#![deny(missing_docs)]

mod bytecode;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod cost;
pub mod display;
#[cfg(feature = "oracle-inject")]
pub mod inject;
pub mod interp;
pub mod ir;
pub mod lower;
mod names;
pub mod passes;
pub mod pipeline;
pub mod refexec;
mod scratch;
pub mod vm;
#[cfg(feature = "vm-inject")]
pub mod vm_inject;

pub use interp::{execute, ExecBudget, ExecError, ExecResult};
pub use ir::KernelIr;
pub use pipeline::{compile, compile_traced, OptLevel, PassTrace, Toolchain};
pub use vm::ExecTier;
