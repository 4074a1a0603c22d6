//! Per-test isolation: classified faults, panic capture, and cooperative
//! shutdown.
//!
//! A campaign is a long-running batch job; its value depends on surviving
//! and attributing its own failures, not just the compilers'. This module
//! supplies the containment primitives the fault-tolerant runner
//! ([`crate::checkpoint`]) is built on:
//!
//! * [`TestFault`] / [`FaultKind`] — a classified, serializable record of
//!   one test that panicked or exhausted its fuel budget. Faults carry
//!   the generation seed, index, and side, which is everything
//!   `varity-gpu replay` needs to re-run the test in isolation.
//! * [`catch_isolated`] — `catch_unwind` plus a process-global panic hook
//!   that captures the panic message (with location) on the panicking
//!   thread instead of spraying backtraces over the campaign's stderr.
//! * [`request_shutdown`] / [`shutdown_requested`] — a cooperative stop
//!   flag checked between work units, so an interrupt flushes the
//!   checkpoint at a unit boundary instead of mid-write.

use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

/// Classification of a contained test failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// The test panicked (interpreter bug, malformed-kernel `expect`, injected
    /// chaos fault).
    Panic,
    /// The test exhausted its instruction budget
    /// ([`gpucc::interp::ExecError::StepLimit`]).
    StepBudget,
    /// The test exhausted its wall-clock budget
    /// ([`gpucc::interp::ExecError::Timeout`]).
    Timeout,
}

impl FaultKind {
    /// Counter/label suffix (`campaign.faults.{label}`).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::StepBudget => "step_budget",
            FaultKind::Timeout => "timeout",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One quarantined test: a (test, side) unit that faulted instead of
/// producing ordinary results. The campaign stores error records in its
/// place and keeps going; this record is what lands in the quarantine
/// log so the test can be replayed (`varity-gpu replay`) and attributed.
///
/// Faults order by `(index, program_id, seed, side, kind, detail)` — the
/// derived lexicographic order `CampaignMeta::merge_shards` sorts
/// quarantine entries into, so merged quarantines are canonical no
/// matter which shard landed first.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TestFault {
    /// Generation index of the faulting test.
    pub index: u64,
    /// Program identifier (regeneration sanity check).
    pub program_id: String,
    /// Campaign master seed (with `index`, regenerates the program).
    pub seed: u64,
    /// The `"{toolchain}:{level}"` side key that faulted.
    pub side: String,
    /// What kind of fault this was.
    pub kind: FaultKind,
    /// Human-readable detail (panic message or budget diagnostics).
    pub detail: String,
}

thread_local! {
    /// Message captured by the panic hook for the innermost
    /// [`catch_isolated`] on this thread.
    static CAPTURED: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Whether this thread is inside [`catch_isolated`] (suppresses the
    /// default hook's stderr output for expected, contained panics).
    static SUPPRESS: Cell<bool> = const { Cell::new(false) };
}

/// Install the capturing panic hook exactly once, chaining to whatever
/// hook was installed before (so panics outside [`catch_isolated`] —
/// including other threads' — still print normally).
fn ensure_capture_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if SUPPRESS.with(|s| s.get()) {
                let msg = payload_str(info.payload());
                let text = match info.location() {
                    Some(loc) => format!("{msg} (at {}:{})", loc.file(), loc.line()),
                    None => msg,
                };
                CAPTURED.with(|c| *c.borrow_mut() = Some(text));
            } else {
                prev(info);
            }
        }));
    });
}

fn payload_str(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, containing any panic. On panic, returns the captured panic
/// message (with source location) instead of unwinding the caller, and
/// keeps the default panic output off the campaign's stderr.
///
/// The closure is deliberately treated as unwind-safe: campaign work
/// units own their inputs and publish results only on success, so a
/// half-updated unit is discarded wholesale rather than observed.
pub fn catch_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    ensure_capture_hook();
    let was = SUPPRESS.with(|s| s.replace(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS.with(|s| s.set(was));
    match outcome {
        Ok(v) => Ok(v),
        Err(payload) => {
            let msg = CAPTURED
                .with(|c| c.borrow_mut().take())
                .unwrap_or_else(|| payload_str(payload.as_ref()));
            Err(msg)
        }
    }
}

/// Cooperative shutdown flag (set by a SIGINT handler or a test;
/// checked by the campaign runner between work units).
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Request a graceful stop: workers finish (or skip) their current unit,
/// the checkpoint is flushed, and the campaign reports `Interrupted`.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether a graceful stop has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Clear the shutdown flag (start of a new campaign / test isolation).
pub fn reset_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_isolated_passes_values_through() {
        assert_eq!(catch_isolated(|| 41 + 1), Ok(42));
    }

    #[test]
    fn catch_isolated_captures_panic_message_and_location() {
        let err = catch_isolated(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert!(err.contains("boom 7"), "got: {err}");
        assert!(err.contains("fault.rs"), "location missing: {err}");
    }

    #[test]
    fn catch_isolated_handles_string_payloads() {
        let err =
            catch_isolated(|| -> u32 { std::panic::panic_any("plain".to_string()) }).unwrap_err();
        assert!(err.contains("plain"), "got: {err}");
    }

    #[test]
    fn catch_isolated_restores_suppression_when_nested() {
        let outer = catch_isolated(|| {
            let inner = catch_isolated(|| -> u32 { panic!("inner") });
            assert!(inner.is_err());
            5
        });
        assert_eq!(outer, Ok(5));
    }

    #[test]
    fn shutdown_flag_roundtrips() {
        reset_shutdown();
        assert!(!shutdown_requested());
        request_shutdown();
        assert!(shutdown_requested());
        reset_shutdown();
        assert!(!shutdown_requested());
    }

    #[test]
    fn fault_serde_roundtrip() {
        let f = TestFault {
            index: 3,
            program_id: "prog_3".into(),
            seed: 2024,
            side: "nvcc:O2".into(),
            kind: FaultKind::StepBudget,
            detail: "step budget exhausted: 11 steps executed, budget 10".into(),
        };
        let json = serde_json::to_string(&f).unwrap();
        let back: TestFault = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
        assert_eq!(FaultKind::Panic.label(), "panic");
        assert_eq!(FaultKind::Timeout.to_string(), "timeout");
    }
}
