//! Deliberate interpreter faults for the fault-tolerance harness.
//!
//! The campaign runner in `crates/difftest` claims it can survive a
//! panicking test: isolate it, quarantine it, and keep going. That claim
//! needs negative tests, so this module lets a test *arm* seeded panics
//! inside the interpreter hot path — the worst-placed fault the runner
//! must contain, because it unwinds out of a campaign worker thread mid-run.
//!
//! Two safety layers keep the faults out of production, mirroring
//! [`crate::inject`]:
//!
//! 1. the module only exists under the `chaos` cargo feature (enabled by
//!    `difftest`'s chaos integration tests, never a default), and
//! 2. even when compiled in, injection is **disarmed by default** — a
//!    runtime [`arm_exec_panics`] call is required, so feature
//!    unification across a test build cannot silently activate it.
//!
//! The panic decision is a pure function of `(seed, program_id)`, so the
//! set of faulting tests is identical across thread counts and
//! across a kill/resume boundary — which is what lets the chaos tests
//! assert exact quarantine sets and resume-equivalence while faults are
//! armed.
//!
//! Tests that arm injection must serialize themselves (the switch is a
//! global) and disarm in all exit paths; see
//! `crates/difftest/tests/chaos.rs`.

use fpcore::rng::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static ONE_IN: AtomicU64 = AtomicU64::new(0);

/// Arm seeded interpreter panics: roughly one program in `one_in`
/// (deterministically chosen from `seed` and the program id) panics on
/// every execution attempt. `one_in == 0` disarms.
pub fn arm_exec_panics(seed: u64, one_in: u64) {
    SEED.store(seed, Ordering::SeqCst);
    ONE_IN.store(one_in, Ordering::SeqCst);
    ARMED.store(one_in != 0, Ordering::SeqCst);
}

/// Disarm injection (restores fault-free execution).
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// Whether injection is currently armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::SeqCst)
}

/// Would the armed configuration panic this program? Pure and callable
/// from tests to predict the exact quarantine set.
pub fn would_panic(program_id: &str) -> bool {
    if !armed() {
        return false;
    }
    let one_in = ONE_IN.load(Ordering::SeqCst);
    if one_in == 0 {
        return false;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(SEED.load(Ordering::SeqCst) ^ fnv1a(program_id));
    rng.next_u64().is_multiple_of(one_in)
}

/// Interpreter hook: panic if this program is one of the armed victims.
pub(crate) fn maybe_panic(program_id: &str) {
    if would_panic(program_id) {
        panic!("chaos: injected interpreter fault for program `{program_id}`");
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_by_default_and_decision_is_deterministic() {
        disarm();
        assert!(!armed());
        assert!(!would_panic("prog_0"));
        arm_exec_panics(42, 3);
        assert!(armed());
        let first: Vec<bool> = (0..64).map(|i| would_panic(&format!("prog_{i}"))).collect();
        let second: Vec<bool> = (0..64).map(|i| would_panic(&format!("prog_{i}"))).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b), "rate 1-in-3 should hit some of 64 programs");
        assert!(first.iter().any(|&b| !b), "rate 1-in-3 should miss some of 64 programs");
        disarm();
        assert!(!would_panic("prog_0"));
    }
}
