//! Ground-truth oracle: self-validation of the double-double reference
//! executor ([`gpucc::refexec`]).
//!
//! Translation validation deliberately has no verdict for fast-math
//! cells — there is no per-toolchain reference semantics once the
//! fast-math bundle may rewrite the kernel. The campaign's answer is the
//! extended-precision truth side, which judges *both* vendors from
//! outside. That makes the truth executor itself part of the trusted
//! base, so the oracle checks the two invariants it must hold by
//! construction:
//!
//! * **availability** — whenever the strict quirkless `O0`
//!   interpretation of a program executes, the reference executor must
//!   too. Both are domains of one tree walk, so they share its fuel
//!   accounting and failure modes by construction; the check guards the
//!   truth's entry point;
//! * **toolchain invariance** — the truth evaluates real-valued
//!   semantics, so the `O0` lowerings of the same program by *both*
//!   toolchains must produce bit-identical truth. A difference means a
//!   lowering (or the executor) smuggled toolchain-specific rounding
//!   into what claims to be the true value.
//!
//! Bit-differences between the truth and the quirkless interpretation
//! are *expected* (one rounding at the end versus one per operation) and
//! are not checked here; the degenerate case where they must agree is
//! covered by the exact-arithmetic property tests.

use crate::transval::{CheckVerdict, ViolationDetail};
use gpucc::interp::{execute_prepared_budgeted, prepare, ExecBudget};
use gpucc::pipeline::{compile, OptLevel, Toolchain};
use gpucc::refexec::execute_reference_budgeted;
use gpusim::{Device, DeviceKind, QuirkSet};
use progen::ast::Program;
use progen::inputs::InputSet;

/// One ground-truth check result for `(program, input)`.
#[derive(Debug, Clone)]
pub struct TruthOutcome {
    /// Index into the input slice.
    pub input_index: usize,
    /// What the oracle concluded.
    pub verdict: CheckVerdict,
}

/// Run the ground-truth oracle on one program: for every input, the
/// reference executor over both toolchains' `O0` lowerings, checked for
/// availability against the strict quirkless interpretation and for
/// toolchain-invariant truth bits.
pub fn check_truth(program: &Program, inputs: &[InputSet]) -> Vec<TruthOutcome> {
    let nv_ir = compile(program, Toolchain::Nvcc, OptLevel::O0, false);
    let amd_ir = compile(program, Toolchain::Hipcc, OptLevel::O0, false);
    let (Ok(nv_k), Ok(amd_k)) = (prepare(&nv_ir), prepare(&amd_ir)) else {
        // nothing resolved, nothing to validate
        return inputs
            .iter()
            .enumerate()
            .map(|(input_index, _)| TruthOutcome { input_index, verdict: CheckVerdict::Skipped })
            .collect();
    };
    let quirkless = Device::with_quirks(DeviceKind::NvidiaLike, QuirkSet::none());
    let budget = ExecBudget::default();

    inputs
        .iter()
        .enumerate()
        .map(|(input_index, input)| {
            let strict = execute_prepared_budgeted(&nv_k, &quirkless, input, budget);
            let truth_nv = execute_reference_budgeted(&nv_k, input, budget);
            let verdict = match (&strict, &truth_nv) {
                (Err(_), _) => CheckVerdict::Skipped,
                (Ok(_), Err(e)) => CheckVerdict::Violation(ViolationDetail {
                    pass: "truth-exec".into(),
                    expected_bits: strict.as_ref().map(|r| r.value.bits()).unwrap_or(0),
                    actual_bits: 0,
                    detail: format!(
                        "reference executor fails ({e}) though the strict quirkless \
                         O0 interpretation succeeded"
                    ),
                }),
                (Ok(_), Ok(nv)) => match execute_reference_budgeted(&amd_k, input, budget) {
                    Err(e) => CheckVerdict::Violation(ViolationDetail {
                        pass: "truth-exec".into(),
                        expected_bits: nv.value.bits(),
                        actual_bits: 0,
                        detail: format!("reference executor fails on the hipcc O0 lowering ({e})"),
                    }),
                    Ok(amd) if amd.value.bits() != nv.value.bits() => {
                        CheckVerdict::Violation(ViolationDetail {
                            pass: "truth-invariance".into(),
                            expected_bits: nv.value.bits(),
                            actual_bits: amd.value.bits(),
                            detail: "ground truth differs between the nvcc and hipcc O0 \
                                     lowerings of the same program"
                                .into(),
                        })
                    }
                    Ok(_) => CheckVerdict::Consistent,
                },
            };
            TruthOutcome { input_index, verdict }
        })
        .collect()
}

/// Shrinking predicate: does `program` still exhibit a ground-truth
/// violation on `input`?
pub fn still_violates(program: &Program, input: &InputSet) -> bool {
    check_truth(program, std::slice::from_ref(input))
        .iter()
        .any(|o| matches!(o.verdict, CheckVerdict::Violation(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use progen::gen::generate_program;
    use progen::grammar::GenConfig;
    use progen::inputs::generate_inputs;
    use progen::Precision;

    #[test]
    fn healthy_executor_passes_on_the_campaign_population() {
        for i in 0..25 {
            let p = generate_program(&GenConfig::varity_default(Precision::F64), 2024, i);
            let inputs = generate_inputs(&p, 2024, 2);
            for o in check_truth(&p, &inputs) {
                assert!(
                    matches!(o.verdict, CheckVerdict::Consistent | CheckVerdict::Skipped),
                    "program {i} input {}: {:?}",
                    o.input_index,
                    o.verdict
                );
            }
        }
    }

    #[test]
    fn fp32_truth_is_also_toolchain_invariant() {
        for i in 0..15 {
            let p = generate_program(&GenConfig::varity_default(Precision::F32), 99, i);
            let inputs = generate_inputs(&p, 99, 2);
            for o in check_truth(&p, &inputs) {
                assert!(
                    !matches!(o.verdict, CheckVerdict::Violation(_)),
                    "program {i}: {:?}",
                    o.verdict
                );
            }
        }
    }

    #[test]
    fn outcomes_cover_every_input() {
        let p = generate_program(&GenConfig::varity_default(Precision::F64), 1, 0);
        let inputs = generate_inputs(&p, 1, 3);
        assert_eq!(check_truth(&p, &inputs).len(), 3);
    }
}
