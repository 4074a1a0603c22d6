//! Pairwise result comparison with the paper's exclusion rules.

use crate::outcome::DiscrepancyClass;
use fpcore::classify::Outcome;
use gpucc::interp::ExecValue;
use serde::Serialize;

/// A confirmed numerical discrepancy between the two platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Discrepancy {
    /// Discrepancy class.
    pub class: DiscrepancyClass,
    /// Outcome on the nvcc/NVIDIA side.
    pub nvcc: Outcome,
    /// Outcome on the hipcc/AMD side.
    pub hipcc: Outcome,
}

/// Compare an nvcc-side result against a hipcc-side result.
///
/// ```
/// use difftest::compare_runs;
/// use difftest::outcome::DiscrepancyClass;
/// use gpucc::interp::ExecValue;
///
/// // the paper's Fig. 5 outputs: Inf vs a number
/// let nvcc = ExecValue::F64(f64::INFINITY);
/// let hipcc = ExecValue::F64(1.34887e-306);
/// let d = compare_runs(&nvcc, &hipcc).unwrap();
/// assert_eq!(d.class, DiscrepancyClass::InfNum);
///
/// // sign-only special differences are excluded
/// assert!(compare_runs(
///     &ExecValue::F64(f64::INFINITY),
///     &ExecValue::F64(f64::NEG_INFINITY),
/// ).is_none());
/// ```
///
/// Rules (paper §IV-B):
/// * different outcomes → discrepancy of the corresponding class;
/// * both `Num` with different bit patterns → `Num, Num` discrepancy
///   (string comparison of `%.17g` output is equivalent to bit equality);
/// * both NaN / both Inf / both Zero → **no** discrepancy, regardless of
///   sign or payload (−NaN vs +NaN, −Inf vs +Inf, −0 vs +0 excluded).
pub fn compare_runs(nvcc: &ExecValue, hipcc: &ExecValue) -> Option<Discrepancy> {
    let (a, b) = (nvcc.outcome(), hipcc.outcome());
    if let Some(class) = DiscrepancyClass::of_outcomes(a, b) {
        return Some(Discrepancy { class, nvcc: a, hipcc: b });
    }
    if a == Outcome::Num && b == Outcome::Num && !nvcc.bit_eq(hipcc) {
        return Some(Discrepancy { class: DiscrepancyClass::NumNum, nvcc: a, hipcc: b });
    }
    None
}

/// Tolerance-aware comparison: like [`compare_runs`], but `Num, Num` pairs
/// whose relative difference is within `rel_tol` are accepted as
/// consistent. `rel_tol = 0.0` degenerates to the bitwise rule (the
/// paper's semantics); Varity itself supports threshold-based comparison
/// for triaging "last-ULP" differences away from gross ones.
///
/// The relative difference is measured in the pair's *native* width (an
/// f32 pair in f32 arithmetic), and pairs whose magnitude sits below the
/// normal range get an absolute gate of `rel_tol` at the smallest normal
/// instead: down there `rel_tol * scale` underflows, which silently
/// turned every adjacent-subnormal pair into a "gross" discrepancy.
pub fn compare_runs_with_tolerance(
    nvcc: &ExecValue,
    hipcc: &ExecValue,
    rel_tol: f64,
) -> Option<Discrepancy> {
    let d = compare_runs(nvcc, hipcc)?;
    if d.class == DiscrepancyClass::NumNum && rel_tol > 0.0 && within_rel_tol(nvcc, hipcc, rel_tol)
    {
        return None;
    }
    Some(d)
}

fn within_rel_tol(nvcc: &ExecValue, hipcc: &ExecValue, rel_tol: f64) -> bool {
    match (nvcc, hipcc) {
        (ExecValue::F32(a), ExecValue::F32(b)) => {
            let scale = a.abs().max(b.abs());
            let floor = scale.max(f32::MIN_POSITIVE);
            (a - b).abs() <= rel_tol as f32 * floor
        }
        _ => {
            let (a, b) = (nvcc.to_f64(), hipcc.to_f64());
            let scale = a.abs().max(b.abs());
            let floor = scale.max(f64::MIN_POSITIVE);
            (a - b).abs() <= rel_tol * floor
        }
    }
}

/// A per-thread discrepancy from a SIMT (multi-thread) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ThreadDiscrepancy {
    /// `threadIdx.x` of the diverging thread.
    pub thread: u32,
    /// The discrepancy that thread exhibited.
    pub discrepancy: Discrepancy,
}

/// The two sides of a SIMT comparison ran different block sizes — a
/// harness or lowering bug, reported as data instead of a panic so a
/// campaign worker survives it as a quarantinable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct GridMismatch {
    /// Thread count on the nvcc/NVIDIA side.
    pub nvcc_threads: usize,
    /// Thread count on the hipcc/AMD side.
    pub hipcc_threads: usize,
}

impl std::fmt::Display for GridMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mismatched block sizes: nvcc ran {} threads, hipcc ran {}",
            self.nvcc_threads, self.hipcc_threads
        )
    }
}

impl std::error::Error for GridMismatch {}

/// Compare per-thread result vectors from `gpucc::interp::execute_grid`
/// (SIMT extension): returns every thread whose results diverge, or
/// [`GridMismatch`] if the two sides ran different block sizes.
pub fn compare_grids(
    nvcc: &[ExecValue],
    hipcc: &[ExecValue],
) -> Result<Vec<ThreadDiscrepancy>, GridMismatch> {
    if nvcc.len() != hipcc.len() {
        return Err(GridMismatch { nvcc_threads: nvcc.len(), hipcc_threads: hipcc.len() });
    }
    Ok(nvcc
        .iter()
        .zip(hipcc)
        .enumerate()
        .filter_map(|(tid, (a, b))| {
            compare_runs(a, b).map(|d| ThreadDiscrepancy { thread: tid as u32, discrepancy: d })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> ExecValue {
        ExecValue::F64(v)
    }

    #[test]
    fn identical_numbers_agree() {
        assert_eq!(compare_runs(&f(1.5), &f(1.5)), None);
    }

    #[test]
    fn different_numbers_are_num_num() {
        let d = compare_runs(&f(1.5), &f(1.5000000000000002)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::NumNum);
    }

    #[test]
    #[allow(clippy::excessive_precision)] // the paper's printed 17-digit outputs
    fn case_study_1_values_are_num_num() {
        // the paper's Fig. 4 outputs
        let d = compare_runs(&f(8.6551990944767196e-306), &f(9.3404611450291972e-306)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::NumNum);
    }

    #[test]
    fn case_study_2_values_are_inf_num() {
        // Fig. 5: nvcc Inf, hipcc 1.34887e-306
        let d = compare_runs(&f(f64::INFINITY), &f(1.34887e-306)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::InfNum);
        assert_eq!(d.nvcc, Outcome::Inf);
        assert_eq!(d.hipcc, Outcome::Num);
    }

    #[test]
    fn case_study_3_values_are_nan_inf() {
        // Fig. 6: nvcc -inf, hipcc -nan
        let d = compare_runs(&f(f64::NEG_INFINITY), &f(-f64::NAN)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::NanInf);
        assert_eq!(d.nvcc, Outcome::Inf);
        assert_eq!(d.hipcc, Outcome::Nan);
    }

    #[test]
    fn sign_only_special_differences_are_excluded() {
        assert_eq!(compare_runs(&f(f64::NAN), &f(-f64::NAN)), None);
        assert_eq!(compare_runs(&f(f64::INFINITY), &f(f64::NEG_INFINITY)), None);
        assert_eq!(compare_runs(&f(0.0), &f(-0.0)), None);
    }

    #[test]
    fn sign_differences_between_numbers_count() {
        // -x vs +x are both Num with different bits: a real discrepancy
        let d = compare_runs(&f(1.5), &f(-1.5)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::NumNum);
    }

    #[test]
    fn subnormal_vs_zero_is_num_zero() {
        let d = compare_runs(&f(1e-310), &f(0.0)).unwrap();
        assert_eq!(d.class, DiscrepancyClass::NumZero);
        assert_eq!(d.nvcc, Outcome::Num);
        assert_eq!(d.hipcc, Outcome::Zero);
    }

    #[test]
    fn tolerance_absorbs_small_num_num_differences() {
        let a = f(1.5);
        let b = f(1.5000000000000002); // 1 ulp
        assert!(compare_runs_with_tolerance(&a, &b, 0.0).is_some());
        assert!(compare_runs_with_tolerance(&a, &b, 1e-12).is_none());
        // gross differences survive any reasonable tolerance
        let c = f(2.5);
        assert!(compare_runs_with_tolerance(&a, &c, 1e-12).is_some());
    }

    #[test]
    fn tolerance_never_excuses_cross_class_discrepancies() {
        let inf = f(f64::INFINITY);
        let num = f(1.0);
        let d = compare_runs_with_tolerance(&inf, &num, 1.0).unwrap();
        assert_eq!(d.class, DiscrepancyClass::InfNum);
        let nan = f(f64::NAN);
        assert!(compare_runs_with_tolerance(&nan, &num, 1.0).is_some());
    }

    #[test]
    fn tolerance_is_relative_not_absolute() {
        // two huge values 1e290 apart: relative diff 1e-16 -> absorbed
        let a = f(1.0e306);
        let b = f(1.0000000000000001e306);
        assert!(compare_runs_with_tolerance(&a, &b, 1e-12).is_none());
        // two tiny values with the same absolute gap: relative diff huge
        let c = f(1.0e-300);
        let d = f(2.0e-300);
        assert!(compare_runs_with_tolerance(&c, &d, 1e-12).is_some());
    }

    #[test]
    fn f32_comparisons_work_the_same() {
        let a = ExecValue::F32(1.5);
        let b = ExecValue::F32(f32::from_bits(1.5f32.to_bits() + 1));
        assert_eq!(compare_runs(&a, &a), None);
        assert_eq!(compare_runs(&a, &b).unwrap().class, DiscrepancyClass::NumNum);
    }

    #[test]
    fn f32_tolerance_is_measured_in_native_width() {
        // 1 f32 ulp at 1.5 is ~7.9e-8 relative: a tolerance meant for
        // f32 precision absorbs it, a tighter one does not
        let a = ExecValue::F32(1.5);
        let b = ExecValue::F32(f32::from_bits(1.5f32.to_bits() + 1));
        assert!(compare_runs_with_tolerance(&a, &b, 1e-7).is_none());
        assert!(compare_runs_with_tolerance(&a, &b, 1e-9).is_some());
    }

    #[test]
    fn subnormal_pairs_do_not_underflow_the_tolerance() {
        // deep-subnormal f64 pair: rel_tol * scale underflows to zero,
        // so the unguarded check branded adjacent values "gross"
        let a = f(5e-324); // smallest subnormal
        let b = f(1.5e-323); // 3 × smallest
        assert!(compare_runs_with_tolerance(&a, &b, 1e-12).is_none());
        // far-apart subnormals still count under a tight tolerance
        let c = f(4.4e-308); // just below the normal range
        assert!(compare_runs_with_tolerance(&a, &c, 1e-12).is_some());
        // f32 subnormals get the same guard at the f32 normal floor
        let d = ExecValue::F32(f32::from_bits(1));
        let e = ExecValue::F32(f32::from_bits(3));
        assert!(compare_runs_with_tolerance(&d, &e, 1e-5).is_none());
    }

    #[test]
    fn grid_comparison_reports_mismatched_block_sizes() {
        let a = vec![f(1.0), f(2.0)];
        let b = vec![f(1.0)];
        let err = compare_grids(&a, &b).unwrap_err();
        assert_eq!(err, GridMismatch { nvcc_threads: 2, hipcc_threads: 1 });
        assert!(err.to_string().contains("mismatched block sizes"));
        // equal sizes: per-thread discrepancies as before
        let c = vec![f(1.0), f(3.0)];
        let diffs = compare_grids(&a, &c).unwrap();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].thread, 1);
    }
}
