//! Flush-to-zero (FTZ) and denormals-are-zero (DAZ) semantics.
//!
//! GPUs commonly run FP32 pipelines with subnormal inputs and/or outputs
//! flushed to zero — on NVIDIA hardware `-ftz=true` is implied by
//! `--use_fast_math`; AMD's OCML fast paths flush as well but at different
//! points. The simulated devices apply these helpers around every
//! arithmetic operation according to their [`FtzMode`].

use serde::Serialize;

/// Which flush behaviours an FP pipeline applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct FtzMode {
    /// Flush subnormal *inputs* to zero before the operation (DAZ).
    pub daz: bool,
    /// Flush subnormal *results* to zero after the operation (FTZ).
    pub ftz: bool,
}

impl FtzMode {
    /// IEEE-compliant mode: subnormals preserved everywhere.
    pub const IEEE: FtzMode = FtzMode { daz: false, ftz: false };
    /// Full flush: both inputs and outputs flushed (NVIDIA `-ftz=true`).
    pub const FLUSH: FtzMode = FtzMode { daz: true, ftz: true };
    /// Output-only flush (some AMD fast paths).
    pub const FTZ_ONLY: FtzMode = FtzMode { daz: false, ftz: true };

    /// Apply the DAZ (input) rule to an `f64`.
    #[inline]
    pub fn daz_f64(self, x: f64) -> f64 {
        if self.daz && x.is_subnormal() {
            if x.is_sign_negative() {
                -0.0
            } else {
                0.0
            }
        } else {
            x
        }
    }

    /// Apply the FTZ (output) rule to an `f64`.
    #[inline]
    pub fn ftz_f64(self, x: f64) -> f64 {
        if self.ftz && x.is_subnormal() {
            if x.is_sign_negative() {
                -0.0
            } else {
                0.0
            }
        } else {
            x
        }
    }

    /// Apply the DAZ (input) rule to an `f32`.
    #[inline]
    pub fn daz_f32(self, x: f32) -> f32 {
        if self.daz && x.is_subnormal() {
            if x.is_sign_negative() {
                -0.0
            } else {
                0.0
            }
        } else {
            x
        }
    }

    /// Apply the FTZ (output) rule to an `f32`.
    #[inline]
    pub fn ftz_f32(self, x: f32) -> f32 {
        if self.ftz && x.is_subnormal() {
            if x.is_sign_negative() {
                -0.0
            } else {
                0.0
            }
        } else {
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUB64: f64 = 1e-310;
    const SUB32: f32 = 1e-41;

    #[test]
    fn ieee_mode_preserves_subnormals() {
        let m = FtzMode::IEEE;
        assert_eq!(m.daz_f64(SUB64), SUB64);
        assert_eq!(m.ftz_f64(SUB64), SUB64);
        assert_eq!(m.daz_f32(SUB32), SUB32);
    }

    #[test]
    fn flush_mode_flushes_both_directions() {
        let m = FtzMode::FLUSH;
        assert_eq!(m.daz_f64(SUB64), 0.0);
        assert_eq!(m.ftz_f64(SUB64), 0.0);
        assert_eq!(m.daz_f32(SUB32), 0.0);
        assert_eq!(m.ftz_f32(SUB32), 0.0);
    }

    #[test]
    fn flush_preserves_sign_of_zero() {
        let m = FtzMode::FLUSH;
        assert!(m.ftz_f64(-SUB64).is_sign_negative());
        assert_eq!(m.ftz_f64(-SUB64), 0.0); // -0.0 == 0.0
        assert!(m.daz_f32(-SUB32).is_sign_negative());
    }

    #[test]
    fn ftz_only_mode_leaves_inputs_alone() {
        let m = FtzMode::FTZ_ONLY;
        assert_eq!(m.daz_f64(SUB64), SUB64);
        assert_eq!(m.ftz_f64(SUB64), 0.0);
    }

    #[test]
    fn normals_and_specials_untouched() {
        let m = FtzMode::FLUSH;
        assert_eq!(m.ftz_f64(1.0), 1.0);
        assert_eq!(m.ftz_f64(f64::MIN_POSITIVE), f64::MIN_POSITIVE);
        assert!(m.ftz_f64(f64::NAN).is_nan());
        assert_eq!(m.daz_f64(f64::INFINITY), f64::INFINITY);
        assert_eq!(m.ftz_f64(0.0), 0.0);
    }
}
