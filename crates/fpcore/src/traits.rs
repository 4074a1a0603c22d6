//! The [`GpuFloat`] abstraction over `f32` and `f64`.
//!
//! The paper tests FP32 and FP64 modes of the same pipeline (§III-C). To
//! avoid duplicating the generator, compiler and interpreter per precision,
//! every precision-dependent component in this workspace is generic over
//! `GpuFloat`.

use crate::classify::{FpClass, Outcome};
use crate::exceptions::{ArithOp, ExceptionFlags};
use crate::ftz::FtzMode;
use std::fmt::{Debug, Display};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A precision usable on the simulated devices: `f32` or `f64`.
pub trait GpuFloat:
    Copy
    + PartialOrd
    + PartialEq
    + Debug
    + Display
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + 'static
{
    /// The unsigned integer type with the same width as the float encoding.
    type Bits: Copy + Eq + std::hash::Hash + Debug;

    /// Precision name as used in the paper's tables.
    const PRECISION_NAME: &'static str;
    /// Positive infinity.
    const INFINITY: Self;
    /// A quiet NaN.
    const NAN: Self;
    /// Zero.
    const ZERO: Self;
    /// One.
    const ONE: Self;
    /// Smallest positive normal value.
    const MIN_POSITIVE: Self;
    /// Largest finite value.
    const MAX: Self;

    /// Raw encoding bits.
    fn to_bits(self) -> Self::Bits;
    /// Value from raw encoding bits.
    fn from_bits(bits: Self::Bits) -> Self;
    /// Lossless widening to `f64` (exact for both precisions).
    fn to_f64(self) -> f64;
    /// Rounding conversion from `f64` (round-to-nearest-even).
    fn from_f64(x: f64) -> Self;

    /// IEEE class of the value.
    fn classify(self) -> FpClass;
    /// Paper outcome of the value.
    fn outcome(self) -> Outcome;
    /// True for NaN.
    fn is_nan(self) -> bool;
    /// True for finite values.
    fn is_finite(self) -> bool;
    /// True for subnormals.
    fn is_subnormal(self) -> bool;
    /// True when the sign bit is set.
    fn is_sign_negative(self) -> bool;

    /// Magnitude.
    fn abs(self) -> Self;
    /// Fused multiply-add: `self * a + b` with a single rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Square root (correctly rounded, hardware op on both vendors).
    fn sqrt(self) -> Self;
    /// Truncation toward zero.
    fn trunc(self) -> Self;

    /// Exact round-trip output formatting (`%.17g` / 9-digit).
    fn format_exact(self) -> String;
    /// Varity source-literal formatting.
    fn format_literal(self) -> String;

    /// Apply an [`FtzMode`] input flush.
    fn apply_daz(self, mode: FtzMode) -> Self;
    /// Apply an [`FtzMode`] output flush.
    fn apply_ftz(self, mode: FtzMode) -> Self;

    /// Detect the IEEE exceptions implied by `a op b = r`, in a run
    /// whose flags so far are `seen` (sticky flags already in `seen`
    /// need not be detected again).
    fn detect_exceptions(
        seen: ExceptionFlags,
        op: ArithOp,
        a: Self,
        b: Self,
        r: Self,
    ) -> ExceptionFlags;

    /// ULP distance to another value (`None` if either is NaN).
    fn ulp_diff(self, other: Self) -> Option<u64>;

    /// Bitwise equality (distinguishes `-0.0` from `0.0` and NaN payloads).
    fn bit_eq(self, other: Self) -> bool;
}

impl GpuFloat for f64 {
    type Bits = u64;

    const PRECISION_NAME: &'static str = "FP64";
    const INFINITY: f64 = f64::INFINITY;
    const NAN: f64 = f64::NAN;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const MIN_POSITIVE: f64 = f64::MIN_POSITIVE;
    const MAX: f64 = f64::MAX;

    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(x: f64) -> f64 {
        x
    }
    #[inline]
    fn classify(self) -> FpClass {
        FpClass::of_f64(self)
    }
    #[inline]
    fn outcome(self) -> Outcome {
        Outcome::of_f64(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn is_subnormal(self) -> bool {
        f64::is_subnormal(self)
    }
    #[inline]
    fn is_sign_negative(self) -> bool {
        f64::is_sign_negative(self)
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn mul_add(self, a: f64, b: f64) -> f64 {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline]
    fn trunc(self) -> f64 {
        f64::trunc(self)
    }
    fn format_exact(self) -> String {
        crate::literal::format_g17(self)
    }
    fn format_literal(self) -> String {
        crate::literal::format_varity(self)
    }
    #[inline]
    fn apply_daz(self, mode: FtzMode) -> f64 {
        mode.daz_f64(self)
    }
    #[inline]
    fn apply_ftz(self, mode: FtzMode) -> f64 {
        mode.ftz_f64(self)
    }
    #[inline]
    fn detect_exceptions(
        seen: ExceptionFlags,
        op: ArithOp,
        a: f64,
        b: f64,
        r: f64,
    ) -> ExceptionFlags {
        crate::exceptions::detect_binary_f64_after(seen, op, a, b, r)
    }
    #[inline]
    fn ulp_diff(self, other: f64) -> Option<u64> {
        crate::ulp::ulp_diff_f64(self, other)
    }
    #[inline]
    fn bit_eq(self, other: f64) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl GpuFloat for f32 {
    type Bits = u32;

    const PRECISION_NAME: &'static str = "FP32";
    const INFINITY: f32 = f32::INFINITY;
    const NAN: f32 = f32::NAN;
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    const MIN_POSITIVE: f32 = f32::MIN_POSITIVE;
    const MAX: f32 = f32::MAX;

    #[inline]
    fn to_bits(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u32) -> f32 {
        f32::from_bits(bits)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn classify(self) -> FpClass {
        FpClass::of_f32(self)
    }
    #[inline]
    fn outcome(self) -> Outcome {
        Outcome::of_f32(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn is_subnormal(self) -> bool {
        f32::is_subnormal(self)
    }
    #[inline]
    fn is_sign_negative(self) -> bool {
        f32::is_sign_negative(self)
    }
    #[inline]
    fn abs(self) -> f32 {
        f32::abs(self)
    }
    #[inline]
    fn mul_add(self, a: f32, b: f32) -> f32 {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn sqrt(self) -> f32 {
        f32::sqrt(self)
    }
    #[inline]
    fn trunc(self) -> f32 {
        f32::trunc(self)
    }
    fn format_exact(self) -> String {
        crate::literal::format_g9(self)
    }
    fn format_literal(self) -> String {
        crate::literal::format_varity_f32(self)
    }
    #[inline]
    fn apply_daz(self, mode: FtzMode) -> f32 {
        mode.daz_f32(self)
    }
    #[inline]
    fn apply_ftz(self, mode: FtzMode) -> f32 {
        mode.ftz_f32(self)
    }
    #[inline]
    fn detect_exceptions(
        seen: ExceptionFlags,
        op: ArithOp,
        a: f32,
        b: f32,
        r: f32,
    ) -> ExceptionFlags {
        crate::exceptions::detect_binary_f32_after(seen, op, a, b, r)
    }
    #[inline]
    fn ulp_diff(self, other: f32) -> Option<u64> {
        crate::ulp::ulp_diff_f32(self, other).map(u64::from)
    }
    #[inline]
    fn bit_eq(self, other: f32) -> bool {
        self.to_bits() == other.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_roundtrip<T: GpuFloat>(x: T) {
        assert!(T::from_bits(x.to_bits()).bit_eq(x));
    }

    #[test]
    fn bits_roundtrip_both_precisions() {
        generic_roundtrip(1.5f64);
        generic_roundtrip(-0.0f64);
        generic_roundtrip(f64::NAN);
        generic_roundtrip(1.5f32);
        generic_roundtrip(f32::NEG_INFINITY);
    }

    #[test]
    fn widening_is_exact_for_f32() {
        let x = 0.1f32;
        assert_eq!(f32::from_f64(x.to_f64()), x);
    }

    #[test]
    fn precision_names() {
        assert_eq!(<f64 as GpuFloat>::PRECISION_NAME, "FP64");
        assert_eq!(<f32 as GpuFloat>::PRECISION_NAME, "FP32");
    }

    #[test]
    fn generic_outcome_dispatch() {
        fn outcome_of<T: GpuFloat>(x: T) -> Outcome {
            x.outcome()
        }
        assert_eq!(outcome_of(f64::NAN), Outcome::Nan);
        assert_eq!(outcome_of(0.0f32), Outcome::Zero);
        assert_eq!(outcome_of(3.0f32), Outcome::Num);
    }

    #[test]
    fn bit_eq_distinguishes_zero_signs() {
        assert!(!(-0.0f64).bit_eq(0.0));
        assert!((-0.0f64).bit_eq(-0.0));
        assert!(!(-0.0f32).bit_eq(0.0f32));
    }

    #[test]
    fn generic_formatting() {
        fn fmt<T: GpuFloat>(x: T) -> String {
            x.format_exact()
        }
        assert_eq!(fmt(1.0f64), "1");
        assert_eq!(fmt(1.0f32), "1");
    }

    #[test]
    fn from_f64_rounds_for_f32() {
        // 1 + 2^-40 is not representable in f32; rounds to 1.0
        let x = 1.0 + 2f64.powi(-40);
        assert_eq!(f32::from_f64(x), 1.0f32);
    }

    #[test]
    fn ulp_diff_generic() {
        let a = 1.0f32;
        let b = f32::from_bits(a.to_bits() + 3);
        assert_eq!(GpuFloat::ulp_diff(a, b), Some(3));
    }
}
