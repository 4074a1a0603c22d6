//! IEEE-754 exception events (Table II of the paper) and an accumulating
//! status-flag register.
//!
//! CPUs expose these events through FPU status registers and can raise
//! `SIGFPE`; NVIDIA GPUs expose none of them (§II-B). The simulated devices
//! in this workspace *do* track them — the interpreter in `gpucc` detects
//! each event from operand/result patterns, the way binary-instrumentation
//! tools such as GPU-FPX (ref \[12\] in the paper) reconstruct them.

use serde::{Deserialize, Serialize};

/// One of the five IEEE-754 exception events (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FpException {
    /// Result was rounded (produced after rounding).
    Inexact,
    /// Result could not be represented as a normal number.
    Underflow,
    /// Result did not fit and became an infinity.
    Overflow,
    /// Division of a finite non-zero value by zero.
    DivideByZero,
    /// Operation on invalid operands produced a NaN.
    Invalid,
}

impl FpException {
    /// All five events, in the order of Table II.
    pub const ALL: [FpException; 5] = [
        FpException::Inexact,
        FpException::Underflow,
        FpException::Overflow,
        FpException::DivideByZero,
        FpException::Invalid,
    ];

    /// Human-readable description matching Table II.
    pub fn description(self) -> &'static str {
        match self {
            FpException::Inexact => "Result is produced after rounding",
            FpException::Underflow => "Result could not be represented as normal",
            FpException::Overflow => "Result did not fit and it is an infinity",
            FpException::DivideByZero => "Divide-by-zero operation",
            FpException::Invalid => "Operation operand is not a number (NaN)",
        }
    }

    #[inline]
    fn bit(self) -> u8 {
        match self {
            FpException::Inexact => 1 << 0,
            FpException::Underflow => 1 << 1,
            FpException::Overflow => 1 << 2,
            FpException::DivideByZero => 1 << 3,
            FpException::Invalid => 1 << 4,
        }
    }
}

impl std::fmt::Display for FpException {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FpException::Inexact => "Inexact",
            FpException::Underflow => "Underflow",
            FpException::Overflow => "Overflow",
            FpException::DivideByZero => "DivideByZero",
            FpException::Invalid => "Invalid",
        };
        f.write_str(s)
    }
}

/// Accumulating (sticky) exception status flags, like an FPU status word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExceptionFlags(u8);

impl ExceptionFlags {
    /// Empty flag set.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise (set) one event. Sticky: never cleared by later operations.
    #[inline]
    pub fn raise(&mut self, e: FpException) {
        self.0 |= e.bit();
    }

    /// True if the given event has been raised.
    #[inline]
    pub fn is_set(self, e: FpException) -> bool {
        self.0 & e.bit() != 0
    }

    /// True if no event has been raised.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Merge another flag set into this one.
    #[inline]
    pub fn merge(&mut self, other: ExceptionFlags) {
        self.0 |= other.0;
    }

    /// The raw flag byte — bit `i` is the `i`-th event of
    /// [`FpException::ALL`] — which is also the serialized form.
    #[inline]
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Flags from their raw byte ([`ExceptionFlags::bits`]).
    #[inline]
    pub fn from_bits(bits: u8) -> Self {
        Self(bits)
    }

    /// Number of distinct events raised.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate over the raised events in Table II order.
    pub fn iter(self) -> impl Iterator<Item = FpException> {
        FpException::ALL.into_iter().filter(move |e| self.is_set(*e))
    }
}

impl std::fmt::Display for ExceptionFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return f.write_str("(none)");
        }
        let mut first = true;
        for e in self.iter() {
            if !first {
                f.write_str("|")?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        Ok(())
    }
}

/// Detect the exception events implied by a binary arithmetic operation on
/// `f64` operands with result `r`.
///
/// This mirrors how hardware sets status flags: Invalid when a NaN is
/// produced from non-NaN operands (or by 0/0, Inf-Inf, 0*Inf), DivideByZero
/// for finite/0, Overflow when finite operands produce Inf, Underflow when
/// the result is subnormal, Inexact approximated as "result differs from an
/// exactly representable operand combination" — we set it whenever the
/// result is finite and the operation is not exact by construction, which is
/// the practical definition used by testing tools.
#[inline]
pub fn detect_binary_f64(op: ArithOp, a: f64, b: f64, r: f64) -> ExceptionFlags {
    binary_f64(op, a, b, r, true)
}

/// [`detect_binary_f64`], testing for Inexact only if `test_inexact`.
#[inline(always)]
fn binary_f64(op: ArithOp, a: f64, b: f64, r: f64, test_inexact: bool) -> ExceptionFlags {
    let mut flags = ExceptionFlags::new();
    // A NaN result excludes every finite-result event (the only flag that
    // can accompany it, per the rules below, is Invalid itself), and an
    // infinite result excludes Underflow/Inexact — early returns keep the
    // common finite path short. This is the interpreter/vm per-op hot
    // path; the flag sets produced are identical to the historical
    // all-branches form for every input.
    if r.is_nan() {
        if !a.is_nan() && !b.is_nan() {
            flags.raise(FpException::Invalid);
        }
        return flags;
    }
    let div = matches!(op, ArithOp::Div);
    if div && b == 0.0 && a.is_finite() && a != 0.0 {
        flags.raise(FpException::DivideByZero);
    }
    if r.is_infinite() {
        if a.is_finite() && b.is_finite() && !(div && b == 0.0) {
            flags.raise(FpException::Overflow);
        }
        return flags;
    }
    if r != 0.0 && r.abs() < f64::MIN_POSITIVE {
        flags.raise(FpException::Underflow);
    }
    if test_inexact && !exact_binary_f64(op, a, b, r) {
        flags.raise(FpException::Inexact);
    }
    flags
}

/// [`detect_binary_f64`] for a run whose flags so far are `seen`: once
/// Inexact is raised, the exactness test (a wider recomputation) is
/// skipped, since the sticky flag cannot change. Merged into `seen`, the
/// result equals [`detect_binary_f64`]'s.
#[inline]
pub(crate) fn detect_binary_f64_after(
    seen: ExceptionFlags,
    op: ArithOp,
    a: f64,
    b: f64,
    r: f64,
) -> ExceptionFlags {
    binary_f64(op, a, b, r, !seen.is_set(FpException::Inexact))
}

/// Detect exception events for an `f32` binary operation (see
/// [`detect_binary_f64`]).
#[inline]
pub fn detect_binary_f32(op: ArithOp, a: f32, b: f32, r: f32) -> ExceptionFlags {
    binary_f32(op, a, b, r, true)
}

/// [`detect_binary_f32`], testing for Inexact only if `test_inexact`.
#[inline(always)]
fn binary_f32(op: ArithOp, a: f32, b: f32, r: f32, test_inexact: bool) -> ExceptionFlags {
    let mut flags = ExceptionFlags::new();
    if r.is_nan() {
        if !a.is_nan() && !b.is_nan() {
            flags.raise(FpException::Invalid);
        }
        return flags;
    }
    let div = matches!(op, ArithOp::Div);
    if div && b == 0.0 && a.is_finite() && a != 0.0 {
        flags.raise(FpException::DivideByZero);
    }
    if r.is_infinite() {
        if a.is_finite() && b.is_finite() && !(div && b == 0.0) {
            flags.raise(FpException::Overflow);
        }
        return flags;
    }
    if r != 0.0 && r.abs() < f32::MIN_POSITIVE {
        flags.raise(FpException::Underflow);
    }
    if test_inexact && !exact_binary_f32(op, a, b, r) {
        flags.raise(FpException::Inexact);
    }
    flags
}

/// [`detect_binary_f32`] for a run whose flags so far are `seen`: once
/// Inexact is raised, the exactness test (a wider recomputation) is
/// skipped, since the sticky flag cannot change. Merged into `seen`, the
/// result equals [`detect_binary_f32`]'s.
#[inline]
pub(crate) fn detect_binary_f32_after(
    seen: ExceptionFlags,
    op: ArithOp,
    a: f32,
    b: f32,
    r: f32,
) -> ExceptionFlags {
    binary_f32(op, a, b, r, !seen.is_set(FpException::Inexact))
}

/// The four basic arithmetic operations, for exception detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
}

/// Exactness check: recompute in wider precision and compare. For f64 we use
/// the residual test (a op b == r exactly when the inverse operation
/// round-trips); a pragmatic approximation sufficient for flag purposes.
#[inline]
fn exact_binary_f64(op: ArithOp, a: f64, b: f64, r: f64) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return true; // exceptional operands: Inexact not meaningful
    }
    match op {
        // Sterbenz-style residual checks: for +/- the error is representable,
        // so the op was exact iff the residual is zero.
        ArithOp::Add => {
            let err = (a - (r - b)) + (b - (r - (r - b)));
            err == 0.0
        }
        ArithOp::Sub => {
            let nb = -b;
            let err = (a - (r - nb)) + (nb - (r - (r - nb)));
            err == 0.0
        }
        ArithOp::Mul => {
            // Integer fast path: for normal operands and a normal result
            // the product is exact iff the significand product's
            // significant bit count (bit length minus trailing zeros,
            // which multiply additively since odd parts stay odd) fits
            // in 53 bits. The magnitude guard keeps the fast path out of
            // the range where the residual check below would declare a
            // mathematically inexact product "exact" because the fma
            // residual (>= 2^(exp(r)-105)) itself underflows to zero —
            // inside the guard both criteria provably agree, so this is
            // a pure speedup, not a semantics change.
            if is_normal_f64(a) && is_normal_f64(b) && is_normal_f64(r) && r.abs() >= 1.0e-280 {
                let m = mantissa_f64(a) as u128 * mantissa_f64(b) as u128;
                128 - m.leading_zeros() - m.trailing_zeros() <= 53
            } else {
                r.mul_add(1.0, -(a * b)) == 0.0 && a.mul_add(b, -r) == 0.0
            }
        }
        ArithOp::Div => {
            if b == 0.0 {
                true
            } else {
                // exact iff r*b == a with no rounding
                r.mul_add(b, -a) == 0.0
            }
        }
    }
}

/// Significand with the implicit leading bit, for normal values.
#[inline]
fn mantissa_f64(x: f64) -> u64 {
    (x.to_bits() & ((1u64 << 52) - 1)) | (1u64 << 52)
}

/// Finite, non-zero, non-subnormal (exponent field neither 0 nor all-ones).
#[inline]
fn is_normal_f64(x: f64) -> bool {
    let e = (x.to_bits() >> 52) & 0x7FF;
    e != 0 && e != 0x7FF
}

#[inline]
fn exact_binary_f32(op: ArithOp, a: f32, b: f32, r: f32) -> bool {
    if !a.is_finite() || !b.is_finite() {
        return true;
    }
    // widen to f64: every f32 op is exactly representable in f64 products/sums
    let (ad, bd) = (a as f64, b as f64);
    let exactd = match op {
        ArithOp::Add => ad + bd,
        ArithOp::Sub => ad - bd,
        ArithOp::Mul => ad * bd,
        ArithOp::Div => {
            if bd == 0.0 {
                return true;
            }
            ad / bd
        }
    };
    exactd == r as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_sticky_and_mergeable() {
        let mut f = ExceptionFlags::new();
        assert!(f.is_empty());
        f.raise(FpException::Overflow);
        f.raise(FpException::Overflow);
        assert_eq!(f.count(), 1);
        let mut g = ExceptionFlags::new();
        g.raise(FpException::Invalid);
        f.merge(g);
        assert!(f.is_set(FpException::Overflow));
        assert!(f.is_set(FpException::Invalid));
        assert_eq!(f.count(), 2);
    }

    #[test]
    fn divide_by_zero_detected() {
        let f = detect_binary_f64(ArithOp::Div, 1.0, 0.0, 1.0 / 0.0);
        assert!(f.is_set(FpException::DivideByZero));
        assert!(!f.is_set(FpException::Overflow));
    }

    #[test]
    #[allow(clippy::zero_divided_by_zero)] // producing NaN is the point
    fn zero_over_zero_is_invalid_not_dbz() {
        let f = detect_binary_f64(ArithOp::Div, 0.0, 0.0, 0.0 / 0.0);
        assert!(f.is_set(FpException::Invalid));
        assert!(!f.is_set(FpException::DivideByZero));
    }

    #[test]
    fn overflow_detected() {
        let a = f64::MAX;
        let f = detect_binary_f64(ArithOp::Mul, a, 2.0, a * 2.0);
        assert!(f.is_set(FpException::Overflow));
    }

    #[test]
    fn underflow_detected_for_subnormal_result() {
        let a = f64::MIN_POSITIVE;
        let r = a / 4.0;
        assert!(r > 0.0);
        let f = detect_binary_f64(ArithOp::Div, a, 4.0, r);
        assert!(f.is_set(FpException::Underflow));
    }

    #[test]
    fn exact_addition_raises_nothing() {
        let f = detect_binary_f64(ArithOp::Add, 1.0, 2.0, 3.0);
        assert!(f.is_empty(), "got {f}");
    }

    #[test]
    fn inexact_addition_detected() {
        let f = detect_binary_f64(ArithOp::Add, 1.0, 1e-30, 1.0 + 1e-30);
        assert!(f.is_set(FpException::Inexact));
    }

    #[test]
    fn inf_minus_inf_is_invalid() {
        let f = detect_binary_f64(ArithOp::Sub, f64::INFINITY, f64::INFINITY, f64::NAN);
        assert!(f.is_set(FpException::Invalid));
    }

    #[test]
    fn nan_operand_does_not_raise_invalid() {
        // propagation of an existing NaN is not a new Invalid event
        let f = detect_binary_f64(ArithOp::Add, f64::NAN, 1.0, f64::NAN);
        assert!(!f.is_set(FpException::Invalid));
    }

    #[test]
    fn f32_paths_mirror_f64() {
        let f = detect_binary_f32(ArithOp::Div, 1.0, 0.0, f32::INFINITY);
        assert!(f.is_set(FpException::DivideByZero));
        let f = detect_binary_f32(ArithOp::Mul, f32::MAX, 2.0, f32::INFINITY);
        assert!(f.is_set(FpException::Overflow));
        let f = detect_binary_f32(ArithOp::Add, 1.0, 1e-10, 1.0 + 1e-10);
        assert!(f.is_set(FpException::Inexact));
    }

    #[test]
    fn display_formats() {
        let mut f = ExceptionFlags::new();
        assert_eq!(f.to_string(), "(none)");
        f.raise(FpException::Inexact);
        f.raise(FpException::Invalid);
        assert_eq!(f.to_string(), "Inexact|Invalid");
    }

    #[test]
    fn descriptions_match_table_ii() {
        assert_eq!(FpException::Overflow.description(), "Result did not fit and it is an infinity");
        assert_eq!(FpException::ALL.len(), 5);
    }
}
