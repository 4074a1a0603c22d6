//! Value classification.
//!
//! Two granularities are used throughout the workspace:
//!
//! * [`FpClass`] — the full IEEE-754 classification (NaN, Inf, Zero,
//!   Subnormal, Normal), used when analysing *why* results differ.
//! * [`Outcome`] — the paper's four-way outcome lattice (§IV-B): NaN, Inf,
//!   Zero, Number. "Number" is any non-zero finite real, including
//!   subnormals. Differential comparisons are performed on outcomes first
//!   and on exact values within the `Number` class.

use serde::{Deserialize, Serialize};

/// Full IEEE-754 class of a floating-point value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FpClass {
    /// Not-a-number (quiet or signalling), either sign.
    Nan,
    /// Positive or negative infinity.
    Infinite,
    /// Positive or negative zero.
    Zero,
    /// Non-zero number with magnitude below the smallest normal.
    Subnormal,
    /// A normal finite non-zero number.
    Normal,
}

impl FpClass {
    /// Classify an `f64`.
    pub fn of_f64(x: f64) -> Self {
        use std::num::FpCategory::*;
        match x.classify() {
            Nan => FpClass::Nan,
            Infinite => FpClass::Infinite,
            Zero => FpClass::Zero,
            Subnormal => FpClass::Subnormal,
            Normal => FpClass::Normal,
        }
    }

    /// Classify an `f32`.
    pub fn of_f32(x: f32) -> Self {
        use std::num::FpCategory::*;
        match x.classify() {
            Nan => FpClass::Nan,
            Infinite => FpClass::Infinite,
            Zero => FpClass::Zero,
            Subnormal => FpClass::Subnormal,
            Normal => FpClass::Normal,
        }
    }

    /// True for NaN, Inf and Subnormal — the "exceptional quantities" of
    /// §II-B1 that the testing campaign hunts for.
    pub fn is_exceptional(self) -> bool {
        matches!(self, FpClass::Nan | FpClass::Infinite | FpClass::Subnormal)
    }
}

/// The paper's four-way test outcome (§IV-B).
///
/// Ordering of the variants matches the row/column order of the adjacency
/// matrices in Tables VI, VIII and X: NaN, Inf, Zero, Num.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Outcome {
    /// Result was NaN (either sign).
    Nan,
    /// Result was ±Inf.
    Inf,
    /// Result was ±0.
    Zero,
    /// Result was a non-zero finite number (normal or subnormal).
    Num,
}

impl Outcome {
    /// All outcomes in adjacency-matrix order.
    pub const ALL: [Outcome; 4] = [Outcome::Nan, Outcome::Inf, Outcome::Zero, Outcome::Num];

    /// Classify an `f64` result.
    pub fn of_f64(x: f64) -> Self {
        match FpClass::of_f64(x) {
            FpClass::Nan => Outcome::Nan,
            FpClass::Infinite => Outcome::Inf,
            FpClass::Zero => Outcome::Zero,
            FpClass::Subnormal | FpClass::Normal => Outcome::Num,
        }
    }

    /// Classify an `f32` result.
    pub fn of_f32(x: f32) -> Self {
        match FpClass::of_f32(x) {
            FpClass::Nan => Outcome::Nan,
            FpClass::Infinite => Outcome::Inf,
            FpClass::Zero => Outcome::Zero,
            FpClass::Subnormal | FpClass::Normal => Outcome::Num,
        }
    }

    /// Short label matching the paper's table headers.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Nan => "NaN",
            Outcome::Inf => "Inf",
            Outcome::Zero => "Zero",
            Outcome::Num => "Num",
        }
    }

    /// Index into [`Outcome::ALL`].
    pub fn index(self) -> usize {
        match self {
            Outcome::Nan => 0,
            Outcome::Inf => 1,
            Outcome::Zero => 2,
            Outcome::Num => 3,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_f64_classes() {
        assert_eq!(FpClass::of_f64(f64::NAN), FpClass::Nan);
        assert_eq!(FpClass::of_f64(-f64::NAN), FpClass::Nan);
        assert_eq!(FpClass::of_f64(f64::INFINITY), FpClass::Infinite);
        assert_eq!(FpClass::of_f64(f64::NEG_INFINITY), FpClass::Infinite);
        assert_eq!(FpClass::of_f64(0.0), FpClass::Zero);
        assert_eq!(FpClass::of_f64(-0.0), FpClass::Zero);
        assert_eq!(FpClass::of_f64(1e-310), FpClass::Subnormal);
        assert_eq!(FpClass::of_f64(1.0), FpClass::Normal);
    }

    #[test]
    fn classify_covers_all_f32_classes() {
        assert_eq!(FpClass::of_f32(f32::NAN), FpClass::Nan);
        assert_eq!(FpClass::of_f32(f32::INFINITY), FpClass::Infinite);
        assert_eq!(FpClass::of_f32(-0.0f32), FpClass::Zero);
        assert_eq!(FpClass::of_f32(1e-40f32), FpClass::Subnormal);
        assert_eq!(FpClass::of_f32(-3.5f32), FpClass::Normal);
    }

    #[test]
    fn exceptional_quantities() {
        assert!(FpClass::Nan.is_exceptional());
        assert!(FpClass::Infinite.is_exceptional());
        assert!(FpClass::Subnormal.is_exceptional());
        assert!(!FpClass::Zero.is_exceptional());
        assert!(!FpClass::Normal.is_exceptional());
    }

    #[test]
    fn outcome_subnormal_counts_as_number() {
        assert_eq!(Outcome::of_f64(1e-310), Outcome::Num);
        assert_eq!(Outcome::of_f32(1e-41f32), Outcome::Num);
    }

    #[test]
    fn outcome_sign_is_ignored() {
        assert_eq!(Outcome::of_f64(-0.0), Outcome::Zero);
        assert_eq!(Outcome::of_f64(f64::NEG_INFINITY), Outcome::Inf);
        assert_eq!(Outcome::of_f64(-f64::NAN), Outcome::Nan);
    }

    #[test]
    fn outcome_index_roundtrip() {
        for (i, o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }

    #[test]
    fn outcome_labels_match_paper() {
        assert_eq!(Outcome::Nan.label(), "NaN");
        assert_eq!(Outcome::Inf.label(), "Inf");
        assert_eq!(Outcome::Zero.label(), "Zero");
        assert_eq!(Outcome::Num.label(), "Num");
    }
}
