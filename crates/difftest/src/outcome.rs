//! Discrepancy classification (paper §IV-B).
//!
//! Each run produces one of four outcomes — NaN, Inf, Zero, Number — and a
//! discrepant pair falls into one of **seven classes**: NaN–Inf, NaN–Zero,
//! NaN–Num, Inf–Zero, Inf–Num, Num–Zero, Num–Num. Pairs that differ only
//! in sign on special values (−NaN vs +NaN, −Inf vs +Inf, −0 vs +0) are
//! *not* discrepancies.

use fpcore::classify::Outcome;
use serde::Serialize;

/// The paper's seven discrepancy classes, in table-column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DiscrepancyClass {
    /// One platform NaN, the other ±Inf.
    NanInf,
    /// One platform NaN, the other ±0.
    NanZero,
    /// One platform NaN, the other a non-zero finite number.
    NanNum,
    /// One platform ±Inf, the other ±0.
    InfZero,
    /// One platform ±Inf, the other a non-zero finite number.
    InfNum,
    /// One platform a non-zero finite number, the other ±0.
    NumZero,
    /// Both platforms non-zero finite numbers with different values.
    NumNum,
}

impl DiscrepancyClass {
    /// All classes, in the order of the paper's table columns.
    pub const ALL: [DiscrepancyClass; 7] = [
        DiscrepancyClass::NanInf,
        DiscrepancyClass::NanZero,
        DiscrepancyClass::NanNum,
        DiscrepancyClass::InfZero,
        DiscrepancyClass::InfNum,
        DiscrepancyClass::NumZero,
        DiscrepancyClass::NumNum,
    ];

    /// Column header used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            DiscrepancyClass::NanInf => "NaN, Inf",
            DiscrepancyClass::NanZero => "NaN, Zero",
            DiscrepancyClass::NanNum => "NaN, Num",
            DiscrepancyClass::InfZero => "Inf, Zero",
            DiscrepancyClass::InfNum => "Inf, Num",
            DiscrepancyClass::NumZero => "Num, Zero",
            DiscrepancyClass::NumNum => "Num, Num",
        }
    }

    /// Index into [`DiscrepancyClass::ALL`].
    pub fn index(self) -> usize {
        DiscrepancyClass::ALL.iter().position(|c| *c == self).expect("class in ALL")
    }

    /// Classify an *unordered* outcome pair. Returns `None` for identical
    /// outcomes (same-outcome discrepancies are only possible for
    /// `Num`–`Num` and are decided by value elsewhere).
    pub fn of_outcomes(a: Outcome, b: Outcome) -> Option<DiscrepancyClass> {
        use Outcome::*;
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        match (x, y) {
            (Nan, Inf) => Some(DiscrepancyClass::NanInf),
            (Nan, Zero) => Some(DiscrepancyClass::NanZero),
            (Nan, Num) => Some(DiscrepancyClass::NanNum),
            (Inf, Zero) => Some(DiscrepancyClass::InfZero),
            (Inf, Num) => Some(DiscrepancyClass::InfNum),
            (Zero, Num) => Some(DiscrepancyClass::NumZero),
            _ => None, // identical outcomes
        }
    }
}

impl std::fmt::Display for DiscrepancyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Outcome::*;

    #[test]
    fn cross_outcome_pairs_classify() {
        assert_eq!(DiscrepancyClass::of_outcomes(Nan, Inf), Some(DiscrepancyClass::NanInf));
        assert_eq!(DiscrepancyClass::of_outcomes(Inf, Nan), Some(DiscrepancyClass::NanInf));
        assert_eq!(DiscrepancyClass::of_outcomes(Zero, Num), Some(DiscrepancyClass::NumZero));
        assert_eq!(DiscrepancyClass::of_outcomes(Inf, Num), Some(DiscrepancyClass::InfNum));
        assert_eq!(DiscrepancyClass::of_outcomes(Nan, Num), Some(DiscrepancyClass::NanNum));
        assert_eq!(DiscrepancyClass::of_outcomes(Nan, Zero), Some(DiscrepancyClass::NanZero));
        assert_eq!(DiscrepancyClass::of_outcomes(Zero, Inf), Some(DiscrepancyClass::InfZero));
    }

    #[test]
    fn identical_outcomes_are_not_cross_classified() {
        for o in Outcome::ALL {
            assert_eq!(DiscrepancyClass::of_outcomes(o, o), None, "{o}");
        }
    }

    #[test]
    fn labels_match_paper_columns() {
        let labels: Vec<&str> = DiscrepancyClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec![
                "NaN, Inf",
                "NaN, Zero",
                "NaN, Num",
                "Inf, Zero",
                "Inf, Num",
                "Num, Zero",
                "Num, Num"
            ]
        );
    }

    #[test]
    fn index_roundtrips() {
        for (i, c) in DiscrepancyClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }
}
