//! Property-based tests for fpcore invariants.

use fpcore::classify::{FpClass, Outcome};
use fpcore::dd::{two_prod, two_sum, Dd};
use fpcore::exceptions::{detect_binary_f64, ArithOp, FpException};
use fpcore::ftz::FtzMode;
use fpcore::literal::{format_g17, format_g9, format_varity, parse_literal};
use fpcore::ulp::{lattice_f64, next_down_f64, next_up_f64, ulp_diff_f32, ulp_diff_f64};
use proptest::prelude::*;

/// Arbitrary finite or special f64s, biased toward extreme ranges the way
/// the campaign inputs are.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
        (-400i32..400).prop_map(|e| 10f64.powi(e)),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
    ]
}

proptest! {
    #[test]
    fn g17_roundtrips_all_finite(x in any_f64()) {
        if x.is_finite() {
            let s = format_g17(x);
            let back: f64 = s.parse().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn g9_roundtrips_all_finite_f32(bits in any::<u32>()) {
        let x = f32::from_bits(bits);
        if x.is_finite() {
            let s = format_g9(x);
            let back: f32 = s.parse().unwrap();
            prop_assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn parse_accepts_own_varity_output(x in any_f64()) {
        if x.is_finite() {
            let s = format_varity(x);
            let back = parse_literal(&s).unwrap();
            if x == 0.0 {
                prop_assert_eq!(back, 0.0);
            } else {
                // 4 fractional digits => relative error <= 1e-4 (sub-extreme
                // exponents may round the boundary, so allow a hair more)
                prop_assert!((back - x).abs() <= x.abs() * 1.0001e-4,
                    "x={x} s={s} back={back}");
            }
        }
    }

    #[test]
    fn lattice_is_monotone(a in any_f64(), b in any_f64()) {
        if !a.is_nan() && !b.is_nan() && a < b {
            prop_assert!(lattice_f64(a) < lattice_f64(b));
        }
    }

    #[test]
    fn ulp_diff_is_symmetric(a in any_f64(), b in any_f64()) {
        prop_assert_eq!(ulp_diff_f64(a, b), ulp_diff_f64(b, a));
    }

    #[test]
    fn ulp_diff_zero_iff_same_lattice_point(a in any_f64()) {
        if !a.is_nan() {
            prop_assert_eq!(ulp_diff_f64(a, a), Some(0));
        } else {
            prop_assert_eq!(ulp_diff_f64(a, a), None);
        }
    }

    #[test]
    fn next_up_is_strictly_greater(x in any_f64()) {
        if x.is_finite() {
            let up = next_up_f64(x);
            prop_assert!(up > x, "x={x} up={up}");
            prop_assert_eq!(ulp_diff_f64(x, up), Some(1));
        }
    }

    #[test]
    fn next_down_inverts_next_up(x in any_f64()) {
        if x.is_finite() && x != f64::MAX {
            let up = next_up_f64(x);
            // == rather than bit_eq: ±0 collapse at the boundary
            prop_assert_eq!(next_down_f64(up), x);
        }
    }

    #[test]
    fn outcome_partition_is_total(x in any_f64()) {
        // every value lands in exactly one outcome
        let o = Outcome::of_f64(x);
        let c = FpClass::of_f64(x);
        match c {
            FpClass::Nan => prop_assert_eq!(o, Outcome::Nan),
            FpClass::Infinite => prop_assert_eq!(o, Outcome::Inf),
            FpClass::Zero => prop_assert_eq!(o, Outcome::Zero),
            FpClass::Subnormal | FpClass::Normal => prop_assert_eq!(o, Outcome::Num),
        }
    }

    #[test]
    fn ftz_output_is_never_subnormal(x in any_f64()) {
        let m = FtzMode::FLUSH;
        prop_assert!(!m.ftz_f64(x).is_subnormal());
        prop_assert!(!m.daz_f64(x).is_subnormal());
    }

    #[test]
    fn ftz_is_idempotent(x in any_f64()) {
        let m = FtzMode::FLUSH;
        let once = m.ftz_f64(x);
        let twice = m.ftz_f64(once);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn exact_ops_raise_no_inexact(a in -1000i64..1000, b in -1000i64..1000) {
        // small-integer arithmetic is exact in f64
        let (a, b) = (a as f64, b as f64);
        let f = detect_binary_f64(ArithOp::Add, a, b, a + b);
        prop_assert!(!f.is_set(FpException::Inexact));
        let f = detect_binary_f64(ArithOp::Mul, a, b, a * b);
        prop_assert!(!f.is_set(FpException::Inexact));
    }

    #[test]
    fn div_by_zero_always_flagged(a in any_f64()) {
        if a.is_finite() && a != 0.0 {
            let f = detect_binary_f64(ArithOp::Div, a, 0.0, a / 0.0);
            prop_assert!(f.is_set(FpException::DivideByZero));
        }
    }

    #[test]
    fn two_sum_error_is_exact(m1 in -(1i64 << 53)..(1i64 << 53),
                              m2 in -(1i64 << 53)..(1i64 << 53),
                              shift in 0u32..60) {
        // a and b are integers spanning up to 113 bits together, so the
        // exact identity a + b == s + e is checkable in i128: every value
        // involved (inputs, rounded sum, residual) is an integer.
        let a = m1 as f64;
        let b = (m2 as f64) * (1u64 << shift) as f64;
        let (s, e) = two_sum(a, b);
        let exact = m1 as i128 + ((m2 as i128) << shift);
        prop_assert_eq!(s as i128 + e as i128, exact, "a={} b={} s={} e={}", a, b, s, e);
        // s must be the correctly rounded sum
        prop_assert_eq!(s, a + b);
    }

    #[test]
    fn two_prod_error_is_exact(m1 in -(1i64 << 53)..(1i64 << 53),
                               m2 in -(1i64 << 53)..(1i64 << 53)) {
        // products of 53-bit integers fit in 106 bits: exact in i128
        let a = m1 as f64;
        let b = m2 as f64;
        let (p, e) = two_prod(a, b);
        let exact = m1 as i128 * m2 as i128;
        prop_assert_eq!(p as i128 + e as i128, exact, "a={} b={} p={} e={}", a, b, p, e);
        prop_assert_eq!(p, a * b);
    }

    #[test]
    fn dd_add_is_error_free_for_f64_pairs(a in any_f64(), b in any_f64()) {
        // lifting two exact f64s into Dd and adding loses nothing: the
        // leading word is the IEEE sum, and for finite non-overflowing
        // results hi + lo reconstructs a + b exactly (two_sum's identity)
        if a.is_finite() && b.is_finite() {
            let s = Dd::from_f64(a) + Dd::from_f64(b);
            prop_assert_eq!(s.to_f64().to_bits(), (a + b).to_bits());
            if (a + b).is_finite() {
                let (ck_s, ck_e) = two_sum(a, b);
                prop_assert_eq!(s.hi.to_bits(), ck_s.to_bits());
                prop_assert_eq!(s.lo.to_bits(), ck_e.to_bits());
            }
        }
    }

    #[test]
    fn dd_mul_leading_word_is_ieee_product(a in any_f64(), b in any_f64()) {
        if a.is_finite() && b.is_finite() {
            let p = Dd::from_f64(a) * Dd::from_f64(b);
            prop_assert_eq!(p.to_f64().to_bits(), (a * b).to_bits());
        }
    }

    #[test]
    fn dd_to_f32_matches_direct_rounding_for_exact_values(bits in any::<u32>()) {
        // values already representable in f32 round-trip bit-exactly
        let x = f32::from_bits(bits);
        if !x.is_nan() {
            prop_assert_eq!(Dd::from_f64(x as f64).to_f32().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn f32_ulp_consistent_with_lattice(a in any::<u32>(), b in any::<u32>()) {
        let (x, y) = (f32::from_bits(a), f32::from_bits(b));
        if !x.is_nan() && !y.is_nan() {
            let d = ulp_diff_f32(x, y).unwrap();
            if d == 0 {
                // same lattice point: equal as reals (±0 collapse excepted)
                prop_assert!(x == y || (x == 0.0 && y == 0.0));
            }
        }
    }
}
