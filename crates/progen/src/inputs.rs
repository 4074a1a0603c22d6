//! Random input generation.
//!
//! Varity pairs every generated program with random numerical inputs drawn
//! from the "interesting" regions of the floating-point line: values near
//! the overflow boundary, near/below the underflow boundary (including
//! subnormals), signed zeros, and moderate values. The failure-inducing
//! inputs shown in the paper (e.g. `-0.0 5 +0.0 +1.2150E-306 +1.2318E224
//! +1.8418E306 …`) come from exactly this mix.

use crate::ast::{ParamType, Precision, Program};
use fpcore::literal;
use fpcore::rng::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::io::Write as _;

/// Length of array parameters allocated by the generated `main()`.
pub const ARRAY_LEN: usize = 16;

/// A single input value for one kernel parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InputValue {
    /// Scalar float input.
    Float(f64),
    /// Integer loop bound.
    Int(i64),
    /// Fill value for an array parameter (the array is initialized to it).
    ArrayFill(f64),
}

impl InputValue {
    /// Render the value the way Varity's input files do.
    pub fn render(&self, precision: Precision) -> String {
        match self {
            InputValue::Int(v) => v.to_string(),
            InputValue::Float(v) | InputValue::ArrayFill(v) => match precision {
                Precision::F64 => literal::format_varity(*v),
                Precision::F32 => literal::format_varity(*v as f32 as f64),
            },
        }
    }
}

/// One complete input vector for a program (values in parameter order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputSet {
    /// Values aligned with `Program::params`.
    pub values: Vec<InputValue>,
}

impl InputSet {
    /// Render as a single space-separated line (the paper's input format).
    pub fn render(&self, precision: Precision) -> String {
        self.values.iter().map(|v| v.render(precision)).collect::<Vec<_>>().join(" ")
    }

    /// The loop-bound value (first `Int` input), if present.
    pub fn loop_bound(&self) -> Option<i64> {
        self.values.iter().find_map(|v| match v {
            InputValue::Int(n) => Some(*n),
            _ => None,
        })
    }
}

/// Deterministically generate the `k`-th input set for a program.
pub fn generate_input(program: &Program, seed: u64, k: u64) -> InputSet {
    let mut rng = ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0xD134_2543_DE82_EF95)
            ^ hash_id(&program.id)
            ^ k.wrapping_mul(0xFF51_AFD7_ED55_8CCD),
    );
    let values = program
        .params
        .iter()
        .map(|p| match p.ty {
            ParamType::Int => InputValue::Int(rng.gen_range(1..=8)),
            ParamType::Float => InputValue::Float(random_float(&mut rng, program.precision)),
            ParamType::FloatArray => {
                InputValue::ArrayFill(random_float(&mut rng, program.precision))
            }
        })
        .collect();
    InputSet { values }
}

/// Generate `n` input sets for a program.
pub fn generate_inputs(program: &Program, seed: u64, n: usize) -> Vec<InputSet> {
    static INPUTS: obs::Name = obs::Name::new("progen.inputs");
    INPUTS.add(n as u64);
    (0..n as u64).map(|k| generate_input(program, seed, k)).collect()
}

fn hash_id(id: &str) -> u64 {
    // FNV-1a: stable across runs (std's DefaultHasher is not guaranteed)
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Build the float value of `±m.mmmm × 10^exp`, `mant` in [1, 10)
/// rounded to four decimals as `{:.4}` rounds it, by parsing the decimal
/// `±mmmmm × 10^(exp − 4)`, which converts correctly even deep in the
/// subnormal range (computing `mant * 10.powi(exp)` would underflow
/// through `1/Inf`). The digits are integers written into a stack
/// buffer: no float formatting and no allocation.
pub(crate) fn compose_float(negative: bool, mant: f64, exp: i32, precision: Precision) -> f64 {
    let mut buf = [0u8; 32];
    let len = {
        let mut w = &mut buf[..];
        let sign = if negative { "-" } else { "" };
        write!(w, "{sign}{}e{}", four_decimals(mant), exp - 4).expect("fits 32 bytes");
        32 - w.len()
    };
    let text = std::str::from_utf8(&buf[..len]).expect("ASCII digits");
    let v: f64 = text.parse().expect("a decimal literal");
    match precision {
        Precision::F64 => v,
        Precision::F32 => {
            let f = v as f32;
            if f.is_infinite() {
                // a 4-digit decimal just above f32::MAX: clamp back in range
                fpcore::bits::copysign_bits_f32(3.4028e38, f) as f64
            } else {
                f as f64
            }
        }
    }
}

/// `mant` × 10⁴ rounded to an integer, half to even, on `mant`'s exact
/// binary value: the digits `{:.4}` prints for `mant` in [1, 10), from
/// `10000` for 1.0000 to `100000` for a carry to 10.0000. Such a `mant`
/// is `m × 2^-k` with a 53-bit `m` and `k` in 49..=52, so `m × 10⁴`
/// fits 128 bits and splits exactly into quotient and remainder.
fn four_decimals(mant: f64) -> u64 {
    debug_assert!((1.0..10.0).contains(&mant), "{mant}");
    let bits = mant.to_bits();
    let m = u128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    let k = 1075 - (bits >> 52) as u32;
    let scaled = m * 10_000;
    let (q, r, half) = ((scaled >> k) as u64, scaled & ((1 << k) - 1), 1u128 << (k - 1));
    q + u64::from(r > half || (r == half && q & 1 == 1))
}

/// Draw one float from the special-value-biased distribution.
fn random_float(rng: &mut ChaCha8Rng, precision: Precision) -> f64 {
    let class = rng.gen_range(0..100);
    let negative = rng.gen_bool(0.5);
    let mant: f64 = rng.gen_range(1.0..10.0);
    let exp = match precision {
        Precision::F64 => match class {
            // signed zero
            0..=9 => return if negative { -0.0 } else { 0.0 },
            // subnormal range
            10..=19 => rng.gen_range(-322..=-309),
            // near underflow (smallest normals)
            20..=29 => rng.gen_range(-308..=-300),
            // near overflow
            35..=54 => rng.gen_range(300..=307),
            // large mid-range
            55..=64 => rng.gen_range(100..=250),
            // moderate (large enough a share that last-ULP compiler
            // effects survive to the output instead of saturating)
            _ => rng.gen_range(-20..=20),
        },
        // FP32 leans toward moderate magnitudes: the narrow exponent range
        // means extreme values saturate to Inf/0 within an operation or
        // two, and saturated results absorb the fast-intrinsic divergence
        // the FP32 campaign exists to expose (paper Table IX)
        Precision::F32 => match class {
            0..=7 => return if negative { -0.0 } else { 0.0 },
            8..=15 => rng.gen_range(-45..=-39),
            16..=25 => rng.gen_range(-38..=-30),
            26..=40 => rng.gen_range(30..=38),
            41..=55 => rng.gen_range(10..=29),
            _ => rng.gen_range(-9..=9),
        },
    };
    compose_float(negative, mant, exp, precision)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_program;
    use crate::grammar::GenConfig;
    use fpcore::classify::FpClass;

    fn sample() -> Program {
        generate_program(&GenConfig::varity_default(Precision::F64), 42, 0)
    }

    #[test]
    fn inputs_are_deterministic() {
        let p = sample();
        assert_eq!(generate_input(&p, 7, 3), generate_input(&p, 7, 3));
        assert_ne!(generate_input(&p, 7, 3), generate_input(&p, 7, 4));
        assert_ne!(generate_input(&p, 7, 3), generate_input(&p, 8, 3));
    }

    #[test]
    fn inputs_align_with_params() {
        let p = sample();
        let inp = generate_input(&p, 1, 0);
        assert_eq!(inp.values.len(), p.params.len());
        for (param, value) in p.params.iter().zip(&inp.values) {
            match param.ty {
                ParamType::Int => assert!(matches!(value, InputValue::Int(_))),
                ParamType::Float => assert!(matches!(value, InputValue::Float(_))),
                ParamType::FloatArray => assert!(matches!(value, InputValue::ArrayFill(_))),
            }
        }
    }

    #[test]
    fn loop_bounds_are_small_positive() {
        let p = sample();
        for k in 0..50 {
            let b = generate_input(&p, 3, k).loop_bound().unwrap();
            assert!((1..=8).contains(&b), "bound {b}");
        }
    }

    #[test]
    fn distribution_hits_all_classes() {
        let p = sample();
        let mut zeros = 0;
        let mut subnormals = 0;
        let mut huge = 0;
        let mut moderate = 0;
        for k in 0..500 {
            let inp = generate_input(&p, 11, k);
            for v in &inp.values {
                if let InputValue::Float(x) = v {
                    match FpClass::of_f64(*x) {
                        FpClass::Zero => zeros += 1,
                        FpClass::Subnormal => subnormals += 1,
                        FpClass::Normal if x.abs() >= 1e300 => huge += 1,
                        FpClass::Normal if x.abs() <= 1e20 && x.abs() >= 1e-20 => moderate += 1,
                        _ => {}
                    }
                }
            }
        }
        assert!(zeros > 50, "zeros: {zeros}");
        assert!(subnormals > 50, "subnormals: {subnormals}");
        assert!(huge > 200, "huge: {huge}");
        assert!(moderate > 100, "moderate: {moderate}");
    }

    #[test]
    fn fp32_inputs_are_f32_exact() {
        let cfg = GenConfig::varity_default(Precision::F32);
        let p = generate_program(&cfg, 5, 0);
        for k in 0..100 {
            let inp = generate_input(&p, 2, k);
            for v in &inp.values {
                if let InputValue::Float(x) | InputValue::ArrayFill(x) = v {
                    assert_eq!(*x, *x as f32 as f64, "input {x} not f32-exact");
                }
            }
        }
    }

    #[test]
    fn render_matches_varity_format() {
        let p = sample();
        let line = generate_input(&p, 1, 0).render(Precision::F64);
        // one token per parameter, each parseable
        let tokens: Vec<&str> = line.split(' ').collect();
        assert_eq!(tokens.len(), p.params.len());
        for t in tokens {
            assert!(literal::parse_literal(t).is_some(), "unparseable token {t:?} in {line:?}");
        }
    }

    /// `compose_float` as it was written first: `{:.4}` through the
    /// float formatter, then the literal parser.
    fn compose_float_by_format(negative: bool, mant: f64, exp: i32, precision: Precision) -> f64 {
        let sign = if negative { "-" } else { "+" };
        let v = literal::parse_literal(&format!("{sign}{mant:.4}E{exp}")).unwrap_or(0.0);
        match precision {
            Precision::F64 => v,
            Precision::F32 => {
                let f = v as f32;
                if f.is_infinite() {
                    fpcore::bits::copysign_bits_f32(3.4028e38, f) as f64
                } else {
                    f as f64
                }
            }
        }
    }

    #[test]
    fn compose_float_matches_the_formatter_bit_for_bit() {
        let check = |negative: bool, mant: f64, exp: i32| {
            for precision in [Precision::F64, Precision::F32] {
                let (got, want) = (
                    compose_float(negative, mant, exp, precision),
                    compose_float_by_format(negative, mant, exp, precision),
                );
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{negative} {mant:?}E{exp} {precision:?}"
                );
            }
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x0C0F_FEE5);
        for _ in 0..1_000_000 {
            let negative = rng.gen_bool(0.5);
            let mant: f64 = rng.gen_range(1.0..10.0);
            check(negative, mant, rng.gen_range(-330..=310));
        }
        // exact ties: m/32 has five fraction bits, so ×10⁴ ends in .5
        for m in (33..=319).step_by(2) {
            let mant = f64::from(m) / 32.0;
            for exp in [-330, -310, -45, 0, 38, 308] {
                check(m % 4 == 1, mant, exp);
            }
        }
        assert_eq!((four_decimals(1.03125), four_decimals(1.09375)), (10_312, 10_938));
        // the carry to 10.0000, and the mantissas either side of it
        let below_ten = f64::from_bits(10f64.to_bits() - 1);
        for mant in [9.99994, 9.99995, 9.99996, below_ten, 1.0, 1.00005] {
            for exp in [-324, -4, 0, 307, 308] {
                check(false, mant, exp);
            }
        }
        assert_eq!(four_decimals(below_ten), 100_000);
    }

    #[test]
    fn rendered_inputs_roundtrip_exactly() {
        let p = sample();
        for k in 0..50 {
            let inp = generate_input(&p, 9, k);
            for v in &inp.values {
                if let InputValue::Float(x) = v {
                    let rendered = v.render(Precision::F64);
                    let back = literal::parse_literal(&rendered).unwrap();
                    assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {rendered} -> {back}");
                }
            }
        }
    }
}
