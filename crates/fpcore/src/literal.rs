//! Floating-point literal formatting and parsing.
//!
//! Two formats matter in this workspace:
//!
//! * **Output format** — Varity prints results with `printf("%.17g")` (FP64)
//!   / `%.9g`-equivalent shortest-exact for FP32. [`format_g17`] reproduces
//!   C's `%.17g` closely enough that the string round-trips to the exact
//!   bits, which is all the differential comparison needs.
//! * **Varity literal format** — generated source contains constants such as
//!   `+1.5955E-125` or `-1.7976E3` (always a sign, 4 fractional digits,
//!   upper-case `E`). [`format_varity`] emits it and [`parse_literal`]
//!   accepts it (plus ordinary Rust/C float syntax and the `f`/`F` suffix
//!   used in FP32 tests).

use std::fmt::{self, Write as _};

/// Format an `f64` the way `printf("%.17g\n", x)` does, up to trailing-zero
/// trimming. 17 significant digits guarantee exact round-tripping.
pub fn format_g17(x: f64) -> String {
    if x.is_nan() {
        return if x.is_sign_negative() { "-nan".into() } else { "nan".into() };
    }
    if x.is_infinite() {
        return if x < 0.0 { "-inf".into() } else { "inf".into() };
    }
    let s = format!("{x:.16e}");
    normalize_exp_format(&s, 17)
}

/// Format an `f32` with 9 significant digits (exact round-trip for binary32).
pub fn format_g9(x: f32) -> String {
    if x.is_nan() {
        return if x.is_sign_negative() { "-nan".into() } else { "nan".into() };
    }
    if x.is_infinite() {
        return if x < 0.0 { "-inf".into() } else { "inf".into() };
    }
    let s = format!("{x:.8e}");
    normalize_exp_format(&s, 9)
}

/// Convert Rust's `1.2345678901234567e5` into `%g`-style output: plain
/// decimal for moderate exponents, exponent form otherwise, with trailing
/// zeros trimmed.
fn normalize_exp_format(s: &str, sig_digits: i32) -> String {
    let (mant, exp) = s.split_once(['e', 'E']).expect("exp format");
    let exp: i32 = exp.parse().expect("exponent");
    // %g uses plain notation when -4 <= exp < precision
    if exp >= -4 && exp < sig_digits {
        let neg = mant.starts_with('-');
        let digits: String = mant.chars().filter(|c| c.is_ascii_digit()).collect();
        let digits = digits.trim_end_matches('0');
        let digits = if digits.is_empty() { "0" } else { digits };
        let mut out = String::new();
        if neg {
            out.push('-');
        }
        let point = exp + 1; // digits before the decimal point
        if point <= 0 {
            out.push_str("0.");
            for _ in 0..(-point) {
                out.push('0');
            }
            out.push_str(digits);
        } else if (point as usize) >= digits.len() {
            out.push_str(digits);
            for _ in 0..(point as usize - digits.len()) {
                out.push('0');
            }
        } else {
            out.push_str(&digits[..point as usize]);
            out.push('.');
            out.push_str(&digits[point as usize..]);
        }
        out
    } else {
        let mant = mant.trim_end_matches('0').trim_end_matches('.');
        let mant =
            if mant.is_empty() || mant == "-" { format!("{mant}0") } else { mant.to_string() };
        format!("{mant}e{exp:+03}")
    }
}

/// Format a constant in the Varity literal style: explicit sign, one integer
/// digit, four fractional digits, upper-case `E` exponent — e.g.
/// `+1.3065E-306`, `-1.7744E-2`.
pub fn format_varity(x: f64) -> String {
    let mut s = String::new();
    write_varity(&mut s, x).expect("a String takes every write");
    s
}

/// Format an FP32 constant in Varity style with the `F` suffix, e.g.
/// `+1.2345E7F`.
pub fn format_varity_f32(x: f32) -> String {
    let mut s = String::new();
    write_varity_f32(&mut s, x).expect("a String takes every write");
    s
}

/// Write [`format_varity`]`(x)` to `out`, with no buffer of its own.
pub fn write_varity(out: &mut impl fmt::Write, x: f64) -> fmt::Result {
    if x == 0.0 {
        return out.write_str(if x.is_sign_negative() { "-0.0" } else { "+0.0" });
    }
    out.write_char(if x < 0.0 { '-' } else { '+' })?;
    write!(UpperExponent(out), "{:.4e}", x.abs())
}

/// Write [`format_varity_f32`]`(x)` to `out`, with no buffer of its own.
pub fn write_varity_f32(out: &mut impl fmt::Write, x: f32) -> fmt::Result {
    if x == 0.0 {
        return out.write_str(if x.is_sign_negative() { "-0.0F" } else { "+0.0F" });
    }
    out.write_char(if x < 0.0 { '-' } else { '+' })?;
    write!(UpperExponent(&mut *out), "{:.4e}", x.abs())?;
    out.write_char('F')
}

/// Passes `{:e}` output through with its exponent marker upper-cased
/// (`1.5000e-7` becomes `1.5000E-7`; the digits never hold an `e`).
struct UpperExponent<'a, W>(&'a mut W);

impl<W: fmt::Write> fmt::Write for UpperExponent<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut parts = s.split('e');
        self.0.write_str(parts.next().unwrap_or(""))?;
        for part in parts {
            self.0.write_char('E')?;
            self.0.write_str(part)?;
        }
        Ok(())
    }
}

/// Format an `f64` as a C99 hexadecimal float (`%a`): `0x1.91eb851eb851fp+1`.
///
/// Hex floats are the lossless, human-auditable encoding numerical
/// debugging tools exchange (every bit of the significand is visible);
/// the `isolate`/`reduce` reports use them when decimal output would hide
/// a last-ULP difference.
///
/// ```
/// use fpcore::literal::{format_hex_f64, parse_hex_f64};
/// assert_eq!(format_hex_f64(1.0), "0x1p+0");
/// assert_eq!(format_hex_f64(-1.5), "-0x1.8p+0");
/// let s = format_hex_f64(0.1);
/// assert_eq!(parse_hex_f64(&s), Some(0.1));
/// ```
pub fn format_hex_f64(x: f64) -> String {
    if x.is_nan() {
        return if x.is_sign_negative() { "-nan".into() } else { "nan".into() };
    }
    if x.is_infinite() {
        return if x < 0.0 { "-inf".into() } else { "inf".into() };
    }
    let sign = if x.is_sign_negative() { "-" } else { "" };
    if x == 0.0 {
        return format!("{sign}0x0p+0");
    }
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let mant = bits & crate::bits::F64_MANT_MASK;
    let (lead, exp, mant) = if biased == 0 {
        // subnormal: C prints with leading 0 and exponent -1022
        (0u64, -1022i32, mant)
    } else {
        (1, biased - 1023, mant)
    };
    let mut hex = format!("{mant:013x}");
    while hex.len() > 1 && hex.ends_with('0') {
        hex.pop();
    }
    if mant == 0 {
        format!("{sign}0x{lead}p{exp:+}")
    } else {
        format!("{sign}0x{lead}.{hex}p{exp:+}")
    }
}

/// Parse a C99 hexadecimal float (accepts what [`format_hex_f64`] emits).
pub fn parse_hex_f64(s: &str) -> Option<f64> {
    let s = s.trim();
    match s {
        "inf" | "+inf" => return Some(f64::INFINITY),
        "-inf" => return Some(f64::NEG_INFINITY),
        "nan" | "+nan" => return Some(f64::NAN),
        "-nan" => return Some(-f64::NAN),
        _ => {}
    }
    let (negative, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let s = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))?;
    let (mant_str, exp_str) = s.split_once(['p', 'P'])?;
    let exp: i32 = exp_str.parse().ok()?;
    let (int_str, frac_str) = match mant_str.split_once('.') {
        Some((i, f)) => (i, f),
        None => (mant_str, ""),
    };
    let mut value = 0.0f64;
    for c in int_str.chars() {
        value = value * 16.0 + c.to_digit(16)? as f64;
    }
    let mut scale = 1.0 / 16.0;
    for c in frac_str.chars() {
        value += c.to_digit(16)? as f64 * scale;
        scale /= 16.0;
    }
    // apply the binary exponent with saturating ldexp semantics
    let mut result = value;
    let mut e = exp;
    while e > 500 {
        result *= 2f64.powi(500);
        e -= 500;
    }
    while e < -500 {
        result *= 2f64.powi(-500);
        e += 500;
    }
    result *= 2f64.powi(e);
    Some(if negative { -result } else { result })
}

/// Parse a floating-point literal in any of the accepted source forms:
/// Varity style (`+1.5955E-125`), C style (`1.5e-3`, `.5`, `1.`), with an
/// optional `f`/`F` suffix. Returns `None` on malformed input.
pub fn parse_literal(s: &str) -> Option<f64> {
    let s = s.trim();
    // Strip the FP32 suffix only after a digit or '.', so "inf" survives.
    let s = match s.strip_suffix(['f', 'F']) {
        Some(head) if head.ends_with(|c: char| c.is_ascii_digit() || c == '.') => head,
        _ => s,
    };
    if s.is_empty() {
        return None;
    }
    // Rust's parser accepts the same grammar once we normalise the case.
    let lower = s.to_ascii_lowercase();
    match lower.as_str() {
        "inf" | "+inf" | "infinity" | "+infinity" => return Some(f64::INFINITY),
        "-inf" | "-infinity" => return Some(f64::NEG_INFINITY),
        "nan" | "+nan" => return Some(f64::NAN),
        "-nan" => return Some(-f64::NAN),
        _ => {}
    }
    lower.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::excessive_precision)] // 17-digit samples are the point
    fn g17_roundtrips_exactly() {
        let samples = [
            0.1,
            -0.3,
            1.0 / 3.0,
            1e-309,
            f64::MAX,
            f64::MIN_POSITIVE,
            8.6551990944767196e-306,
            1.4424471839615771e-307,
        ];
        for &x in &samples {
            let s = format_g17(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn g17_special_values() {
        assert_eq!(format_g17(f64::NAN), "nan");
        assert_eq!(format_g17(-f64::NAN), "-nan");
        assert_eq!(format_g17(f64::INFINITY), "inf");
        assert_eq!(format_g17(f64::NEG_INFINITY), "-inf");
        assert_eq!(format_g17(0.0), "0");
        assert_eq!(format_g17(-0.0), "-0");
    }

    #[test]
    fn g17_plain_notation_for_moderate_exponents() {
        assert_eq!(format_g17(1.0), "1");
        assert_eq!(format_g17(1.5), "1.5");
        assert_eq!(format_g17(-42.0), "-42");
        assert_eq!(format_g17(0.25), "0.25");
    }

    #[test]
    fn g17_exponent_notation_for_extremes() {
        let s = format_g17(1e300);
        assert!(s.contains('e'), "{s}");
        let s = format_g17(1e-300);
        assert!(s.contains("e-300"), "{s}");
    }

    #[test]
    fn g9_roundtrips_f32() {
        let samples = [0.1f32, 1.0 / 3.0, f32::MAX, f32::MIN_POSITIVE, 1e-40];
        for &x in &samples {
            let s = format_g9(x);
            let back: f32 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {s}");
        }
    }

    #[test]
    fn varity_format_examples_from_paper() {
        // Figure 2/4/5 literal style
        assert_eq!(format_varity(1.3305e12), "+1.3305E12");
        assert_eq!(format_varity(-1.7744e-2), "-1.7744E-2");
        assert_eq!(format_varity(1.5955e-125), "+1.5955E-125");
        assert_eq!(format_varity(0.0), "+0.0");
        assert_eq!(format_varity(-0.0), "-0.0");
    }

    #[test]
    fn varity_f32_suffix() {
        assert_eq!(format_varity_f32(1.5f32), "+1.5000E0F");
        assert_eq!(format_varity_f32(-0.0f32), "-0.0F");
    }

    #[test]
    fn parse_accepts_varity_and_c_styles() {
        assert_eq!(parse_literal("+1.5955E-125"), Some(1.5955e-125));
        assert_eq!(parse_literal("-1.7744E-2"), Some(-1.7744e-2));
        assert_eq!(parse_literal("1.23F"), Some(1.23));
        assert_eq!(parse_literal("-0.0"), Some(-0.0));
        assert_eq!(parse_literal("3"), Some(3.0));
        assert_eq!(parse_literal(""), None);
        assert_eq!(parse_literal("abc"), None);
    }

    #[test]
    fn parse_special_values() {
        assert_eq!(parse_literal("inf"), Some(f64::INFINITY));
        assert_eq!(parse_literal("-inf"), Some(f64::NEG_INFINITY));
        assert!(parse_literal("nan").unwrap().is_nan());
        assert!(parse_literal("-nan").unwrap().is_nan());
    }

    #[test]
    #[allow(clippy::excessive_precision)] // full-precision sample constants
    fn hex_float_roundtrips_every_class() {
        let samples = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            0.1,
            f64::MAX,
            f64::MIN_POSITIVE,
            1e-310,            // subnormal
            f64::from_bits(1), // min subnormal
            -2.2250738585072014e-308,
            8.6551990944767196e-306,
        ];
        for &x in &samples {
            let s = format_hex_f64(x);
            let back = parse_hex_f64(&s).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:e} -> {s} -> {back:e}");
        }
    }

    #[test]
    fn hex_float_known_values() {
        assert_eq!(format_hex_f64(1.0), "0x1p+0");
        assert_eq!(format_hex_f64(2.0), "0x1p+1");
        assert_eq!(format_hex_f64(-1.5), "-0x1.8p+0");
        assert_eq!(format_hex_f64(0.0), "0x0p+0");
        assert_eq!(format_hex_f64(-0.0), "-0x0p+0");
        assert_eq!(format_hex_f64(f64::INFINITY), "inf");
        assert_eq!(format_hex_f64(f64::NAN), "nan");
    }

    #[test]
    fn hex_parse_rejects_garbage() {
        assert_eq!(parse_hex_f64(""), None);
        assert_eq!(parse_hex_f64("0x1.8"), None); // missing exponent
        assert_eq!(parse_hex_f64("1.8p+0"), None); // missing 0x
        assert_eq!(parse_hex_f64("0xz.8p+0"), None); // bad digit
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14 is a literal test value, not π
    fn hex_parse_accepts_c_printf_variants() {
        // glibc prints e.g. 0x1.91eb851eb851fp+1 for 3.14
        assert_eq!(parse_hex_f64("0x1.91eb851eb851fp+1"), Some(3.14));
        assert_eq!(parse_hex_f64("0X1.8P1"), Some(3.0));
        assert_eq!(parse_hex_f64("0x1p-1074"), Some(f64::from_bits(1)));
    }

    #[test]
    fn varity_roundtrip_via_parse() {
        for &x in &[1.3305e12, -1.9289e305, 1.3065e-306, -1.5942e305] {
            let s = format_varity(x);
            let back = parse_literal(&s).unwrap();
            // 4 fractional digits: round-trip within relative 1e-4
            assert!((back - x).abs() <= x.abs() * 1e-4, "{x} -> {s} -> {back}");
        }
    }
}
