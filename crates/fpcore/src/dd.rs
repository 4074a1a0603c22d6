//! Double-double arithmetic: an unevaluated sum of two `f64`s giving a
//! ~106-bit significand (Dekker 1971, Knuth TAOCP §4.2.2, and the QD
//! library of Hida/Li/Bailey).
//!
//! This is the numeric substrate of the ground-truth reference executor
//! (ROADMAP item 5): every campaign kernel is re-evaluated over [`Dd`]
//! values with a *single* rounding to the kernel precision at the end, so
//! each vendor result gets an error-vs-truth score and a "who drifted"
//! verdict instead of only a pairwise diff.
//!
//! # Error-free primitives
//!
//! [`two_sum`] and [`two_prod`] are *exact*: the returned `(s, e)` pair
//! satisfies `s + e == a + b` (resp. `a * b`) as real numbers, with `s`
//! the correctly rounded result and `e` the rounding error. Everything
//! else is built from them; the proptests in `tests/proptests.rs` verify
//! the identity in 128-bit integer arithmetic.
//!
//! # Accuracy contract
//!
//! Arithmetic (`+ − × ÷`, `sqrt`, fma) is accurate to the full ~106-bit
//! width. The transcendental entry points that the simulated vendor
//! libraries *disagree* on (`exp`/`log` families, `pow`, `fmod`, `ceil`,
//! hyperbolics, `cbrt`, `rsqrt`, `erf`, `tgamma`) are genuine
//! double-double kernels, comfortably below half an `f64` ULP after the
//! final rounding. Entry points where both vendors call the *identical*
//! host implementation (`sin`, `cos`, `atan2`, …) can never produce a
//! vendor discrepancy, so they use a derivative-corrected host call —
//! truth there carries the host library's own sub-ULP error, which is
//! irrelevant to drift verdicts.

use std::f64::consts::{LN_2, PI};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Knuth's error-free addition: returns `(s, e)` with `s = fl(a + b)` and
/// `s + e == a + b` exactly (no assumption on the magnitudes of `a`, `b`).
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Dekker's fast error-free addition, valid when `|a| >= |b|` (or either
/// is zero): returns `(s, e)` with `s = fl(a + b)` and `s + e == a + b`.
#[inline]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// Error-free multiplication via FMA: returns `(p, e)` with
/// `p = fl(a * b)` and `p + e == a * b` exactly (finite, non-overflowing
/// operands).
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = f64::mul_add(a, b, -p);
    (p, e)
}

/// A double-double value: the unevaluated sum `hi + lo` with
/// `hi = fl(hi + lo)` (so `hi` alone is the value correctly rounded to
/// `f64`) and `|lo| ≤ ulp(hi)/2`. Non-finite values keep `lo == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dd {
    /// Leading component: the value rounded to nearest `f64`.
    pub hi: f64,
    /// Trailing component: the residual beyond `hi`.
    pub lo: f64,
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// One.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };
    /// ln 2 to double-double precision (QD library value).
    pub const LN2: Dd = Dd { hi: LN_2, lo: 2.319_046_813_846_299_6e-17 };
    /// π to double-double precision (QD library value).
    pub const PI: Dd = Dd { hi: PI, lo: 1.224_646_799_147_353_2e-16 };

    /// Lift an exact `f64`.
    #[inline]
    pub fn from_f64(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }

    /// Renormalize a raw `(hi, lo)` pair into canonical form.
    #[inline]
    fn renorm(hi: f64, lo: f64) -> Dd {
        if !hi.is_finite() || lo == 0.0 {
            // the lo == 0 early-out also preserves the sign of zero:
            // `-0.0 + 0.0` would round to `+0.0`
            return Dd { hi, lo: 0.0 };
        }
        let (s, e) = quick_two_sum(hi, lo);
        if s.is_finite() {
            Dd { hi: s, lo: e }
        } else {
            Dd { hi: s, lo: 0.0 }
        }
    }

    /// Round to the nearest `f64` (exactly `hi` by the canonical-form
    /// invariant).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.hi
    }

    /// Round to the nearest `f32` with a single rounding of the full
    /// 106-bit value — `hi as f32` alone can double-round when `hi` sits
    /// exactly on an `f32` rounding boundary and `lo` breaks the tie.
    pub fn to_f32(self) -> f32 {
        let r = self.hi as f32;
        if !r.is_finite() || self.lo == 0.0 {
            return r;
        }
        let rd = r as f64;
        if rd == self.hi {
            // hi is f32-exact and |lo| < ulp64(hi) can never reach the
            // next f32 midpoint
            return r;
        }
        // hi lies strictly between two f32 neighbours; the only case the
        // direct cast can get wrong is hi landing exactly on the midpoint
        // (round-to-even already settled it, but lo breaks the tie)
        let other =
            if self.hi > rd { crate::ulp::next_up_f32(r) } else { crate::ulp::next_down_f32(r) };
        let mid = (rd + other as f64) * 0.5; // exact: sum of two adjacent f32s
        if self.hi == mid && (self.lo > 0.0) == (self.hi > rd) {
            other
        } else {
            r
        }
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.hi.is_nan()
    }

    /// True when the leading component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.hi.is_finite()
    }

    /// True for +0 or −0.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.hi == 0.0
    }

    /// Magnitude (exact).
    #[inline]
    pub fn abs(self) -> Dd {
        if self.hi < 0.0 || (self.hi == 0.0 && self.hi.is_sign_negative()) {
            self.neg()
        } else {
            self
        }
    }

    /// Multiply by a plain `f64`.
    pub fn mul_f64(self, b: f64) -> Dd {
        if !self.hi.is_finite() || !b.is_finite() {
            return Dd::from_f64(self.hi * b);
        }
        let (p, e) = two_prod(self.hi, b);
        if !p.is_finite() {
            return Dd::from_f64(p);
        }
        Dd::renorm(p, e + self.lo * b)
    }

    /// Multiply by an exact power of two (error-free).
    #[inline]
    fn mul_pwr2(self, b: f64) -> Dd {
        Dd { hi: self.hi * b, lo: self.lo * b }
    }

    /// Square (slightly cheaper than `mul(self)`).
    pub fn sqr(self) -> Dd {
        if !self.hi.is_finite() {
            return Dd::from_f64(self.hi * self.hi);
        }
        let (p, e) = two_prod(self.hi, self.hi);
        if !p.is_finite() {
            return Dd::from_f64(p);
        }
        Dd::renorm(p, e + 2.0 * self.hi * self.lo)
    }

    /// Fused multiply-add `self * b + c`, evaluated in double-double (no
    /// extra rounding versus `mul` + `add`).
    #[inline]
    pub fn mul_add(self, b: Dd, c: Dd) -> Dd {
        self.mul(b).add(c)
    }

    /// Total order on the represented values (NaN compares as `None`).
    pub fn cmp_val(self, b: Dd) -> Option<std::cmp::Ordering> {
        if self.is_nan() || b.is_nan() {
            return None;
        }
        match self.hi.partial_cmp(&b.hi) {
            Some(std::cmp::Ordering::Equal) => self.lo.partial_cmp(&b.lo),
            other => other,
        }
    }

    /// Truncation toward zero (exact).
    pub fn trunc(self) -> Dd {
        if !self.hi.is_finite() {
            return self;
        }
        let hi_t = self.hi.trunc();
        if hi_t != self.hi {
            // hi alone is non-integral: its truncation is the DD's
            // truncation unless lo pushes the value across the integer —
            // impossible because |lo| < ulp(hi)/2 < 1/2 whenever hi is
            // non-integral with |hi| < 2^53, and hi non-integral implies
            // |hi| < 2^52
            return Dd::from_f64(hi_t);
        }
        // hi is an integer; truncate lo in the direction of hi's sign
        let lo_t = if self.hi >= 0.0 {
            if self.lo < 0.0 && self.lo.trunc() != self.lo {
                self.lo.trunc() - 1.0
            } else {
                self.lo.trunc()
            }
        } else if self.lo > 0.0 && self.lo.trunc() != self.lo {
            self.lo.trunc() + 1.0
        } else {
            self.lo.trunc()
        };
        Dd::renorm(hi_t, lo_t)
    }

    /// Floor (exact).
    pub fn floor(self) -> Dd {
        if !self.hi.is_finite() {
            return self;
        }
        let hi_f = self.hi.floor();
        if hi_f != self.hi {
            return Dd::from_f64(hi_f);
        }
        Dd::renorm(hi_f, self.lo.floor())
    }

    /// Ceiling (exact). This is the ground truth for the paper's Fig. 5
    /// mechanism: `ceil(x) == 1` for every `0 < x ≤ 1`, with no
    /// tiny-argument flush.
    pub fn ceil(self) -> Dd {
        if !self.hi.is_finite() {
            return self;
        }
        let hi_c = self.hi.ceil();
        if hi_c != self.hi {
            return Dd::from_f64(hi_c);
        }
        Dd::renorm(hi_c, self.lo.ceil())
    }

    /// Round half away from zero (C `round` semantics, exact).
    pub fn round(self) -> Dd {
        if !self.hi.is_finite() {
            return self;
        }
        if self.hi < 0.0 {
            return self.neg().round().neg();
        }
        let f = self.floor();
        let frac = self.sub(f);
        match frac.cmp_val(Dd::from_f64(0.5)) {
            Some(std::cmp::Ordering::Less) => f,
            _ => f.add(Dd::ONE),
        }
    }

    /// Round half to even (C `rint` under the default mode, exact).
    pub fn round_ties_even(self) -> Dd {
        if !self.hi.is_finite() {
            return self;
        }
        let f = self.floor();
        let frac = self.sub(f);
        match frac.cmp_val(Dd::from_f64(0.5)) {
            Some(std::cmp::Ordering::Less) => f,
            Some(std::cmp::Ordering::Greater) => f.add(Dd::ONE),
            _ => {
                // exact tie: pick the even neighbour
                let even = f.div(Dd::from_f64(2.0)).trunc().mul_f64(2.0);
                if f.sub(even).is_zero() {
                    f
                } else {
                    f.add(Dd::ONE)
                }
            }
        }
    }

    /// Square root: one f64 seed plus a double-double Newton step
    /// (Karp/Markstein), full DD accuracy.
    pub fn sqrt(self) -> Dd {
        if self.is_zero() {
            return self; // preserves −0
        }
        if self.hi < 0.0 || self.hi.is_nan() {
            return Dd::from_f64(f64::NAN);
        }
        if self.hi.is_infinite() {
            return self;
        }
        let x = 1.0 / self.hi.sqrt();
        let ax = self.hi * x;
        let ax_dd = Dd::from_f64(ax);
        Dd::from_f64(ax).add(self.sub(ax_dd.sqr()).mul_f64(x * 0.5))
    }

    /// Reciprocal in double-double.
    #[inline]
    pub fn recip(self) -> Dd {
        Dd::ONE.div(self)
    }

    /// `fmod` with C library semantics: the exact remainder `a − trunc(a/b)·b`.
    ///
    /// For arguments with zero trailing words this reduces to the exact
    /// IEEE remainder (host `%` on `f64` is exact); the general case runs
    /// the reduction in double-double.
    pub fn fmod(self, b: Dd) -> Dd {
        if self.is_nan() || b.is_nan() || self.hi.is_infinite() || b.hi == 0.0 {
            return Dd::from_f64(f64::NAN);
        }
        if b.hi.is_infinite() || self.is_zero() {
            return self; // a mod ±inf = a; ±0 mod b = ±0
        }
        if self.lo == 0.0 && b.lo == 0.0 {
            // IEEE fmod on f64 is exact — no double-double needed
            return Dd::from_f64(self.hi % b.hi);
        }
        let q = self.div(b).trunc();
        let r = self.sub(q.mul(b));
        // guard against the quotient rounding across an integer boundary
        let ab = b.abs();
        let r = if r.abs().cmp_val(ab) != Some(std::cmp::Ordering::Less) {
            if r.hi > 0.0 {
                r.sub(ab)
            } else {
                r.add(ab)
            }
        } else {
            r
        };
        // fmod result carries the dividend's sign; a zero result does too
        if r.is_zero() && self.hi.is_sign_negative() != r.hi.is_sign_negative() {
            r.neg()
        } else {
            r
        }
    }

    /// Minimum with C `fmin` NaN semantics (NaN loses to a number).
    pub fn min(self, b: Dd) -> Dd {
        if self.is_nan() {
            return b;
        }
        if b.is_nan() {
            return self;
        }
        match self.cmp_val(b) {
            Some(std::cmp::Ordering::Greater) => b,
            _ => self,
        }
    }

    /// Maximum with C `fmax` NaN semantics.
    pub fn max(self, b: Dd) -> Dd {
        if self.is_nan() {
            return b;
        }
        if b.is_nan() {
            return self;
        }
        match self.cmp_val(b) {
            Some(std::cmp::Ordering::Less) => b,
            _ => self,
        }
    }

    /// Scale by 2^k (exact up to overflow/underflow of the components).
    pub fn ldexp(self, k: i32) -> Dd {
        // split the shift so a finite value never overflows an
        // intermediate when the final result is representable
        let half = k / 2;
        let rest = k - half;
        let s1 = pow2(half);
        let s2 = pow2(rest);
        Dd { hi: self.hi * s1 * s2, lo: self.lo * s1 * s2 }
    }
}

impl Neg for Dd {
    type Output = Dd;

    /// Negation (exact).
    #[inline]
    fn neg(self) -> Dd {
        Dd { hi: -self.hi, lo: -self.lo }
    }
}

impl Add for Dd {
    type Output = Dd;

    /// Double-double addition (Knuth's accurate variant).
    fn add(self, b: Dd) -> Dd {
        if !self.hi.is_finite() || !b.hi.is_finite() {
            return Dd::from_f64(self.hi + b.hi);
        }
        if self.hi == 0.0 && b.hi == 0.0 {
            // IEEE zero-sign rules (−0 + −0 = −0) live in the hardware
            // add; the error-free path would launder the sign through
            // `quick_two_sum(−0.0, +0.0)` into +0.0
            return Dd::from_f64(self.hi + b.hi);
        }
        let (s1, e1) = two_sum(self.hi, b.hi);
        if !s1.is_finite() {
            // the sum overflowed: its error term would be inf − inf
            return Dd::from_f64(s1);
        }
        let (s2, e2) = two_sum(self.lo, b.lo);
        let (s, e) = quick_two_sum(s1, e1 + s2);
        Dd::renorm(s, e + e2)
    }
}

impl Sub for Dd {
    type Output = Dd;

    /// Double-double subtraction.
    #[inline]
    fn sub(self, b: Dd) -> Dd {
        self.add(b.neg())
    }
}

impl Mul for Dd {
    type Output = Dd;

    /// Double-double multiplication.
    fn mul(self, b: Dd) -> Dd {
        if !self.hi.is_finite() || !b.hi.is_finite() {
            return Dd::from_f64(self.hi * b.hi);
        }
        let (p, e) = two_prod(self.hi, b.hi);
        if !p.is_finite() {
            return Dd::from_f64(p);
        }
        Dd::renorm(p, e + (self.hi * b.lo + self.lo * b.hi))
    }
}

impl Div for Dd {
    type Output = Dd;

    /// Double-double division (three-term long division).
    fn div(self, b: Dd) -> Dd {
        if !self.hi.is_finite() || !b.hi.is_finite() || b.hi == 0.0 {
            return Dd::from_f64(self.hi / b.hi);
        }
        let q1 = self.hi / b.hi;
        if !q1.is_finite() {
            return Dd::from_f64(q1);
        }
        let r = self.sub(b.mul_f64(q1));
        let q2 = r.hi / b.hi;
        let r2 = r.sub(b.mul_f64(q2));
        let q3 = r2.hi / b.hi;
        let (s, e) = quick_two_sum(q1, q2);
        Dd::renorm(s, e + q3)
    }
}

/// 2^k as f64 (saturating to 0 / +inf outside the exponent range).
fn pow2(k: i32) -> f64 {
    f64::powi(2.0, k)
}

// ---------------------------------------------------------------------------
// Transcendental kernels
// ---------------------------------------------------------------------------

impl Dd {
    /// e^x as a genuine double-double kernel: reduce against [`Dd::LN2`],
    /// a scaled Taylor core, nine squarings, and an exact 2^k scale.
    pub fn exp(self) -> Dd {
        if self.is_nan() {
            return self;
        }
        if self.hi >= 709.8 {
            return Dd::from_f64(f64::INFINITY);
        }
        if self.hi <= -745.2 {
            return Dd::ZERO;
        }
        if self.is_zero() {
            return Dd::ONE;
        }
        const INV_K: f64 = 1.0 / 512.0;
        let m = (self.hi / Dd::LN2.hi + 0.5).floor();
        let r = self.sub(Dd::LN2.mul_f64(m)).mul_pwr2(INV_K);
        // Taylor of e^r − 1 with |r| ≤ ln2/1024 ≈ 6.8e-4: converges to
        // 2^-110 relative in ~11 terms
        let mut term = r; // r^n / n!
        let mut sum = r;
        let mut n = 2.0f64;
        loop {
            term = term.mul(r).div(Dd::from_f64(n));
            sum = sum.add(term);
            if term.hi.abs() < 1e-40 || n > 24.0 {
                break;
            }
            n += 1.0;
        }
        // undo the 1/512 scale: (1+s) ← (1+s)² nine times, tracking s
        let mut s = sum;
        for _ in 0..9 {
            s = s.mul_pwr2(2.0).add(s.sqr());
        }
        s.add(Dd::ONE).ldexp(m as i32)
    }

    /// Natural log via Newton iteration on [`Dd::exp`]:
    /// `y ← y + x·e^(−y) − 1` doubles the correct digits per step.
    pub fn ln(self) -> Dd {
        if self.is_nan() {
            return self;
        }
        if self.is_zero() {
            return Dd::from_f64(f64::NEG_INFINITY);
        }
        if self.hi < 0.0 {
            return Dd::from_f64(f64::NAN);
        }
        if self.hi.is_infinite() {
            return self;
        }
        let mut y = Dd::from_f64(self.hi.ln());
        // two steps: f64 seed (53 bits) → 106 bits → saturated
        for _ in 0..2 {
            y = y.add(self.mul(y.neg().exp())).sub(Dd::ONE);
        }
        y
    }

    /// 2^x (via `exp(x · ln 2)`; the product is double-double so the
    /// reduction loses nothing).
    pub fn exp2(self) -> Dd {
        self.mul(Dd::LN2).exp()
    }

    /// log₂ via `ln(x) / ln 2`.
    pub fn log2(self) -> Dd {
        self.ln().div(Dd::LN2)
    }

    /// log₁₀ via `ln(x) / ln 10` (denominator computed in double-double).
    pub fn log10(self) -> Dd {
        self.ln().div(Dd::from_f64(10.0).ln())
    }

    /// e^x − 1 without cancellation: Taylor directly for small `x`, the
    /// full `exp` otherwise.
    pub fn expm1(self) -> Dd {
        if self.is_nan() || self.is_zero() {
            return self;
        }
        if self.hi.abs() < 0.25 {
            let mut term = self;
            let mut sum = self;
            let mut n = 2.0f64;
            while n <= 40.0 {
                term = term.mul(self).div(Dd::from_f64(n));
                sum = sum.add(term);
                if term.hi.abs() < sum.hi.abs() * 1e-35 {
                    break;
                }
                n += 1.0;
            }
            sum
        } else {
            self.exp().sub(Dd::ONE)
        }
    }

    /// ln(1 + x) without cancellation: the double-double sum `1 + x` is
    /// wide enough to keep tiny `x` intact before the log.
    pub fn ln_1p(self) -> Dd {
        if self.is_nan() || self.is_zero() {
            return self;
        }
        if self.hi.abs() < 1e-20 && self.hi.is_finite() {
            // ln(1+x) = x − x²/2 + …; beyond DD width the linear term is
            // the whole answer
            return self.sub(self.sqr().mul_pwr2(0.5));
        }
        Dd::ONE.add(self).ln()
    }

    /// Integer power by binary exponentiation (exact specials for
    /// negative bases).
    pub fn powi(self, n: i64) -> Dd {
        if n == 0 {
            return Dd::ONE;
        }
        let mut base = if n < 0 { self.recip() } else { self };
        let mut e = n.unsigned_abs();
        let mut acc = Dd::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            e >>= 1;
            if e > 0 {
                base = base.sqr();
            }
        }
        acc
    }

    /// `x^y` with C `pow` special-case semantics; the general path is
    /// `exp(y · ln x)` in double-double, integer exponents use
    /// [`Dd::powi`].
    pub fn pow(self, y: Dd) -> Dd {
        let xf = self.hi;
        let yf = y.hi;
        // IEEE special cases first — delegate to the host pow, which
        // implements Annex F exactly for specials
        if self.is_nan()
            || y.is_nan()
            || xf == 0.0
            || !xf.is_finite()
            || !yf.is_finite()
            || yf == 0.0
        {
            return Dd::from_f64(xf.powf(yf));
        }
        // exact integer exponent (covers negative bases)
        if y.lo == 0.0 && yf.fract() == 0.0 && yf.abs() < 9.0e15 {
            return self.powi(yf as i64);
        }
        if xf < 0.0 {
            // negative base with non-integer exponent: NaN
            return Dd::from_f64(f64::NAN);
        }
        y.mul(self.ln()).exp()
    }

    /// 1/√x — truth for both vendor compositions (`1/sqrt(x)` vs
    /// `sqrt(1/x)`).
    pub fn rsqrt(self) -> Dd {
        if self.is_zero() {
            return Dd::from_f64(1.0 / self.hi.sqrt()); // ±0 → ±inf per 1/√±0
        }
        self.sqrt().recip()
    }

    /// Cube root: f64 seed plus one double-double Newton step.
    pub fn cbrt(self) -> Dd {
        if self.is_zero() || self.is_nan() || self.hi.is_infinite() {
            return Dd::from_f64(self.hi.cbrt());
        }
        let neg = self.hi < 0.0;
        let a = self.abs();
        let x = Dd::from_f64(a.hi.cbrt());
        // x ← x − (x³ − a) / (3x²)
        let x = x.sub(x.powi(3).sub(a).div(x.sqr().mul_f64(3.0)));
        if neg {
            x.neg()
        } else {
            x
        }
    }

    /// sinh via the exp kernel: `(e^x − e^−x)/2`, with the `expm1` form
    /// near zero to avoid cancellation.
    pub fn sinh(self) -> Dd {
        if self.is_nan() || self.is_zero() || self.hi.is_infinite() {
            return self;
        }
        if self.hi.abs() < 0.5 {
            // (expm1(x) − expm1(−x)) / 2 is cancellation-free
            let e = self.expm1();
            let em = self.neg().expm1();
            return e.sub(em).mul_pwr2(0.5);
        }
        let e = self.exp();
        e.sub(e.recip()).mul_pwr2(0.5)
    }

    /// cosh via the exp kernel: `(e^x + e^−x)/2`.
    pub fn cosh(self) -> Dd {
        if self.is_nan() {
            return self;
        }
        if self.hi.is_infinite() {
            return Dd::from_f64(f64::INFINITY);
        }
        let e = self.exp();
        e.add(e.recip()).mul_pwr2(0.5)
    }

    /// tanh via `expm1`: `t/(t + 2)` with `t = expm1(2x)`.
    pub fn tanh(self) -> Dd {
        if self.is_nan() || self.is_zero() {
            return self;
        }
        if self.hi > 20.0 {
            return Dd::ONE;
        }
        if self.hi < -20.0 {
            return Dd::ONE.neg();
        }
        let t = self.mul_pwr2(2.0).expm1();
        t.div(t.add(Dd::from_f64(2.0)))
    }

    /// asinh: `ln(x + √(x²+1))`, with the `ln_1p` form for small `x` and
    /// `ln 2x` for huge `x` (dodging `x²` overflow).
    pub fn asinh(self) -> Dd {
        if self.is_nan() || self.is_zero() || self.hi.is_infinite() {
            return self;
        }
        let neg = self.hi < 0.0;
        let a = self.abs();
        let mag = if a.hi > 1e154 {
            a.ln().add(Dd::LN2)
        } else {
            let t = a.sqr();
            a.add(t.div(Dd::ONE.add(t.add(Dd::ONE).sqrt()))).ln_1p()
        };
        if neg {
            mag.neg()
        } else {
            mag
        }
    }

    /// acosh: `ln(x + √(x²−1))` for `x ≥ 1`, NaN below.
    pub fn acosh(self) -> Dd {
        if self.is_nan() {
            return self;
        }
        match self.cmp_val(Dd::ONE) {
            Some(std::cmp::Ordering::Less) => Dd::from_f64(f64::NAN),
            Some(std::cmp::Ordering::Equal) => Dd::ZERO,
            _ => {
                if self.hi.is_infinite() || self.hi > 1e154 {
                    if self.hi.is_infinite() {
                        return self;
                    }
                    return self.ln().add(Dd::LN2);
                }
                self.add(self.sqr().sub(Dd::ONE).sqrt()).ln()
            }
        }
    }

    /// atanh: `½ ln((1+x)/(1−x))` for `|x| < 1`, via `ln_1p` so small
    /// arguments keep full precision.
    pub fn atanh(self) -> Dd {
        if self.is_nan() || self.is_zero() {
            return self;
        }
        let ax = self.abs();
        match ax.cmp_val(Dd::ONE) {
            Some(std::cmp::Ordering::Greater) => Dd::from_f64(f64::NAN),
            Some(std::cmp::Ordering::Equal) => {
                Dd::from_f64(if self.hi > 0.0 { f64::INFINITY } else { f64::NEG_INFINITY })
            }
            _ => {
                let mag = ax.mul_pwr2(2.0).div(Dd::ONE.sub(ax)).ln_1p().mul_pwr2(0.5);
                if self.hi < 0.0 {
                    mag.neg()
                } else {
                    mag
                }
            }
        }
    }

    /// hypot: `√(x² + y²)` with component scaling against overflow.
    pub fn hypot(self, b: Dd) -> Dd {
        if self.hi.is_infinite() || b.hi.is_infinite() {
            return Dd::from_f64(f64::INFINITY);
        }
        if self.is_nan() || b.is_nan() {
            return Dd::from_f64(f64::NAN);
        }
        let a = self.abs();
        let b = b.abs();
        let m = a.hi.max(b.hi);
        if m == 0.0 {
            return Dd::ZERO;
        }
        // scale by an exact power of two so the squares stay finite
        let e = m.log2().floor() as i32;
        let a = a.ldexp(-e);
        let b = b.ldexp(-e);
        a.sqr().add(b.sqr()).sqrt().ldexp(e)
    }

    /// erf as a double-double kernel: Taylor series below `|x| ≤ 2`, the
    /// Gauss continued fraction on the tail — the same decomposition both
    /// vendor flavours use, but evaluated in 106-bit arithmetic so their
    /// last-ULP disagreements can be adjudicated.
    pub fn erf(self) -> Dd {
        if self.is_nan() || self.is_zero() {
            return self;
        }
        let neg = self.hi < 0.0;
        let x = self.abs();
        let mag = if x.hi <= 2.0 {
            erf_taylor_dd(x)
        } else if x.hi > 7.0 {
            Dd::ONE // erfc < 1e-22 even in DD terms after the final rounding
        } else {
            Dd::ONE.sub(erfc_cf_dd(x))
        };
        if neg {
            mag.neg()
        } else {
            mag
        }
    }

    /// tgamma as a double-double kernel: reflection below ½, recurrence
    /// shifting into `x ≥ 24`, then the Stirling series with Bernoulli
    /// corrections — accurate well past the 53 bits the vendor Lanczos
    /// variants fight over.
    pub fn tgamma(self) -> Dd {
        let x = self.hi;
        if self.is_nan() {
            return self;
        }
        if x == 0.0 {
            return Dd::from_f64(if x.is_sign_negative() {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            });
        }
        if x < 0.0 && self.lo == 0.0 && x.fract() == 0.0 {
            return Dd::from_f64(f64::NAN); // poles at the negative integers
        }
        if x.is_infinite() {
            return Dd::from_f64(if x > 0.0 { x } else { f64::NAN });
        }
        if x > 180.0 {
            // Γ(171.7) already overflows f64; avoid huge Stirling sums
            return Dd::from_f64(f64::INFINITY);
        }
        if x < 0.5 {
            // reflection: Γ(x) = π / (sin(πx) · Γ(1−x))
            let s = sin_pi_dd(self);
            if s.is_zero() {
                return Dd::from_f64(f64::NAN);
            }
            return Dd::PI.div(s.mul(Dd::ONE.sub(self).tgamma()));
        }
        // shift up: Γ(x) = Γ(x+n) / (x (x+1) … (x+n−1))
        let mut shift = Dd::ONE;
        let mut z = self;
        while z.hi < 24.0 {
            shift = shift.mul(z);
            z = z.add(Dd::ONE);
        }
        stirling_dd(z).div(shift)
    }

    // -- derivative-corrected host calls ------------------------------------
    // Both simulated vendors call the *identical* host implementation for
    // these, so they can never disagree; truth only needs host-level
    // accuracy plus the first-order `lo` correction.

    /// sin with a first-order `lo` correction over the host call.
    pub fn sin(self) -> Dd {
        if self.lo == 0.0 {
            return Dd::from_f64(self.hi.sin());
        }
        Dd::from_f64(self.hi.sin()).add(Dd::from_f64(self.hi.cos()).mul_f64(self.lo))
    }

    /// cos with a first-order `lo` correction over the host call.
    pub fn cos(self) -> Dd {
        if self.lo == 0.0 {
            return Dd::from_f64(self.hi.cos());
        }
        Dd::from_f64(self.hi.cos()).sub(Dd::from_f64(self.hi.sin()).mul_f64(self.lo))
    }

    /// tan via `sin/cos` on the corrected components.
    pub fn tan(self) -> Dd {
        if self.lo == 0.0 {
            return Dd::from_f64(self.hi.tan());
        }
        self.sin().div(self.cos())
    }

    /// asin with the `1/√(1−x²)` derivative correction.
    pub fn asin(self) -> Dd {
        let d = (1.0 - self.hi * self.hi).sqrt();
        if self.lo == 0.0 || d == 0.0 || !d.is_finite() {
            return Dd::from_f64(self.hi.asin());
        }
        Dd::from_f64(self.hi.asin()).add(Dd::from_f64(self.lo / d))
    }

    /// acos with the `−1/√(1−x²)` derivative correction.
    pub fn acos(self) -> Dd {
        let d = (1.0 - self.hi * self.hi).sqrt();
        if self.lo == 0.0 || d == 0.0 || !d.is_finite() {
            return Dd::from_f64(self.hi.acos());
        }
        Dd::from_f64(self.hi.acos()).sub(Dd::from_f64(self.lo / d))
    }

    /// atan with the `1/(1+x²)` derivative correction.
    pub fn atan(self) -> Dd {
        let d = 1.0 + self.hi * self.hi;
        if self.lo == 0.0 || !d.is_finite() {
            return Dd::from_f64(self.hi.atan());
        }
        Dd::from_f64(self.hi.atan()).add(Dd::from_f64(self.lo / d))
    }

    /// atan2 on the leading components with the partial-derivative
    /// corrections.
    pub fn atan2(self, x: Dd) -> Dd {
        let y = self;
        let r2 = x.hi * x.hi + y.hi * y.hi;
        let base = Dd::from_f64(y.hi.atan2(x.hi));
        if r2 == 0.0 || !r2.is_finite() {
            return base;
        }
        base.add(Dd::from_f64((x.hi * y.lo - y.hi * x.lo) / r2))
    }
}

/// Taylor series of erf in double-double:
/// `2/√π · Σ (−1)ⁿ x^(2n+1) / (n! (2n+1))`.
fn erf_taylor_dd(x: Dd) -> Dd {
    let x2 = x.sqr();
    let mut term = x; // x^(2n+1) / n!
    let mut sum = x;
    for n in 1..120 {
        term = term.mul(x2).div(Dd::from_f64(-(n as f64)));
        let contrib = term.div(Dd::from_f64((2 * n + 1) as f64));
        sum = sum.add(contrib);
        if contrib.hi.abs() < sum.hi.abs() * 1e-35 {
            break;
        }
    }
    two_over_sqrt_pi().mul(sum)
}

/// Gauss continued fraction for erfc in double-double, valid for `x ≥ 2`:
/// `erfc(x) = e^{−x²}/√π · 1/(x + ½/(x + 1/(x + 3⁄2/(x + …))))`.
fn erfc_cf_dd(x: Dd) -> Dd {
    let mut f = Dd::ZERO;
    for k in (1..=160u32).rev() {
        f = Dd::from_f64(k as f64 * 0.5).div(x.add(f));
    }
    x.sqr().neg().exp().div(sqrt_pi()).div(x.add(f))
}

/// √π in double-double (derived, not a constant: π is the only trusted
/// literal).
fn sqrt_pi() -> Dd {
    Dd::PI.sqrt()
}

/// 2/√π in double-double.
fn two_over_sqrt_pi() -> Dd {
    Dd::from_f64(2.0).div(sqrt_pi())
}

/// sin(πx) in double-double via exact range reduction modulo 2 and the
/// Taylor series of sin around 0 (quarter-period reduced, so the argument
/// is at most π/4).
fn sin_pi_dd(x: Dd) -> Dd {
    // reduce x to r ∈ [−½, ½) with sin(πx) = ± sin(πr) — the reduction is
    // exact because floor/sub are exact in DD
    let two = Dd::from_f64(2.0);
    let r = x.sub(x.div(two).floor().mul(two)); // r ∈ [0, 2)
    let (r, sign) = match r.cmp_val(Dd::ONE) {
        Some(std::cmp::Ordering::Less) => (r, 1.0),
        _ => (r.sub(Dd::ONE), -1.0),
    };
    // r ∈ [0,1); fold to [0, ½]
    let r = match r.cmp_val(Dd::from_f64(0.5)) {
        Some(std::cmp::Ordering::Greater) => Dd::ONE.sub(r),
        _ => r,
    };
    // Taylor: sin(t), t = πr ≤ π/2 ≈ 1.57 — terms decay fast enough by
    // n ≈ 30 for 106 bits
    let t = Dd::PI.mul(r);
    let t2 = t.sqr();
    let mut term = t;
    let mut sum = t;
    let mut n = 1.0f64;
    while n < 40.0 {
        term = term.mul(t2).div(Dd::from_f64(-(2.0 * n) * (2.0 * n + 1.0)));
        sum = sum.add(term);
        if term.hi.abs() < 1e-40 {
            break;
        }
        n += 1.0;
    }
    sum.mul_f64(sign)
}

/// Stirling series for Γ(z), `z ≥ 24`:
/// `Γ(z) = √(2π/z) (z/e)^z exp(Σ B₂ₙ / (2n(2n−1) z^{2n−1}))`.
fn stirling_dd(z: Dd) -> Dd {
    // Bernoulli correction coefficients B₂ₙ/(2n(2n−1)) as exact rationals
    // evaluated in double-double
    const BERN: [(f64, f64); 8] = [
        (1.0, 12.0),         // B2/(2·1)   = 1/12
        (-1.0, 360.0),       // B4/(4·3)   = −1/360
        (1.0, 1260.0),       // B6/(6·5)   = 1/1260
        (-1.0, 1680.0),      // B8/(8·7)   = −1/1680
        (1.0, 1188.0),       // B10/(10·9) = 1/1188
        (-691.0, 360360.0),  // B12/(12·11)
        (1.0, 156.0),        // B14/(14·13)
        (-3617.0, 122400.0), // B16/(16·15)
    ];
    let zinv = z.recip();
    let z2inv = zinv.sqr();
    let mut pow = zinv; // z^{−(2n−1)}
    let mut corr = Dd::ZERO;
    for &(num, den) in &BERN {
        corr = corr.add(Dd::from_f64(num).div(Dd::from_f64(den)).mul(pow));
        pow = pow.mul(z2inv);
    }
    // √(2π/z) · exp(z ln z − z + corr)
    let half_log = Dd::PI.mul_pwr2(2.0).div(z).sqrt();
    let body = z.mul(z.ln()).sub(z).add(corr).exp();
    half_log.mul(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ulp::ulp_diff_f64;

    fn assert_close(got: Dd, want: f64, ulps: u64, what: &str) {
        let d = ulp_diff_f64(got.to_f64(), want).unwrap_or(u64::MAX);
        assert!(d <= ulps, "{what}: got {} want {want} ({d} ulp)", got.to_f64());
    }

    #[test]
    fn two_sum_known_error() {
        // 1 + 2^-60: the sum rounds to 1, the error is exactly 2^-60
        let (s, e) = two_sum(1.0, 2f64.powi(-60));
        assert_eq!(s, 1.0);
        assert_eq!(e, 2f64.powi(-60));
        // order must not matter
        let (s2, e2) = two_sum(2f64.powi(-60), 1.0);
        assert_eq!((s2, e2), (s, e));
    }

    #[test]
    fn two_prod_known_error() {
        // (1 + 2^-30)² = 1 + 2^-29 + 2^-60; the product rounds off 2^-60
        let x = 1.0 + 2f64.powi(-30);
        let (p, e) = two_prod(x, x);
        assert_eq!(p, 1.0 + 2f64.powi(-29));
        assert_eq!(e, 2f64.powi(-60));
    }

    #[test]
    fn dd_add_keeps_106_bits() {
        let a = Dd::from_f64(1.0);
        let b = Dd::from_f64(2f64.powi(-70));
        let s = a.add(b);
        assert_eq!(s.hi, 1.0);
        assert_eq!(s.lo, 2f64.powi(-70));
        // and the round trip back down loses it again, correctly rounded
        assert_eq!(s.to_f64(), 1.0);
    }

    #[test]
    fn dd_add_follows_ieee_zero_sign_rules() {
        let nz = Dd::from_f64(-0.0);
        let pz = Dd::ZERO;
        assert!(nz.add(nz).to_f64().is_sign_negative(), "-0 + -0 = -0");
        assert!(nz.add(pz).to_f64().is_sign_positive(), "-0 + +0 = +0");
        assert!(nz.sub(pz).to_f64().is_sign_negative(), "-0 - +0 = -0");
        assert!(pz.sub(pz).to_f64().is_sign_positive(), "+0 - +0 = +0");
        // exact cancellation of nonzero operands is +0 in round-to-nearest
        assert!(Dd::from_f64(1.5).sub(Dd::from_f64(1.5)).to_f64().is_sign_positive());
    }

    #[test]
    fn dd_mul_exactness() {
        // (1+2^-30)·(1−2^-30) = 1 − 2^-60 exactly
        let a = Dd::from_f64(1.0 + 2f64.powi(-30));
        let b = Dd::from_f64(1.0 - 2f64.powi(-30));
        let p = a.mul(b);
        let want = Dd::ONE.sub(Dd::from_f64(2f64.powi(-60)));
        assert_eq!(p, want);
    }

    #[test]
    fn dd_div_reconstructs() {
        let a = Dd::from_f64(355.0);
        let b = Dd::from_f64(113.0);
        let q = a.div(b);
        let back = q.mul(b);
        assert!((back.to_f64() - 355.0).abs() < 1e-13);
        assert!(back.sub(a).abs().to_f64() < 1e-29);
    }

    #[test]
    fn division_by_zero_and_nan_propagate() {
        assert_eq!(Dd::ONE.div(Dd::ZERO).to_f64(), f64::INFINITY);
        assert!(Dd::ZERO.div(Dd::ZERO).is_nan());
        assert!(Dd::from_f64(f64::NAN).add(Dd::ONE).is_nan());
        assert_eq!(Dd::from_f64(f64::INFINITY).mul(Dd::ONE).to_f64(), f64::INFINITY);
    }

    #[test]
    fn to_f32_single_rounds() {
        // hi exactly on an f32 midpoint, lo breaking the tie upward:
        // round-to-even of hi alone keeps the even neighbour, the true
        // value rounds up
        let r = 1.0f32;
        let up = crate::ulp::next_up_f32(r);
        let mid = (r as f64 + up as f64) * 0.5;
        let v = Dd { hi: mid, lo: 1e-30 };
        assert_eq!(v.to_f32(), up, "lo must break the tie upward");
        let v = Dd { hi: mid, lo: -1e-30 };
        assert_eq!(v.to_f32(), r, "lo must break the tie downward");
        assert_eq!(Dd { hi: mid, lo: 0.0 }.to_f32(), r, "exact tie rounds to even");
    }

    #[test]
    fn trunc_floor_ceil_are_exact() {
        let x = Dd::from_f64(2.5);
        assert_eq!(x.trunc().to_f64(), 2.0);
        assert_eq!(x.floor().to_f64(), 2.0);
        assert_eq!(x.ceil().to_f64(), 3.0);
        let y = Dd::from_f64(-2.5);
        assert_eq!(y.trunc().to_f64(), -2.0);
        assert_eq!(y.floor().to_f64(), -3.0);
        assert_eq!(y.ceil().to_f64(), -2.0);
        // the Fig. 5 mechanism: tiny positive values ceil to exactly 1
        assert_eq!(Dd::from_f64(1.5955e-125).ceil().to_f64(), 1.0);
        assert_eq!(Dd::from_f64(5e-324).ceil().to_f64(), 1.0);
        // integer hi with a negative lo: the true value is just below the
        // integer, so ceil is the integer and floor is one less
        let z = Dd { hi: 3.0, lo: -1e-20 };
        assert_eq!(z.ceil().to_f64(), 3.0);
        assert_eq!(z.floor().to_f64(), 2.0);
        assert_eq!(z.trunc().to_f64(), 2.0);
    }

    #[test]
    fn round_modes() {
        assert_eq!(Dd::from_f64(2.5).round().to_f64(), 3.0);
        assert_eq!(Dd::from_f64(-2.5).round().to_f64(), -3.0);
        assert_eq!(Dd::from_f64(2.5).round_ties_even().to_f64(), 2.0);
        assert_eq!(Dd::from_f64(3.5).round_ties_even().to_f64(), 4.0);
        // a tie broken by lo is no longer a tie
        assert_eq!((Dd { hi: 2.5, lo: 1e-20 }).round_ties_even().to_f64(), 3.0);
    }

    #[test]
    fn sqrt_full_precision() {
        let two = Dd::from_f64(2.0);
        let r = two.sqrt();
        // r² − 2 must vanish to ~1e-32
        assert!(r.sqr().sub(two).abs().to_f64() < 1e-31);
        assert_close(r, std::f64::consts::SQRT_2, 0, "sqrt(2)");
        assert!(Dd::from_f64(-1.0).sqrt().is_nan());
        assert_eq!(Dd::ZERO.sqrt().to_f64(), 0.0);
    }

    #[test]
    fn exp_log_roundtrip() {
        for &x in &[-50.0, -1.0, -1e-5, 0.3, 1.0, 2.0, 10.0, 300.0] {
            let e = Dd::from_f64(x).exp();
            let back = e.ln();
            assert!(
                back.sub(Dd::from_f64(x)).abs().to_f64() < 1e-28 * x.abs().max(1.0),
                "ln(exp({x})) = {}",
                back.to_f64()
            );
        }
        assert_close(Dd::ONE.exp(), std::f64::consts::E, 0, "e");
        assert_close(Dd::LN2.exp(), 2.0, 0, "exp(ln 2)");
        assert_close(Dd::from_f64(2.0).ln(), std::f64::consts::LN_2, 0, "ln 2");
        assert_eq!(Dd::from_f64(800.0).exp().to_f64(), f64::INFINITY);
        assert_eq!(Dd::from_f64(-800.0).exp().to_f64(), 0.0);
        assert_eq!(Dd::ZERO.ln().to_f64(), f64::NEG_INFINITY);
        assert!(Dd::from_f64(-1.0).ln().is_nan());
    }

    #[test]
    fn exp2_log2_log10_agree_with_host() {
        assert_close(Dd::from_f64(10.0).exp2(), 1024.0, 0, "2^10");
        assert_close(Dd::from_f64(1024.0).log2(), 10.0, 0, "log2 1024");
        assert_close(Dd::from_f64(1000.0).log10(), 3.0, 0, "log10 1000");
        assert_close(Dd::from_f64(0.7).exp2(), 0.7f64.exp2(), 1, "2^0.7");
        assert_close(Dd::from_f64(0.7).log2(), 0.7f64.log2(), 1, "log2 0.7");
    }

    #[test]
    fn expm1_log1p_cancellation_free() {
        let tiny = 1e-18;
        assert_close(Dd::from_f64(tiny).expm1(), tiny.exp_m1(), 0, "expm1 tiny");
        assert_close(Dd::from_f64(tiny).ln_1p(), tiny.ln_1p(), 0, "log1p tiny");
        assert_close(Dd::from_f64(0.4).expm1(), 0.4f64.exp_m1(), 1, "expm1 0.4");
        assert_close(Dd::from_f64(3.0).expm1(), 3.0f64.exp_m1(), 1, "expm1 3");
        assert_close(Dd::from_f64(-0.6).ln_1p(), (-0.6f64).ln_1p(), 1, "log1p −0.6");
        assert_eq!(Dd::from_f64(-1.0).ln_1p().to_f64(), f64::NEG_INFINITY);
    }

    #[test]
    fn pow_cases() {
        assert_close(Dd::from_f64(2.0).pow(Dd::from_f64(10.0)), 1024.0, 0, "2^10");
        assert_close(Dd::from_f64(-2.0).pow(Dd::from_f64(3.0)), -8.0, 0, "(−2)³");
        assert_close(Dd::from_f64(9.0).pow(Dd::from_f64(0.5)), 3.0, 0, "9^½");
        assert_close(Dd::from_f64(1.7).pow(Dd::from_f64(2.6)), 1.7f64.powf(2.6), 1, "1.7^2.6");
        assert!(Dd::from_f64(-2.0).pow(Dd::from_f64(0.5)).is_nan());
        assert_eq!(Dd::ZERO.pow(Dd::ZERO).to_f64(), 1.0);
        assert_eq!(Dd::from_f64(2.0).pow(Dd::ZERO).to_f64(), 1.0);
    }

    #[test]
    fn fmod_matches_exact_host_semantics() {
        // lo == 0 both sides: must equal the (exact) host fmod bitwise
        for &(a, b) in &[
            (7.5, 2.0),
            (-7.5, 2.0),
            (1e300, 3.7),
            (1.5917195493481116e289, 1.5793e-307), // paper Fig. 4 operands
            (5.0, f64::INFINITY),
        ] {
            let got = Dd::from_f64(a).fmod(Dd::from_f64(b)).to_f64();
            let want = a % b;
            assert!(got.to_bits() == want.to_bits(), "fmod({a},{b}) = {got}, want {want}");
        }
        assert!(Dd::ONE.fmod(Dd::ZERO).is_nan());
        assert!(Dd::from_f64(f64::INFINITY).fmod(Dd::ONE).is_nan());
    }

    #[test]
    fn hyperbolics_match_host_within_ulps() {
        for &x in &[-3.0, -0.1, 1e-8, 0.4, 2.0, 15.0] {
            assert_close(Dd::from_f64(x).sinh(), x.sinh(), 1, "sinh");
            assert_close(Dd::from_f64(x).cosh(), x.cosh(), 1, "cosh");
            assert_close(Dd::from_f64(x).tanh(), x.tanh(), 1, "tanh");
            assert_close(Dd::from_f64(x).asinh(), x.asinh(), 1, "asinh");
        }
        for &x in &[1.0, 1.5, 20.0, 1e160] {
            assert_close(Dd::from_f64(x).acosh(), x.acosh(), 1, "acosh");
        }
        for &x in &[-0.9, 0.001, 0.5] {
            // host atanh itself carries up to ~2 ulp of error; the DD
            // value is the more trustworthy of the two
            assert_close(Dd::from_f64(x).atanh(), x.atanh(), 2, "atanh");
        }
        assert!(Dd::from_f64(0.5).acosh().is_nan());
        assert!(Dd::from_f64(1.5).atanh().is_nan());
    }

    #[test]
    fn cbrt_rsqrt_hypot() {
        assert_close(Dd::from_f64(27.0).cbrt(), 3.0, 0, "cbrt 27");
        assert_close(Dd::from_f64(-8.0).cbrt(), -2.0, 0, "cbrt −8");
        assert_close(Dd::from_f64(4.0).rsqrt(), 0.5, 0, "rsqrt 4");
        assert_eq!(Dd::ZERO.rsqrt().to_f64(), f64::INFINITY);
        assert_close(Dd::from_f64(3.0).hypot(Dd::from_f64(4.0)), 5.0, 0, "hypot 3 4");
        assert_close(
            Dd::from_f64(1e300).hypot(Dd::from_f64(1e300)),
            1e300 * std::f64::consts::SQRT_2,
            1,
            "hypot huge",
        );
    }

    #[test]
    fn erf_matches_published_values() {
        // same reference table the vendor flavours are tested against
        for &(x, want) in &[
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (1.5, 0.966_105_146_475_310_7),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
            (4.0, 0.999_999_984_582_742_1),
        ] {
            assert_close(Dd::from_f64(x).erf(), want, 1, "erf");
            assert_close(Dd::from_f64(-x).erf(), -want, 1, "erf odd");
        }
        assert_eq!(Dd::ZERO.erf().to_f64(), 0.0);
        assert_eq!(Dd::from_f64(10.0).erf().to_f64(), 1.0);
        assert!(Dd::from_f64(f64::NAN).erf().is_nan());
    }

    #[test]
    fn tgamma_matches_factorials_and_reflection() {
        for &(x, want) in
            &[(1.0, 1.0), (2.0, 1.0), (5.0, 24.0), (10.0, 362880.0), (21.0, 2.43290200817664e18)]
        {
            assert_close(Dd::from_f64(x).tgamma(), want, 1, "tgamma int");
        }
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert_close(Dd::from_f64(0.5).tgamma(), sqrt_pi, 1, "Γ(½)");
        assert_close(Dd::from_f64(-0.5).tgamma(), -2.0 * sqrt_pi, 1, "Γ(−½)");
        assert!(Dd::from_f64(-2.0).tgamma().is_nan());
        assert_eq!(Dd::from_f64(0.0).tgamma().to_f64(), f64::INFINITY);
        assert_eq!(Dd::from_f64(200.0).tgamma().to_f64(), f64::INFINITY);
    }

    #[test]
    fn trig_derivative_correction_is_first_order() {
        // sin(x + d) ≈ sin x + d cos x: the corrected value must be closer
        // to the true sum than the uncorrected one
        let x = 1.0f64;
        let d = 1e-17;
        let v = Dd { hi: x, lo: d };
        let got = v.sin().to_f64();
        let naive = x.sin();
        let true_sum = (x + d).sin() + (x.cos() * d - ((x + d).sin() - x.sin())); // ≈ sin x + d cos x
        assert!((got - true_sum).abs() <= (naive - true_sum).abs());
    }

    #[test]
    fn comparisons_use_both_words() {
        let a = Dd { hi: 1.0, lo: 1e-20 };
        let b = Dd::ONE;
        assert_eq!(a.cmp_val(b), Some(std::cmp::Ordering::Greater));
        assert_eq!(b.cmp_val(a), Some(std::cmp::Ordering::Less));
        assert_eq!(b.cmp_val(Dd::ONE), Some(std::cmp::Ordering::Equal));
        assert_eq!(Dd::from_f64(f64::NAN).cmp_val(b), None);
    }

    #[test]
    fn min_max_fmin_fmax_semantics() {
        let nan = Dd::from_f64(f64::NAN);
        assert_eq!(nan.min(Dd::ONE), Dd::ONE);
        assert_eq!(Dd::ONE.min(nan), Dd::ONE);
        assert_eq!(Dd::ONE.max(Dd::from_f64(2.0)).to_f64(), 2.0);
    }

    #[test]
    fn ldexp_scales_exactly() {
        let x = Dd { hi: 1.5, lo: 1e-17 };
        let y = x.ldexp(10);
        assert_eq!(y.hi, 1.5 * 1024.0);
        assert_eq!(y.lo, 1e-17 * 1024.0);
        assert_eq!(x.ldexp(-1200).hi, 0.0); // underflow saturates
    }
}
