//! A compact fixed-point decimal: a 128-bit mantissa with a decimal scale.
//!
//! JSONiq distinguishes `integer`, `decimal` and `double`; JSON numbers
//! with a fraction but no exponent are decimals and must not silently lose
//! precision. This type covers the paper's needs: exact parsing of JSON
//! decimals, exact add/sub/mul, comparison, and division at 18 fractional
//! digits of precision.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A decimal number: `mantissa × 10^(-scale)`.
#[derive(Debug, Clone, Copy)]
pub struct Dec {
    mantissa: i128,
    /// Number of digits after the decimal point (0..=38).
    scale: u32,
}

/// Scale used for division results.
const DIV_SCALE: u32 = 18;
const MAX_SCALE: u32 = 38;

impl Dec {
    pub fn new(mantissa: i128, scale: u32) -> Dec {
        Dec { mantissa, scale }.normalized()
    }

    pub fn from_i64(v: i64) -> Dec {
        Dec { mantissa: v as i128, scale: 0 }
    }

    pub fn zero() -> Dec {
        Dec { mantissa: 0, scale: 0 }
    }

    pub fn mantissa(&self) -> i128 {
        self.mantissa
    }

    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Strips trailing zero digits so equal values share a representation.
    fn normalized(mut self) -> Dec {
        while self.scale > 0 && self.mantissa % 10 == 0 {
            self.mantissa /= 10;
            self.scale -= 1;
        }
        self
    }

    /// Rescales both operands to a common scale. Returns `None` on
    /// overflow.
    fn align(a: Dec, b: Dec) -> Option<(i128, i128, u32)> {
        let scale = a.scale.max(b.scale);
        let am = a.mantissa.checked_mul(pow10(scale - a.scale)?)?;
        let bm = b.mantissa.checked_mul(pow10(scale - b.scale)?)?;
        Some((am, bm, scale))
    }

    pub fn checked_add(self, other: Dec) -> Option<Dec> {
        let (a, b, scale) = Dec::align(self, other)?;
        Some(Dec::new(a.checked_add(b)?, scale))
    }

    pub fn checked_sub(self, other: Dec) -> Option<Dec> {
        let (a, b, scale) = Dec::align(self, other)?;
        Some(Dec::new(a.checked_sub(b)?, scale))
    }

    pub fn checked_mul(self, other: Dec) -> Option<Dec> {
        let scale = self.scale.checked_add(other.scale)?;
        if scale > MAX_SCALE {
            return None;
        }
        Some(Dec::new(self.mantissa.checked_mul(other.mantissa)?, scale))
    }

    /// Division at `DIV_SCALE` fractional digits (JSONiq allows
    /// implementation-defined decimal division precision). `None` for
    /// division by zero or overflow.
    pub fn checked_div(self, other: Dec) -> Option<Dec> {
        if other.mantissa == 0 {
            return None;
        }
        // self/other = (am * 10^DIV_SCALE / bm) × 10^-DIV_SCALE at aligned scales.
        let (a, b, _) = Dec::align(self, other)?;
        let scaled = a.checked_mul(pow10(DIV_SCALE)?)?;
        Some(Dec::new(scaled / b, DIV_SCALE))
    }

    /// Integer division (`idiv`): truncates toward zero.
    pub fn checked_idiv(self, other: Dec) -> Option<i64> {
        if other.mantissa == 0 {
            return None;
        }
        let (a, b, _) = Dec::align(self, other)?;
        i64::try_from(a / b).ok()
    }

    /// Remainder with the sign of the dividend (`mod`).
    pub fn checked_rem(self, other: Dec) -> Option<Dec> {
        if other.mantissa == 0 {
            return None;
        }
        let (a, b, scale) = Dec::align(self, other)?;
        Some(Dec::new(a % b, scale))
    }

    #[allow(clippy::should_implement_trait)] // named after the JSONiq operator
    pub fn neg(self) -> Dec {
        Dec { mantissa: -self.mantissa, scale: self.scale }
    }

    pub fn abs(self) -> Dec {
        Dec { mantissa: self.mantissa.abs(), scale: self.scale }
    }

    pub fn is_zero(&self) -> bool {
        self.mantissa == 0
    }

    pub fn to_f64(&self) -> f64 {
        self.mantissa as f64 / 10f64.powi(self.scale as i32)
    }

    /// Exact conversion to `i64` when the value is integral and fits.
    pub fn to_i64_exact(&self) -> Option<i64> {
        if self.scale == 0 {
            i64::try_from(self.mantissa).ok()
        } else {
            None
        }
    }

    /// Truncation toward zero.
    pub fn trunc_i64(&self) -> Option<i64> {
        let d = pow10(self.scale)?;
        i64::try_from(self.mantissa / d).ok()
    }

    pub fn floor(&self) -> Dec {
        let d = pow10(self.scale).expect("scale bounded");
        let q = self.mantissa.div_euclid(d);
        Dec { mantissa: q, scale: 0 }
    }

    pub fn ceiling(&self) -> Dec {
        let d = pow10(self.scale).expect("scale bounded");
        let q = -(-self.mantissa).div_euclid(d);
        Dec { mantissa: q, scale: 0 }
    }

    /// Round half away from zero to `digits` fractional digits (JSONiq's
    /// `round` rounds half *up*, i.e. toward positive infinity; we follow
    /// that for positives and spec behaviour -2.5 → -2 as well).
    pub fn round(&self, digits: u32) -> Dec {
        if self.scale <= digits {
            return *self;
        }
        let drop = self.scale - digits;
        let d = pow10(drop).expect("scale bounded");
        let (q, r) = (self.mantissa.div_euclid(d), self.mantissa.rem_euclid(d));
        // Round half toward +∞.
        let q = if 2 * r >= d { q + 1 } else { q };
        Dec::new(q, digits)
    }
}

fn pow10(e: u32) -> Option<i128> {
    if e > MAX_SCALE {
        return None;
    }
    10i128.checked_pow(e)
}

impl PartialEq for Dec {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Dec {}

impl PartialOrd for Dec {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dec {
    fn cmp(&self, other: &Self) -> Ordering {
        match Dec::align(*self, *other) {
            Some((a, b, _)) => a.cmp(&b),
            // Alignment overflow: fall back to floating comparison.
            None => self.to_f64().total_cmp(&other.to_f64()),
        }
    }
}

impl std::hash::Hash for Dec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalization in `new` makes equal values share (mantissa, scale).
        let n = self.normalized();
        state.write_i128(n.mantissa);
        state.write_u32(n.scale);
    }
}

/// Parses a decimal literal: optional sign, digits, optional fraction.
impl FromStr for Dec {
    type Err = ();

    fn from_str(s: &str) -> Result<Dec, ()> {
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        if rest.is_empty() {
            return Err(());
        }
        let (int_part, frac_part) = match rest.find('.') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        if int_part.is_empty() && frac_part.is_empty() {
            return Err(());
        }
        if !int_part.bytes().all(|b| b.is_ascii_digit())
            || !frac_part.bytes().all(|b| b.is_ascii_digit())
        {
            return Err(());
        }
        // Trim trailing fraction zeros early to keep the scale small.
        let frac_part = frac_part.trim_end_matches('0');
        if frac_part.len() as u32 > MAX_SCALE {
            return Err(());
        }
        let mut mantissa: i128 = 0;
        for b in int_part.bytes().chain(frac_part.bytes()) {
            mantissa = mantissa.checked_mul(10).ok_or(())?;
            mantissa = mantissa.checked_add((b - b'0') as i128).ok_or(())?;
        }
        if neg {
            mantissa = -mantissa;
        }
        Ok(Dec::new(mantissa, frac_part.len() as u32))
    }
}

impl fmt::Display for Dec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.mantissa);
        }
        let neg = self.mantissa < 0;
        let abs = self.mantissa.unsigned_abs();
        let digits = abs.to_string();
        let scale = self.scale as usize;
        let (int_part, frac_part) = if digits.len() > scale {
            (digits[..digits.len() - scale].to_string(), digits[digits.len() - scale..].to_string())
        } else {
            ("0".to_string(), format!("{:0>width$}", digits, width = scale))
        };
        write!(f, "{}{}.{}", if neg { "-" } else { "" }, int_part, frac_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dec {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0", "1", "-1", "3.14", "-2.5", "0.001", "123456789.987654321"] {
            assert_eq!(d(s).to_string(), s, "roundtrip of {s}");
        }
        // Trailing zeros normalize away.
        assert_eq!(d("2.50").to_string(), "2.5");
        assert_eq!(d("1.000").to_string(), "1");
        assert!("".parse::<Dec>().is_err());
        assert!("abc".parse::<Dec>().is_err());
        assert!(".".parse::<Dec>().is_err());
        assert_eq!(d(".5").to_string(), "0.5");
        assert_eq!(d("5.").to_string(), "5");
    }

    #[test]
    fn exact_arithmetic() {
        assert_eq!(d("0.1").checked_add(d("0.2")).unwrap(), d("0.3"));
        assert_eq!(d("1.5").checked_sub(d("2.25")).unwrap(), d("-0.75"));
        assert_eq!(d("1.5").checked_mul(d("2")).unwrap(), d("3"));
        assert_eq!(d("0.01").checked_mul(d("0.02")).unwrap(), d("0.0002"));
    }

    #[test]
    fn division() {
        assert_eq!(d("1").checked_div(d("4")).unwrap(), d("0.25"));
        assert_eq!(d("1").checked_div(d("3")).unwrap().to_string(), "0.333333333333333333");
        assert!(d("1").checked_div(d("0")).is_none());
        assert_eq!(d("7.5").checked_idiv(d("2")).unwrap(), 3);
        assert_eq!(d("7.5").checked_rem(d("2")).unwrap(), d("1.5"));
        assert_eq!(d("-7.5").checked_idiv(d("2")).unwrap(), -3);
    }

    #[test]
    fn comparison_across_scales() {
        assert_eq!(d("1.50"), d("1.5"));
        assert!(d("1.5") < d("1.51"));
        assert!(d("-2") < d("0.1"));
        assert!(d("10") > d("9.999999"));
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(d("2.50"));
        assert!(s.contains(&d("2.5")));
    }

    #[test]
    fn rounding_family() {
        assert_eq!(d("2.5").floor(), d("2"));
        assert_eq!(d("-2.5").floor(), d("-3"));
        assert_eq!(d("2.5").ceiling(), d("3"));
        assert_eq!(d("-2.5").ceiling(), d("-2"));
        assert_eq!(d("2.5").round(0), d("3"));
        assert_eq!(d("-2.5").round(0), d("-2")); // round half toward +inf
        assert_eq!(d("2.44").round(1), d("2.4"));
        assert_eq!(d("2.45").round(1), d("2.5"));
        assert_eq!(d("7.5").trunc_i64().unwrap(), 7);
        assert_eq!(d("-7.5").trunc_i64().unwrap(), -7);
    }

    #[test]
    fn conversions() {
        assert_eq!(d("42").to_i64_exact(), Some(42));
        assert_eq!(d("42.5").to_i64_exact(), None);
        assert!((d("3.25").to_f64() - 3.25).abs() < 1e-12);
        assert_eq!(Dec::from_i64(-7).to_string(), "-7");
    }

    #[test]
    fn big_values() {
        let big = d("123456789012345678901234567890");
        assert_eq!(big.to_string(), "123456789012345678901234567890");
        assert!(big > d("1"));
        // i64-overflowing JSON integers route through decimal.
        let over = d("9223372036854775808");
        assert_eq!(over.to_i64_exact(), None);
        assert!(over > Dec::from_i64(i64::MAX));
    }
}
