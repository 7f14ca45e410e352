//! A minimal JSON writer.
//!
//! The exporters emit JSON by hand (this repo builds with no external
//! dependencies); these helpers keep escaping and number formatting
//! correct in one place.

use std::fmt::Write as _;

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite JSON number. Non-finite values (which JSON cannot
/// represent) are clamped: NaN becomes 0, infinities become ±1e308.
pub fn push_num(out: &mut String, x: f64) {
    let x = if x.is_nan() {
        0.0
    } else if x == f64::INFINITY {
        1e308
    } else if x == f64::NEG_INFINITY {
        -1e308
    } else {
        x
    };
    if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> String {
        let mut out = String::new();
        push_str_lit(&mut out, s);
        out
    }

    fn num(x: f64) -> String {
        let mut out = String::new();
        push_num(&mut out, x);
        out
    }

    #[test]
    fn escapes_specials() {
        assert_eq!(lit("a\"b"), r#""a\"b""#);
        assert_eq!(lit("a\\b"), r#""a\\b""#);
        assert_eq!(lit("a\nb"), r#""a\nb""#);
        assert_eq!(lit("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(-2.0), "-2");
        assert_eq!(num(0.5), "0.5");
    }

    #[test]
    fn non_finite_is_clamped() {
        assert_eq!(num(f64::NAN), "0");
        assert!(num(f64::INFINITY).starts_with("1"));
        assert!(num(f64::NEG_INFINITY).starts_with("-1"));
    }

    /// Finite numbers round-trip through `str::parse` bit-exactly
    /// (integers collapse to `i64` form only below 2^53, where the
    /// conversion is lossless), except `-0.0`, which prints as `0`.
    #[test]
    fn push_num_round_trips_finite_values() {
        for &x in &[
            0.0,
            3.0,
            -2.0,
            0.1,
            1.0 / 3.0,
            1e-300,
            123456789.123456,
            9.007199254740991e15, // 2^53 - 1, above the i64-collapse cap
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let s = num(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {s}");
        }
    }
}
