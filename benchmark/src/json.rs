//! The little JSON the benchmark writes: string escaping and numbers.

/// Escape `s` for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with every digit the measurement has. JSON has no NaN
/// or infinity; a metric that came out non-finite is reported as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\n\u{1}"), "a\\\"b\\\\c\\n\\u0001");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_valid_json() {
        assert_eq!(number(1.2034), "1.2034");
        assert_eq!(number(5.0), "5.0");
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(1.0e-7), "1e-7");
    }
}
