//! A minimal JSON value with a writer and a recursive-descent parser — the
//! workspace is offline and carries no serde.
//!
//! Writers: decision-trace and run-event lines, the store's run manifest,
//! the `dasr-lint` report and the e2e benchmark's outputs. Readers: the
//! store's `RunManifest::from_json_line`, which `Store::open` feeds every line of
//! `manifest.jsonl`, and the e2e benchmark binary (its `BENCHMARK.json` and
//! captured run outputs). Traces and events are never read back.
//!
//! The parser recurses once per `[` or `{`, so it refuses to nest deeper
//! than [`MAX_DEPTH`]: a damaged or hostile line of brackets is an `Err`,
//! not a stack overflow that aborts the process. The deepest document the
//! workspace reads is about four levels.

use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A (finite) number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// `Num` for `Some`, `Null` for `None`.
    pub fn from_opt(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }

    /// Looks up `key` in an object; errors on non-objects.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing key {key:?}")),
            _ => Err(format!("expected object looking up {key:?}")),
        }
    }

    /// The value as a number; errors otherwise.
    pub fn num(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(format!("expected number, found {other:?}")),
        }
    }

    /// The value as an integer of type `T`: only a number that is
    /// integral and in `T`'s range converts, anything else is an error
    /// rather than a truncating or saturating cast.
    pub fn int<T: TryFrom<i128>>(&self) -> Result<T, String> {
        let n = self.num()?;
        // An integral f64 below 2^127 in magnitude converts to i128
        // exactly; anything larger saturates and fails `try_from`.
        if n.is_finite() && n.fract() == 0.0 {
            if let Ok(v) = T::try_from(n as i128) {
                return Ok(v);
            }
        }
        Err(format!("expected an integer in range, found {n}"))
    }

    /// The value as a string slice; errors otherwise.
    pub fn str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, found {other:?}")),
        }
    }

    /// The value as a bool; errors otherwise.
    pub fn bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {other:?}")),
        }
    }

    /// The value as an array slice; errors otherwise.
    pub fn arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, found {other:?}")),
        }
    }

    /// Serializes the value to compact single-line JSON.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            // Rust's f64 Display is shortest-round-trip, so the text
            // parses back to the identical bits. Non-finite values are
            // not representable in JSON; no writer produces them.
            Json::Num(n) => {
                debug_assert!(n.is_finite(), "JSON cannot carry {n}");
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Parses one JSON document (trailing whitespace allowed). Arrays and
/// objects nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    let open = bytes.get(*pos);
    if matches!(open, Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match open {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid keyword at byte {pos}"))
    }
}

/// Parses a number with RFC 8259's grammar (§6):
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A leading
/// `+`, a bare `.`, a leading zero or an empty fraction or exponent is
/// not a JSON number, whatever `f64::from_str` would make of it.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if scan_number(bytes, pos).is_none() {
        let len = bytes[start..]
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let text = String::from_utf8_lossy(&bytes[start..start + len]);
        return Err(format!("invalid number {text:?} at byte {start}"));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii slice");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// Advances `pos` past the one RFC 8259 number that starts there; `None`
/// when the bytes there do not start one.
fn scan_number(bytes: &[u8], pos: &mut usize) -> Option<()> {
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        (*pos > from).then_some(())
    };
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos)? {
        b'0' => *pos += 1,
        b'1'..=b'9' => digits(pos)?,
        _ => return None,
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(pos)?;
    }
    Some(())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&bytes[*pos..])
        .map_err(|_| "invalid utf-8".to_string())?
        .char_indices();
    loop {
        let Some((offset, c)) = chars.next() else {
            return Err("unterminated string".into());
        };
        match c {
            '"' => {
                *pos += offset + 1;
                return Ok(out);
            }
            '\\' => {
                let Some((_, esc)) = chars.next() else {
                    return Err("dangling escape".into());
                };
                match esc {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((_, h)) = chars.next() else {
                                return Err("truncated \\u escape".into());
                            };
                            code = code * 16 + h.to_digit(16).ok_or("invalid hex in \\u escape")?;
                        }
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    other => return Err(format!("unknown escape \\{other}")),
                }
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("{{\"k\":{}}}", nested(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&format!("{{\"k\":{}}}", nested(MAX_DEPTH))).is_err());
        // Far past the depth at which unbounded recursion overflows a
        // 2 MiB thread stack.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        for text in ["+1", ".5", "1.", "01", "+.5e-3", "-", "1e"] {
            assert!(parse(text).is_err(), "{text:?} is not a JSON number");
            assert!(parse(&format!("[{text}]")).is_err(), "[{text}]");
        }
        for (text, want) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("1.5e-3", 1.5e-3),
            ("1E+2", 100.0),
            ("4294967295", 4_294_967_295.0),
        ] {
            match parse(text) {
                Ok(Json::Num(got)) => assert_eq!(got.to_bits(), want.to_bits(), "{text:?}"),
                other => panic!("{text:?} parsed to {other:?}"),
            }
        }
    }
}
