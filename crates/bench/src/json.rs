//! Minimal JSON tree: writer + parser, no external dependencies.
//!
//! The `experiments --json` artifacts must be machine-readable without
//! adding serde to an offline workspace, so this module implements the
//! small subset of JSON the harness needs: objects, arrays, strings,
//! booleans, null, and numbers (unsigned integers kept exact; everything
//! else as `f64`). The parser exists mainly so tests can round-trip the
//! artifacts the writer produces.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, rendered without a decimal point (cycle counts
    /// exceed `f64`'s 2^53 exact-integer range in principle, so they are
    /// kept as integers end to end).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items (`None` for non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents (`None` for non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, converting integers (`None` for non-numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer value (`None` for non-integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Render as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    // JSON has no NaN/Infinity; metrics that divide by an
                    // empty window can produce them.
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_json_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json_into(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape `s` as JSON string contents into `out` (no surrounding quotes).
fn escape_json_into(s: &str, out: &mut String) {
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
}

/// Build an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parse JSON text produced by [`Json::render`] (or any standard JSON).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
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
                let value = parse_value(bytes, pos)?;
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

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: combine with an immediately
                            // following \uDC00..\uDFFF escape (RFC 8259 §7,
                            // how standard writers encode astral chars). A
                            // lone surrogate is not a scalar value; it
                            // becomes U+FFFD.
                            let low = (bytes.get(*pos + 5) == Some(&b'\\')
                                && bytes.get(*pos + 6) == Some(&b'u'))
                            .then(|| parse_hex4(bytes, *pos + 7))
                            .transpose()?
                            .filter(|lo| (0xDC00..=0xDFFF).contains(lo));
                            match low {
                                Some(lo) => {
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(
                                        char::from_u32(c).expect("paired surrogates are scalar"),
                                    );
                                    *pos += 10;
                                }
                                None => {
                                    out.push('\u{fffd}');
                                    *pos += 4;
                                }
                            }
                        } else {
                            // Lone low surrogates are equally unpaired.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a char boundary of the &str the
                // bytes came from.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("run of a &str"));
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let hex = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    // Only ASCII bytes were consumed, so this cannot fail.
    let s = std::str::from_utf8(&bytes[start..*pos]).expect("number bytes are ASCII");
    if s.is_empty() || s == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if !fractional && !s.starts_with('-') {
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Json::Int(n));
        }
    }
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("invalid number at byte {start}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_value() {
        let v = obj(vec![
            ("name", Json::Str("fig2 \"zero think\"".into())),
            ("escapes", Json::Str("a\nb\\c\u{1}d\te".into())),
            ("ops", Json::Int(u64::MAX)),
            ("rate", Json::Num(0.125)),
            ("neg", Json::Num(-3.5)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", obj(vec![("k", Json::Int(2))])),
        ]);
        let text = v.render();
        assert!(text.contains(r#""a\nb\\c\u0001d\te""#), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn big_integers_stay_exact() {
        let n = (1u64 << 60) + 7;
        let text = Json::Int(n).render();
        assert_eq!(parse(&text).unwrap().as_u64(), Some(n));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // U+1F600 GRINNING FACE as the escaped pair \uD83D\uDE00.
        assert_eq!(
            parse(r#""\uD83D\uDE00""#).unwrap(),
            Json::Str("\u{1F600}".into())
        );
        // Pair embedded between BMP text and escapes.
        assert_eq!(
            parse(r#""a\uD83D\uDE00z \u00E9""#).unwrap(),
            Json::Str("a\u{1F600}z \u{e9}".into())
        );
        // The writer emits astral chars as raw UTF-8; the parser accepts
        // both spellings and they agree.
        let v = Json::Str("grin \u{1F600} flag \u{1F1E6}\u{1F1F6}".into());
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert_eq!(
            parse(r#""grin \uD83D\uDE00 flag \uD83C\uDDE6\uD83C\uDDF6""#).unwrap(),
            v
        );
    }

    #[test]
    fn lone_surrogates_become_replacement_chars() {
        // Unpaired high surrogate, at end and mid-string.
        assert_eq!(parse(r#""\uD83D""#).unwrap(), Json::Str("\u{fffd}".into()));
        assert_eq!(
            parse(r#""x\uD83Dy""#).unwrap(),
            Json::Str("x\u{fffd}y".into())
        );
        // Unpaired low surrogate.
        assert_eq!(
            parse(r#""\uDE00x""#).unwrap(),
            Json::Str("\u{fffd}x".into())
        );
        // High surrogate followed by a non-surrogate escape: U+FFFD, then
        // the escape decodes normally.
        assert_eq!(
            parse(r#""\uD83DA""#).unwrap(),
            Json::Str("\u{fffd}A".into())
        );
        // Two high surrogates in a row.
        assert_eq!(
            parse(r#""\uD83D\uD83D""#).unwrap(),
            Json::Str("\u{fffd}\u{fffd}".into())
        );
        // Truncated second escape still errors.
        assert!(parse(r#""\uD83D\u00""#).is_err());
    }

    #[test]
    fn u64_boundary_integers_parse_exactly() {
        // u64::MAX is far beyond f64's 2^53 exact range; the integer fast
        // path must keep it exact.
        let text = format!("{}", u64::MAX);
        assert_eq!(parse(&text).unwrap(), Json::Int(u64::MAX));
        // 2^53 + 1 is the first integer a f64 round-trip would corrupt.
        let n = (1u64 << 53) + 1;
        assert_eq!(parse(&n.to_string()).unwrap(), Json::Int(n));
        assert_ne!((n as f64) as u64, n, "f64 would have corrupted this");
        // Negative and fractional numbers stay on the f64 path.
        assert_eq!(parse("-17").unwrap(), Json::Num(-17.0));
        assert_eq!(parse("3.5").unwrap(), Json::Num(3.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
    }

    #[test]
    fn nan_renders_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , \"x\\ny\" ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0], Json::Int(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1],
            Json::Str("x\ny".into())
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
    }
}
