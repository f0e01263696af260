//! Minimal hand-rolled JSON: a value tree, a pretty renderer, and a
//! recursive-descent parser.
//!
//! Scenario reports, golden files, and streaming-engine checkpoints are
//! JSON so external tooling can read them, but the workspace's dependency
//! policy (vendored, minimal stand-ins only — no `serde_json`) means we
//! carry our own subset: objects, arrays, strings (with escape handling),
//! finite numbers, booleans, and null. That is exactly what those
//! artifacts need. Non-finite floats render as `null`, and the parser
//! rejects numbers that overflow to ±∞, so [`Json::Num`] stays finite.
//!
//! Every finite `f64` renders as Rust's `Display` prints it: the shortest
//! decimal that round-trips, never in exponent form. A render → parse
//! cycle therefore reproduces numbers **bit-for-bit** — the property the
//! stream checkpoint layer's suspend/resume contract is built on.
//! Integers that must survive beyond 2⁵³ (e.g. full-width `u64` seeds) are
//! stored as decimal strings by their owners, never as numbers.
//!
//! Rendering is one pass into one `String`, with no allocation per value.
//! Most numbers in a checkpoint are integer counts, and those take a fast
//! path: a finite integer-valued `v` with |v| < 2⁵³, other than −0.0, is
//! written digit by digit straight into the output. Those are exactly the
//! bytes `Display` prints. Below 2⁵³ neighbouring doubles are at most 1
//! apart, so a decimal rounds to `v` only if it lies within ½ of it, and
//! no decimal with as few significant digits as `v` does except `v`
//! itself. The shortest round-tripping digits are therefore `v`'s own,
//! which `Display` pads with zeros up to the decimal point. The two
//! exclusions are where that breaks: `Display` prints −0.0 as `-0`, and
//! from 2⁵³ up the shortest digits can stop short of the exact value
//! (2⁶⁰ prints as `1152921504606847000`). Every other finite number is
//! formatted by `Display` directly into the output. Indentation is sliced
//! from a static run of spaces. `tests::oracle` pins the output byte for
//! byte to a reference renderer that formats every number on its own.

use std::fmt::Write as _;

use crate::float::exact_eq;
use crate::{LdpError, Result};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats render as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with 2-space indentation and a trailing newline (stable,
    /// diff-friendly output for checked-in goldens).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => render_number(*v, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    render_string(key, out);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    /// [`LdpError::InvalidParameter`] with a byte offset for malformed
    /// input, trailing garbage, or arrays and objects nested more than 64
    /// deep.
    pub fn parse(input: &str) -> Result<Json> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err_at(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Integer-valued numbers below this magnitude take the digit-writer path
/// of [`render_number`]; see the module docs for why it matches `Display`.
const EXACT_INTEGER_BOUND: f64 = 9_007_199_254_740_992.0; // 2^53

/// 64 spaces: the indentation of 32 nesting levels, sliced per line.
const SPACES: &str = "                                                                ";

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    let mut width = 2 * indent;
    while width > SPACES.len() {
        out.push_str(SPACES);
        width -= SPACES.len();
    }
    out.push_str(&SPACES[..width]);
}

fn render_number(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    if v.abs() < EXACT_INTEGER_BOUND {
        // |v| < 2⁵³ fits an i64, and the cast truncates toward zero, so
        // `v` is an integer exactly when it survives the round trip.
        let n = v as i64;
        if exact_eq(n as f64, v) && !(n == 0 && v.is_sign_negative()) {
            write_integer(n, out);
            return;
        }
    }
    write!(out, "{v}").expect("writing to a String cannot fail");
}

/// Appends `n` in decimal: the digits are formed right to left in a
/// stack buffer wide enough for any `i64`, then copied in one go.
fn write_integer(n: i64, out: &mut String) {
    if n < 0 {
        out.push('-');
    }
    let mut rest = n.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err_at(pos: usize, what: &str) -> LdpError {
    LdpError::invalid(format!("JSON: {what} at byte {pos}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so without a cap a document of a few
/// hundred thousand `[` overflows the stack. Every document the workspace
/// writes nests at most 5 levels.
const MAX_DEPTH: usize = 64;

/// Parses the value at `pos`, which sits inside `depth` arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err_at(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err_at(
            *pos,
            &format!("arrays and objects nested more than {MAX_DEPTH} deep"),
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &str, value: Json) -> Result<Json> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err_at(*pos, "unknown literal"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number span");
    let value = text
        .parse::<f64>()
        .map_err(|_| err_at(start, "malformed number"))?;
    // `str::parse` rounds a literal beyond f64's range (`1e400`) to ±∞,
    // which would break `Json::Num`'s finite invariant and render back as
    // `null`.
    if !value.is_finite() {
        return Err(err_at(start, "number out of f64 range"));
    }
    Ok(Json::Num(value))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err_at(*pos, "unterminated string")),
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err_at(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err_at(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err_at(*pos, "malformed \\u escape"))?;
                        // Surrogate pairs are not needed by our own emitter;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err_at(*pos, "unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash in
                // one push. Both are ASCII, so they never occur inside a
                // multi-byte sequence and the run ends on a char boundary
                // of the &str input; validating only the run keeps the
                // parse linear in the document length.
                let start = *pos;
                let run = bytes[start..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |len| start + len);
                let text = std::str::from_utf8(&bytes[start..run])
                    .map_err(|_| err_at(start, "invalid UTF-8"))?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err_at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err_at(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err_at(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err_at(*pos, "expected ',' or '}'")),
        }
    }
}

/// Per-process monotone counter distinguishing concurrent [`write_atomic`]
/// temp files without reaching for wall-clock or ambient entropy (both
/// banned by the workspace determinism contract, lint rule D02).
static ATOMIC_WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Crash-atomic file write: the contents land in a temp file *in the
/// target's directory* (staying on the same filesystem so the final
/// `rename` is atomic), are flushed and fsynced, and only then renamed
/// over `path`. A reader — e.g. `ldp stream --resume` — therefore sees
/// either the previous complete file or the new complete file, never a
/// torn prefix.
///
/// # Errors
/// [`LdpError::Io`]-style invalid-input errors for any underlying I/O
/// failure; the temp file is removed on a failed write or rename.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> Result<()> {
    use std::io::Write as _;

    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let stem = path
        .file_name()
        .ok_or_else(|| LdpError::invalid(format!("write_atomic: no file name in {path:?}")))?
        .to_string_lossy()
        .into_owned();
    let seq = ATOMIC_WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(".{stem}.tmp-{}-{seq}", std::process::id()));

    let write_all = |tmp: &std::path::Path| -> std::io::Result<()> {
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        Ok(())
    };
    if let Err(e) = write_all(&tmp) {
        let _ = std::fs::remove_file(&tmp);
        return Err(LdpError::invalid(format!(
            "write_atomic: staging {}: {e}",
            tmp.display()
        )));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(LdpError::invalid(format!(
            "write_atomic: rename into {}: {e}",
            path.display()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &Json) -> Json {
        Json::parse(&value.render()).unwrap()
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-1.5),
            Json::Num(1.42e-4),
            Json::Num(389_894.0),
            Json::Str("plain".into()),
            Json::Str("quote \" backslash \\ newline \n tab \t unit\u{1}".into()),
            Json::Str("η = 0.2 × β".into()),
        ] {
            assert_eq!(roundtrip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn finite_f64_roundtrips_are_bitwise() {
        // The checkpoint contract: render → parse reproduces any finite
        // f64 exactly (shortest round-tripping Display form).
        for v in [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            -f64::MAX,
            2f64.powi(-1074), // smallest subnormal
            6.02e23,
            -0.1 + 0.2,
        ] {
            let back = roundtrip(&Json::Num(v));
            assert_eq!(back.as_f64().unwrap().to_bits(), v.to_bits(), "{v:e}");
        }
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::Obj(vec![
            ("figure".into(), Json::Str("fig3".into())),
            (
                "cells".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("id".into(), Json::Str("IPUMS/MGA-GRR".into())),
                        ("mean".into(), Json::Num(1.234e-3)),
                    ]),
                    Json::Obj(vec![]),
                    Json::Arr(vec![]),
                ]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    /// Characters a string generator draws from: plain ASCII, everything
    /// the renderer must escape (`"`, `\`, `\n`, `\t`, `\r`, and other
    /// controls below 0x20, which render as `\u00XX`), and 2-, 3- and
    /// 4-byte UTF-8 scalars.
    const STRING_ALPHABET: [char; 16] = [
        'a', 'Z', '7', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', 'η', '×', '€',
        '😀',
    ];

    fn random_string(rng: &mut impl rand::Rng) -> String {
        (0..rng.gen_range(0..10))
            .map(|_| STRING_ALPHABET[rng.gen_range(0..STRING_ALPHABET.len())])
            .collect()
    }

    /// A random value nested at most `depth` containers deep. Numbers are
    /// finite (non-finite ones render as `null` by design) and object keys
    /// are unique, so every value has exactly one parse.
    fn random_value(rng: &mut impl rand::Rng, depth: u32) -> Json {
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen()),
            2 => Json::Num(rng.gen_range(-1.0e12..1.0e12)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0..4))
                    .map(|_| random_value(rng, depth - 1))
                    .collect(),
            ),
            _ => {
                let mut members: Vec<(String, Json)> = Vec::new();
                for _ in 0..rng.gen_range(0..4) {
                    let key = random_string(rng);
                    let value = random_value(rng, depth - 1);
                    if members.iter().all(|(k, _)| *k != key) {
                        members.push((key, value));
                    }
                }
                Json::Obj(members)
            }
        }
    }

    #[test]
    fn random_nested_values_roundtrip() {
        let mut rng = crate::rng::rng_from_seed(0x15_0B);
        for case in 0..512 {
            let value = random_value(&mut rng, 4);
            let text = value.render();
            assert_eq!(Json::parse(&text).unwrap(), value, "case {case}: {text}");
        }
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Parsing re-validated the rest of the document once per
        // character, which took minutes on a string this long; the run
        // copy takes milliseconds. Multi-byte scalars and escapes are
        // mixed in so runs end on every kind of boundary.
        let text: String = "ab η€😀\"\n".repeat(40_000);
        let value = Json::Arr(vec![Json::Str(text.clone()), Json::Str(text)]);
        assert_eq!(roundtrip(&value), value);
    }

    #[test]
    fn control_characters_render_as_unicode_escapes() {
        let value = Json::Str("\u{0}\u{1}\u{1f} \"\\\n\t😀".into());
        assert_eq!(
            value.render(),
            "\"\\u0000\\u0001\\u001f \\\"\\\\\\n\\t😀\"\n"
        );
        assert_eq!(roundtrip(&value), value);
        for c in STRING_ALPHABET {
            let rendered = Json::Str(c.to_string()).render();
            let body = rendered.trim_end_matches('\n');
            assert!(body.chars().all(|r| r >= ' '), "{c:?} -> {rendered:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("x".into())),
            ("n".into(), Json::Num(3.0)),
            ("flag".into(), Json::Bool(true)),
            ("list".into(), Json::Arr(vec![Json::Num(1.0)])),
        ]);
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("list").and_then(Json::as_array).map(<[_]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
        assert!(Json::Num(1.0).get("x").is_none());
        assert!(Json::Num(1.0).as_bool().is_none());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render().trim(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] garbage",
            "{\"a\": \"\\x\"}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A document of 200,000 `[` or 100,000 `{"a":` is an error with the
    /// offset of the first bracket past the cap, not a stack overflow.
    #[test]
    fn deeply_nested_documents_are_rejected() {
        let arrays = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let objects = format!("{}1{}", "{\"a\":".repeat(100_000), "}".repeat(100_000));
        for (doc, offset) in [(arrays, MAX_DEPTH), (objects, 5 * MAX_DEPTH)] {
            match Json::parse(&doc) {
                Err(LdpError::InvalidParameter(message)) => assert!(
                    message.ends_with(&format!("deep at byte {offset}")),
                    "{message}"
                ),
                other => panic!("accepted a document nested past the cap: {other:?}"),
            }
        }
    }

    /// Arrays and objects nested exactly `MAX_DEPTH` deep parse and
    /// round-trip through `render`; one level more is rejected.
    #[test]
    fn nesting_up_to_the_cap_round_trips() {
        let nested = |levels: usize| {
            (0..levels).fold(Json::Num(1.0), |inner, level| {
                if level % 2 == 0 {
                    Json::Arr(vec![inner])
                } else {
                    Json::Obj(vec![("k".into(), inner)])
                }
            })
        };
        let at_cap = nested(MAX_DEPTH);
        assert_eq!(roundtrip(&at_cap), at_cap);
        assert!(Json::parse(&nested(MAX_DEPTH + 1).render()).is_err());
    }

    #[test]
    fn parses_interchange_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u0041\\n\" ] } ").unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(-25.0));
        assert_eq!(arr[2], Json::Str("A\n".into()));
    }

    /// Torn-write scenario: a crash mid-write may leave a partial *temp*
    /// file behind, but the destination path only ever holds a complete
    /// old or complete new payload — the atomicity contract `--resume`
    /// depends on.
    #[test]
    fn write_atomic_never_exposes_a_torn_file() {
        let dir = std::env::temp_dir().join(format!("ldp-json-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("checkpoint.json");
        let old = "{\n  \"epoch\": 1\n}\n";
        let new = "{\n  \"epoch\": 2\n}\n";

        write_atomic(&target, old).unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), old);

        // Simulate a crash mid-write: a truncated staging file appears in
        // the target directory (exactly what write_atomic stages before
        // its rename) and is never renamed into place.
        let torn = dir.join(".checkpoint.json.tmp-crashed");
        std::fs::write(&torn, &new[..5]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&target).unwrap(),
            old,
            "a partial staging write must leave the old checkpoint intact"
        );

        // A completed atomic write replaces the payload wholesale.
        write_atomic(&target, new).unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), new);

        // No staging residue from the successful writes.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp-") && !n.ends_with("crashed"))
            .collect();
        assert!(leftovers.is_empty(), "staging residue: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_rejects_pathless_targets() {
        assert!(write_atomic(std::path::Path::new("/"), "x").is_err());
    }

    #[test]
    fn out_of_range_numbers_are_rejected_at_their_offset() {
        // `str::parse` rounds these to ±∞; `Json::Num` must stay finite.
        for (text, offset) in [("1e400", 0), ("-1e400", 0), ("[1, 2e308]", 4)] {
            let err = Json::parse(text).expect_err(text).to_string();
            assert!(
                err.contains("out of f64 range") && err.contains(&format!("at byte {offset}")),
                "{text}: {err}"
            );
        }
        // Underflow rounds to a finite zero, which round-trips.
        assert_eq!(Json::parse("1e-400").unwrap(), Json::Num(0.0));
        assert_eq!(
            Json::parse("1.7976931348623157e308").unwrap(),
            Json::Num(f64::MAX)
        );
    }

    /// Byte-identity oracle for the renderer. `reference` is the renderer
    /// as it was before the integer fast path: every number is formatted
    /// into its own `String` by `format!("{v}")`, and indentation is pushed
    /// two spaces per nesting level.
    mod oracle {
        use super::super::*;
        use super::random_value;
        use rand::Rng;

        fn reference(value: &Json) -> String {
            let mut out = String::new();
            reference_into(value, &mut out, 0);
            out.push('\n');
            out
        }

        fn reference_into(value: &Json, out: &mut String, indent: usize) {
            match value {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) => reference_number(*v, out),
                Json::Str(s) => reference_string(s, out),
                Json::Arr(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                        return;
                    }
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        reference_newline_indent(out, indent + 1);
                        reference_into(item, out, indent + 1);
                    }
                    reference_newline_indent(out, indent);
                    out.push(']');
                }
                Json::Obj(members) => {
                    if members.is_empty() {
                        out.push_str("{}");
                        return;
                    }
                    out.push('{');
                    for (i, (key, value)) in members.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        reference_newline_indent(out, indent + 1);
                        reference_string(key, out);
                        out.push_str(": ");
                        reference_into(value, out, indent + 1);
                    }
                    reference_newline_indent(out, indent);
                    out.push('}');
                }
            }
        }

        fn reference_newline_indent(out: &mut String, indent: usize) {
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
        }

        fn reference_number(v: f64, out: &mut String) {
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }

        fn reference_string(s: &str, out: &mut String) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        /// Renders one number both ways; the fast path must print the
        /// reference's bytes.
        fn assert_number_matches(v: f64) {
            let mut fast = String::new();
            render_number(v, &mut fast);
            let mut slow = String::new();
            reference_number(v, &mut slow);
            assert_eq!(fast, slow, "{v:e} (bits {:#018x})", v.to_bits());
        }

        const TWO_53: f64 = 9_007_199_254_740_992.0;

        #[test]
        fn edge_values_render_as_display_prints_them() {
            let edges = [
                0.0,
                -0.0,
                1.0,
                -1.0,
                TWO_53 - 1.0,
                -(TWO_53 - 1.0),
                TWO_53,
                -TWO_53,
                TWO_53 + 2.0,
                2f64.powi(60),
                2f64.powi(63),
                2f64.powi(64),
                1e15,
                1e16,
                1e21,
                1e300,
                f64::MAX,
                -f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
                0.1,
                -2.5,
                0.5,
                -0.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
            ];
            for v in edges {
                assert_number_matches(v);
            }
            // The bytes the fast path has to reproduce, spelled out.
            for (v, text) in [
                (-0.0, "-0"),
                (TWO_53 - 1.0, "9007199254740991"),
                (-(TWO_53 - 1.0), "-9007199254740991"),
                (2f64.powi(60), "1152921504606847000"),
                (f64::NAN, "null"),
            ] {
                assert_eq!(Json::Num(v).render(), format!("{text}\n"), "{v:e}");
            }
        }

        #[test]
        fn random_bit_patterns_match_the_reference() {
            let mut rng = crate::rng::rng_from_seed(0x0B17_5EED);
            let mut finite = 0;
            while finite < 120_000 {
                let v = f64::from_bits(rng.gen());
                if v.is_finite() {
                    assert_number_matches(v);
                    finite += 1;
                }
            }
        }

        #[test]
        fn random_integers_match_the_reference() {
            let mut rng = crate::rng::rng_from_seed(0x1_4753);
            let bound = 1i64 << 53;
            for _ in 0..100_000 {
                assert_number_matches(rng.gen_range(-bound..=bound) as f64);
            }
            // Integers of every magnitude up to 2⁶⁴, so both sides of the
            // 2⁵³ bound are dense.
            for _ in 0..100_000 {
                let shift = rng.gen_range(0..64);
                let magnitude = (rng.gen::<u64>() >> shift) as f64;
                assert_number_matches(if rng.gen() { magnitude } else { -magnitude });
            }
        }

        #[test]
        fn random_trees_match_the_reference() {
            // The same seeded trees as `random_nested_values_roundtrip`.
            let mut rng = crate::rng::rng_from_seed(0x15_0B);
            for case in 0..512 {
                let value = random_value(&mut rng, 4);
                assert_eq!(value.render(), reference(&value), "case {case}");
            }
        }

        #[test]
        fn indentation_deeper_than_the_static_run_matches() {
            let mut value = Json::Arr(vec![Json::Num(7.0), Json::Str("leaf".into())]);
            for depth in 0..45 {
                value = Json::Obj(vec![
                    (format!("level{depth}"), value),
                    ("n".into(), Json::Num(-0.0)),
                ]);
            }
            assert_eq!(value.render(), reference(&value));
        }

        /// Documents written by an earlier build of `ldp`, before the
        /// integer fast path: the two pinned stream checkpoints (see
        /// `tests/stream_checkpoint.rs`), `ldp stream --shards 4 --epochs 6
        /// --window sliding:2 --json` and `ldp repro --figure table1 --scale
        /// small --trials 2 --json`.
        const REAL_DOCUMENTS: [(&str, &str); 4] = [
            (
                "sliding checkpoint",
                include_str!("../../../tests/fixtures/stream_checkpoint_sliding.json"),
            ),
            (
                "decay checkpoint",
                include_str!("../../../tests/fixtures/stream_checkpoint_decay.json"),
            ),
            (
                "stream report",
                include_str!("../../../tests/fixtures/stream_report_sliding.json"),
            ),
            (
                "scenario report",
                include_str!("../../../tests/fixtures/scenario_report_table1.json"),
            ),
        ];

        #[test]
        fn real_documents_rerender_byte_for_byte() {
            let goldens =
                std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
            let mut documents: Vec<(String, String)> = REAL_DOCUMENTS
                .iter()
                .map(|(name, text)| ((*name).to_string(), (*text).to_string()))
                .collect();
            for entry in std::fs::read_dir(&goldens).expect("tests/golden exists") {
                let path = entry.expect("readable entry").path();
                let text = std::fs::read_to_string(&path).expect("readable golden");
                documents.push((path.display().to_string(), text));
            }
            assert!(documents.len() > REAL_DOCUMENTS.len(), "no goldens read");
            for (name, text) in documents {
                let value = Json::parse(&text).expect("parses");
                assert_eq!(
                    reference(&value),
                    text,
                    "{name}: the reference reproduces the file"
                );
                assert_eq!(value.render(), text, "{name}: render reproduces the file");
            }
        }
    }
}
