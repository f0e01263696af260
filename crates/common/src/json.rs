//! Minimal hand-rolled JSON: a value tree, a pretty renderer, and a
//! recursive-descent parser.
//!
//! Scenario reports, golden files, and streaming-engine checkpoints are
//! JSON so external tooling can read them, but the workspace's dependency
//! policy (vendored, minimal stand-ins only — no `serde_json`) means we
//! carry our own ~200-line subset: objects, arrays, strings (with escape
//! handling), finite numbers, booleans, and null. That is exactly what
//! those artifacts need; non-finite floats render as `null`.
//!
//! The renderer emits the shortest round-tripping decimal form for every
//! finite `f64` (Rust's `Display`), so a render → parse cycle reproduces
//! numbers **bit-for-bit** — the property the stream checkpoint layer's
//! suspend/resume contract is built on. Integers that must survive beyond
//! 2⁵³ (e.g. full-width `u64` seeds) are stored as decimal strings by
//! their owners, never as numbers.

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
    /// input or trailing garbage.
    pub fn parse(input: &str) -> Result<Json> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err_at(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_number(v: f64, out: &mut String) {
    if v.is_finite() {
        // Rust's `Display` for f64 emits the shortest round-tripping
        // decimal form, which is valid JSON.
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err_at(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
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
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err_at(start, "malformed number"))
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
                // Copy one UTF-8 scalar (the input is a &str, so this is
                // always a valid boundary walk).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err_at(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty rest");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    *pos += 1; // consume '['
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
            _ => return Err(err_at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json> {
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
        let value = parse_value(bytes, pos)?;
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
}
