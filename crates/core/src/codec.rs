//! The workspace's shared serde-free value codec.
//!
//! One [`Value`] tree type with two wire forms:
//!
//! * **JSON text** — [`parse`] / [`to_json`], the form of bench
//!   reports. The recursive-descent parser supports exactly the JSON
//!   this workspace emits (objects, arrays, numbers, strings, booleans,
//!   null); the emitter reuses the number/string formatting in
//!   [`fred_telemetry::json`], so reports render numbers identically.
//! * **Binary** — [`to_binary`] / [`from_binary`], the only form of
//!   simulation snapshots and DSE checkpoints. A tagged tree with a
//!   magic + version header. Numbers are raw IEEE-754 bits, so the
//!   binary form is exact for *every* `f64` (including `-0.0`, `NaN`
//!   and infinities, which JSON cannot represent), as the snapshot
//!   bit-exactness contract needs. [`write_binary`] / [`read_binary`]
//!   wrap it with file I/O, mapping failures into [`SnapshotError`].
//!
//! This module grew out of `fred_bench::report`, which still re-exports
//! [`Value`] and [`parse`] for its report-diffing surface.

use std::fmt;
use std::path::Path;

use fred_telemetry::json::{push_num, push_str_lit};

/// Magic bytes opening every binary snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"FREDSNAP";

/// Binary codec version. Bump on any wire-format change;
/// [`from_binary`] refuses to decode a mismatched version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always an `f64` — this workspace emits no
    /// integers beyond 2^53; larger integers travel as strings, see
    /// `fred_core::snapshot::v_u64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// What went wrong while decoding or restoring a snapshot. Every
/// failure mode of a hostile or damaged snapshot file maps to one of
/// these — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// A version number the file carries is not the one this build
    /// reads: the codec's [`SNAPSHOT_VERSION`] in the header, or the
    /// state layout's `fred_core::snapshot::SIM_STATE_VERSION` inside
    /// the decoded tree.
    BadVersion {
        /// Which version disagreed: `"codec"` or `"state layout"`.
        of: &'static str,
        /// Version found in the file.
        found: u32,
        /// The version this build decodes.
        expected: u32,
    },
    /// The input ended mid-value.
    Truncated,
    /// The input is structurally invalid (bad tag, bad UTF-8, trailing
    /// bytes, …).
    Corrupt(String),
    /// The decoded value does not have the shape a state expects
    /// (missing section, wrong field type, wrong state version).
    Mismatch(String),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a FRED snapshot (bad magic)"),
            SnapshotError::BadVersion {
                of,
                found,
                expected,
            } => {
                write!(
                    f,
                    "snapshot {of} version {found} (this build reads {expected})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::Mismatch(why) => write!(f, "snapshot shape mismatch: {why}"),
            SnapshotError::Io(why) => write!(f, "snapshot i/o error: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// JSON text form.
// ---------------------------------------------------------------------

/// Parses a JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

/// Renders a value as a compact JSON document. Finite numbers render
/// via [`fred_telemetry::json::push_num`] (shortest round-trip, so
/// `parse(to_json(v))` reproduces every finite number bit-exactly
/// except `-0.0`); non-finite numbers are clamped the same way the
/// bench reports clamp them.
pub fn to_json(v: &Value) -> String {
    let mut out = String::with_capacity(256);
    emit(v, &mut out);
    out
}

fn emit(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => push_num(out, *n),
        Value::Str(s) => push_str_lit(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str_lit(out, k);
                out.push(':');
                emit(val, out);
            }
            out.push('}');
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("\\u{hex}: {e}"))?;
                        *pos += 4;
                        // Surrogate pairs are not emitted by this
                        // workspace; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("invalid escape `\\{}`", other as char)),
                }
            }
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte safe).
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------
// Binary form.
// ---------------------------------------------------------------------

// Value tags. Booleans fold into the tag byte (no payload).
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_NUM: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_ARR: u8 = 5;
const TAG_OBJ: u8 = 6;

/// Encodes a value tree as the binary snapshot form:
/// [`SNAPSHOT_MAGIC`], [`SNAPSHOT_VERSION`] (u32 LE), then a tagged
/// tree where numbers are raw `f64` bits (LE) and string/collection
/// lengths are LEB128 varints. Exact for every `f64`.
pub fn to_binary(v: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    encode(v, &mut out);
    out
}

fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Num(n) => {
            out.push(TAG_NUM);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Arr(items) => {
            out.push(TAG_ARR);
            put_varint(items.len() as u64, out);
            for item in items {
                encode(item, out);
            }
        }
        Value::Obj(fields) => {
            out.push(TAG_OBJ);
            put_varint(fields.len() as u64, out);
            for (k, val) in fields {
                put_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode(val, out);
            }
        }
    }
}

/// Decodes a [`to_binary`] buffer. Bad magic, a mismatched version,
/// truncation and structural corruption all surface as typed
/// [`SnapshotError`] variants — a damaged file can never panic the
/// decoder.
pub fn from_binary(bytes: &[u8]) -> Result<Value, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() {
        return Err(if SNAPSHOT_MAGIC.starts_with(bytes) {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut pos = SNAPSHOT_MAGIC.len();
    let found = get_u32_le(bytes, &mut pos)?;
    if found != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion {
            of: "codec",
            found,
            expected: SNAPSHOT_VERSION,
        });
    }
    let v = decode(bytes, &mut pos, 0)?;
    if pos != bytes.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing byte(s)",
            bytes.len() - pos
        )));
    }
    Ok(v)
}

/// Depth guard: a hostile file of nested array tags must not overflow
/// the decoder's stack.
const MAX_DEPTH: u32 = 512;

fn get_varint(b: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let mut n: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = b.get(*pos).ok_or(SnapshotError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(SnapshotError::Corrupt("varint overflow".into()));
        }
        n |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

fn get_bytes<'a>(b: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], SnapshotError> {
    let end = pos.checked_add(len).ok_or(SnapshotError::Truncated)?;
    let slice = b.get(*pos..end).ok_or(SnapshotError::Truncated)?;
    *pos = end;
    Ok(slice)
}

/// Length-checked little-endian `u32` read: a file truncated inside
/// the 4-byte field is [`SnapshotError::Truncated`], never a slice or
/// `try_into` panic.
fn get_u32_le(b: &[u8], pos: &mut usize) -> Result<u32, SnapshotError> {
    let raw = get_bytes(b, pos, 4)?;
    let arr: [u8; 4] = raw.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u32::from_le_bytes(arr))
}

/// Length-checked little-endian `u64` read (see [`get_u32_le`]).
fn get_u64_le(b: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let raw = get_bytes(b, pos, 8)?;
    let arr: [u8; 8] = raw.try_into().map_err(|_| SnapshotError::Truncated)?;
    Ok(u64::from_le_bytes(arr))
}

fn get_str(b: &[u8], pos: &mut usize) -> Result<String, SnapshotError> {
    let len = get_varint(b, pos)?;
    let len = usize::try_from(len).map_err(|_| SnapshotError::Truncated)?;
    let raw = get_bytes(b, pos, len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|e| SnapshotError::Corrupt(format!("invalid utf-8 in string: {e}")))
}

fn decode(b: &[u8], pos: &mut usize, depth: u32) -> Result<Value, SnapshotError> {
    if depth > MAX_DEPTH {
        return Err(SnapshotError::Corrupt("nesting too deep".into()));
    }
    let &tag = b.get(*pos).ok_or(SnapshotError::Truncated)?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_NUM => Ok(Value::Num(f64::from_bits(get_u64_le(b, pos)?))),
        TAG_STR => Ok(Value::Str(get_str(b, pos)?)),
        TAG_ARR => {
            let n = get_varint(b, pos)?;
            // A length can promise at most the remaining bytes (each
            // element costs ≥ 1 byte) — reject absurd counts before
            // reserving anything.
            if n > (b.len() - *pos) as u64 {
                return Err(SnapshotError::Truncated);
            }
            let mut items = Vec::with_capacity(n as usize);
            for _ in 0..n {
                items.push(decode(b, pos, depth + 1)?);
            }
            Ok(Value::Arr(items))
        }
        TAG_OBJ => {
            let n = get_varint(b, pos)?;
            if n > (b.len() - *pos) as u64 {
                return Err(SnapshotError::Truncated);
            }
            let mut fields = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let k = get_str(b, pos)?;
                let v = decode(b, pos, depth + 1)?;
                fields.push((k, v));
            }
            Ok(Value::Obj(fields))
        }
        other => Err(SnapshotError::Corrupt(format!("unknown tag {other}"))),
    }
}

/// Writes the binary form of `v` to `path`.
pub fn write_binary(path: impl AsRef<Path>, v: &Value) -> Result<(), SnapshotError> {
    std::fs::write(path, to_binary(v)).map_err(|e| SnapshotError::Io(e.to_string()))
}

/// Reads and decodes a [`write_binary`] file.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Value, SnapshotError> {
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
    from_binary(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Obj(vec![
            ("nul".into(), Value::Null),
            ("yes".into(), Value::Bool(true)),
            ("no".into(), Value::Bool(false)),
            ("pi".into(), Value::Num(std::f64::consts::PI)),
            ("neg0".into(), Value::Num(-0.0)),
            ("inf".into(), Value::Num(f64::INFINITY)),
            ("s".into(), Value::Str("hé\"\\llo\n".into())),
            (
                "arr".into(),
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Str(String::new()),
                    Value::Obj(vec![("k".into(), Value::Num(1e-300))]),
                ]),
            ),
        ])
    }

    #[test]
    fn binary_round_trip_is_exact_for_all_f64() {
        let v = sample();
        let back = from_binary(&to_binary(&v)).unwrap();
        assert_eq!(back, v);
        // NaN compares unequal through PartialEq; check bits directly.
        let nan = Value::Num(f64::NAN);
        let Value::Num(n) = from_binary(&to_binary(&nan)).unwrap() else {
            panic!("not a number");
        };
        assert_eq!(n.to_bits(), f64::NAN.to_bits());
        // -0.0 keeps its sign through binary (unlike JSON).
        let Value::Num(z) = from_binary(&to_binary(&Value::Num(-0.0))).unwrap() else {
            panic!("not a number");
        };
        assert!(z == 0.0 && z.is_sign_negative());
    }

    #[test]
    fn json_round_trip_for_finite_values() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(0.1)),
            ("b".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("c".into(), Value::Str("x\ty".into())),
        ]);
        assert_eq!(parse(&to_json(&v)).unwrap(), v);
        assert_eq!(to_json(&v), r#"{"a":0.1,"b":[true,null],"c":"x\ty"}"#);
    }

    #[test]
    fn damaged_binary_yields_typed_errors_not_panics() {
        let good = to_binary(&sample());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(from_binary(&bad), Err(SnapshotError::BadMagic));
        // Wrong version.
        let mut bad = good.clone();
        bad[8] = 99;
        let err = from_binary(&bad).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::BadVersion {
                of: "codec",
                found: 99,
                expected: SNAPSHOT_VERSION
            }
        );
        assert_eq!(
            err.to_string(),
            format!("snapshot codec version 99 (this build reads {SNAPSHOT_VERSION})")
        );
        // Truncation at every prefix length must never panic.
        for cut in 0..good.len() {
            assert!(from_binary(&good[..cut]).is_err(), "prefix {cut} decoded");
        }
        // A flipped byte anywhere must never panic (it may decode to a
        // different valid value, but usually errors).
        for i in 12..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            let _ = from_binary(&bad);
        }
        // Unknown tag.
        let mut bad = good.clone();
        bad[12] = 42;
        assert!(matches!(from_binary(&bad), Err(SnapshotError::Corrupt(_))));
        // Absurd array length claims are rejected, not allocated.
        let mut bad = Vec::new();
        bad.extend_from_slice(&SNAPSHOT_MAGIC);
        bad.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        bad.push(TAG_ARR);
        put_varint(u64::MAX, &mut bad);
        assert_eq!(from_binary(&bad), Err(SnapshotError::Truncated));
    }

    #[test]
    fn empty_collections_round_trip() {
        for v in [Value::Arr(Vec::new()), Value::Obj(Vec::new())] {
            assert_eq!(from_binary(&to_binary(&v)).unwrap(), v);
            assert_eq!(parse(&to_json(&v)).unwrap(), v);
        }
    }
}
