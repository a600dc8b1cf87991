//! A minimal JSON reader/writer for the harness caches.
//!
//! The repository builds with zero external crates, so the engine's on-disk
//! result cache and `results/BENCH_harness.json` use this hand-rolled subset
//! instead of serde: objects, arrays, strings, bools, null, and numbers.
//! Unsigned integers round-trip exactly (simulation counters exceed the f64
//! mantissa only past 2^53, but we keep them precise anyway); floats use
//! shortest-exact `{:?}` formatting.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for simulator counters).
    Int(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on write.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Insert or replace an object field (no-op on non-objects).
    pub fn set(&mut self, key: &str, val: Value) {
        if let Value::Obj(fields) = self {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = val;
            } else {
                fields.push((key.to_string(), val));
            }
        }
    }

    /// The value as a u64 (integers only; floats are counters that were
    /// never written by us, so reject them).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an f64 (accepts integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
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

/// Parse a JSON document.
///
/// # Errors
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad number '{text}' at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run of unescaped bytes at once. Both
                    // delimiters are ASCII and the input is a `&str`, so the
                    // run starts and ends on char boundaries.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Obj(vec![
            ("version".into(), Value::Int(1)),
            (
                "figures".into(),
                Value::Obj(vec![(
                    "fig13".into(),
                    Value::Obj(vec![
                        ("wall_ms".into(), Value::Int(1234)),
                        ("hit_rate".into(), Value::Float(0.5)),
                        ("label".into(), Value::Str("a \"quoted\"\nname".into())),
                        (
                            "hist".into(),
                            Value::Arr(vec![Value::Int(1), Value::Int(2)]),
                        ),
                        ("none".into(), Value::Null),
                        ("ok".into(), Value::Bool(true)),
                    ]),
                )]),
            ),
        ]);
        let text = v.to_pretty();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn large_integers_round_trip_exactly() {
        let n = (1u64 << 53) + 1; // not representable as f64
        let v = Value::Arr(vec![Value::Int(n), Value::Int(u64::MAX)]);
        let back = parse(&v.to_pretty()).unwrap();
        assert_eq!(back.as_arr().unwrap()[0].as_u64(), Some(n));
        assert_eq!(back.as_arr().unwrap()[1].as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\\u0041\" ] } ").unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("xA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }

    /// Random text over ASCII, every character `to_pretty` escapes (quote,
    /// backslash, `\n`, `\r`, `\t`, other controls) and 2-, 3- and 4-byte
    /// UTF-8.
    fn random_string(rng: &mut cwsp_core::prng::SplitMix64, len: usize) -> String {
        let pool: Vec<char> = "aZ0 /\"\\\n\r\t\u{0}\u{1}\u{1f}\u{7f}éß€中\u{fffd}😀\u{10ffff}"
            .chars()
            .collect();
        (0..len).map(|_| pool[rng.index(pool.len())]).collect()
    }

    #[test]
    fn strings_round_trip_through_pretty_and_parse() {
        let mut rng = cwsp_core::prng::SplitMix64::seed_from_u64(17);
        let mut lens = vec![0, 1, 2, 7, 100_000];
        lens.extend((0..200).map(|_| rng.index(300)));
        for len in lens {
            let v = Value::Str(random_string(&mut rng, len));
            assert_eq!(parse(&v.to_pretty()).unwrap(), v, "len {len}");
            let key = random_string(&mut rng, len % 50);
            let o = Value::Obj(vec![(key, Value::Arr(vec![v, Value::Null]))]);
            assert_eq!(parse(&o.to_pretty()).unwrap(), o, "len {len} in an object");
        }
    }

    #[test]
    fn parser_decodes_escapes_the_writer_never_emits() {
        assert_eq!(
            parse(r#""\/\u0041\u00e9\u20AC\u0000x""#).unwrap(),
            Value::Str("/Aé€\0x".into())
        );
    }

    #[test]
    fn unterminated_and_malformed_strings_are_errors() {
        for bad in [
            "\"",
            "\"abc",
            "\"abc\\\"",
            "\"é",
            "\"\\",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u12",
            "\"\\uZZZZ\"",
            "[\"a\", \"b",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = Value::Obj(vec![]);
        v.set("a", Value::Int(1));
        v.set("a", Value::Int(2));
        v.set("b", Value::Int(3));
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("b").unwrap().as_u64(), Some(3));
    }
}
