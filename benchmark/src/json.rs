//! A JSON value with a writer and a reader, enough for the benchmark's own
//! result files (no JSON crate resolves offline).
//!
//! Numbers are written with Rust's shortest round-trip formatting, which
//! switches to exponent form for small and large magnitudes (`8.19e-16`),
//! so the reader accepts exponent-form floats: `scripts/bench_guard.sh`
//! shipped a reader that did not.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Key order is kept: result files diff cleanly.
    Obj(Vec<(String, Value)>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact one-line JSON.
    ///
    /// # Panics
    /// On a non-finite number: JSON has no spelling for it, and a metric
    /// that is NaN or infinite is a bug upstream.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// JSON with one entry per line down to `depth` levels of nesting and
    /// compact below that, so tracked result files diff entry by entry.
    pub fn to_pretty(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, depth, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize, indent: usize) {
        let (open, close, len) = match self {
            Value::Arr(items) if depth > 0 && !items.is_empty() => ('[', ']', items.len()),
            Value::Obj(fields) if depth > 0 && !fields.is_empty() => ('{', '}', fields.len()),
            _ => return self.write(out),
        };
        out.push(open);
        for i in 0..len {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(indent + 1));
            let value = match self {
                Value::Obj(fields) => {
                    write_str(&fields[i].0, out);
                    out.push_str(": ");
                    &fields[i].1
                }
                Value::Arr(items) => &items[i],
                _ => unreachable!("matched above"),
            };
            value.write_pretty(out, depth - 1, indent + 1);
        }
        out.push('\n');
        out.push_str(&"  ".repeat(indent));
        out.push(close);
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => {
                assert!(x.is_finite(), "non-finite number in JSON output");
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(out, "{}", *x as i64).expect("write to String");
                } else {
                    write!(out, "{x:?}").expect("write to String");
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document.
///
/// # Errors
/// A message naming the byte offset of the first thing that is not JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Result files nest four or five levels; anything deeper is not ours.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.bytes.get(self.pos) {
            None => self.err("unexpected end"),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return self.err("expected a key");
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return self.err("expected ':'");
            }
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Value::Obj(fields));
            }
            if !self.eat(",") {
                return self.err("expected ',' or '}'");
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return self.err("expected ',' or ']'");
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.bytes.get(self.pos) else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            // Surrogate pairs never occur in our files.
                            let Some(c) = hex.and_then(char::from_u32) else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).or_else(|_| self.err("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Num(x)),
            _ => {
                self.pos = start;
                self.err("bad number")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        parse(&v.to_json()).expect("own output parses")
    }

    #[test]
    fn numbers_roundtrip_exactly_including_exponent_form() {
        for x in [
            0.0,
            1.0,
            -3.0,
            270.8413,
            8.193676330192438e-16,
            -1.5e-300,
            6.02214076e23,
            1e15,
            123456789012345680.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.1 + 0.2,
        ] {
            let text = Value::Num(x).to_json();
            assert_eq!(
                roundtrip(&Value::Num(x)),
                Value::Num(x),
                "{x:e} written as {text}"
            );
        }
        // The writer does use exponent form, so the reader's path is live.
        assert!(Value::Num(8.193676330192438e-16).to_json().contains('e'));
        assert_eq!(Value::Num(36.0).to_json(), "36");
    }

    #[test]
    fn reader_accepts_exponent_spellings_other_writers_use() {
        for (text, want) in [
            ("1e3", 1000.0),
            ("1E+3", 1000.0),
            ("-2.5e-3", -0.0025),
            ("7.0E0", 7.0),
        ] {
            assert_eq!(parse(text), Ok(Value::Num(want)), "{text}");
        }
    }

    #[test]
    fn nested_documents_roundtrip() {
        let v = Value::Obj(vec![
            ("correct".into(), Value::Bool(true)),
            (
                "name".into(),
                Value::Str("a \"quoted\" \\ tab\t nl\n é".into()),
            ),
            ("none".into(), Value::Null),
            (
                "metrics".into(),
                Value::Obj(vec![(
                    "sypd".into(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(1.25e-2)),
                        ("unit".into(), Value::Str("1/d".into())),
                    ]),
                )]),
            ),
            (
                "runs".into(),
                Value::Arr(vec![
                    Value::Num(1.0),
                    Value::Arr(vec![]),
                    Value::Obj(vec![]),
                ]),
            ),
        ]);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("sypd"))
                .and_then(|s| s.get("value"))
                .and_then(Value::as_f64),
            Some(0.0125)
        );
    }

    #[test]
    fn pretty_output_is_the_same_document() {
        let v = parse(r#"{"a": [1, {"b": [2, 3], "c": {}}], "d": {"e": 1e-9}, "f": []}"#)
            .expect("test document");
        for depth in 0..5 {
            assert_eq!(parse(&v.to_pretty(depth)), Ok(v.clone()), "depth {depth}");
        }
        assert_eq!(v.to_pretty(0).trim_end(), v.to_json());
        assert_eq!(v.to_pretty(1).lines().count(), 5);
    }

    #[test]
    fn malformed_input_is_rejected_not_guessed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "\"open",
            "1e",
            "--1",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).is_err());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn writer_refuses_nan() {
        Value::Num(f64::NAN).to_json();
    }
}
