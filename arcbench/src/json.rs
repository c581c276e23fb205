//! A small JSON value with a writer and a parser: enough for the result
//! lines this benchmark writes and reads back in `compare` and
//! `--check-counts`. The repository has no JSON crate and no network.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key order is kept, so output is stable.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(pairs) => pairs,
            _ => &[],
        }
    }

    /// Compact one-line rendering. A number keeps all its digits (Rust
    /// prints the shortest text that reads back to the same `f64`); a
    /// non-finite number has no JSON form and is written as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value_at(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Deepest nesting accepted; result files nest four levels.
const MAX_DEPTH: usize = 32;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            return true;
        }
        false
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            return Ok(());
        }
        Err(format!("expected '{}' at byte {}", c as char, self.pos))
    }

    fn value_at(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nested too deep".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value_at(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(pairs));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value_at(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.pos += 4;
                            out.extend_from_slice(code.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return Err("bad escape".into()),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_round_trips_through_parser() {
        let v = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1234.0)),
            ("name", Json::Str("x:ileave-rs \"quoted\" \\ tab\t".into())),
            (
                "metrics",
                Json::obj(vec![(
                    "protect_mib_s",
                    Json::obj(vec![
                        ("value", Json::Num(31.415926535897934)),
                        ("unit", Json::Str("MiB/s".into())),
                    ]),
                )]),
            ),
            (
                "cells",
                Json::Arr(vec![Json::Num(0.1), Json::Num(-2.5e-7), Json::Null, Json::Arr(vec![])]),
            ),
            ("empty", Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
        // All the digits survive.
        let back = Json::parse(&text).unwrap();
        let m = back.get("metrics").unwrap().get("protect_mib_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(31.415926535897934));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("MiB/s"));
    }

    #[test]
    fn integers_print_without_a_fraction_and_nonfinite_as_null() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(67108864.0).render(), "67108864");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "{\"a\" 1}", "[1,,2]", "{\"a\": 1} x", "\"open", "tru", "[1 2]"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
        assert_eq!(
            Json::parse(" [1, 2.5e3, \"\\u0041\"] ").unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Num(2500.0), Json::Str("A".into())])
        );
    }
}
