//! `jsonlite` — the workspace's single hand-rolled JSON codec.
//!
//! The build environment is offline (no serde), and every JSON format in
//! this workspace is ours, so this module implements just the subset
//! those formats need: objects, arrays, strings, integers, and booleans.
//! It started life inside the campaign checkpoint writer and is now the
//! shared implementation behind checkpoints, the `spi serve` wire
//! protocol, cache snapshots, and the CLI's `--format json` output —
//! exactly one JSON implementation to fuzz.
//!
//! Rendering comes in two shapes: [`Json::render`] is the canonical
//! pretty form (newlines plus two-space indents, used for files humans
//! read and diff), and [`Json::render_compact`] is the single-line form
//! required by newline-delimited wire protocols.  Parsing accepts both,
//! plus any standard whitespace.

use std::fmt::Write as _;

/// A JSON value of the supported subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (our formats never need floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An integer from any unsigned count (saturating at `i64::MAX`).
    #[must_use]
    pub fn count(n: usize) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// A string value from anything string-like.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of strings.
    #[must_use]
    pub fn str_arr<I, S>(items: I) -> Json
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Json::Arr(items.into_iter().map(|s| Json::Str(s.into())).collect())
    }

    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as pretty JSON text (newlines and two-space
    /// indents) — the shape checkpoints and snapshots are written in.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Renders the value on a single line with no insignificant
    /// whitespace — the shape newline-delimited protocols require.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// `indent`: `Some(depth)` renders pretty, `None` renders compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(s, out),
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
                    newline(out, indent.map(|d| d + 1));
                    item.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent.map(|d| d + 1));
                    write_escaped(k, out);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent.map(|d| d + 1));
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses JSON text (the subset above; `null` and floats rejected
    /// explicitly — our formats never contain them).
    ///
    /// # Errors
    ///
    /// Returns a byte-positioned description of the first syntax error.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn newline(out: &mut String, indent: Option<usize>) {
    let Some(indent) = indent else {
        return;
    };
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
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
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad keyword at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<i64>().ok())
            .map(Json::Int)
            .ok_or_else(|| format!("bad integer at byte {start}"))
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex:04x}"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!("bad escape {:?}", other.map(|b| b as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at
                    // once.  Both are ASCII, so the run ends on a char
                    // boundary of the (already valid UTF-8) source.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Json {
        Json::Obj(vec![
            ("version".into(), Json::Int(1)),
            ("done".into(), Json::Bool(true)),
            (
                "items".into(),
                Json::Arr(vec![
                    Json::Str("plain".into()),
                    Json::Str("quoted \"x\" \\ and\nnewline \u{1f}".into()),
                    Json::Obj(vec![]),
                    Json::Arr(vec![]),
                    Json::Int(-42),
                ]),
            ),
        ])
    }

    #[test]
    fn round_trips_nested_values() {
        let v = nested();
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let v = nested();
        let text = v.render_compact();
        assert!(!text.contains('\n'), "{text}");
        assert!(!text.contains(": "), "no space after colons: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn long_and_multibyte_strings_round_trip() {
        // A megabyte-sized string parses in one pass over its bytes.
        let text = format!("é✓ {} \"q\" 🦀\\ {}", "x".repeat(1 << 20), "ü".repeat(1000));
        let v = Json::Obj(vec![("s".into(), Json::Str(text))]);
        assert_eq!(Json::parse(&v.render_compact()).unwrap(), v);
    }

    #[test]
    fn parses_foreign_whitespace() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] ,\n\t\"b\": \"x\" } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("{}x").is_err());
        assert!(Json::parse("null").is_err(), "null is outside the subset");
        assert!(Json::parse("1.5").is_err(), "floats are outside the subset");
    }

    #[test]
    fn accessors_are_typed() {
        let v = Json::parse("{\"n\": 3, \"s\": \"t\", \"b\": false}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_int), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_str), None);
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("n").and_then(Json::as_bool), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Bool(true).get("x"), None);
    }

    #[test]
    fn construction_helpers() {
        assert_eq!(Json::count(3), Json::Int(3));
        assert_eq!(Json::count(usize::MAX), Json::Int(i64::MAX));
        assert_eq!(Json::str("x"), Json::Str("x".into()));
        assert_eq!(
            Json::str_arr(["a", "b"]),
            Json::Arr(vec![Json::Str("a".into()), Json::Str("b".into())])
        );
    }
}
