//! Minimal JSON value, parser and writer — the wire format of the
//! sim-as-a-service front door ([`crate::service`]).
//!
//! The workspace is dependency-free by design, so this is a small
//! hand-rolled implementation instead of `serde_json`. It covers the
//! full JSON grammar with two deliberate restrictions that keep the
//! service protocol deterministic:
//!
//! * numbers parse as [`Json::Int`] when they are integral and fit in
//!   `i64`, else as [`Json::Float`] — the protocol itself only uses
//!   integers, so encode/decode round-trips byte-identically;
//! * objects preserve insertion order (a `Vec` of pairs, not a map), so
//!   writing a parsed document reproduces it byte for byte.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number within `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `i64` (ints only; floats are not silently truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `f64` (accepts ints).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience constructor: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor: a string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Serialize to compact JSON (no whitespace), deterministically:
    /// object fields in insertion order, `\u` escapes only for control
    /// characters.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact encoding of [`Json::to_string`] to `out`.
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => telemetry::write_json_str(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    telemetry::write_json_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest accepted nesting of arrays and objects. The parser recurses
/// once per level, so without a cap a frame of `[[[[…` overflows the
/// stack of the thread that reads it; the deepest document the repo
/// writes (the windowed telemetry one) nests 8.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace and nesting deeper
/// than 128 levels are errors.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut p = Parser {
        text,
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The document; string runs are copied out of it as `&str` slices.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(
        &mut self,
        body: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one piece. Both
            // are ASCII, so the run ends on a char boundary of the input
            // and nothing is re-validated: the parse is linear.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            let end = run.map_or(self.bytes.len(), |n| self.pos + n);
            out.push_str(&self.text[self.pos..end]);
            self.pos = end;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The run stopped on a `\`.
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pair: a high surrogate must be
                            // followed by an escaped low surrogate.
                            // (`hex4` leaves `pos` just past its digits.)
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 1;
                                    let lo = self.hex4()?;
                                    (0xDC00..0xE000)
                                        .contains(&lo)
                                        .then(|| 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                        .and_then(char::from_u32)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // Called with pos on the 'u'; consumes it plus four hex digits.
        self.pos += 1;
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        if !float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        let doc = r#"{"op":"post_send","qp":3,"bytes":65536,"nested":{"a":[1,2,3],"b":null,"c":true,"s":"x\ny"}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("post_send"));
        assert_eq!(v.get("bytes").and_then(Json::as_u64), Some(65536));
        assert_eq!(v.to_string(), doc, "write(parse(doc)) is byte-identical");
    }

    #[test]
    fn parses_numbers_and_rejects_garbage() {
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("{} extra").is_err());
        // Nesting is capped: a hostile frame is an error, not a stack
        // overflow of the thread that parses it.
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&r#"{"a":"#.repeat(100_000)).is_err());
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Json::str("quote \" backslash \\ tab \t ctrl \u{1} unicode \u{263a}");
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        // An escaped surrogate pair (how `json.dumps` writes any non-BMP
        // character) decodes; every broken pair is an error, not a panic.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("\u{1F600}"));
        for bad in [
            r#""\ud800""#,       // lone high
            r#""\ud800"#,        // lone high at end of input
            r#""\ude00""#,       // lone low
            r#""\ud83dA""#,      // high + non-escape
            r#""\ud83d\u0041""#, // high + non-low escape
            r#""\ud83d\ude"#,    // truncated low
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_16_mb_string_parses_in_linear_time() {
        // Plain ASCII, and a two-byte char every 7 bytes.
        for unit in ["abcdefg", "abcde\u{e9}"] {
            let s = unit.repeat((16 << 20) / 7);
            let doc = Json::str(&s).to_string();
            let t0 = std::time::Instant::now();
            let v = parse(&doc).unwrap();
            let took = t0.elapsed();
            assert!(
                took < std::time::Duration::from_secs(2),
                "{unit:?}: {took:?}"
            );
            assert_eq!(v.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn strings_roundtrip_whatever_opens_or_closes_a_run() {
        // (raw, an escaped spelling) pieces, concatenated up to four deep
        // so each one opens, closes or sits between runs.
        let pieces = [
            ("x", "x"),
            ("\u{e9}", "\\u00e9"),
            ("\u{263a}", "\u{263a}"),
            ("\u{1F600}", "\\ud83d\\ude00"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("/", "\\/"),
        ];
        let mut seqs = vec![(String::new(), String::new())];
        let mut frontier = seqs.clone();
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|(raw, esc)| {
                    pieces
                        .iter()
                        .map(move |(r, e)| (format!("{raw}{r}"), format!("{esc}{e}")))
                })
                .collect();
            seqs.extend(frontier.iter().cloned());
        }
        for (raw, esc) in &seqs {
            let doc = Json::str(raw).to_string();
            let v = parse(&doc).unwrap();
            assert_eq!(v.as_str(), Some(raw.as_str()), "{doc}");
            assert_eq!(v.to_string(), doc);
            assert_eq!(parse(&format!("\"{esc}\"")).unwrap(), v, "{esc}");
        }
        // Raw control bytes are accepted inside strings.
        assert_eq!(
            parse("\"a\u{1}\tb\nc\"").unwrap(),
            Json::str("a\u{1}\tb\nc")
        );
    }

    #[test]
    fn error_offsets_after_a_long_run_are_pinned() {
        // The offsets the per-character parser reported for these inputs.
        let err = |doc: String| parse(&doc).unwrap_err();
        let run = |unit: &str| unit.repeat(3000);
        assert_eq!(
            err(format!("\"{}", run("ab\u{e9}"))),
            JsonError {
                at: 12001,
                msg: "unterminated string".into()
            }
        );
        assert_eq!(
            err(format!("\"{}\\q\"", run("x\u{263a}"))),
            JsonError {
                at: 12002,
                msg: "bad escape".into()
            }
        );
        assert_eq!(
            err(format!("\"{}\\u00", run("y\u{e9}"))),
            JsonError {
                at: 9003,
                msg: "truncated \\u escape".into()
            }
        );
    }
}
