//! A hand-rolled JSON layer (no serde) for machine-readable output.
//!
//! The workspace is dependency-free by design, so results are
//! serialized through a tiny document model: build a [`Json`] value,
//! then render it with its `Display` impl (compact) or
//! [`Json::pretty`] (indented). Object keys keep insertion order, so
//! output is byte-stable across runs — the service's batch mode relies
//! on that to compare concurrent and serial results.
//!
//! The inverse direction is [`Json::parse`], a recursive-descent
//! parser over the same grammar the writer emits, used to strict-check
//! and read back emitted documents. Canonical documents round-trip
//! exactly: `Json::parse(&doc.to_string())`
//! returns `doc` for every document the writer produces that contains
//! no non-integral finite floats (the only lossy corner: `Float(2.0)`
//! prints as `2`, which re-parses as `Int(2)`; canonical result
//! documents contain no such floats).

use std::fmt::Write as _;
use std::time::Duration;

use egraph::StopReason;

use crate::pair::PairStats;
use crate::saturate::SaturationStats;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (non-finite values serialize as `null`).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A duration, serialized as fractional milliseconds.
    pub fn duration_ms(d: Duration) -> Json {
        Json::Float(d.as_secs_f64() * 1e3)
    }

    /// Renders indented JSON (two spaces per level).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` on f64 prints the shortest round-trip form
                    // but omits a decimal point for integral values;
                    // that is still valid JSON.
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => write_seq(out, indent, level, '[', ']', items.len(), |out, i| {
                items[i].write(out, indent, level + 1);
            }),
            Json::Obj(pairs) => write_seq(out, indent, level, '{', '}', pairs.len(), |out, i| {
                let (k, v) = &pairs[i];
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                v.write(out, indent, level + 1);
            }),
        }
    }
}

/// An error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description; parse errors include a byte offset.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JsonError {}

/// The parser and read accessors. Accessors return `None` on a variant
/// mismatch.
impl Json {
    /// Parses a JSON document. The whole input must be one value
    /// (trailing non-whitespace is an error). Nesting is limited to
    /// [`Json::MAX_PARSE_DEPTH`] levels so hostile inputs fail with an
    /// error instead of exhausting the stack.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after document"));
        }
        Ok(value)
    }

    /// Maximum nesting depth [`Json::parse`] accepts.
    pub const MAX_PARSE_DEPTH: usize = 128;

    /// Looks up `key` in an object; `None` on other variants.
    pub fn field(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative `usize`, if this is an `Int` in
    /// range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|n| usize::try_from(n).ok())
    }

    /// The numeric value, if this is an `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: format!("{message} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", char::from(expected))))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > Json::MAX_PARSE_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uDC00–\uDFFF escape
                                // must follow to complete the pair.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(self.error("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let scalar = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("lone low surrogate"))?
                            };
                            out.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.error("unescaped control character"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a &str, so
                    // slicing at the next char boundary cannot fail.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).expect("input was a &str");
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.bytes.get(self.pos) {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        if int_digits == 0 {
            return Err(self.error("expected a digit"));
        }
        // JSON forbids leading zeros ("01"); a single "0" is fine.
        if int_digits > 1 && self.bytes[self.pos - int_digits] == b'0' {
            return Err(self.error("leading zero in number"));
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            if self.digit_run() == 0 {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            is_float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return Err(self.error("expected a digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
            // Integral but outside i64: fall through to f64.
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.error("malformed number"))
    }

    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Compact rendering (no whitespace); use [`Json::pretty`] for
/// indented output.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    level: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * (level + 1) {
                out.push(' ');
            }
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
    out.push(close);
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

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Int(n as i64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Int(i64::from(n))
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Int(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Float(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Types with a canonical JSON representation.
pub trait ToJson {
    /// Converts to a [`Json`] document.
    fn to_json(&self) -> Json;
}

impl ToJson for StopReason {
    fn to_json(&self) -> Json {
        match self {
            StopReason::Saturated => Json::str("saturated"),
            StopReason::IterLimit(n) => Json::obj([("iter_limit", Json::from(*n))]),
            StopReason::NodeLimit(n) => Json::obj([("node_limit", Json::from(*n))]),
            StopReason::TimeLimit(d) => Json::obj([("time_limit_ms", Json::duration_ms(*d))]),
            StopReason::Cancelled => Json::str("cancelled"),
        }
    }
}

impl ToJson for SaturationStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("nodes_after_r1", Json::from(self.nodes_after_r1)),
            ("nodes_after_r2", Json::from(self.nodes_after_r2)),
            ("classes", Json::from(self.classes)),
            ("r1_stop", self.r1_stop.to_json()),
            ("r2_stop", self.r2_stop.to_json()),
            ("r1_iterations", Json::from(self.r1_iterations)),
            ("r2_iterations", Json::from(self.r2_iterations)),
            ("pruned", Json::from(self.pruned)),
            // No wall-clock phase times here: job-result JSON must be
            // byte-identical across serial and concurrent runs (see
            // the service CLI tests); `satbench` reads the timing
            // fields straight off the struct instead.
            ("total_matches", Json::from(self.total_matches)),
            ("cancelled", Json::from(self.was_cancelled())),
        ])
    }
}

impl ToJson for PairStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("fa_inserted", Json::from(self.fa_inserted)),
            ("xor3_triples", Json::from(self.xor3_triples)),
            ("maj_triples", Json::from(self.maj_triples)),
        ])
    }
}

impl ToJson for crate::pipeline::RecoveredFa {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "inputs",
                Json::arr(self.inputs.iter().map(|l| Json::from(l.raw()))),
            ),
            ("sum", Json::from(self.sum.raw())),
            ("carry", Json::from(self.carry.raw())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_deterministic() {
        let doc = Json::obj([
            ("b", Json::from(true)),
            ("a", Json::from(1usize)),
            ("s", Json::str("x\"y\\z\n")),
            ("arr", Json::arr([Json::Null, Json::Float(1.5)])),
            ("empty", Json::obj::<String>([])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"b":true,"a":1,"s":"x\"y\\z\n","arr":[null,1.5],"empty":{}}"#
        );
        // Key order is insertion order, not sorted.
        assert!(doc.to_string().find("\"b\"").unwrap() < doc.to_string().find("\"a\"").unwrap());
    }

    #[test]
    fn pretty_rendering_indents() {
        let doc = Json::obj([("k", Json::arr([Json::Int(1)]))]);
        assert_eq!(doc.pretty(), "{\n  \"k\": [\n    1\n  ]\n}");
    }

    #[test]
    fn control_chars_escape_as_unicode() {
        let mut s = String::new();
        write_escaped(&mut s, "\u{1}");
        assert_eq!(s, "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn parser_accepts_the_grammar() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("0").unwrap(), Json::Int(0));
        assert_eq!(Json::parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(Json::parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(Json::parse("-2.5e3").unwrap(), Json::Float(-2500.0));
        assert_eq!(Json::parse("2E-1").unwrap(), Json::Float(0.2));
        assert_eq!(Json::parse("\"a\"").unwrap(), Json::str("a"));
        assert_eq!(
            Json::parse("[1, [2], {}]").unwrap(),
            Json::arr([
                Json::Int(1),
                Json::arr([Json::Int(2)]),
                Json::obj::<String>([])
            ])
        );
        assert_eq!(
            Json::parse("{ \"a\" : 1 , \"b\" : [ ] }").unwrap(),
            Json::obj([("a", Json::Int(1)), ("b", Json::arr([]))])
        );
        // i64 overflow degrades to a float instead of erroring.
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::Float(1e20)
        );
    }

    #[test]
    fn parser_decodes_escapes() {
        assert_eq!(
            Json::parse(r#""x\"y\\z\n\r\t\/\b\f""#).unwrap(),
            Json::str("x\"y\\z\n\r\t/\u{8}\u{c}")
        );
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::str("A"));
        assert_eq!(Json::parse(r#""é""#).unwrap(), Json::str("é"));
        // Surrogate pair: U+1F600.
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::str("\u{1F600}"));
        // Raw multi-byte UTF-8 passes through.
        assert_eq!(Json::parse("\"héllo\"").unwrap(), Json::str("héllo"));
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "tru",
            "nul",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "[1,]",
            "[1 2]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a:1}",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"lone \\ud800 surrogate\"",
            "\"\u{1}\"",
            "1 2",
            "null trailing",
            "[1] []",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail to parse");
        }
        // Deep nesting is an error, not a stack overflow.
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn parse_is_the_inverse_of_print(doc in arb_json()) {
            let text = doc.to_string();
            let parsed = Json::parse(&text).expect("writer output must parse");
            proptest::prop_assert_eq!(&parsed, &doc, "parse(print(doc)) != doc for {}", text);
            // And printing the parse is a fixpoint.
            proptest::prop_assert_eq!(parsed.to_string(), text);
        }

        #[test]
        fn parse_is_the_inverse_of_pretty_print(doc in arb_json()) {
            let parsed = Json::parse(&doc.pretty()).expect("pretty output must parse");
            proptest::prop_assert_eq!(&parsed, &doc);
        }

    }

    /// Random canonical-shaped documents: every variant, but floats are
    /// restricted to values whose shortest printed form re-parses to
    /// the same variant (`Float(2.0)` prints as `2`, which re-parses as
    /// `Int(2)` — the writer never emits such floats in canonical
    /// documents).
    fn arb_json() -> impl proptest::Strategy<Value = Json> {
        use proptest::Strategy as _;
        let leaf = proptest::prop_oneof![
            proptest::Just(Json::Null),
            proptest::any::<bool>().prop_map(Json::Bool),
            proptest::any::<i64>().prop_map(Json::Int),
            (-1_000_000i64..1_000_000).prop_map(|n| Json::Float(n as f64 + 0.5)),
            arb_string().prop_map(Json::Str),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            proptest::prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
                proptest::collection::vec((arb_string(), inner), 0..4).prop_map(Json::Obj),
            ]
        })
    }

    fn arb_string() -> impl proptest::Strategy<Value = String> {
        use proptest::Strategy as _;
        proptest::collection::vec(
            proptest::prop_oneof![
                (32u32..127).prop_map(|c| char::from_u32(c).unwrap()),
                proptest::Just('"'),
                proptest::Just('\\'),
                proptest::Just('\n'),
                proptest::Just('\u{1}'),
                proptest::Just('é'),
                proptest::Just('\u{1F600}'),
            ],
            0..8,
        )
        .prop_map(|chars| chars.into_iter().collect())
    }
}
