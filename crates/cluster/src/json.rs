//! A minimal, dependency-free JSON reader and writer shared by every
//! surface that touches JSON: operator-authored fault plans
//! ([`crate::faults::FaultPlan::from_json`]) and tenant registries
//! (`dim_serve::tenant`), and the result rows `repro` writes. It
//! supports exactly the JSON these use — objects, arrays, strings with
//! basic escapes, numbers, bools, null — with strict
//! trailing-byte detection via [`Json::parse`]; `Display` renders the
//! compact single-line form, and `parse ∘ to_string = id`.

/// A minimal JSON value tree, wide enough for fault plans and
/// tenant configs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// 2⁵³: below it every integer is an `f64`, from it up some are not.
const EXACT_INTEGERS_END: u64 = 1 << 53;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(&format!("expected `{word}`"))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = code else {
                                return self.err("bad \\u escape");
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return self.err("unsupported escape"),
                    }
                    self.pos += 1;
                }
                Some(&c) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let len = match c {
                        _ if c < 0x80 => 1,
                        _ if c >= 0xF0 => 4,
                        _ if c >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

impl Json {
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value [`Json::as_u64`] reads back as exactly `v`: a number below
    /// 2⁵³, a string of decimal digits from there up.
    pub(crate) fn exact_u64(v: u64) -> Json {
        if v < EXACT_INTEGERS_END {
            Json::Num(v as f64)
        } else {
            Json::Str(v.to_string())
        }
    }

    /// This value as a `u64`: a non-negative integer literal below 2⁵³, or
    /// a string of decimal digits (the only exact form from 2⁵³ up).
    ///
    /// Literals are parsed as `f64`, so by the time they get here 2⁵³ and
    /// 2⁵³ + 1 are the same number: anything that large is refused rather
    /// than silently replaced by a neighbour.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INTEGERS_END as f64 => {
                Ok(*n as u64)
            }
            Json::Num(n) if *n >= EXACT_INTEGERS_END as f64 => Err(format!(
                "{what}: {n} is not exact as a JSON number; write integers from 2^53 up \
                 as a decimal string"
            )),
            Json::Str(s) if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => s
                .parse()
                .map_err(|_| format!("{what}: {s} does not fit in u64")),
            other => Err(format!("{what}: expected a non-negative integer, got {other:?}")),
        }
    }

    pub(crate) fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(default),
            Some(v) => v.as_u64(key),
        }
    }

    pub fn u32_or(&self, key: &str, default: u32) -> Result<u32, String> {
        let v = self.u64_or(key, u64::from(default))?;
        u32::try_from(v).map_err(|_| format!("{key}: {v} does not fit in u32"))
    }
}

impl Json {
    /// Parses `text` as one JSON value; trailing non-whitespace bytes
    /// are an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = JsonParser::new(text);
        let root = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return parser.err("trailing bytes after value");
        }
        Ok(root)
    }

    /// The string value of `key`, if present and a string.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// This value as a string, with a typed error naming `what`.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("{what}: expected a string, got {other:?}")),
        }
    }
}

/// Compact single-line rendering. Numbers print as the shortest decimal
/// that reads back to the same `f64` (integers without a fraction); JSON
/// has no NaN or infinity, so those print as `null`.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use std::fmt::Write as _;
        fn quoted(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
            f.write_char('"')?;
            for c in s.chars() {
                match c {
                    '"' => f.write_str("\\\"")?,
                    '\\' => f.write_str("\\\\")?,
                    '\n' => f.write_str("\\n")?,
                    '\t' => f.write_str("\\t")?,
                    c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                    c => f.write_char(c)?,
                }
            }
            f.write_char('"')
        }
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => quoted(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    quoted(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_values_read_back_exactly() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\"\tpath\\x\u{1}".into())),
            ("value".into(), Json::Num(0.1 + 0.2)),
            ("count".into(), Json::Num(3.0)),
            ("list".into(), Json::Arr(vec![Json::Bool(true), Json::Null, Json::Num(1.5e-9)])),
        ]);
        let line = doc.to_string();
        assert!(line.contains("\"count\":3,"), "integers print without a fraction: {line}");
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }
}
