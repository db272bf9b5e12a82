//! The little JSON the benchmark needs: it writes the driver's result line
//! and `compare` reads such lines (and `BENCHMARK.json`) back. The crate
//! depends on the product crates only, so this is hand-rolled.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (keys sorted).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[cfg(test)]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[cfg(test)]
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document.
///
/// # Errors
///
/// Returns the byte offset and what was expected there.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(p.fail("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn fail(&self, expected: &str) -> String {
        format!("json: expected {expected} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.fail("':'"));
            }
            map.insert(key, self.value()?);
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(map));
            }
            if !self.eat(",") {
                return Err(self.fail("',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.fail("',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(self.fail("a string"));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.fail("closing '\"'")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.fail("utf-8"));
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.at + 1).copied();
                    self.at += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("four hex digits"))?;
                            self.at += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.fail("an escape")),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| self.fail("a number"))
    }
}

/// Formats a measured value with all its digits (shortest form that
/// round-trips); non-finite values, which JSON cannot carry, become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, metrics in the order given.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let line = result_line(
            true,
            120,
            0,
            &[
                ("tok_s", 556.012_345_678_9, "tok/s"),
                ("setup_s", 1.25, "s"),
            ],
        );
        let v = parse(&line).expect("own output parses");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::num), Some(120.0));
        assert_eq!(v.get("failed").and_then(Json::num), Some(0.0));
        let m = v.get("metrics").expect("metrics");
        let tok = m.get("tok_s").expect("tok_s");
        assert_eq!(
            tok.get("value").and_then(Json::num),
            Some(556.012_345_678_9)
        );
        assert_eq!(tok.get("unit").and_then(Json::str), Some("tok/s"));
        assert_eq!(v.obj().map(|o| o.len()), Some(4));
    }

    #[test]
    fn parses_nested_documents_and_escapes() {
        let v = parse(r#" {"a": [1, -2.5e1, true, null], "b": {"c": "x\"yA\n"}} "#).expect("valid");
        let a = v.get("a").and_then(Json::arr).expect("array");
        assert_eq!(a[1], Json::Num(-25.0));
        assert_eq!(a[3], Json::Null);
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::str),
            Some("x\"yA\n")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn non_finite_numbers_become_zero() {
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(f64::INFINITY), "0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
    }
}
