//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`to_value`], [`from_str`] and
//! the [`json!`] macro, all built on the `serde` shim's owned
//! [`Value`] tree.
//!
//! Output is deterministic: objects render with sorted keys (the tree
//! stores them in a `BTreeMap`) and numbers use Rust's shortest
//! round-trip float formatting. Non-finite floats render as `null`,
//! matching real `serde_json`.

#![forbid(unsafe_code)]

pub use serde::{Error, Value};

/// Serializes `value` into its [`Value`] tree.
///
/// # Errors
///
/// Never fails in the shim; the `Result` mirrors the real API.
pub fn to_value<T: serde::Serialize>(value: T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Never fails in the shim; the `Result` mirrors the real API.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` to a 2-space-indented JSON string.
///
/// # Errors
///
/// Never fails in the shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses a JSON string into any [`serde::Deserialize`] type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T, Error> {
    let value = Parser::new(s).parse_document()?;
    T::from_value(&value)
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => {
            out.push_str(&v.to_string());
        }
        Value::U64(v) => {
            out.push_str(&v.to_string());
        }
        Value::F64(v) => write_f64(out, *v),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    // Rust's shortest round-trip formatting; ensure the text stays a
    // float (real serde_json prints `1.0`, not `1`).
    let s = format!("{v}");
    out.push_str(&s);
    if !s.contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Deepest array/object nesting [`from_str`] accepts. The parser is
/// recursive, so without a bound a few hundred kilobytes of `[` would
/// overflow the stack and abort the process; real `serde_json` uses the
/// same limit.
pub const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Enters one array/object level, failing past [`RECURSION_LIMIT`].
    fn descend(&mut self) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > RECURSION_LIMIT {
            return Err(Error::custom(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn parse_document(mut self) -> Result<Value, Error> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(Error::custom(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' | b'[' => {
                self.descend()?;
                let nested = if self.bytes[self.pos] == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                nested
            }
            b'"' => self.parse_string().map(Value::String),
            b't' => self.parse_keyword("true", Value::Bool(true)),
            b'f' => self.parse_keyword("false", Value::Bool(false)),
            b'n' => self.parse_keyword("null", Value::Null),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(Error::custom(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `}}`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::custom(format!(
                        "expected `,` or `]`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::custom("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| Error::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err(Error::custom("lone lead surrogate"));
                                }
                                self.pos += 2;
                                let second = self.parse_hex4()?;
                                0x10000
                                    + ((first - 0xD800) << 10)
                                    + (second.wrapping_sub(0xDC00) & 0x3FF)
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("invalid \\u escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "invalid escape `\\{}`",
                                other as char
                            )))
                        }
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s =
                        std::str::from_utf8(rest).map_err(|_| Error::custom("invalid UTF-8"))?;
                    let c = s.chars().next().expect("non-empty checked above");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| Error::custom("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| Error::custom("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::custom("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if !is_float {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::I64(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

// ---------------------------------------------------------------------
// json! macro
// ---------------------------------------------------------------------

/// Builds a [`Value`] from JSON-like syntax.
///
/// Supports the subset this workspace uses: object literals with
/// string-literal keys, nested objects/arrays, and expression values
/// (anything implementing [`serde::Serialize`]).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($body:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = ::std::collections::BTreeMap::new();
        $crate::json_object_entries!(object, $($body)*);
        $crate::Value::Object(object)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ($value:expr) => {
        ::serde::Serialize::to_value(&$value)
    };
}

/// Internal token muncher for [`json!`] object bodies.
#[macro_export]
#[doc(hidden)]
macro_rules! json_object_entries {
    ($map:ident,) => {};
    ($map:ident, $key:literal : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $map.insert(
            ::std::string::String::from($key),
            $crate::json!({ $($inner)* }),
        );
        $( $crate::json_object_entries!($map, $($rest)*); )?
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $map.insert(
            ::std::string::String::from($key),
            $crate::json!([ $($inner)* ]),
        );
        $( $crate::json_object_entries!($map, $($rest)*); )?
    };
    ($map:ident, $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert(::std::string::String::from($key), $crate::json!($value));
        $crate::json_object_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : $value:expr) => {
        $map.insert(::std::string::String::from($key), $crate::json!($value));
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_is_canonical() {
        let v = json!({
            "b": 2,
            "a": [1.5, true, Option::<u64>::None],
            "s": "hi\n",
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"a":[1.5,true,null],"b":2,"s":"hi\n"}"#
        );
    }

    #[test]
    fn pretty_rendering_indents() {
        let v = json!({ "a": 1 });
        assert_eq!(to_string_pretty(&v).unwrap(), "{\n  \"a\": 1\n}");
    }

    #[test]
    fn parse_roundtrip() {
        let text = r#"{"x": [1, -2, 3.5, "s", {"y": null}], "z": false}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(v["x"][0], 1);
        assert_eq!(v["x"][1], -2);
        assert_eq!(v["x"][2], 3.5);
        assert_eq!(v["x"][3], "s");
        assert!(v["x"][4]["y"].is_null());
        assert_eq!(v["z"], false);
        let rendered = to_string(&v).unwrap();
        let back: Value = from_str(&rendered).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn floats_stay_floats() {
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" backslash\\ newline\n tab\t unicode\u{1F600}";
        let rendered = to_string(&String::from(original)).unwrap();
        let back: String = from_str(&rendered).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let at_limit = "[".repeat(RECURSION_LIMIT) + &"]".repeat(RECURSION_LIMIT);
        assert!(from_str::<Value>(&at_limit).is_ok());
        let over = "[".repeat(RECURSION_LIMIT + 1) + &"]".repeat(RECURSION_LIMIT + 1);
        let err = from_str::<Value>(&over).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let deep = "{\"a\":".repeat(200_000) + &"[".repeat(200_000);
        assert!(from_str::<Value>(&deep).is_err());
    }

    #[test]
    fn typed_from_str() {
        let v: Vec<u64> = from_str("[1, 2, 3]").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let e: Result<Vec<u64>, Error> = from_str("[1, 2");
        assert!(e.is_err());
    }
}
