//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`to_value`], [`from_str`] and
//! the [`json!`] macro, all built on the `serde` shim's owned
//! [`Value`] tree.
//!
//! Output is deterministic: objects render with sorted keys (the tree
//! stores them in a `BTreeMap`) and floats render through [`float`],
//! byte-identical to std's shortest round-trip `{}` formatting.
//! Non-finite floats render as `null`, matching real `serde_json`.

#![forbid(unsafe_code)]

pub mod float;

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
    let mut out = Vec::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
}

/// Serializes `value` to a 2-space-indented JSON string.
///
/// # Errors
///
/// Never fails in the shim; the `Result` mirrors the real API.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
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

fn write_value(out: &mut Vec<u8>, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(true) => out.extend_from_slice(b"true"),
        Value::Bool(false) => out.extend_from_slice(b"false"),
        Value::I64(v) => {
            out.extend_from_slice(v.to_string().as_bytes());
        }
        Value::U64(v) => {
            out.extend_from_slice(v.to_string().as_bytes());
        }
        Value::F64(v) => float::write_json(out, *v),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(b']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, key);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(b'}');
        }
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * depth, b' ');
    }
}

/// Bytes of a UTF-8 sequence are all `>= 0x80`, so escaping byte by
/// byte leaves every non-ASCII character intact.
fn write_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                out.extend_from_slice(format!("\\u{b:04x}").as_bytes());
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
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

    /// Parses a number with JSON's grammar,
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: a token with a
    /// fraction or an exponent is a float (read by [`float::read_json`]),
    /// one without is an integer. Text JSON forbids, such as `01`, `1.`,
    /// `.5`, `1e` or a lone `-`, is an error.
    fn parse_number(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        let start = self.pos;
        if let Some((value, len)) = float::read_json(&self.bytes[start..]) {
            self.pos += len;
            return Ok(Value::F64(value));
        }
        // Not a float token, so a valid number is `-?(0|[1-9][0-9]*)`
        // followed by none of the bytes that would continue one.
        let int_start = start + usize::from(self.bytes[start] == b'-');
        let mut end = int_start;
        while self.bytes.get(end).is_some_and(u8::is_ascii_digit) {
            end += 1;
        }
        let digits = &self.bytes[int_start..end];
        let leading_zero = digits.len() > 1 && digits[0] == b'0';
        let continues = matches!(self.bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
        if digits.is_empty() || leading_zero || continues {
            let run = self.bytes[start..]
                .iter()
                .take_while(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .count();
            return Err(Error::custom(format!(
                "invalid number `{}` at byte {start}",
                String::from_utf8_lossy(&self.bytes[start..start + run])
            )));
        }
        let text = std::str::from_utf8(&self.bytes[start..end]).expect("ASCII digits");
        self.pos = end;
        let integer = if int_start > start {
            text.parse::<i64>().ok().map(Value::I64)
        } else {
            text.parse::<u64>().ok().map(Value::U64)
        };
        // Integers beyond 64 bits read as floats, as in `serde_json`.
        Ok(integer
            .unwrap_or_else(|| Value::F64(text.parse().expect("a digit string parses as f64"))))
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
    fn numbers_follow_the_json_grammar() {
        for bad in [
            "[1.]", "[01.5]", "[00]", "[01]", "[-01]", "[-]", "[-.5]", "[.5]", "[+1.0]", "[1e]",
            "[1.5e+]", "[1E-]", "[1.5.5]", "[1e5e5]", "[1-2]", "[0x1]",
        ] {
            let err = from_str::<Value>(bad).expect_err(bad);
            assert!(!err.to_string().is_empty(), "{bad}");
        }
        let cases: [(&str, Value); 12] = [
            ("0", Value::U64(0)),
            ("-0", Value::I64(0)),
            ("10", Value::U64(10)),
            ("-12", Value::I64(-12)),
            ("1e5", Value::F64(1e5)),
            ("1E-2", Value::F64(0.01)),
            ("-0.0", Value::F64(-0.0)),
            ("0.5e+1", Value::F64(5.0)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("18446744073709551616", Value::F64(18446744073709551616.0)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            ("-9223372036854775809", Value::F64(-9223372036854775809.0)),
        ];
        for (text, expected) in cases {
            let v: Value = from_str(&format!("[{text}, {text} ]")).unwrap();
            assert_eq!(v[0], expected, "{text}");
            assert_eq!(v[1], expected, "{text}");
        }
        let err = from_str::<Value>("[1, 01.5]").unwrap_err();
        assert_eq!(err.to_string(), "invalid number `01.5` at byte 4");
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
