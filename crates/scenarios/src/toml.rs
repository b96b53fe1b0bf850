//! Minimal TOML-subset parser for scenario specs.
//!
//! The build environment carries no TOML crate, so scenarios are written
//! in a small, strict subset parsed here into the workspace's
//! [`serde::Value`] tree:
//!
//! * `[table]` headers (one level; no dotted keys, no array-of-tables),
//! * `key = value` pairs with bare keys,
//! * values: basic `"strings"` (with `\" \\ \n \t` escapes), integers,
//!   floats, booleans, and single-line arrays `[v, v, ...]` nested at
//!   most 8 deep,
//! * `#` comments and blank lines.
//!
//! Anything outside the subset is a hard error with a `line N, col C`
//! location — a scenario that silently parses differently than its
//! author intended would corrupt campaign digests, so the parser
//! refuses rather than guesses. The locations are machine-recoverable
//! via [`error_location`], which the campaign service uses to attach
//! structured `line`/`col` fields to its HTTP 400 bodies.

use serde::Value;

/// Parse a TOML-subset document into a `Value::Object` of tables.
///
/// Keys before the first `[table]` header land in the root object;
/// each header opens a nested object under its name. Duplicate tables
/// or duplicate keys within a table are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // Index into `root` of the table new keys are inserted into; None
    // means top level.
    let mut current: Option<usize> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw, lineno)?;
        // 1-based column of the first non-whitespace character.
        let base_col = line.chars().take_while(|c| c.is_whitespace()).count() + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| at(lineno, base_col, "unterminated table header"))?
                .trim();
            if name.is_empty() || !name.chars().all(is_bare_key_char) {
                return Err(at(
                    lineno,
                    base_col,
                    &format!("invalid table name {name:?}"),
                ));
            }
            if root.iter().any(|(k, _)| k == name) {
                return Err(at(lineno, base_col, &format!("duplicate table [{name}]")));
            }
            root.push((name.to_string(), Value::Object(Vec::new())));
            current = Some(root.len() - 1);
            continue;
        }
        let (key_raw, value_raw) = line
            .split_once('=')
            .ok_or_else(|| at(lineno, base_col, "expected `key = value` or `[table]`"))?;
        let key = key_raw.trim();
        if key.is_empty() || !key.chars().all(is_bare_key_char) {
            return Err(at(lineno, base_col, &format!("invalid key {key:?}")));
        }
        // Column of the value: everything before it (key, `=`, spaces).
        let value_col = base_col
            + key_raw.chars().count()
            + 1
            + value_raw.chars().take_while(|c| c.is_whitespace()).count();
        let value = parse_value(value_raw.trim(), lineno, value_col, 0)?;
        let target = match current {
            Some(i) => match &mut root[i].1 {
                Value::Object(entries) => entries,
                _ => unreachable!("tables are always objects"),
            },
            None => &mut root,
        };
        if target.iter().any(|(k, _)| k == key) {
            return Err(at(lineno, base_col, &format!("duplicate key {key:?}")));
        }
        target.push((key.to_string(), value));
    }
    Ok(Value::Object(root))
}

/// Format one diagnostic: `line N, col C: message`. [`error_location`]
/// is the inverse; keep the two in sync.
fn at(lineno: usize, col: usize, msg: &str) -> String {
    format!("line {lineno}, col {col}: {msg}")
}

/// Recover the `(line, col)` of a parser diagnostic produced by this
/// module (and by [`ScenarioSpec::from_toml_str`], which passes them
/// through verbatim). Returns `None` for errors without a location,
/// e.g. semantic validation failures.
///
/// [`ScenarioSpec::from_toml_str`]: crate::ScenarioSpec::from_toml_str
pub fn error_location(err: &str) -> Option<(u32, u32)> {
    let rest = err.strip_prefix("line ")?;
    let (line, rest) = rest.split_once(", col ")?;
    let (col, _) = rest.split_once(':')?;
    Some((line.parse().ok()?, col.parse().ok()?))
}

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '-' || c == '_'
}

/// Cut an unquoted `#` and everything after it. Tracks string state so
/// a `#` inside a quoted value survives.
fn strip_comment(line: &str, lineno: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut in_str = false;
    let mut escaped = false;
    let mut str_col = 0;
    for (i, c) in line.chars().enumerate() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '#' {
            return Ok(out);
        } else {
            if c == '"' {
                in_str = true;
                str_col = i + 1;
            }
            out.push(c);
        }
    }
    if in_str {
        return Err(at(lineno, str_col, "unterminated string"));
    }
    Ok(out)
}

/// Deepest array nesting a value may have. Specs use flat arrays; the
/// cap keeps a hostile `[[[…]]]` from recursing until the stack
/// overflows, which would abort the whole server, not fail one request.
const MAX_ARRAY_DEPTH: usize = 8;

fn parse_value(s: &str, lineno: usize, col: usize, depth: usize) -> Result<Value, String> {
    let s = s.trim();
    if s.is_empty() {
        return Err(at(lineno, col, "missing value"));
    }
    if let Some(rest) = s.strip_prefix('"') {
        return parse_string(rest, lineno, col);
    }
    if let Some(body) = s.strip_prefix('[') {
        if depth == MAX_ARRAY_DEPTH {
            return Err(at(
                lineno,
                col,
                &format!("arrays nested deeper than {MAX_ARRAY_DEPTH}"),
            ));
        }
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| at(lineno, col, "unterminated array"))?;
        let mut items = Vec::new();
        for (offset, part) in split_top_level(body, lineno, col)? {
            let lead = part.chars().take_while(|c| c.is_whitespace()).count();
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            // `col` points at `[`, so body offset k sits at col + k.
            items.push(parse_value(part, lineno, col + offset + lead, depth + 1)?);
        }
        return Ok(Value::Array(items));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    // TOML permits `1_000` style separators; the subset does not — a
    // stray underscore almost always means a typo'd key, not a number.
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if s.chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+')
    {
        if let Ok(f) = s.parse::<f64>() {
            if f.is_finite() {
                return Ok(Value::Float(f));
            }
        }
    }
    Err(at(lineno, col, &format!("unrecognised value {s:?}")))
}

/// Parse a basic string body (opening quote already consumed; `col`
/// points at the opening quote).
fn parse_string(body: &str, lineno: usize, col: usize) -> Result<Value, String> {
    let mut out = String::new();
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let rest: String = chars.collect();
                if !rest.trim().is_empty() {
                    return Err(at(lineno, col, "trailing garbage after string"));
                }
                return Ok(Value::Str(out));
            }
            '\\' => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                other => return Err(at(lineno, col, &format!("bad escape {other:?}"))),
            },
            _ => out.push(c),
        }
    }
    Err(at(lineno, col, "unterminated string"))
}

/// Split on commas outside strings and nested brackets. Each part is
/// returned with its 1-based char offset inside `body`, so callers can
/// derive item columns.
fn split_top_level(body: &str, lineno: usize, col: usize) -> Result<Vec<(usize, String)>, String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut start = 1;
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in body.chars().enumerate() {
        if in_str {
            cur.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                cur.push(c);
            }
            '[' => {
                depth += 1;
                cur.push(c);
            }
            ']' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| at(lineno, col, "unbalanced brackets"))?;
                cur.push(c);
            }
            ',' if depth == 0 => {
                parts.push((start, std::mem::take(&mut cur)));
                start = i + 2;
            }
            _ => cur.push(c),
        }
    }
    if depth != 0 || in_str {
        return Err(at(lineno, col, "unbalanced array"));
    }
    parts.push((start, cur));
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.get(name).expect("table present")
    }

    #[test]
    fn parses_tables_scalars_and_arrays() {
        let doc = r#"
            # campaign demo
            title = "hello # not a comment"

            [topology]
            kind = "grid"   # inline comment
            rows = 5
            radius = 1.5
            wrap = false
            duties = [0.05, 0.1]
            seeds = [1, 2, 3,]
            names = ["a", "b"]
        "#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("title").unwrap().as_str(),
            Some("hello # not a comment")
        );
        let t = table(&v, "topology");
        assert_eq!(t.get("kind").unwrap().as_str(), Some("grid"));
        assert_eq!(t.get("rows").unwrap().as_u64(), Some(5));
        assert_eq!(t.get("radius").unwrap().as_f64(), Some(1.5));
        assert!(matches!(t.get("wrap"), Some(Value::Bool(false))));
        match t.get("duties").unwrap() {
            Value::Array(a) => {
                assert_eq!(a.len(), 2);
                assert_eq!(a[0].as_f64(), Some(0.05));
            }
            other => panic!("expected array, got {other:?}"),
        }
        match t.get("seeds").unwrap() {
            Value::Array(a) => assert_eq!(a.len(), 3, "trailing comma tolerated"),
            other => panic!("expected array, got {other:?}"),
        }
        match t.get("names").unwrap() {
            Value::Array(a) => assert_eq!(a[1].as_str(), Some("b")),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#"s = "a\"b\\c\nd""#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
    }

    #[test]
    fn negative_and_float_forms() {
        let v = parse("a = -3\nb = -0.5\nc = 1e3").unwrap();
        assert_eq!(v.get("a").unwrap().as_i64(), Some(-3));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-0.5));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        for (doc, why) in [
            ("key", "missing ="),
            ("[open", "unterminated header"),
            ("k = ", "missing value"),
            ("k = \"abc", "unterminated string"),
            ("k = [1, 2", "unterminated array"),
            ("k = nope", "bare word"),
            ("k = 1\nk = 2", "duplicate key"),
            ("[t]\n[t]", "duplicate table"),
            ("bad key = 1", "space in key"),
            ("k = 1_000", "underscore separator (outside subset)"),
        ] {
            assert!(parse(doc).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn error_carries_line_number() {
        let err = parse("ok = 1\nbroken ~ 2").unwrap_err();
        assert!(err.contains("line 2"), "got: {err}");
    }

    #[test]
    fn error_carries_column_of_the_offending_token() {
        // The bad value starts at col 5 of line 2.
        let err = parse("ok = 1\nk = nope").unwrap_err();
        assert_eq!(error_location(&err), Some((2, 5)), "got: {err}");

        // Array items locate individually: `bad` is the second item,
        // after `[1, ` — the value opens at col 9, the item at col 13.
        let err = parse("seeds = [1, bad]").unwrap_err();
        assert_eq!(error_location(&err), Some((1, 13)), "got: {err}");

        // Indented keys shift the base column.
        let err = parse("    broken ~ 2").unwrap_err();
        assert_eq!(error_location(&err), Some((1, 5)), "got: {err}");
    }

    #[test]
    fn deep_array_nesting_is_a_positioned_error() {
        let depth = |d: usize| format!("a = {}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&depth(MAX_ARRAY_DEPTH)).is_ok());
        let err = parse(&depth(MAX_ARRAY_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "got: {err}");
        assert_eq!(error_location(&err), Some((1, 5 + MAX_ARRAY_DEPTH as u32)));
        // Deep enough to overflow the stack without the cap.
        assert!(parse(&depth(200_000)).is_err());
    }

    #[test]
    fn error_location_roundtrips_and_rejects_plain_messages() {
        assert_eq!(error_location("line 3, col 14: nope"), Some((3, 14)));
        assert_eq!(error_location("scenario.name must be set"), None);
        assert_eq!(error_location("line 3: old style"), None);
        assert_eq!(error_location(""), None);
    }
}
