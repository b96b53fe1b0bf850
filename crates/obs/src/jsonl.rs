//! The JSONL codec for [`SimEvent`]: one flat JSON object per line,
//! written and scanned directly, with no intermediate `serde::Value`
//! tree.
//!
//! The writer emits the stable schema documented in EXPERIMENTS.md:
//! keys in a fixed order (`t`, `slot`, then the variant's fields), no
//! whitespace, integers in decimal. It appends to a caller-owned buffer
//! and formats integers on the stack, so a sink that reuses its buffer
//! writes without touching the heap.
//!
//! The parser accepts any JSON object, not only the writer's output:
//! keys in any order, any JSON whitespace, unknown keys holding any
//! JSON value, escapes in keys and strings, integral floats (`3.0`,
//! `3e0`) in integer fields. Of duplicate keys the first wins. A line
//! laid out exactly as the writer lays it out is read by matching that
//! layout; any other line is scanned key by key, left to right. Neither
//! allocates except to report an error or to skip a nested array or
//! object under an unknown key. Integer fields narrower than `u64` are
//! range-checked: a value above `u32::MAX` in `sender`, `receiver`,
//! `node`, `packet`, `holders`, `active_nodes`, `period` or `offset` is
//! an error, never a wrapped id.

use crate::event::{FieldType, SimEvent, KINDS, MAX_FIELDS};
use serde::Error;

impl SimEvent {
    /// Append this event's JSONL line (without the trailing newline)
    /// to `out`.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        let (tag, spec) = KINDS[self.kind_id()];
        out.extend_from_slice(b"{\"t\":\"");
        out.extend_from_slice(tag.as_bytes());
        out.extend_from_slice(b"\",\"slot\":");
        push_u64(out, self.slot());
        for (&(key, ty), v) in spec.iter().zip(self.fields()) {
            out.extend_from_slice(b",\"");
            out.extend_from_slice(key.as_bytes());
            out.extend_from_slice(b"\":");
            match (ty, v) {
                (FieldType::Bool, 0) => out.extend_from_slice(b"false"),
                (FieldType::Bool, _) => out.extend_from_slice(b"true"),
                _ => push_u64(out, v),
            }
        }
        out.push(b'}');
    }

    /// Parse one JSONL line (no trailing newline; surrounding JSON
    /// whitespace is allowed). See the module docs for what is
    /// accepted.
    pub fn parse_jsonl(line: &[u8]) -> Result<SimEvent, Error> {
        match canonical(line) {
            Some(ev) => Ok(ev),
            None => scan(line)?.event(line),
        }
    }
}

// --- writer -------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

// --- parser -------------------------------------------------------------

/// Every key of the schema: `t`, `slot`, then each field name of
/// [`KINDS`] where it first appears, the first [`N_KEYS`] entries of
/// [`key_table`]. Their indices name the slots of [`Fields`].
const KEYS: [&str; 2 + KINDS.len() * MAX_FIELDS] = key_table().0;
const N_KEYS: usize = key_table().1;
const T: usize = 0;
const SLOT: usize = 1;

/// The distinct keys of [`KINDS`] (see [`KEYS`]) and their count.
const fn key_table() -> ([&'static str; 2 + KINDS.len() * MAX_FIELDS], usize) {
    let mut keys = [""; 2 + KINDS.len() * MAX_FIELDS];
    keys[T] = "t";
    keys[SLOT] = "slot";
    let mut n = 2;
    let mut kind = 0;
    while kind < KINDS.len() {
        let spec = KINDS[kind].1;
        let mut i = 0;
        while i < spec.len() {
            let mut j = 0;
            while j < n && !same(keys[j].as_bytes(), spec[i].0.as_bytes()) {
                j += 1;
            }
            if j == n {
                keys[n] = spec[i].0;
                n += 1;
            }
            i += 1;
        }
        kind += 1;
    }
    (keys, n)
}

const fn same(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len()
}

/// The kind id of the event tagged `tag`.
fn kind_of(tag: &[u8]) -> Option<usize> {
    KINDS.iter().position(|(t, _)| t.as_bytes() == tag)
}

/// Index of the schema key `key` in [`KEYS`].
fn key_index(key: &[u8]) -> Option<usize> {
    KEYS[..N_KEYS].iter().position(|k| k.as_bytes() == key)
}

/// A line laid out exactly as the writer lays it out (leading zeros
/// aside), read by matching that layout instead of scanning: `None` for
/// anything else — an id past `u32` included — which [`scan`] then
/// reads. For every line this accepts, the scan gives the same event.
fn canonical(line: &[u8]) -> Option<SimEvent> {
    let mut s = Scanner { b: line, pos: 0 };
    s.expect(b"{\"t\":\"")?;
    let lo = s.pos;
    s.pos = lo + line[lo..].iter().position(|&b| b == b'"')?;
    let kind = kind_of(&line[lo..s.pos])?;
    s.expect(b"\",\"slot\":")?;
    let slot = s.digits()?;
    let mut f = [0; MAX_FIELDS];
    for (&(key, ty), v) in KINDS[kind].1.iter().zip(&mut f) {
        s.expect(b",\"")?;
        s.expect(key.as_bytes())?;
        s.expect(b"\":")?;
        *v = match ty {
            FieldType::Bool if s.expect(b"true").is_some() => 1,
            FieldType::Bool => s.expect(b"false").map(|_| 0)?,
            _ => s.digits()?,
        };
    }
    s.expect(b"}")?;
    if s.pos != line.len() {
        return None;
    }
    SimEvent::from_fields(kind, slot, &f).ok()
}

/// Any JSON object, read key by key.
fn scan(line: &[u8]) -> Result<Fields, Error> {
    let mut fields = Fields::default();
    let mut s = Scanner { b: line, pos: 0 };
    s.ws();
    s.eat(b'{')?;
    s.ws();
    if s.peek() == Some(b'}') {
        s.pos += 1;
    } else {
        loop {
            s.ws();
            let key = key_index(s.small()?.bytes());
            s.ws();
            s.eat(b':')?;
            s.ws();
            // `vals[T]` only marks the first `t` as seen; a string
            // there is the tag, kept in `tag`.
            match key {
                Some(T) if matches!(fields.vals[T], Val::Absent) && s.peek() == Some(b'"') => {
                    let lo = s.pos + 1;
                    let tag = s.small()?;
                    fields.tag = Some((tag, lo, s.pos - 1));
                    fields.vals[T] = Val::Other;
                }
                Some(k) if matches!(fields.vals[k], Val::Absent) => fields.vals[k] = s.value()?,
                _ => {
                    s.value()?;
                }
            }
            s.ws();
            match s.peek() {
                Some(b',') => s.pos += 1,
                Some(b'}') => {
                    s.pos += 1;
                    break;
                }
                _ => return Err(s.err("expected `,` or `}`")),
            }
        }
    }
    s.ws();
    if s.pos != line.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            s.pos
        )));
    }
    Ok(fields)
}

/// The first value seen under one known key, reduced to what the
/// schema can use of it.
#[derive(Clone, Copy, Default)]
enum Val {
    #[default]
    Absent,
    /// A non-negative integer (or integral float) that fits `u64`.
    Num(u64),
    Bool(bool),
    /// Any other number, a string, `null`, an array or an object.
    Other,
}

/// What one line said under the schema's keys. The tag, if the first
/// `t` holds a string, is kept apart, with the span of its raw text.
#[derive(Default)]
struct Fields {
    vals: [Val; N_KEYS],
    tag: Option<(Small, usize, usize)>,
}

impl Fields {
    fn u64(&self, k: usize) -> Result<u64, Error> {
        match self.vals[k] {
            Val::Num(v) => Ok(v),
            _ => Err(Error::missing_field("SimEvent", KEYS[k])),
        }
    }

    fn event(&self, line: &[u8]) -> Result<SimEvent, Error> {
        let (tag, lo, hi) = self
            .tag
            .as_ref()
            .ok_or_else(|| Error::missing_field("SimEvent", "t"))?;
        let slot = self.u64(SLOT)?;
        let kind = kind_of(tag.bytes()).ok_or_else(|| {
            Error::custom(format!(
                "unknown SimEvent tag `{}`",
                String::from_utf8_lossy(&line[*lo..*hi])
            ))
        })?;
        let mut f = [0; MAX_FIELDS];
        for (&(key, ty), v) in KINDS[kind].1.iter().zip(&mut f) {
            let k = key_index(key.as_bytes()).expect("every field name is a key");
            *v = match (ty, self.vals[k]) {
                (FieldType::Bool, Val::Bool(b)) => b.into(),
                (FieldType::Bool, _) => return Err(Error::missing_field("SimEvent", key)),
                (FieldType::U32, _) => {
                    let v = self.u64(k)?;
                    if v > u64::from(u32::MAX) {
                        return Err(Error::custom(format!("field `{key}`: {v} exceeds u32")));
                    }
                    v
                }
                (FieldType::U64, _) => self.u64(k)?,
            };
        }
        Ok(SimEvent::from_fields(kind, slot, &f).expect("fields were range-checked"))
    }
}

/// A decoded key or tag. Every key and tag of the schema fits in 16
/// bytes, so anything longer is unknown.
#[derive(Clone, Copy, Default)]
struct Small {
    buf: [u8; 16],
    len: u8,
    overflow: bool,
}

impl Small {
    fn push(&mut self, c: char) {
        let mut utf8 = [0u8; 4];
        for &b in c.encode_utf8(&mut utf8).as_bytes() {
            match self.buf.get_mut(self.len as usize) {
                Some(slot) if !self.overflow => {
                    *slot = b;
                    self.len += 1;
                }
                _ => self.overflow = true,
            }
        }
    }

    /// The decoded text; empty, which is no key or tag, if it did not
    /// fit.
    fn bytes(&self) -> &[u8] {
        if self.overflow {
            &[]
        } else {
            &self.buf[..self.len as usize]
        }
    }
}

struct Scanner<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// Step over `bytes` if the line continues with them.
    fn expect(&mut self, bytes: &[u8]) -> Option<()> {
        let end = self.pos + bytes.len();
        (self.b.get(self.pos..end)? == bytes).then(|| self.pos = end)
    }

    /// One or more digits, as a `u64` if they fit.
    fn digits(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(v)
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.b[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// One JSON value; strings, arrays and objects are checked and
    /// skipped.
    fn value(&mut self) -> Result<Val, Error> {
        match self.peek() {
            Some(b'"') => self.string(|_| {}).map(|_| Val::Other),
            Some(b'[' | b'{') => self.nested().map(|_| Val::Other),
            _ => self.scalar(),
        }
    }

    /// A key or tag string (cursor on its opening quote), decoded.
    fn small(&mut self) -> Result<Small, Error> {
        let mut text = Small::default();
        self.string(|c| text.push(c))?;
        Ok(text)
    }

    /// A number, `true`, `false` or `null`.
    fn scalar(&mut self) -> Result<Val, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|_| Val::Other),
            Some(b't') => self.literal("true").map(|_| Val::Bool(true)),
            Some(b'f') => self.literal("false").map(|_| Val::Bool(false)),
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                Ok(self.number()?.map_or(Val::Other, Val::Num))
            }
            Some(b) => Err(self.err(&format!("unexpected byte `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Skip an array or object (cursor on its opening bracket) without
    /// recursion, so nesting depth costs heap, not stack.
    fn nested(&mut self) -> Result<(), Error> {
        let mut closers: Vec<u8> = Vec::new();
        loop {
            // At the start of a value.
            match self.peek() {
                Some(b'[') => {
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                    } else {
                        closers.push(b']');
                        continue;
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                    } else {
                        closers.push(b'}');
                        self.member_key()?;
                        continue;
                    }
                }
                Some(b'"') => self.string(|_| {})?,
                _ => {
                    self.scalar()?;
                }
            }
            // After a complete value: close containers until one
            // continues with `,`.
            loop {
                let Some(&close) = closers.last() else {
                    return Ok(());
                };
                self.ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.ws();
                        if close == b'}' {
                            self.member_key()?;
                        }
                        break;
                    }
                    Some(b) if b == close => {
                        self.pos += 1;
                        closers.pop();
                    }
                    _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
                }
            }
        }
    }

    /// `"key" :` and the whitespace after it, inside a skipped object.
    fn member_key(&mut self) -> Result<(), Error> {
        self.string(|_| {})?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok(())
    }

    /// A string (cursor on its opening quote), each decoded character
    /// handed to `sink`.
    fn string(&mut self, mut sink: impl FnMut(char)) -> Result<(), Error> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            sink(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    };
                    self.pos += 1;
                    sink(c);
                }
                Some(b) if b < 0x80 => {
                    self.pos += 1;
                    sink(b as char);
                }
                Some(b) => {
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid UTF-8")),
                    };
                    let c = self
                        .b
                        .get(self.pos..self.pos + width)
                        .and_then(|bytes| std::str::from_utf8(bytes).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    self.pos += width;
                    sink(c);
                }
            }
        }
    }

    /// The character of a `\u` escape (cursor after the `u`), joining a
    /// surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            self.literal("\\u")?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(combined).ok_or_else(|| self.err("invalid surrogate pair"))
        } else {
            char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))
        }
    }

    /// Four hex digits (cursor on the first). Parsed with
    /// `from_str_radix`, so a leading `+` passes as JSON readers of
    /// this project always have accepted it.
    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .b
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = std::str::from_utf8(digits)
            .ok()
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    /// A number (cursor on `-` or a digit): `Some(v)` if it is a
    /// non-negative integer, or an integral float, within `u64`.
    fn number(&mut self) -> Result<Option<u64>, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            float = true;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        // The order of attempts, and the float conversion, are those of
        // the `serde_json` reader this codec replaced, so every number
        // reads as it did there.
        let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII");
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(u64::try_from(i).ok());
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Some(u));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Ok((f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64).then_some(f as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::NodeId;

    fn line(ev: &SimEvent) -> String {
        let mut out = Vec::new();
        ev.write_jsonl(&mut out);
        String::from_utf8(out).unwrap()
    }

    fn parse(s: &str) -> Result<SimEvent, Error> {
        SimEvent::parse_jsonl(s.as_bytes())
    }

    #[test]
    fn writes_the_schema_byte_for_byte() {
        let ev = SimEvent::TxAttempt {
            slot: 10,
            sender: NodeId(3),
            receiver: NodeId(7),
            packet: 2,
            bypass_mac: true,
        };
        assert_eq!(
            line(&ev),
            r#"{"t":"tx_attempt","slot":10,"sender":3,"receiver":7,"packet":2,"bypass_mac":true}"#
        );
        let ev = SimEvent::SlotEnd {
            slot: u64::MAX,
            queued: 0,
            active_nodes: u32::MAX,
        };
        assert_eq!(
            line(&ev),
            r#"{"t":"slot_end","slot":18446744073709551615,"queued":0,"active_nodes":4294967295}"#
        );
    }

    #[test]
    fn accepts_any_order_whitespace_extras_and_escapes() {
        let want = SimEvent::Deferred {
            slot: 3,
            sender: NodeId(2),
            receiver: NodeId(5),
            packet: 1,
        };
        for text in [
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1}"#,
            " \t{ \"packet\" : 1 ,\"receiver\":5,\r\n\"sender\":2,\"slot\":3,\"t\":\"deferred\"} ",
            r#"{"x":[1,{"y":[[],{}]},"z"],"t":"deferred","slot":3.0,"sender":2e0,"receiver":5,"packet":1,"fresh":"no"}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"slot":"dup","t":7}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"😀":"\u+041"}"#,
        ] {
            assert_eq!(parse(text).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn rejects_what_the_schema_does_not_allow() {
        for text in [
            "",
            "[]",
            "{}",
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5}"#,
            r#"{"slot":"3","t":"deferred","sender":2,"receiver":5,"packet":1}"#,
            r#"{"t":"deferred","slot":-3,"sender":2,"receiver":5,"packet":1}"#,
            r#"{"t":"deferred","slot":3.5,"sender":2,"receiver":5,"packet":1}"#,
            r#"{"t":"nope","slot":3}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1} x"#,
            r#"{"slot":3,"t":"deferred","sender":2,"receiver":5,"packet":1,"t":"x"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"x":[1,]}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"x":"\ud800"}"#,
        ] {
            assert!(parse(text).is_err(), "accepted {text:?}");
        }
        assert!(SimEvent::parse_jsonl(b"{\"t\":\"\xff\"}").is_err());
    }

    #[test]
    fn u32_fields_are_range_checked() {
        let over = r#"{"t":"link_loss","slot":1,"sender":4294967296,"receiver":5,"packet":1}"#;
        let err = parse(over).unwrap_err().to_string();
        assert!(
            err.contains("sender") && err.contains("exceeds u32"),
            "{err}"
        );
        let max = r#"{"t":"link_loss","slot":1,"sender":4294967295,"receiver":5,"packet":1}"#;
        assert!(parse(max).is_ok());
        let over = r#"{"t":"schedule_slot","slot":0,"node":1,"period":10,"offset":4294967296.0}"#;
        assert!(parse(over).unwrap_err().to_string().contains("offset"));
    }

    #[test]
    fn keys_are_t_slot_and_every_field_name() {
        let mut names: Vec<&str> = KINDS
            .iter()
            .flat_map(|(_, spec)| spec.iter().map(|&(name, _)| name))
            .collect();
        names.sort_unstable();
        names.dedup();
        let mut keys = KEYS[2..N_KEYS].to_vec();
        keys.sort_unstable();
        assert_eq!(KEYS[..2], ["t", "slot"]);
        assert!(KEYS[N_KEYS..].iter().all(|k| k.is_empty()));
        assert_eq!(keys, names);
    }

    #[test]
    fn unknown_tags_are_named() {
        let err = parse(r#"{"t":"a_very_long_unknown_event_tag","slot":1}"#).unwrap_err();
        assert!(
            err.to_string().contains("a_very_long_unknown_event_tag"),
            "{err}"
        );
    }
}
