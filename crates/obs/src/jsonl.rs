//! The JSONL codec for [`SimEvent`]: one flat JSON object per line,
//! written and read directly, with no intermediate `serde::Value`
//! tree.
//!
//! Both halves share one layout, the stable schema documented in
//! EXPERIMENTS.md: `{"t":"<tag>","slot":N`, then the variant's fields in
//! [`KINDS`] order, then `}`; no whitespace, integers as decimal digits,
//! flags as `true` or `false`. The writer appends to a caller-owned
//! buffer and formats integers on the stack, so a sink that reuses its
//! buffer writes without touching the heap.
//!
//! The parser reads that layout and nothing else (leading zeros in an
//! integer aside): every JSONL line this project reads was written by
//! [`SimEvent::write_jsonl`]. Keys in another order, whitespace, extra
//! or duplicate keys, floats such as `3.0` and escapes are errors that
//! name the byte offset and the token expected there; an unknown tag is
//! an error that names the tag. A value above `u32::MAX` in `sender`,
//! `receiver`, `node`, `packet`, `holders`, `active_nodes`, `period` or
//! `offset` is an error naming the field, never a wrapped id. The
//! parser allocates only to report an error.

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

    /// Parse one JSONL line (no trailing newline) laid out as
    /// [`SimEvent::write_jsonl`] lays it out; see the module docs for
    /// the errors.
    pub fn parse_jsonl(line: &[u8]) -> Result<SimEvent, Error> {
        let mut s = Cursor { b: line, pos: 0 };
        s.token("{\"t\":\"")?;
        let at = s.pos;
        while s.b.get(s.pos).is_some_and(|&b| b != b'"') {
            s.pos += 1;
        }
        let tag = &line[at..s.pos];
        let kind = KINDS
            .iter()
            .position(|(t, _)| t.as_bytes() == tag)
            .ok_or_else(|| {
                let tag = String::from_utf8_lossy(tag);
                Error::custom(format!("unknown SimEvent tag `{tag}` at byte {at}"))
            })?;
        s.token("\",\"slot\":")?;
        let slot = s.integer()?;
        let spec = KINDS[kind].1;
        let mut f = [0; MAX_FIELDS];
        for (&(key, ty), v) in spec.iter().zip(&mut f) {
            s.key(key)?;
            *v = match ty {
                FieldType::Bool if s.eat(b"true") => 1,
                FieldType::Bool if s.eat(b"false") => 0,
                FieldType::Bool => return Err(s.expected("`true` or `false`")),
                _ => s.integer()?,
            };
        }
        s.token("}")?;
        if s.pos != line.len() {
            return Err(s.expected("end of line"));
        }
        SimEvent::from_fields(kind, slot, &f)
            .map_err(|i| Error::custom(format!("field `{}`: {} exceeds u32", spec[i].0, f[i])))
    }
}

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

/// The parser's position in one line.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// The error for a line that does not continue with `what` here.
    fn expected(&self, what: &str) -> Error {
        Error::custom(format!("expected {what} at byte {}", self.pos))
    }

    /// Step over `bytes` if the line continues with them.
    fn eat(&mut self, bytes: &[u8]) -> bool {
        let end = self.pos + bytes.len();
        let hit = self.b.get(self.pos..end) == Some(bytes);
        if hit {
            self.pos = end;
        }
        hit
    }

    fn token(&mut self, token: &str) -> Result<(), Error> {
        if self.eat(token.as_bytes()) {
            Ok(())
        } else {
            Err(self.expected(&format!("`{token}`")))
        }
    }

    /// `,"key":`, named whole if any of it is missing.
    fn key(&mut self, key: &str) -> Result<(), Error> {
        let at = self.pos;
        if self.eat(b",\"") && self.eat(key.as_bytes()) && self.eat(b"\":") {
            return Ok(());
        }
        self.pos = at;
        Err(self.expected(&format!("`,\"{key}\":`")))
    }

    /// One or more decimal digits, within `u64`.
    fn integer(&mut self) -> Result<u64, Error> {
        let at = self.pos;
        let mut v = 0u64;
        while let Some(&d @ b'0'..=b'9') = self.b.get(self.pos) {
            let next = v
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(d - b'0')));
            let Some(next) = next else {
                self.pos = at;
                return Err(self.expected("an integer within u64"));
            };
            v = next;
            self.pos += 1;
        }
        if self.pos == at {
            return Err(self.expected("a decimal integer"));
        }
        Ok(v)
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
    fn rejects_other_orders_whitespace_extras_and_escapes() {
        let canonical = r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1}"#;
        let want = SimEvent::Deferred {
            slot: 3,
            sender: NodeId(2),
            receiver: NodeId(5),
            packet: 1,
        };
        assert_eq!(parse(canonical).unwrap(), want);
        assert_eq!(parse(&canonical.replace(":3,", ":003,")).unwrap(), want);
        for text in [
            " \t{ \"packet\" : 1 ,\"receiver\":5,\r\n\"sender\":2,\"slot\":3,\"t\":\"deferred\"} ",
            r#"{"x":[1,{"y":[[],{}]},"z"],"t":"deferred","slot":3.0,"sender":2e0,"receiver":5,"packet":1,"fresh":"no"}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"slot":"dup","t":7}"#,
            r#"{"t":"deferred","slot":3,"sender":2,"receiver":5,"packet":1,"😀":"\u+041"}"#,
        ] {
            let err = parse(text).unwrap_err().to_string();
            assert!(err.contains("at byte "), "{text}: {err}");
        }
    }

    #[test]
    fn errors_name_the_byte_and_the_token_expected_there() {
        let cases = [
            (
                r#"{"t":"deferred","slot":3,"receiver":5,"sender":2,"packet":1}"#,
                r#"expected `,"sender":` at byte 24"#,
            ),
            (
                r#"{"t":"deferred","slot":3.0,"sender":2,"receiver":5,"packet":1}"#,
                r#"expected `,"sender":` at byte 24"#,
            ),
            (r#"{"slot":3}"#, r#"expected `{"t":"` at byte 0"#),
            (
                r#"{"t":"source_retry","slot":x"#,
                "expected a decimal integer at byte 27",
            ),
            (
                r#"{"t":"source_retry","slot":1,"packet":0} "#,
                "expected end of line at byte 40",
            ),
            (
                r#"{"t":"source_retry","slot":99999999999999999999,"packet":0}"#,
                "expected an integer within u64 at byte 27",
            ),
            (
                r#"{"t":"delivered","slot":1,"sender":2,"receiver":5,"packet":1,"fresh":1}"#,
                "expected `true` or `false` at byte 69",
            ),
        ];
        for (text, want) in cases {
            assert_eq!(parse(text).unwrap_err().to_string(), want, "{text}");
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
        assert_eq!(err, "field `sender`: 4294967296 exceeds u32");
        let max = r#"{"t":"link_loss","slot":1,"sender":4294967295,"receiver":5,"packet":1}"#;
        assert!(parse(max).is_ok());
        let over = r#"{"t":"schedule_slot","slot":0,"node":1,"period":10,"offset":4294967296}"#;
        assert!(parse(over).unwrap_err().to_string().contains("offset"));
    }

    #[test]
    fn unknown_tags_are_named() {
        let err = parse(r#"{"t":"a_very_long_unknown_event_tag","slot":1}"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown SimEvent tag `a_very_long_unknown_event_tag` at byte 6"
        );
    }
}
