//! Differential tests of the direct JSONL codec
//! ([`SimEvent::write_jsonl`] / [`SimEvent::parse_jsonl`]) against the
//! codec it replaced, kept here as `reference`: events converted to and
//! from a `serde::Value` tree and printed or parsed by `serde_json`,
//! with one check added, that an id field above `u32::MAX` is an error
//! instead of a value wrapped to 32 bits.
//!
//! * The writer must produce the reference's bytes for every event, and
//!   the parser must read them back as that event.
//! * The parser reads only the writer's layout. On that layout with its
//!   integers respelled in digits (leading zeros, values past `u32` or
//!   `u64`) it accepts exactly what the reference accepts. Every line it
//!   accepts, the reference reads as the same event.
//! * Every other line (permuted, re-spaced, with extra or duplicate
//!   keys, floats, escapes, truncated or byte-mutated) is an error that
//!   names a byte offset or a field, never a panic.

use ldcf_net::NodeId;
use ldcf_obs::SimEvent;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The `serde::Value`-tree codec as it stood before the direct one.
mod reference {
    use ldcf_net::{NodeId, PacketId};
    use ldcf_obs::SimEvent;
    use serde::{Error, Value};

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn to_value(ev: &SimEvent) -> Value {
        let t = Value::Str(ev.kind().to_string());
        let link = |t, slot, s: NodeId, r: NodeId, p: PacketId| {
            vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("sender", Value::UInt(s.0 as u64)),
                ("receiver", Value::UInt(r.0 as u64)),
                ("packet", Value::UInt(p as u64)),
            ]
        };
        match *ev {
            SimEvent::TxAttempt {
                slot,
                sender,
                receiver,
                packet,
                bypass_mac,
            } => {
                let mut e = link(t, slot, sender, receiver, packet);
                e.push(("bypass_mac", Value::Bool(bypass_mac)));
                obj(e)
            }
            SimEvent::Delivered {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            }
            | SimEvent::Overheard {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            } => {
                let mut e = link(t, slot, sender, receiver, packet);
                e.push(("fresh", Value::Bool(fresh)));
                obj(e)
            }
            SimEvent::LinkLoss {
                slot,
                sender,
                receiver,
                packet,
            }
            | SimEvent::Collision {
                slot,
                sender,
                receiver,
                packet,
            }
            | SimEvent::ReceiverBusy {
                slot,
                sender,
                receiver,
                packet,
            }
            | SimEvent::Mistimed {
                slot,
                sender,
                receiver,
                packet,
            }
            | SimEvent::BurstLoss {
                slot,
                sender,
                receiver,
                packet,
            }
            | SimEvent::Deferred {
                slot,
                sender,
                receiver,
                packet,
            } => obj(link(t, slot, sender, receiver, packet)),
            SimEvent::CoverageReached {
                slot,
                packet,
                holders,
            } => obj(vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("packet", Value::UInt(packet as u64)),
                ("holders", Value::UInt(holders as u64)),
            ]),
            SimEvent::SlotEnd {
                slot,
                queued,
                active_nodes,
            } => obj(vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("queued", Value::UInt(queued)),
                ("active_nodes", Value::UInt(active_nodes as u64)),
            ]),
            SimEvent::NodeCrashed { slot, node } | SimEvent::NodeRecovered { slot, node } => {
                obj(vec![
                    ("t", t),
                    ("slot", Value::UInt(slot)),
                    ("node", Value::UInt(node.0 as u64)),
                ])
            }
            SimEvent::SourceRetry { slot, packet } => obj(vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("packet", Value::UInt(packet as u64)),
            ]),
            SimEvent::ScheduleSlot {
                slot,
                node,
                period,
                offset,
            } => obj(vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("node", Value::UInt(node.0 as u64)),
                ("period", Value::UInt(period as u64)),
                ("offset", Value::UInt(offset as u64)),
            ]),
            SimEvent::PacketInjected { slot, node, packet } => obj(vec![
                ("t", t),
                ("slot", Value::UInt(slot)),
                ("node", Value::UInt(node.0 as u64)),
                ("packet", Value::UInt(packet as u64)),
            ]),
        }
    }

    /// The reference line for `ev`.
    pub fn line(ev: &SimEvent) -> String {
        serde_json::to_string(&to_value(ev)).unwrap()
    }

    struct Fields<'a> {
        v: &'a Value,
    }

    impl Fields<'_> {
        fn u64(&self, name: &str) -> Result<u64, Error> {
            self.v
                .get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| Error::missing_field("SimEvent", name))
        }

        fn u32(&self, name: &str) -> Result<u32, Error> {
            let v = self.u64(name)?;
            if v > u64::from(u32::MAX) {
                return Err(Error::custom(format!("field `{name}`: {v} exceeds u32")));
            }
            Ok(v as u32)
        }

        fn node(&self, name: &str) -> Result<NodeId, Error> {
            self.u32(name).map(NodeId)
        }

        fn bool(&self, name: &str) -> Result<bool, Error> {
            match self.v.get(name) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(Error::missing_field("SimEvent", name)),
            }
        }
    }

    /// Parse a line as the reference did, plus the range check on
    /// `u32` fields.
    pub fn parse(line: &str) -> Result<SimEvent, Error> {
        let v = serde_json::parse_value(line)?;
        let f = Fields { v: &v };
        let tag = v
            .get("t")
            .and_then(Value::as_str)
            .ok_or_else(|| Error::missing_field("SimEvent", "t"))?;
        let slot = f.u64("slot")?;
        let link = || -> Result<(NodeId, NodeId, PacketId), Error> {
            Ok((f.node("sender")?, f.node("receiver")?, f.u32("packet")?))
        };
        Ok(match tag {
            "tx_attempt" => {
                let (sender, receiver, packet) = link()?;
                SimEvent::TxAttempt {
                    slot,
                    sender,
                    receiver,
                    packet,
                    bypass_mac: f.bool("bypass_mac")?,
                }
            }
            "delivered" | "overheard" => {
                let (sender, receiver, packet) = link()?;
                let fresh = f.bool("fresh")?;
                if tag == "delivered" {
                    SimEvent::Delivered {
                        slot,
                        sender,
                        receiver,
                        packet,
                        fresh,
                    }
                } else {
                    SimEvent::Overheard {
                        slot,
                        sender,
                        receiver,
                        packet,
                        fresh,
                    }
                }
            }
            "link_loss" | "collision" | "receiver_busy" | "mistimed" | "deferred"
            | "burst_loss" => {
                let (sender, receiver, packet) = link()?;
                match tag {
                    "link_loss" => SimEvent::LinkLoss {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                    "collision" => SimEvent::Collision {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                    "receiver_busy" => SimEvent::ReceiverBusy {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                    "mistimed" => SimEvent::Mistimed {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                    "deferred" => SimEvent::Deferred {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                    _ => SimEvent::BurstLoss {
                        slot,
                        sender,
                        receiver,
                        packet,
                    },
                }
            }
            "coverage_reached" => SimEvent::CoverageReached {
                slot,
                packet: f.u32("packet")?,
                holders: f.u32("holders")?,
            },
            "slot_end" => SimEvent::SlotEnd {
                slot,
                queued: f.u64("queued")?,
                active_nodes: f.u32("active_nodes")?,
            },
            "node_crashed" => SimEvent::NodeCrashed {
                slot,
                node: f.node("node")?,
            },
            "node_recovered" => SimEvent::NodeRecovered {
                slot,
                node: f.node("node")?,
            },
            "source_retry" => SimEvent::SourceRetry {
                slot,
                packet: f.u32("packet")?,
            },
            "schedule_slot" => SimEvent::ScheduleSlot {
                slot,
                node: f.node("node")?,
                period: f.u32("period")?,
                offset: f.u32("offset")?,
            },
            "packet_injected" => SimEvent::PacketInjected {
                slot,
                node: f.node("node")?,
                packet: f.u32("packet")?,
            },
            other => return Err(Error::custom(format!("unknown SimEvent tag `{other}`"))),
        })
    }
}

/// A value for a `u64` field: small, at a boundary, or anywhere.
fn draw_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..4u8) {
        0 => rng.random_range(0..1_000),
        1 => [
            0,
            9,
            10,
            u64::from(u32::MAX),
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ][rng.random_range(0..7usize)],
        _ => rng.random::<u64>() >> rng.random_range(0..64u32),
    }
}

fn draw_u32(rng: &mut StdRng) -> u32 {
    match rng.random_range(0..3u8) {
        0 => rng.random_range(0..300),
        1 => [0, 1, u32::MAX - 1, u32::MAX][rng.random_range(0..4usize)],
        _ => rng.random::<u32>() >> rng.random_range(0..32u32),
    }
}

fn draw_event(rng: &mut StdRng) -> SimEvent {
    let slot = draw_u64(rng);
    let (sender, receiver, node) = (
        NodeId(draw_u32(rng)),
        NodeId(draw_u32(rng)),
        NodeId(draw_u32(rng)),
    );
    let packet = draw_u32(rng);
    let flag = rng.random::<bool>();
    match rng.random_range(0..16u8) {
        0 => SimEvent::TxAttempt {
            slot,
            sender,
            receiver,
            packet,
            bypass_mac: flag,
        },
        1 => SimEvent::Delivered {
            slot,
            sender,
            receiver,
            packet,
            fresh: flag,
        },
        2 => SimEvent::Overheard {
            slot,
            sender,
            receiver,
            packet,
            fresh: flag,
        },
        3 => SimEvent::LinkLoss {
            slot,
            sender,
            receiver,
            packet,
        },
        4 => SimEvent::Collision {
            slot,
            sender,
            receiver,
            packet,
        },
        5 => SimEvent::ReceiverBusy {
            slot,
            sender,
            receiver,
            packet,
        },
        6 => SimEvent::Mistimed {
            slot,
            sender,
            receiver,
            packet,
        },
        7 => SimEvent::Deferred {
            slot,
            sender,
            receiver,
            packet,
        },
        8 => SimEvent::CoverageReached {
            slot,
            packet,
            holders: draw_u32(rng),
        },
        9 => SimEvent::SlotEnd {
            slot,
            queued: draw_u64(rng),
            active_nodes: draw_u32(rng),
        },
        10 => SimEvent::BurstLoss {
            slot,
            sender,
            receiver,
            packet,
        },
        11 => SimEvent::NodeCrashed { slot, node },
        12 => SimEvent::NodeRecovered { slot, node },
        13 => SimEvent::SourceRetry { slot, packet },
        14 => SimEvent::ScheduleSlot {
            slot,
            node,
            period: draw_u32(rng),
            offset: draw_u32(rng),
        },
        _ => SimEvent::PacketInjected { slot, node, packet },
    }
}

fn pick<'a>(rng: &mut StdRng, xs: &[&'a str]) -> &'a str {
    xs[rng.random_range(0..xs.len())]
}

/// JSON whitespace, often none; now and then a byte JSON does not
/// count as whitespace.
fn ws(rng: &mut StdRng) -> &'static str {
    match rng.random_range(0..100u8) {
        0..=59 => "",
        60..=69 => " ",
        70..=79 => "\t",
        80..=89 => "\r\n ",
        90..=97 => "  \n",
        _ => pick(rng, &["\u{b}", "\u{c}", "\u{a0}"]),
    }
}

/// A JSON string literal: plain, escaped, unicode, or a spelling of a
/// schema key through escapes; now and then a broken one.
fn json_string(rng: &mut StdRng) -> String {
    let good = [
        r#""x""#,
        r#""""#,
        r#""slot ""#,
        r#""s\u006cot""#,
        r#""\u0074""#,
        r#""pa\u0063ket""#,
        r#""\"""#,
        r#""é😀""#,
        r#""\ud83d\ude00""#,
        r#""a\nb\/c\\\b\f\r\t""#,
        r#""\u+041""#,
        r#""sender""#,
        r#""t""#,
        r#""fresh""#,
        r#""node""#,
    ];
    let bad = [r#""\ud800""#, r#""\q""#, r#""\u12""#, "\"open"];
    if rng.random_range(0..12u8) == 0 {
        pick(rng, &bad).to_string()
    } else {
        pick(rng, &good).to_string()
    }
}

/// Any JSON value, nested up to `depth`; now and then a near miss.
fn json_value(rng: &mut StdRng, depth: u32) -> String {
    let top = if depth == 0 { 7u8 } else { 9 };
    match rng.random_range(0..top) {
        0 => pick(rng, &["null", "true", "false"]).to_string(),
        1 => draw_u64(rng).to_string(),
        2 if rng.random_range(0..6u8) == 0 => {
            pick(rng, &["nul", "True", "-", "1e", "1.e", "+1", ".5", "0x1"]).to_string()
        }
        2 => pick(
            rng,
            &[
                "-1",
                "-0",
                "0.5",
                "1e3",
                "1E+2",
                "-2.5e-3",
                "01",
                "1.",
                "3.0",
                "-0.0",
                "18446744073709551616",
                "1e400",
                "-.5",
            ],
        )
        .to_string(),
        3..=6 => json_string(rng),
        7 => {
            let n = rng.random_range(0..4usize);
            let items: Vec<String> = (0..n).map(|_| json_value(rng, depth - 1)).collect();
            format!("[{}{}]", ws(rng), items.join(","))
        }
        _ => {
            let n = rng.random_range(0..4usize);
            let items: Vec<String> = (0..n)
                .map(|_| format!("{}:{}", json_string(rng), json_value(rng, depth - 1)))
                .collect();
            format!("{{{}}}", items.join(&format!(",{}", ws(rng))))
        }
    }
}

/// The members of the reference line for `ev` as `(key, value)` JSON
/// texts.
fn members(ev: &SimEvent) -> Vec<(String, String)> {
    let serde::Value::Object(fields) = serde_json::parse_value(&reference::line(ev)).unwrap()
    else {
        unreachable!()
    };
    fields
        .iter()
        .map(|(k, v)| {
            (
                serde_json::to_string(k).unwrap(),
                serde_json::to_string(v).unwrap(),
            )
        })
        .collect()
}

/// Respell some of the values in `m`: flags as numbers or strings, and
/// integers as integral floats, with leading zeros, or out of range —
/// for a `u32` field (a range error) or for any field (past `u64`,
/// where the reference reads a float).
fn renumber(rng: &mut StdRng, m: &mut [(String, String)]) {
    for (_, v) in m.iter_mut() {
        if (v == "true" || v == "false") && rng.random_range(0..4u8) == 0 {
            *v = pick(rng, &["0", "1", "\"true\"", "True", "null"]).to_string();
        } else if v.bytes().all(|b| b.is_ascii_digit()) {
            match rng.random_range(0..10u8) {
                0 => v.push_str(".0"),
                1 => v.push_str("e0"),
                2 => v.push_str(".000E+0"),
                3 => v.insert_str(0, "00"),
                4 => *v = (u64::from(u32::MAX) + 1 + rng.random_range(0..10u64)).to_string(),
                5 => {
                    *v = pick(
                        rng,
                        &[
                            "18446744073709551615",
                            "18446744073709551616",
                            "99999999999999999999",
                            "184467440737095516160",
                        ],
                    )
                    .to_string()
                }
                _ => {}
            }
        }
    }
}

/// The writer's own layout for `ev`, with some integers respelled: the
/// lines the parser reads, and its near misses.
fn laid_out(rng: &mut StdRng, ev: &SimEvent) -> Vec<u8> {
    let mut m = members(ev);
    renumber(rng, &mut m);
    let body: Vec<String> = m.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", body.join(",")).into_bytes()
}

/// A line that says `ev` in other words (or, with the lossy edits, says
/// something else or nothing at all).
fn variant(rng: &mut StdRng, ev: &SimEvent) -> Vec<u8> {
    let mut m = members(ev);
    // Edits that keep the meaning. The tag comes first, plain ASCII.
    if rng.random_bool(0.2) {
        // Escape one character of the tag.
        let v = &mut m[0].1;
        let inner = &v[1..v.len() - 1];
        let i = rng.random_range(0..inner.len());
        *v = format!(
            "\"{}\\u{:04x}{}\"",
            &inner[..i],
            inner.as_bytes()[i],
            &inner[i + 1..]
        );
    }
    if rng.random_bool(0.5) {
        for i in (1..m.len()).rev() {
            m.swap(i, rng.random_range(0..=i));
        }
    }
    for _ in 0..rng.random_range(0..3usize) {
        let at = rng.random_range(0..=m.len());
        m.insert(at, (json_string(rng), json_value(rng, 3)));
    }
    if rng.random_bool(0.3) {
        // A duplicate of a member.
        let i = rng.random_range(0..m.len());
        let dup = (m[i].0.clone(), json_value(rng, 1));
        m.insert(rng.random_range(0..=m.len()), dup);
    }
    renumber(rng, &mut m);
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{}{k}{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
        .collect();
    let mut line = format!("{}{{{}}}{}", ws(rng), body.join(","), ws(rng)).into_bytes();
    mutate(rng, &mut line);
    line
}

/// Now and then an edit that may break the line: truncate it, or
/// overwrite, insert or remove one byte.
fn mutate(rng: &mut StdRng, line: &mut Vec<u8>) {
    match rng.random_range(0..10u8) {
        0 => line.truncate(rng.random_range(0..line.len())),
        1 => {
            let i = rng.random_range(0..line.len());
            line[i] = if rng.random_bool(0.5) {
                rng.random::<u32>() as u8
            } else {
                b"{}[]\",:0123456789.eE+-\\ tfnu"[rng.random_range(0..27usize)]
            };
        }
        2 => {
            let i = rng.random_range(0..=line.len());
            line.insert(i, b"{}[]\",:0-e \\\xff"[rng.random_range(0..13usize)]);
        }
        3 => {
            line.remove(rng.random_range(0..line.len()));
        }
        _ => {}
    }
}

/// `line` with the leading zeros of its integers dropped.
fn without_leading_zeros(line: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(line.len());
    for (i, &b) in line.iter().enumerate() {
        let leading = out.last() == Some(&b':');
        if leading && b == b'0' && line.get(i + 1).is_some_and(u8::is_ascii_digit) {
            continue;
        }
        out.push(b);
    }
    out
}

/// Parse `line` with the direct codec and hold it to the contract in
/// the module docs. `digits_only` marks the writer's layout with its
/// integers respelled in digits, which the parser must accept exactly
/// when the reference does.
fn check(line: &[u8], digits_only: bool) -> Result<(), TestCaseError> {
    let new = SimEvent::parse_jsonl(line);
    let shown = String::from_utf8_lossy(line);
    if let Err(e) = &new {
        let e = e.to_string();
        prop_assert!(
            e.contains(" at byte ") || e.starts_with("field `"),
            "unpositioned error {e:?} for {shown}"
        );
    }
    let Ok(text) = std::str::from_utf8(line) else {
        prop_assert!(new.is_err(), "accepted invalid UTF-8 {line:?}");
        return Ok(());
    };
    if let Ok(ev) = &new {
        let mut written = Vec::new();
        ev.write_jsonl(&mut written);
        prop_assert!(
            written == without_leading_zeros(line),
            "accepted a line the writer does not write: {}",
            shown
        );
    }
    let reference = reference::parse(text);
    match (&new, &reference) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", shown),
        (Ok(a), Err(e)) => prop_assert!(false, "direct {a:?} but reference {e} for {shown}"),
        (Err(e), Ok(_)) if digits_only => {
            prop_assert!(false, "rejected the writer's layout: {e} for {shown}")
        }
        (Err(_), _) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The writer's bytes are the reference's, and parse back to the
    /// same event.
    #[test]
    fn writer_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ev = draw_event(&mut rng);
        let mut line = Vec::new();
        ev.write_jsonl(&mut line);
        let text = String::from_utf8(line.clone()).unwrap();
        prop_assert_eq!(&text, &reference::line(&ev));
        prop_assert_eq!(reference::parse(&text).unwrap(), ev);
        prop_assert_eq!(SimEvent::parse_jsonl(&line).unwrap(), ev);
    }

    /// The parser accepts the writer's layout as the reference reads
    /// it, and rejects every other variant of a line with a positioned
    /// error: each truncation of the written line, each insertion of
    /// JSON whitespace into it and some byte mutations included.
    #[test]
    fn parser_matches_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ev = draw_event(&mut rng);
        for _ in 0..8 {
            check(&variant(&mut rng, &ev), false)?;
        }
        for _ in 0..4 {
            let line = laid_out(&mut rng, &ev);
            let digits_only = !line.iter().any(|b| matches!(b, b'.' | b'e' | b'E'));
            check(&line, digits_only)?;
        }
        let mut line = Vec::new();
        ev.write_jsonl(&mut line);
        for end in 0..line.len() {
            check(&line[..end], false)?;
        }
        for at in 0..=line.len() {
            let mut spaced = line.clone();
            spaced.insert(at, b" \t\r\n"[at % 4]);
            check(&spaced, false)?;
        }
        for _ in 0..4 {
            let mut mutated = line.clone();
            mutate(&mut rng, &mut mutated);
            check(&mutated, false)?;
        }
    }
}

#[test]
fn variants_cover_every_case() {
    // The generators must reach accepted lines, range errors and other
    // rejections alike, or the property above proves little. About one
    // laid-out line in ten keeps every integer in range and in digits.
    let mut rng = StdRng::seed_from_u64(7);
    let (mut same, mut range, mut rejected) = (0, 0, 0);
    for _ in 0..4000 {
        let ev = draw_event(&mut rng);
        let lines = [
            laid_out(&mut rng, &ev),
            laid_out(&mut rng, &ev),
            variant(&mut rng, &ev),
        ];
        for line in lines {
            match SimEvent::parse_jsonl(&line) {
                Ok(got) if got == ev => same += 1,
                Ok(_) => {}
                Err(e) if e.to_string().contains("exceeds u32") => range += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(
        same > 400 && range > 100 && rejected > 400,
        "same {same}, range errors {range}, rejected {rejected}"
    );
}
