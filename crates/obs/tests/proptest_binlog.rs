//! Property tests for the binary trace container: arbitrary event
//! streams round-trip bit-exactly at any frame size, JSONL export is
//! line-identical to direct serialization, indexed slot queries match a
//! naive filter, and any single corrupted byte is detected.
//!
//! The reader is also fuzzed as a parser of untrusted bytes: arbitrary
//! bytes, truncated files, mutated files whose CRCs are recomputed so
//! the mutation reaches the parser, and hostile length and count
//! fields in the index and frame headers. Each must come back as an
//! `Err` (or, for a resealed mutation, a consistent decode), never a
//! panic.

use ldcf_net::NodeId;
use ldcf_obs::binlog::{crc32, BinReader, BIN_MAGIC, IDX_MAGIC};
use ldcf_obs::{BinError, BinSink, JsonlSink, SimEvent, SimObserver};
use proptest::prelude::*;
use std::io::Cursor;

/// Build one event of the given kind (0–15, declaration order) from a
/// small pool of field values.
fn build(kind: u8, slot: u64, a: u32, b: u32, p: u32, flag: bool, big: u64) -> SimEvent {
    let (sender, receiver, node) = (NodeId(a), NodeId(b), NodeId(a));
    let packet = p;
    match kind {
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
            holders: a,
        },
        9 => SimEvent::SlotEnd {
            slot,
            queued: big,
            active_nodes: a,
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
            period: b,
            offset: a,
        },
        _ => SimEvent::PacketInjected { slot, node, packet },
    }
}

fn arb_events(max: usize) -> impl Strategy<Value = Vec<SimEvent>> {
    // Nested tuples: the vendored proptest shim implements tuple
    // strategies up to arity 5.
    prop::collection::vec(
        (
            (0u8..16, 0u64..100_000),
            (0u32..4096, 0u32..4096, 0u32..256),
            (any::<bool>(), 0u64..1_000_000),
        )
            .prop_map(|((k, slot), (a, b, p), (f, big))| build(k, slot, a, b, p, f, big)),
        0..max,
    )
}

fn encode(events: &[SimEvent], frame_events: usize) -> Vec<u8> {
    let mut sink = BinSink::with_frame_events(Vec::new(), frame_events);
    for ev in events {
        sink.on_event(ev);
    }
    sink.on_finish();
    sink.into_result().expect("in-memory sink")
}

fn decode(bytes: Vec<u8>) -> Result<Vec<SimEvent>, BinError> {
    BinReader::new(Cursor::new(bytes))?.events().collect()
}

/// Everything a reader exposes of a file: the index summaries, then
/// every event. A decode that succeeds must agree with the index.
fn read_all(bytes: Vec<u8>) -> Result<Vec<SimEvent>, BinError> {
    let reader = BinReader::new(Cursor::new(bytes))?;
    let n_events = reader.n_events();
    let _ = reader.slot_span();
    let events = reader.events().collect::<Result<Vec<_>, _>>()?;
    assert_eq!(events.len() as u64, n_events, "decode disagrees with index");
    Ok(events)
}

const TRAILER_LEN: usize = 20;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Where the index starts, read from a well-formed file's trailer.
fn index_offset(bytes: &[u8]) -> usize {
    let at = bytes.len() - TRAILER_LEN;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// Recompute every frame CRC and the index CRC of a file laid out like
/// the well-formed one the frame offsets came from, so that a mutation
/// inside a frame or the index reaches the parser.
fn reseal(bytes: &mut [u8], frame_offsets: &[u64], index_at: usize) {
    let ends = frame_offsets.iter().skip(1).map(|&o| o as usize);
    for (&start, end) in frame_offsets.iter().zip(ends.chain([index_at])) {
        let start = start as usize;
        let crc = crc32(&bytes[start + 5..end]);
        bytes[start + 1..start + 5].copy_from_slice(&crc.to_le_bytes());
    }
    let trailer = bytes.len() - TRAILER_LEN;
    let crc = crc32(&bytes[index_at..trailer]);
    bytes[trailer + 8..trailer + 12].copy_from_slice(&crc.to_le_bytes());
}

/// A file from its parts: magic, the frame bytes, the index, and a
/// trailer carrying the index's offset and CRC.
fn assemble(frames: &[u8], index: &[u8]) -> Vec<u8> {
    let mut bytes = BIN_MAGIC.to_vec();
    bytes.extend_from_slice(frames);
    let index_at = bytes.len() as u64;
    bytes.extend_from_slice(index);
    bytes.extend_from_slice(&index_at.to_le_bytes());
    bytes.extend_from_slice(&crc32(index).to_le_bytes());
    bytes.extend_from_slice(&IDX_MAGIC);
    bytes
}

/// The index fields of a well-formed file, decoded:
/// `(n_frames, [(offset, min_slot, span, n_events)])`.
fn index_fields(bytes: &[u8]) -> (u64, Vec<[u64; 4]>) {
    let index = &bytes[index_offset(bytes)..bytes.len() - TRAILER_LEN];
    let mut pos = 1;
    let n = get_varint(index, &mut pos);
    let (mut off, mut min) = (0u64, 0u64);
    let unzigzag = |v: u64| ((v >> 1) as i64 ^ -((v & 1) as i64)) as u64;
    let entries = (0..n)
        .map(|_| {
            off = off.wrapping_add(unzigzag(get_varint(index, &mut pos)));
            min = min.wrapping_add(unzigzag(get_varint(index, &mut pos)));
            [
                off,
                min,
                get_varint(index, &mut pos),
                get_varint(index, &mut pos),
            ]
        })
        .collect();
    (n, entries)
}

/// Serialize index fields the way the writer does (`n_frames` first,
/// then per frame: offset and min_slot as zigzag deltas, span and
/// event count as plain varints).
fn index_bytes(n_frames: u64, entries: &[[u64; 4]]) -> Vec<u8> {
    let zigzag = |d: i64| ((d << 1) ^ (d >> 63)) as u64;
    let mut out = vec![b'I'];
    put_varint(&mut out, n_frames);
    let (mut off, mut min) = (0u64, 0u64);
    for &[o, m, span, n] in entries {
        put_varint(&mut out, zigzag(o.wrapping_sub(off) as i64));
        put_varint(&mut out, zigzag(m.wrapping_sub(min) as i64));
        put_varint(&mut out, span);
        put_varint(&mut out, n);
        (off, min) = (o, m);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for any event stream and any
    /// frame size (including frames much smaller than the stream).
    #[test]
    fn roundtrip_any_stream(events in arb_events(600), frame in 1usize..300) {
        let decoded = decode(encode(&events, frame)).expect("container decodes");
        prop_assert_eq!(decoded, events);
    }

    /// Exporting a binary trace to JSONL reproduces, line for line, the
    /// bytes a direct JSONL sink would have written for the same run —
    /// the identity CI relies on when diffing exported traces against
    /// pinned baselines.
    #[test]
    fn export_is_line_identical_to_direct_jsonl(events in arb_events(300), frame in 1usize..128) {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in &events {
            sink.on_event(ev);
        }
        sink.on_finish();
        let direct = sink.into_result().expect("in-memory sink");
        let mut exported = Vec::new();
        for ev in decode(encode(&events, frame)).expect("container decodes") {
            ev.write_jsonl(&mut exported);
            exported.push(b'\n');
        }
        prop_assert_eq!(exported, direct);
    }

    /// An indexed slot-range query returns exactly the events a naive
    /// full-stream filter would, without decoding more frames than the
    /// file holds.
    #[test]
    fn query_matches_naive_filter(
        events in arb_events(600),
        frame in 1usize..128,
        lo in 0u64..100_000,
        span in 1u64..100_000,
    ) {
        let hi = lo.saturating_add(span);
        let naive: Vec<SimEvent> = events
            .iter()
            .filter(|ev| ev.slot() >= lo && ev.slot() < hi)
            .copied()
            .collect();
        let reader = BinReader::new(Cursor::new(encode(&events, frame))).expect("opens");
        let total = reader.frames().len();
        let (iter, scanned) = reader.events_in(lo, hi);
        let got: Vec<SimEvent> = iter.collect::<Result<_, _>>().expect("query decodes");
        prop_assert_eq!(got, naive);
        prop_assert!(scanned <= total, "scanned {scanned} of {total} frames");
    }

    /// Flipping any single byte anywhere in the container — header,
    /// frame, index or trailer — is detected as an error.
    #[test]
    fn corruption_is_detected(
        events in arb_events(200),
        frame in 1usize..64,
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&events, frame);
        let idx = pos % bytes.len();
        bytes[idx] ^= mask;
        prop_assert!(
            decode(bytes).is_err(),
            "flipping byte {idx} with mask {mask:#x} went undetected"
        );
    }

    /// Arbitrary bytes are rejected, also when they carry both magics
    /// so that the trailer's index offset and CRC get parsed.
    #[test]
    fn arbitrary_bytes_are_rejected(
        body in prop::collection::vec(any::<u8>(), 0..256),
        framed in any::<bool>(),
    ) {
        let bytes = if framed {
            [&BIN_MAGIC[..], &body[..], &IDX_MAGIC[..]].concat()
        } else {
            body
        };
        prop_assert!(read_all(bytes).is_err());
    }

    /// Every proper prefix of a trace is rejected.
    #[test]
    fn truncated_files_are_rejected(
        events in arb_events(200),
        frame in 1usize..64,
        cut in any::<usize>(),
    ) {
        let mut bytes = encode(&events, frame);
        bytes.truncate(cut % bytes.len());
        prop_assert!(read_all(bytes).is_err());
    }

    /// A byte flipped inside a frame or the index, with the CRCs
    /// recomputed around it, reaches the parser: it decodes to a stream
    /// consistent with the index or fails with an error, and never
    /// panics.
    #[test]
    fn resealed_mutations_never_panic(
        events in arb_events(200),
        frame in 1usize..64,
        pos in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = encode(&events, frame);
        let offsets: Vec<u64> = index_fields(&bytes).1.iter().map(|e| e[0]).collect();
        let index_at = index_offset(&bytes);
        let body = bytes.len() - TRAILER_LEN - BIN_MAGIC.len();
        bytes[BIN_MAGIC.len() + pos % body] ^= mask;
        reseal(&mut bytes, &offsets, index_at);
        let _ = read_all(bytes);
    }

    /// An index whose frame count, or one frame's event count, differs
    /// from the file's is rejected, and so is a slot span that
    /// overflows: whatever the value, resealed with a valid CRC.
    #[test]
    fn hostile_index_counts_are_rejected(
        events in arb_events(200),
        frame in 1usize..64,
        field in 0u8..3,
        at in any::<usize>(),
        value in any::<u64>(),
        small in any::<bool>(),
    ) {
        // Half the cases claim a count near the real one.
        let value = if small { value % 64 } else { value };
        let bytes = encode(&events, frame);
        let (n_frames, mut entries) = index_fields(&bytes);
        prop_assume!(!entries.is_empty());
        let k = at % entries.len();
        let n = match field {
            0 => {
                prop_assume!(value != n_frames);
                value
            }
            1 => {
                prop_assume!(value != entries[k][3]);
                entries[k][3] = value;
                n_frames
            }
            _ => {
                entries[k][1] = u64::MAX - value % 1024;
                entries[k][2] = 1024 + value / 2;
                n_frames
            }
        };
        let frames = &bytes[BIN_MAGIC.len()..index_offset(&bytes)];
        prop_assert!(read_all(assemble(frames, &index_bytes(n, &entries))).is_err());
    }

    /// A single-frame trace whose frame header claims another event
    /// count or payload length is rejected, with the frame CRC computed
    /// over the bytes the reader will check.
    #[test]
    fn hostile_frame_headers_are_rejected(
        events in arb_events(200),
        payload_len in any::<bool>(),
        value in any::<u64>(),
        small in any::<bool>(),
    ) {
        prop_assume!(!events.is_empty());
        // Half the cases claim a value near the real one.
        let value = if small { value % 4096 } else { value };
        let bytes = encode(&events, events.len());
        let (_, entries) = index_fields(&bytes);
        let index_at = index_offset(&bytes);
        let frame = &bytes[BIN_MAGIC.len()..index_at];
        let mut pos = 5;
        let mut header: Vec<u64> = (0..4).map(|_| get_varint(frame, &mut pos)).collect();
        let payload = &frame[pos..];
        let field = if payload_len { 3 } else { 0 };
        prop_assume!(value != header[field]);
        header[field] = value;

        let mut hostile = Vec::new();
        for v in &header {
            put_varint(&mut hostile, *v);
        }
        // What the reader hashes: the header, then `payload_len` bytes
        // of whatever follows it (a claim that reaches the trailer
        // fails there, CRC or not).
        let index = index_bytes(1, &entries);
        let rest = [payload, &index[..]].concat();
        let claimed = usize::try_from(header[3]).unwrap_or(usize::MAX).min(rest.len());
        let crc = crc32(&[&hostile[..], &rest[..claimed]].concat());
        let new_frame = [&[b'F'][..], &crc.to_le_bytes()[..], &hostile[..], payload].concat();
        prop_assert!(read_all(assemble(&new_frame, &index)).is_err());
    }
}
