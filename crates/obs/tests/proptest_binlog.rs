//! Property tests for the binary trace container: arbitrary event
//! streams round-trip bit-exactly at any frame size, JSONL export is
//! line-identical to direct serialization, indexed slot queries match a
//! naive filter, and any single corrupted byte is detected.

use ldcf_net::NodeId;
use ldcf_obs::binlog::BinReader;
use ldcf_obs::{BinSink, JsonlSink, SimEvent, SimObserver};
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

fn decode(bytes: Vec<u8>) -> Result<Vec<SimEvent>, ldcf_obs::BinError> {
    BinReader::new(Cursor::new(bytes))?.events().collect()
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
}
