//! End-to-end contract of the binary trace pipeline on the acceptance
//! scenario: one seeded `fig9 --quick` GreenOrbs flood traced to JSONL
//! and binary *simultaneously* (tuple observer), then the binary side
//! must export byte-identically, compress ≥ 4×, and feed forensics and
//! replay to the same reports as the JSONL side.

use ldcf_analysis::{ForensicsReport, ReplayReport};
use ldcf_bench::ExpOptions;
use ldcf_obs::binlog::BinReader;
use ldcf_obs::JsonlReader;
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::{BinSink, Engine, FloodingProtocol, JsonlSink, SimConfig};
use std::io::Cursor;

fn fig9_quick_cfg() -> (ldcf_net::Topology, SimConfig) {
    let opts = ExpOptions::quick();
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let period = 100;
    let cfg = SimConfig {
        period,
        active_per_period: ((0.05 * period as f64).round() as u32).max(1),
        n_packets: opts.m,
        coverage: opts.coverage,
        max_slots: opts.max_slots,
        seed: opts.seeds[0],
        mistiming_prob: 0.0,
    };
    (topo, cfg)
}

/// Trace one fig9-quick flood to both sinks at once and return
/// `(jsonl_text, bin_bytes)`.
fn trace_both<P: FloodingProtocol>(protocol: P) -> (String, Vec<u8>) {
    let (topo, cfg) = fig9_quick_cfg();
    let engine = Engine::new(topo, cfg, protocol)
        .with_observer((JsonlSink::new(Vec::new()), BinSink::new(Vec::new())));
    let (_, _, (jsonl, bin)) = engine.run_traced();
    let text = String::from_utf8(jsonl.into_result().expect("in-memory sink")).unwrap();
    let bytes = bin.into_result().expect("in-memory sink");
    (text, bytes)
}

fn verify_pipeline<P: FloodingProtocol>(protocol: P) {
    let (jsonl, bin) = trace_both(protocol);

    // Export identity: decoding the binary container and re-serializing
    // line by line reproduces the JSONL sink's bytes exactly.
    let reader = BinReader::new(Cursor::new(bin.clone())).expect("container opens");
    let mut exported = Vec::new();
    for ev in reader.events() {
        ev.expect("frame decodes").write_jsonl(&mut exported);
        exported.push(b'\n');
    }
    assert_eq!(
        String::from_utf8(exported).unwrap(),
        jsonl,
        "binary export must be byte-identical"
    );

    // Compression: the acceptance bar is ≥ 4× smaller than JSONL.
    let ratio = jsonl.len() as f64 / bin.len() as f64;
    assert!(
        ratio >= 4.0,
        "compression ratio {ratio:.2}x below the 4x acceptance bar \
         ({} jsonl bytes vs {} bin bytes)",
        jsonl.len(),
        bin.len()
    );

    // Forensics agree to the byte from either format.
    let from_jsonl =
        ForensicsReport::from_source(JsonlReader::new(jsonl.as_bytes())).expect("jsonl forensics");
    let from_bin =
        ForensicsReport::from_source(BinReader::new(Cursor::new(bin.clone())).unwrap().events())
            .expect("bin forensics");
    assert_eq!(
        from_bin.to_json_pretty(),
        from_jsonl.to_json_pretty(),
        "forensics reports must be identical across formats"
    );

    // Replay agrees as well.
    let replay_jsonl =
        ReplayReport::from_source(JsonlReader::new(jsonl.as_bytes())).expect("jsonl replay");
    let replay_bin = ReplayReport::from_source(BinReader::new(Cursor::new(bin)).unwrap().events())
        .expect("bin replay");
    assert_eq!(
        replay_bin, replay_jsonl,
        "replay reports must be identical across formats"
    );
}

#[test]
fn fig9_quick_binlog_pipeline_for_opt() {
    verify_pipeline(Opt::new());
}

#[test]
fn fig9_quick_binlog_pipeline_for_dbao() {
    verify_pipeline(Dbao::new());
}

#[test]
fn fig9_quick_binlog_pipeline_for_opportunistic() {
    verify_pipeline(OpportunisticFlooding::new());
}

/// The indexed query on a real trace returns the same events as a
/// naive filter over the full decode, while skipping frames.
#[test]
fn fig9_quick_indexed_query_matches_naive() {
    let (_, bin) = trace_both(Dbao::new());
    let all: Vec<_> = BinReader::new(Cursor::new(bin.clone()))
        .unwrap()
        .events()
        .collect::<Result<_, _>>()
        .unwrap();
    let (lo, hi) = (500u64, 1500u64);
    let naive: Vec<_> = all
        .iter()
        .filter(|ev| ev.slot() >= lo && ev.slot() < hi)
        .copied()
        .collect();
    let reader = BinReader::new(Cursor::new(bin)).unwrap();
    let total = reader.frames().len();
    let (iter, scanned) = reader.events_in(lo, hi);
    let got: Vec<_> = iter.collect::<Result<_, _>>().unwrap();
    assert_eq!(got, naive);
    assert!(
        scanned < total,
        "index must skip frames on a narrow range ({scanned}/{total} decoded)"
    );
}
