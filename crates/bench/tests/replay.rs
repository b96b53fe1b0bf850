//! End-to-end contract of the tracing pipeline: a flood traced to JSONL
//! and replayed through `ldcf_analysis::ReplayReport` reproduces the
//! engine's own `SimReport` — delays exactly, counters exactly.

use ldcf_analysis::ReplayReport;
use ldcf_bench::ExpOptions;
use ldcf_net::{LinkQuality, Topology};
use ldcf_obs::JsonlReader;
use ldcf_protocols::{Dbao, NaiveFlood, OpportunisticFlooding, Opt};
use ldcf_sim::{Engine, FloodingProtocol, JsonlSink, SimConfig, SimReport};

/// Trace one flood to an in-memory JSONL buffer, replay it, and check
/// every replayable identity against the engine's report.
fn assert_replay_matches<P: FloodingProtocol>(topo: &Topology, cfg: &SimConfig, protocol: P) {
    let engine =
        Engine::new(topo.clone(), cfg.clone(), protocol).with_observer(JsonlSink::new(Vec::new()));
    let (report, _, sink) = engine.run_traced();
    let text = String::from_utf8(sink.into_result().expect("in-memory sink")).unwrap();
    let replay =
        ReplayReport::from_source(JsonlReader::new(text.as_bytes())).expect("trace parses");
    assert_replay_eq(&replay, &report);
}

fn assert_replay_eq(replay: &ReplayReport, report: &SimReport) {
    let ctx = &report.protocol;
    assert_eq!(
        replay.mean_flooding_delay(),
        report.mean_flooding_delay(),
        "{ctx}: mean flooding delay must replay exactly"
    );
    assert_eq!(
        replay.packets.len(),
        report.packets.len(),
        "{ctx}: packet count"
    );
    for (p, (rp, st)) in replay.packets.iter().zip(&report.packets).enumerate() {
        assert_eq!(rp.pushed_at, st.pushed_at, "{ctx}: pushed_at of packet {p}");
        assert_eq!(
            rp.covered_at, st.covered_at,
            "{ctx}: covered_at of packet {p}"
        );
        assert_eq!(
            rp.flooding_delay(),
            st.flooding_delay(),
            "{ctx}: delay of packet {p}"
        );
        assert_eq!(
            rp.deliveries, st.deliveries,
            "{ctx}: deliveries of packet {p}"
        );
        assert_eq!(rp.overhears, st.overhears, "{ctx}: overhears of packet {p}");
        assert_eq!(rp.failures, st.failures, "{ctx}: failures of packet {p}");
    }
    assert_eq!(replay.slots_elapsed, report.slots_elapsed, "{ctx}: slots");
    assert_eq!(
        replay.transmissions, report.transmissions,
        "{ctx}: transmissions"
    );
    assert_eq!(
        replay.transmission_failures, report.transmission_failures,
        "{ctx}: failures"
    );
    assert_eq!(replay.collisions, report.collisions, "{ctx}: collisions");
    assert_eq!(replay.overhears, report.overhears, "{ctx}: overhears");
    assert_eq!(replay.deferrals, report.deferrals, "{ctx}: deferrals");
    assert_eq!(replay.mistimed, report.mistimed, "{ctx}: mistimed");
}

fn grid_cfg(seed: u64) -> SimConfig {
    SimConfig {
        period: 5,
        active_per_period: 1,
        n_packets: 5,
        coverage: 1.0,
        max_slots: 200_000,
        seed,
        mistiming_prob: 0.0,
    }
}

#[test]
fn every_protocol_replays_exactly_on_a_grid() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    for seed in [1, 2, 3] {
        let cfg = grid_cfg(seed);
        assert_replay_matches(&topo, &cfg, Opt::new());
        assert_replay_matches(&topo, &cfg, Dbao::new());
        assert_replay_matches(&topo, &cfg, OpportunisticFlooding::new());
        assert_replay_matches(&topo, &cfg, NaiveFlood::new());
    }
}

#[test]
fn mistimed_runs_replay_exactly() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.9));
    let cfg = SimConfig {
        mistiming_prob: 0.2,
        ..grid_cfg(7)
    };
    assert_replay_matches(&topo, &cfg, Dbao::new());
}

/// The acceptance scenario: the seeded `fig9 --quick` configuration
/// (GreenOrbs-style trace, duty 5 %, `ExpOptions::quick()`), traced to
/// JSONL and replayed, reproduces `SimReport::mean_flooding_delay()`
/// exactly for each protocol of the paper set.
#[test]
fn fig9_quick_trace_replays_mean_delay_exactly() {
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
    assert_replay_matches(&topo, &cfg, Opt::new());
    assert_replay_matches(&topo, &cfg, Dbao::new());
    assert_replay_matches(&topo, &cfg, OpportunisticFlooding::new());
}
