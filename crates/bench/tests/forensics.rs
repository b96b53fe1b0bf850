//! End-to-end contract of the forensics layer on the acceptance
//! scenario: the seeded `fig9 --quick` GreenOrbs flood, traced to JSONL
//! and reconstructed through `ldcf_analysis::ForensicsReport`, must
//! attribute every node's flooding delay *exactly*, rebuild spanning
//! dissemination trees, respect Corollary 1 on the oracle run, and
//! reproduce `SimReport::mean_flooding_delay()` to the bit.

use ldcf_analysis::ForensicsReport;
use ldcf_bench::ExpOptions;
use ldcf_obs::JsonlReader;
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::{Engine, FloodingProtocol, JsonlSink, SimConfig};

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

/// Trace one fig9-quick flood and run the full forensic checks against
/// the engine's own report.
fn verify_attribution<P: FloodingProtocol>(protocol: P, expect_oracle: bool) {
    let (topo, cfg) = fig9_quick_cfg();
    let engine = Engine::new(topo, cfg, protocol).with_observer(JsonlSink::new(Vec::new()));
    let (report, _, sink) = engine.run_traced();
    let text = String::from_utf8(sink.into_result().expect("in-memory sink")).unwrap();
    let forensics = ForensicsReport::from_source(JsonlReader::new(text.as_bytes()))
        .expect("trace reconstructs");
    let ctx = &report.protocol;

    // Hard theory checks all pass: exact attribution, spanning trees,
    // and (on the oracle run) the Corollary 1 blocking bound.
    assert!(
        forensics.is_clean(),
        "{ctx}: theory violations: {:?}",
        forensics.violations
    );
    assert_eq!(forensics.oracle, expect_oracle, "{ctx}: oracle detection");

    // The tracing schema carries the full roster.
    assert_eq!(forensics.n_nodes, 299, "{ctx}: GreenOrbs roster");
    assert_eq!(forensics.m, 9, "{ctx}: m = ceil(log2(299))");
    assert_eq!(forensics.blocking_bound, 8, "{ctx}: Corollary 1 bound");

    // Mean flooding delay replays bit-for-bit from the trees alone.
    assert_eq!(
        forensics.mean_flooding_delay,
        report.mean_flooding_delay(),
        "{ctx}: mean flooding delay must reconstruct exactly"
    );

    assert_eq!(
        forensics.packets.len(),
        report.packets.len(),
        "{ctx}: packet count"
    );
    for (pf, st) in forensics.packets.iter().zip(&report.packets) {
        let p = pf.packet;
        // verify_attribution: every informed node's five components sum
        // exactly to its flooding delay (per-node, not just on average).
        for nf in &pf.nodes {
            assert_eq!(
                nf.attribution.total(),
                nf.delay,
                "{ctx}: packet {p} node {} attribution must sum to its delay",
                nf.node
            );
            assert!(
                nf.informed_at >= pf.pushed_at,
                "{ctx}: packet {p} informed before push"
            );
        }

        // The tree spans the informed set: exactly one fresh-copy
        // parent per informed node, so the node count equals the
        // engine's fresh deliveries + fresh overhears.
        assert_eq!(
            pf.nodes.len() as u32,
            st.deliveries + st.overhears,
            "{ctx}: packet {p} tree must span all informed nodes"
        );

        // Lifecycle endpoints match the engine report.
        assert_eq!(Some(pf.pushed_at), st.pushed_at, "{ctx}: packet {p} push");
        assert_eq!(pf.covered_at, st.covered_at, "{ctx}: packet {p} coverage");

        // The critical path ends at the covering node and its chain
        // attribution totals the packet's flooding delay exactly.
        if let Some(delay) = pf.flooding_delay() {
            let ca = pf.coverage_attribution.expect("covered packet has a path");
            assert_eq!(
                ca.total(),
                delay,
                "{ctx}: packet {p} critical-path attribution must equal its delay"
            );
            assert!(
                !pf.critical_path.is_empty(),
                "{ctx}: packet {p} covered without a critical path"
            );
            assert_eq!(
                pf.critical_path.last().unwrap().slot,
                pf.covered_at.unwrap(),
                "{ctx}: packet {p} critical path must end at the covering copy"
            );
        }
    }

    // Aggregate identity: summing per-packet trees reproduces the
    // grand totals.
    let mut sum = ldcf_analysis::DelayAttribution::default();
    for pf in &forensics.packets {
        sum.merge(&pf.attribution);
    }
    assert_eq!(sum, forensics.totals, "{ctx}: totals telescope");
}

#[test]
fn fig9_quick_attribution_verifies_for_opt() {
    // The oracle run: Corollary 1 is *enforced* here, and on this seed
    // the bound is tight (max observed blocking = m - 1 = 8).
    verify_attribution(Opt::new(), true);
}

#[test]
fn fig9_quick_attribution_verifies_for_dbao() {
    verify_attribution(Dbao::new(), false);
}

#[test]
fn fig9_quick_attribution_verifies_for_opportunistic() {
    verify_attribution(OpportunisticFlooding::new(), false);
}
