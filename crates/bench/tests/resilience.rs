//! Degradation-curve contract of the `resilience` artefact: raising the
//! fault intensity must never make the flood *better*.
//!
//! Checked at the grid endpoints (intensity 0 vs 1) per paper protocol:
//! coverage is non-increasing, and either coverage drops or the mean
//! flooding delay grows. At intensity 1 the fault machinery must be
//! visibly at work (crashes and drift misses observed).

use ldcf_bench::resilience::resilience_sweep;
use ldcf_bench::{ExpOptions, ProtocolKind, Runner};

#[test]
fn endpoint_degradation_is_monotone() {
    let opts = ExpOptions {
        m: 10,
        seeds: vec![1],
        max_slots: 600_000,
        ..ExpOptions::quick()
    };
    let cells = resilience_sweep(
        &Runner::default(),
        &opts,
        &ProtocolKind::paper_set(),
        &[0.0, 1.0],
    );
    assert_eq!(cells.len(), 6);
    for kind in ProtocolKind::paper_set() {
        let at = |x: f64| {
            cells
                .iter()
                .find(|c| c.kind == kind && c.intensity == x)
                .expect("cell present")
        };
        let (clean, harsh) = (at(0.0), at(1.0));
        assert!(
            clean.coverage_rate > 0.0,
            "{}: clean run must cover packets",
            kind.name()
        );
        assert!(
            harsh.coverage_rate <= clean.coverage_rate,
            "{}: coverage must not improve under faults ({} -> {})",
            kind.name(),
            clean.coverage_rate,
            harsh.coverage_rate
        );
        assert!(
            harsh.coverage_rate < clean.coverage_rate || harsh.mean_delay >= clean.mean_delay,
            "{}: full-intensity faults must cost coverage or delay \
             (coverage {} -> {}, delay {} -> {})",
            kind.name(),
            clean.coverage_rate,
            harsh.coverage_rate,
            clean.mean_delay,
            harsh.mean_delay
        );
        assert_eq!(clean.crashes, 0.0, "{}: no faults at 0", kind.name());
        assert_eq!(clean.mistimed, 0.0, "{}: no faults at 0", kind.name());
        assert!(
            harsh.crashes > 0.0 && harsh.mistimed > 0.0,
            "{}: churn and drift must fire at intensity 1 \
             (crashes {}, drift misses {})",
            kind.name(),
            harsh.crashes,
            harsh.mistimed
        );
    }
}
