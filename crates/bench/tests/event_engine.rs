//! The event-driven engine's correctness contract, end to end: over
//! randomized workloads (topology shape, duty, faults, staggered
//! injections, mistiming) the event engine must produce artefacts
//! byte-identical to the slot-stepped reference — same `SimReport`
//! JSON, same `EnergyLedger` JSON, same event stream — whether the
//! schedules share one period or mix several (the wake calendar then
//! spans their LCM, and the event engine still skips).

use ldcf_net::{LinkQuality, NeighborTable, NodeId, Topology, WorkingSchedule};
use ldcf_protocols::{Dbao, NaiveFlood, OpportunisticFlooding, Opt};
use ldcf_scenarios::{BuiltScenario, ScenarioSpec};
use ldcf_sim::energy::EnergyLedger;
use ldcf_sim::{
    Engine, EngineKind, FaultConfig, FloodingProtocol, Injection, PhaseProfiler, SimConfig,
    SimReport, VecObserver,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the same workload under both engine kinds and require artefact
/// byte-identity. `fault_intensity` switches the composed fault stack
/// (loss bursts, degradation, drift, churn) on at the given intensity.
/// Returns the event engine's dispatched and elapsed slot counts.
fn assert_engines_agree<P: FloodingProtocol>(
    mk: impl Fn() -> P,
    topo: &Topology,
    cfg: &SimConfig,
    schedules: &NeighborTable,
    plan: &[Injection],
    fault_intensity: Option<f64>,
) -> (u64, u64) {
    let run = |kind: EngineKind| -> (SimReport, EnergyLedger, VecObserver, u64) {
        // The profiler counts dispatched slots; it reads clocks only.
        let mut prof = PhaseProfiler::new();
        let engine =
            Engine::with_injections(topo.clone(), cfg.clone(), schedules.clone(), plan, mk())
                .with_observer(VecObserver::default())
                .with_engine_kind(kind)
                .with_profiler(&mut prof);
        let (report, energy, obs) = match fault_intensity {
            Some(i) => engine
                .with_faults(FaultConfig::at_intensity(cfg.seed, i).build())
                .run_traced(),
            None => engine.run_traced(),
        };
        (report, energy, obs, prof.slots())
    };
    let (r_slot, e_slot, o_slot, _) = run(EngineKind::Slot);
    let (r_event, e_event, o_event, dispatched) = run(EngineKind::Event);
    assert_eq!(
        serde_json::to_string(&r_slot).unwrap(),
        serde_json::to_string(&r_event).unwrap(),
        "SimReport must be byte-identical across engine kinds"
    );
    assert_eq!(
        serde_json::to_string(&e_slot).unwrap(),
        serde_json::to_string(&e_event).unwrap(),
        "EnergyLedger must be byte-identical across engine kinds"
    );
    assert_eq!(
        o_slot.events.len(),
        o_event.events.len(),
        "event streams must have identical length"
    );
    assert_eq!(
        o_slot.events, o_event.events,
        "event streams must be identical"
    );
    (dispatched, r_event.slots_elapsed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential contract over a randomized workload space. Each
    /// case draws a topology (a grid, or a unit-density random geometric
    /// graph of the same node count), a duty cycle (one period, or each
    /// node's period from `period`, `2 × period` and `3 × period`), a
    /// protocol, an injection cadence (up to 1 500 slots between
    /// packets, a dead span the event engine skips), and optionally the
    /// full fault stack; the two engines must agree byte for byte.
    #[test]
    fn event_engine_is_byte_identical_to_slot_engine(
        rows in 2usize..5,
        cols in 2usize..6,
        period in 4u32..48,
        seed in 0u64..1_000,
        m in 1u32..4,
        gap_i in 0usize..4,
        mist_i in 0usize..2,
        proto in 0usize..4,
        fault_i in 0usize..3,
        mixed in any::<bool>(),
        rgg in any::<bool>(),
    ) {
        let gap = [0u64, 7, 300, 1_500][gap_i];
        let mistiming = [0.0f64, 0.05][mist_i];
        let fault_intensity = [None, Some(0.4), Some(1.0)][fault_i];
        let topo = if rgg {
            let n = rows * cols;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1e);
            Topology::random_geometric(n, (n as f64).sqrt(), 2.2, 0.95, 0.6, &mut rng)
        } else {
            Topology::grid(rows, cols, LinkQuality::new(0.85))
        };
        let cfg = SimConfig {
            period,
            active_per_period: 1,
            n_packets: m,
            coverage: 1.0,
            max_slots: 60_000,
            seed,
            mistiming_prob: mistiming,
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
        let schedules = if mixed {
            NeighborTable::new(
                (0..topo.n_nodes())
                    .map(|i| WorkingSchedule::single_random(period * (1 + i as u32 % 3), &mut rng))
                    .collect(),
            )
        } else {
            NeighborTable::random_single_slot(topo.n_nodes(), period, &mut rng)
        };
        let plan: Vec<Injection> = (0..m as u64)
            .map(|k| Injection { origin: NodeId(0), slot: k * gap })
            .collect();
        match proto {
            0 => assert_engines_agree(NaiveFlood::new, &topo, &cfg, &schedules, &plan, fault_intensity),
            1 => assert_engines_agree(OpportunisticFlooding::new, &topo, &cfg, &schedules, &plan, fault_intensity),
            2 => assert_engines_agree(Dbao::new, &topo, &cfg, &schedules, &plan, fault_intensity),
            _ => assert_engines_agree(Opt::new, &topo, &cfg, &schedules, &plan, fault_intensity),
        };
    }
}

/// The scale-case shape in miniature: OPT on a unit-density random
/// geometric graph (radius 2.2) at duty 1/25, with a second injection
/// 1 500 slots after the first. Both engines reach the same slot count
/// and bytes, the run lasts past the second injection, and the event
/// engine dispatches fewer slots than elapse across the dead span.
#[test]
fn rgg_injections_far_apart_reach_equal_slots_on_both_engines() {
    let n = 400;
    let mut rng = StdRng::seed_from_u64(9001);
    let topo = Topology::random_geometric(n, (n as f64).sqrt(), 2.2, 0.95, 0.6, &mut rng);
    let schedules = NeighborTable::random_single_slot(n, 25, &mut rng);
    let plan = [
        Injection {
            origin: NodeId(0),
            slot: 0,
        },
        Injection {
            origin: NodeId(0),
            slot: 1_500,
        },
    ];
    let cfg = SimConfig {
        period: 25,
        active_per_period: 1,
        n_packets: 2,
        coverage: 0.95,
        max_slots: 4_000,
        seed: 9001 ^ 0x5ca1e,
        mistiming_prob: 0.0,
    };
    let (dispatched, elapsed) =
        assert_engines_agree(Opt::new, &topo, &cfg, &schedules, &plan, None);
    assert!(elapsed > 1_500, "the second injection must be reached");
    assert!(
        dispatched < elapsed,
        "{dispatched} of {elapsed} slots dispatched: the dead span must be skipped"
    );
}

/// Heterogeneous-period schedules get a wake calendar over the LCM of
/// their periods, so the event engine skips on them as on equal
/// periods: it matches the slot-stepped reference byte for byte while
/// dispatching fewer slots than it elapses. The schedules come from a
/// seeded ldcf-scenarios spec with the `heterogeneous` schedule model,
/// as a campaign would draw them.
#[test]
fn event_engine_skips_on_heterogeneous_schedules() {
    let spec = ScenarioSpec::from_toml_str(
        r#"
        [scenario]
        name = "hetero-calendar"
        description = "mixed periods share one LCM wake calendar"

        [topology]
        kind = "grid"
        rows = 4
        cols = 4
        prr = 0.9

        [schedule]
        model = "heterogeneous"
        periods = [8, 16, 32]

        [workload]
        kind = "single-flood"
        packets = 2
        coverage = 1.0
        max_slots = 60000

        [matrix]
        protocols = ["naive"]
        duties = [0.1]
        seeds = [3]
        "#,
    )
    .expect("spec parses");
    let built = BuiltScenario::build(spec).expect("scenario builds");
    let schedules = built.schedules(0.1, 3);
    assert_eq!(schedules.calendar_period(), 32, "lcm(8, 16, 32)");
    let cfg = SimConfig {
        period: 16,
        active_per_period: 1,
        n_packets: 2,
        coverage: 1.0,
        max_slots: 60_000,
        seed: 3,
        mistiming_prob: 0.02,
    };
    let (dispatched, elapsed) = assert_engines_agree(
        NaiveFlood::new,
        &built.topology,
        &cfg,
        &schedules,
        &built.injections,
        None,
    );
    assert!(
        dispatched < elapsed,
        "mixed periods must skip: {dispatched} of {elapsed} slots dispatched"
    );
    // Under the full fault stack too; churn recoveries redraw schedules
    // within each node's own period, so the calendar period stands.
    let (dispatched, elapsed) = assert_engines_agree(
        NaiveFlood::new,
        &built.topology,
        &cfg,
        &schedules,
        &built.injections,
        Some(0.6),
    );
    assert!(
        dispatched < elapsed,
        "mixed periods must skip under faults: {dispatched} of {elapsed} slots dispatched"
    );
}
