//! Accounting identities tying the three ledgers of a run together:
//! the `SimReport`, the `EnergyLedger`, and the observer event stream.
//! Every joule and every counter must be attributable to events.

use ldcf_bench::{ProtocolKind, RunRequest, Runner};
use ldcf_net::{bitset, LinkQuality, NeighborTable, NodeId, Topology};
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::{
    Engine, EngineKind, FaultConfig, FaultPlan, FloodingProtocol, Injection, NullObserver,
    SimConfig, SimEvent, SimState, VecObserver,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cfg(seed: u64, mistiming: f64) -> SimConfig {
    SimConfig {
        period: 5,
        active_per_period: 1,
        n_packets: 4,
        coverage: 1.0,
        max_slots: 200_000,
        seed,
        mistiming_prob: mistiming,
    }
}

/// Energy is attributable: every transmission slot in the ledger is a
/// committed (or mistimed) transmission in the report, every failed one
/// a reported failure, and scheduled duty cycling partitions all
/// node-slots into active + sleeping.
#[test]
fn energy_ledger_matches_report_for_all_protocols() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    let n_nodes = topo.n_nodes() as u64;
    let runner = Runner::default();
    for kind in [
        ProtocolKind::Opt,
        ProtocolKind::Dbao,
        ProtocolKind::DbaoNoOverhear,
        ProtocolKind::Of,
        ProtocolKind::OfPureTree,
        ProtocolKind::Naive,
    ] {
        for seed in [1, 2, 3, 4, 5] {
            for mistiming in [0.0, 0.15] {
                let cfg = cfg(seed, mistiming);
                let out = runner.run(RunRequest::new(&topo, &cfg, kind));
                let (report, energy) = (out.report, out.energy);
                let ctx = format!("{} seed {seed} mistiming {mistiming}", kind.name());
                assert_eq!(energy.tx_slots, report.transmissions, "{ctx}: tx_slots");
                assert_eq!(
                    energy.failed_tx_slots, report.transmission_failures,
                    "{ctx}: failed_tx_slots"
                );
                assert!(
                    energy.failed_tx_slots <= energy.tx_slots,
                    "{ctx}: failures bounded"
                );
                assert_eq!(
                    energy.active_slots + energy.sleep_slots,
                    n_nodes * report.slots_elapsed,
                    "{ctx}: duty-cycle slots partition node-slots"
                );
                // Receptions (including duplicates) are at least the
                // fresh copies the report counts.
                let fresh: u64 = report
                    .packets
                    .iter()
                    .map(|p| (p.deliveries + p.overhears) as u64)
                    .sum();
                assert!(
                    energy.rx_slots >= fresh,
                    "{ctx}: rx_slots cover fresh copies"
                );
            }
        }
    }
}

/// The event stream is complete: counting events reproduces every
/// aggregate counter of the report.
#[test]
fn observed_event_counts_match_report() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    for seed in [1, 2, 3] {
        for mistiming in [0.0, 0.2] {
            let engine = Engine::new(topo.clone(), cfg(seed, mistiming), Dbao::new())
                .with_observer(VecObserver::default());
            let (report, _, obs) = engine.run_traced();
            let count =
                |f: &dyn Fn(&SimEvent) -> bool| obs.events.iter().filter(|e| f(e)).count() as u64;
            let ctx = format!("seed {seed} mistiming {mistiming}");

            let tx = count(&|e| matches!(e, SimEvent::TxAttempt { .. }));
            let mistimed = count(&|e| matches!(e, SimEvent::Mistimed { .. }));
            let losses = count(&|e| matches!(e, SimEvent::LinkLoss { .. }));
            let collisions = count(&|e| matches!(e, SimEvent::Collision { .. }));
            let busy = count(&|e| matches!(e, SimEvent::ReceiverBusy { .. }));
            assert_eq!(tx + mistimed, report.transmissions, "{ctx}: transmissions");
            assert_eq!(mistimed, report.mistimed, "{ctx}: mistimed");
            assert_eq!(
                losses + collisions + busy + mistimed,
                report.transmission_failures,
                "{ctx}: failures"
            );
            assert_eq!(collisions, report.collisions, "{ctx}: collisions");
            assert_eq!(
                count(&|e| matches!(e, SimEvent::Overheard { fresh: true, .. })),
                report.overhears,
                "{ctx}: overhears"
            );
            assert_eq!(
                count(&|e| matches!(e, SimEvent::Deferred { .. })),
                report.deferrals,
                "{ctx}: deferrals"
            );
            assert_eq!(
                count(&|e| matches!(e, SimEvent::SlotEnd { .. })),
                report.slots_elapsed,
                "{ctx}: slots"
            );
            // Coverage milestones: exactly one per covered packet, at
            // the recorded slot.
            let covered: Vec<(u32, u64)> = obs
                .events
                .iter()
                .filter_map(|e| match *e {
                    SimEvent::CoverageReached { slot, packet, .. } => Some((packet, slot)),
                    _ => None,
                })
                .collect();
            let expected: Vec<(u32, u64)> = report
                .packets
                .iter()
                .filter_map(|p| p.covered_at.map(|s| (p.packet, s)))
                .collect();
            let mut sorted = covered.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, expected, "{ctx}: coverage milestones");
        }
    }
}

/// Attaching an observer must not change the simulation: same seed,
/// same report, observed or not.
#[test]
fn observation_does_not_perturb_the_run() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    let c = cfg(9, 0.1);
    let (plain, plain_energy) = Engine::new(topo.clone(), c.clone(), Dbao::new()).run();
    let (traced, traced_energy, obs) = Engine::new(topo, c, Dbao::new())
        .with_observer(VecObserver::default())
        .run_traced();
    assert!(!obs.events.is_empty());
    assert_eq!(plain.slots_elapsed, traced.slots_elapsed);
    assert_eq!(plain.transmissions, traced.transmissions);
    assert_eq!(plain.transmission_failures, traced.transmission_failures);
    assert_eq!(plain.mean_flooding_delay(), traced.mean_flooding_delay());
    assert_eq!(plain_energy.tx_slots, traced_energy.tx_slots);
    assert_eq!(plain_energy.active_slots, traced_energy.active_slots);
}

/// The queued-packet rows are the queues' packet sets, exactly: bit `p`
/// of `queued_words(u)` is set iff `p` is in `u`'s FCFS queue (each
/// packet once), the queue is as long as the row's popcount, and `u`'s
/// work bit is set iff that row is non-zero.
fn assert_queued_rows_exact(s: &SimState, ctx: &str) {
    for ui in 0..s.n_nodes() {
        let u = NodeId::from(ui);
        let row = s.queued_words(u);
        let mut from_queue = vec![0u64; row.len()];
        for &p in s.queue(u) {
            assert!(
                bitset::set_bit(&mut from_queue, p as usize),
                "{ctx}: packet {p} queued twice at {u}"
            );
        }
        assert_eq!(row, &from_queue[..], "{ctx}: queued row of {u}");
        let popcount: u32 = row.iter().map(|w| w.count_ones()).sum();
        assert_eq!(
            s.queue(u).len(),
            popcount as usize,
            "{ctx}: queue length of {u}"
        );
        assert_eq!(
            bitset::test_bit(s.work_words(), ui),
            row.iter().any(|&w| w != 0),
            "{ctx}: work bit of {u}"
        );
    }
}

/// A random connected topology: a random tree plus `n / 2` extra
/// links, qualities in `[0.3, 1]`.
fn random_topology(n: usize, rng: &mut StdRng) -> Topology {
    let mut topo = Topology::empty(n);
    let quality = |rng: &mut StdRng| LinkQuality::new(rng.random_range(0.3..=1.0));
    for i in 1..n {
        let parent = rng.random_range(0..i);
        let q = quality(rng);
        topo.add_edge(NodeId::from(parent), NodeId::from(i), q, q);
    }
    for _ in 0..n / 2 {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        if a != b && !topo.are_neighbors(NodeId::from(a), NodeId::from(b)) {
            let q = quality(rng);
            topo.add_edge(NodeId::from(a), NodeId::from(b), q, q);
        }
    }
    topo
}

/// Step `engine` to the end, checking the queued rows after every slot.
fn step_checking_queued_rows<P: FloodingProtocol, F: FaultPlan>(
    mut engine: Engine<P, NullObserver, F>,
    ctx: &str,
) {
    assert_queued_rows_exact(engine.state(), ctx);
    while engine.step() {
        assert_queued_rows_exact(engine.state(), ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pushes, prunes, crash wipes, churn repairs and source retries
    /// keep `SimState::queued_words` equal to the queues' packet sets,
    /// for every protocol, under deferred multi-origin injections and
    /// frequent churn.
    #[test]
    fn queued_rows_track_the_queues_under_churn(
        n in 4usize..24,
        seed in any::<u64>(),
        m in 1u32..10,
        period in 2u32..12,
        protocol in 0usize..3,
        slot_engine in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = random_topology(n, &mut rng);
        let cfg = SimConfig {
            period,
            active_per_period: 1,
            n_packets: m,
            coverage: 1.0,
            max_slots: 3_000,
            seed,
            mistiming_prob: 0.0,
        };
        let schedules = NeighborTable::random_single_slot(n, period, &mut rng);
        // Non-decreasing slots; some packets start at a sensor.
        let mut slot = 0;
        let plan: Vec<Injection> = (0..m)
            .map(|_| {
                slot += rng.random_range(0..3 * period as u64);
                let origin = if rng.random_bool(0.3) {
                    NodeId::from(rng.random_range(1..n))
                } else {
                    NodeId(0)
                };
                Injection { origin, slot }
            })
            .collect();
        // Every fault model, with churn fast enough to crash and
        // recover nodes within a flood.
        let mut faults = FaultConfig::at_intensity(seed, 1.0);
        if let Some(churn) = faults.churn.as_mut() {
            churn.mean_uptime = 300.0;
            churn.mean_downtime = 40.0;
            churn.retry_backoff = 20;
        }
        let kind = if slot_engine { EngineKind::Slot } else { EngineKind::Event };
        let ctx = format!("n {n} seed {seed} m {m} period {period} protocol {protocol}");
        macro_rules! check {
            ($protocol:expr) => {
                step_checking_queued_rows(
                    Engine::with_injections(topo, cfg, schedules, &plan, $protocol)
                        .with_faults(faults.build())
                        .with_engine_kind(kind),
                    &ctx,
                )
            };
        }
        match protocol {
            0 => check!(OpportunisticFlooding::new()),
            1 => check!(Dbao::new()),
            _ => check!(Opt::new()),
        }
    }
}
