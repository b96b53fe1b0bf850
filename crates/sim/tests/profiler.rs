//! Engine self-profiling contracts: phase times telescope to the slot
//! total exactly, and attaching a profiler changes no simulation
//! outcome (same RNG stream, same report, same energy ledger).

use ldcf_net::{LinkQuality, NodeId, Topology};
use ldcf_sim::{
    Engine, EngineKind, FloodingProtocol, Phase, PhaseProfiler, SimConfig, SimState, TxIntent,
};

/// A minimal correct protocol (mirror of the engine's unit-test flood):
/// every node holding a packet unicasts the FCFS-first packet some
/// active neighbor is missing, toward its best such neighbor.
struct GreedyFlood;

impl FloodingProtocol for GreedyFlood {
    fn name(&self) -> &str {
        "greedy"
    }
    fn propose(&mut self, s: &SimState, out: &mut Vec<TxIntent>) {
        for ni in 0..s.n_nodes() {
            let u = NodeId::from(ni);
            let entry = s.queue(u).first_with_work(|p| {
                s.topo
                    .neighbor_ids(u)
                    .iter()
                    .any(|&v| s.is_active(v) && !s.has(v, p))
            });
            if let Some(e) = entry {
                let target = s
                    .topo
                    .neighbors(u)
                    .filter(|&(v, _)| s.is_active(v) && !s.has(v, e.packet))
                    .max_by(|a, b| a.1.prr().partial_cmp(&b.1.prr()).unwrap());
                if let Some((v, _)) = target {
                    out.push(TxIntent {
                        sender: u,
                        receiver: v,
                        packet: e.packet,
                        backoff_rank: u.0,
                        bypass_mac: false,
                    });
                }
            }
        }
    }
}

fn cfg(m: u32) -> SimConfig {
    SimConfig {
        period: 5,
        active_per_period: 1,
        n_packets: m,
        coverage: 1.0,
        max_slots: 100_000,
        seed: 42,
        mistiming_prob: 0.05,
    }
}

#[test]
fn phase_times_sum_to_slot_total_exactly() {
    let topo = Topology::grid(5, 5, LinkQuality::new(0.8));
    let mut prof = PhaseProfiler::new();
    // The slot-stepped oracle dispatches every slot, so the profile's
    // slot count (dispatched slots) equals the slots elapsed.
    let (report, _) = Engine::new(topo, cfg(4), GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .with_profiler(&mut prof)
        .run();
    assert!(report.all_covered());
    // One slot_end per simulated slot.
    assert_eq!(prof.slots(), report.slots_elapsed);
    // The timestamp chain telescopes: every nanosecond of every slot is
    // attributed to exactly one phase, so the totals agree *exactly*,
    // not within a tolerance.
    assert_eq!(
        prof.phases_total_ns(),
        prof.slot_total_ns(),
        "phase times must partition the slot total"
    );
    // Every phase recorded one segment per slot — except IdleSkip,
    // which belongs to the event engine and must stay silent on the
    // slot-stepped path — and the per-phase histograms carry the same
    // mass as the exact totals.
    for p in Phase::ALL {
        let expect = if p == Phase::IdleSkip {
            0
        } else {
            report.slots_elapsed
        };
        assert_eq!(prof.phase_hist(p).count, expect, "{p:?}");
        assert_eq!(prof.phase_hist(p).sum, prof.phase_total_ns(p), "{p:?}");
    }
    assert_eq!(prof.slot_hist().sum, prof.slot_total_ns());
    // The hot phases actually cost something on a 25-node grid flood.
    assert!(prof.slot_total_ns() > 0);
    assert!(prof.phase_total_ns(Phase::Propose) > 0);
    assert!(prof.phase_total_ns(Phase::Mac) > 0);
}

#[test]
fn event_engine_phase_times_still_telescope() {
    // At duty 1/25 on a line the event engine jumps most slots; each
    // jump records one IdleSkip segment whose nanoseconds are carried
    // into the next dispatched slot's total, so the partition invariant
    // survives the jumps unchanged.
    let topo = Topology::line(8, LinkQuality::new(0.9));
    let c = SimConfig {
        period: 25,
        mistiming_prob: 0.0,
        ..cfg(2)
    };
    let mut prof = PhaseProfiler::new();
    let (report, _) = Engine::new(topo.clone(), c.clone(), GreedyFlood)
        .with_profiler(&mut prof)
        .run();
    assert!(report.all_covered());
    assert!(
        prof.slots() < report.slots_elapsed,
        "skipping must dispatch fewer slots ({}) than elapse ({})",
        prof.slots(),
        report.slots_elapsed
    );
    let skips = prof.phase_hist(Phase::IdleSkip).count;
    assert!(skips > 0, "a duty-1/25 run must actually skip");
    assert_eq!(
        prof.phases_total_ns(),
        prof.slot_total_ns(),
        "phase times must partition the slot total across jumps"
    );
    for p in Phase::ALL {
        let expect = if p == Phase::IdleSkip {
            skips
        } else {
            prof.slots()
        };
        assert_eq!(prof.phase_hist(p).count, expect, "{p:?}");
        assert_eq!(prof.phase_hist(p).sum, prof.phase_total_ns(p), "{p:?}");
    }
    // Profiling the event engine changes no outcome either: same
    // report as the unprofiled slot-stepped reference.
    let (reference, _) = Engine::new(topo, c, GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .run();
    assert_eq!(report.slots_elapsed, reference.slots_elapsed);
    assert_eq!(report.transmissions, reference.transmissions);
    assert_eq!(
        report.mean_flooding_delay(),
        reference.mean_flooding_delay()
    );
}

#[test]
fn profiling_does_not_change_outcomes() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    let (plain, plain_energy) = Engine::new(topo.clone(), cfg(4), GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .run();
    let mut prof = PhaseProfiler::new();
    let (profiled, profiled_energy) = Engine::new(topo, cfg(4), GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .with_profiler(&mut prof)
        .run();
    // Profiling reads clocks but never touches state or RNG: outcomes
    // are identical to the unprofiled engine.
    assert_eq!(plain.slots_elapsed, profiled.slots_elapsed);
    assert_eq!(plain.transmissions, profiled.transmissions);
    assert_eq!(plain.transmission_failures, profiled.transmission_failures);
    assert_eq!(plain.mistimed, profiled.mistimed);
    assert_eq!(plain.mean_flooding_delay(), profiled.mean_flooding_delay());
    assert_eq!(plain_energy.tx_slots, profiled_energy.tx_slots);
    assert_eq!(plain_energy.active_slots, profiled_energy.active_slots);
    for (a, b) in plain.packets.iter().zip(&profiled.packets) {
        assert_eq!(a.pushed_at, b.pushed_at);
        assert_eq!(a.covered_at, b.covered_at);
    }
    assert_eq!(prof.slots(), plain.slots_elapsed);
}

#[test]
fn lent_profilers_merge_across_runs() {
    let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
    // Two runs into two profilers, merged; versus both runs into one.
    let mut a = PhaseProfiler::new();
    let mut b = PhaseProfiler::new();
    // Slot-stepped, so every elapsed slot is a dispatched, profiled one.
    let (ra, _) = Engine::new(topo.clone(), cfg(2), GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .with_profiler(&mut a)
        .run();
    let (rb, _) = Engine::new(topo, SimConfig { seed: 43, ..cfg(2) }, GreedyFlood)
        .with_engine_kind(EngineKind::Slot)
        .with_profiler(&mut b)
        .run();
    a.merge(&b);
    assert_eq!(a.slots(), ra.slots_elapsed + rb.slots_elapsed);
    assert_eq!(a.phases_total_ns(), a.slot_total_ns());
}
