//! The allocation gate: the engine's hot path must not touch the heap.
//!
//! A [`CountingAlloc`] is installed as this binary's global allocator
//! and the engine is stepped manually: warm-up slots first (first-touch
//! buffer growth, schedule draws, protocol state), then a measured
//! window in which the allocation counter must not move at all for
//! every protocol (OPT / DBAO / OF / naive, and OPT again without the
//! dense adjacency rows), clean and under burst+drift faults. Churn is the one sanctioned exception — a
//! rebooted node redraws its working schedule — so the churn window
//! asserts a small amortized budget instead of zero.
//!
//! Deliberately a single `#[test]`: the counter is process-global, and
//! a second test thread allocating concurrently would poison the
//! measured windows. Keep it that way.

use ldcf_net::{LinkQuality, NodeId, Topology};
use ldcf_obs::CountingAlloc;
use ldcf_protocols::{Dbao, NaiveFlood, OpportunisticFlooding, Opt};
use ldcf_sim::{
    Engine, FaultConfig, FaultInjector, FaultPlan, FloodingProtocol, NullObserver, SimConfig,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Slots stepped before the measured window opens. Covers every
/// first-touch allocation: intent/outcome buffer growth to the run's
/// high-water mark, protocol warm-up, fault-model state.
const WARMUP: u64 = 150;

/// The measured window must span at least this many slots to mean
/// anything (the flood must not end right after warm-up).
const MIN_MEASURED: u64 = 80;

/// Upper cap on the measured window, so one case can't run away.
const MEASURE_CAP: u64 = 2_000;

fn grid() -> Topology {
    Topology::grid(12, 12, LinkQuality::new(0.85))
}

fn grid_cfg() -> SimConfig {
    SimConfig {
        period: 20,
        active_per_period: 1,
        n_packets: 24,
        coverage: 1.0,
        max_slots: 1_000_000,
        seed: 7,
        mistiming_prob: 0.0,
    }
}

/// Step the engine through warm-up, then count heap allocations over
/// the measured window. Returns `(allocations, slots_measured)`.
fn steady_state_allocs<P, F>(mut engine: Engine<P, NullObserver, F>) -> (u64, u64)
where
    P: FloodingProtocol,
    F: FaultPlan,
{
    let mut warmed = 0;
    while warmed < WARMUP && engine.step() {
        warmed += 1;
    }
    assert_eq!(
        warmed, WARMUP,
        "flood ended during warm-up — grow the workload"
    );
    let before = CountingAlloc::allocations();
    let mut measured = 0;
    while measured < MEASURE_CAP && engine.step() {
        measured += 1;
    }
    let delta = CountingAlloc::allocations() - before;
    assert!(
        measured >= MIN_MEASURED,
        "only {measured} slots measured — grow the workload"
    );
    (delta, measured)
}

/// Burst+drift at half intensity, with every Gilbert–Elliott link state
/// materialized up front. The GE model allocates its per-link state
/// lazily on first touch; pre-touching every directed link here keeps
/// that (legitimate, one-time) cost out of the steady-state window, so
/// the window can assert *zero*.
fn prewarmed_burst_drift(topo: &Topology, seed: u64) -> FaultInjector {
    let mut inj = FaultConfig::at_intensity(seed, 0.5)
        .burst_and_drift_only()
        .build();
    for ni in 0..topo.n_nodes() {
        let u = NodeId::from(ni);
        for (v, q) in topo.neighbors(u) {
            inj.link_prr(u, v, q.prr(), 0);
        }
    }
    inj
}

/// Churn-only faults, aggressive enough that the measured window sees
/// real crash/recover traffic.
fn churn_faults(seed: u64) -> FaultConfig {
    let mut fc = FaultConfig::at_intensity(seed, 1.0).churn_only();
    if let Some(c) = fc.churn.as_mut() {
        c.mean_uptime = 2_000.0;
        c.mean_downtime = 300.0;
        c.retry_backoff = 50;
    }
    fc
}

fn gate_protocol<P: FloodingProtocol>(name: &str, topo: Topology, mk: impl Fn() -> P) {
    let cfg = grid_cfg();

    // Clean: the PR contract — zero heap allocations per slot.
    let (delta, slots) = steady_state_allocs(Engine::new(topo.clone(), cfg.clone(), mk()));
    assert_eq!(
        delta, 0,
        "{name}/clean allocated {delta} times in {slots} steady-state slots"
    );

    // Burst + drift: still zero once the per-link burst state exists.
    let engine =
        Engine::new(topo.clone(), cfg.clone(), mk()).with_faults(prewarmed_burst_drift(&topo, 5));
    let (delta, slots) = steady_state_allocs(engine);
    assert_eq!(
        delta, 0,
        "{name}/burst+drift allocated {delta} times in {slots} steady-state slots"
    );

    // Churn: recoveries redraw schedules, so allow a small amortized
    // budget — well under one allocation per slot, so a per-slot leak
    // anywhere in the engine still trips the gate.
    let engine = Engine::new(topo.clone(), cfg, mk()).with_faults(churn_faults(5).build());
    let (delta, slots) = steady_state_allocs(engine);
    let budget = slots / 2 + 256;
    assert!(
        delta <= budget,
        "{name}/churn allocated {delta} times in {slots} slots (budget {budget})"
    );
    eprintln!("alloc-gate {name}: clean 0, burst+drift 0, churn {delta}/{slots} slots");
}

#[test]
fn hot_path_is_allocation_free_for_every_protocol() {
    gate_protocol("opt", grid(), Opt::new);
    // Without the dense adjacency rows — the large-network layout —
    // OPT's frontier scan and the MAC take their adjacency-list paths.
    gate_protocol("opt/list-only", grid().without_dense_mirror(), Opt::new);
    gate_protocol("dbao", grid(), Dbao::new);
    gate_protocol("of", grid(), OpportunisticFlooding::new);
    gate_protocol("naive", grid(), NaiveFlood::new);
}
