//! The allocation gate: the engine's hot path must not touch the heap.
//!
//! A [`CountingAlloc`] is installed as this binary's global allocator
//! and the engine is stepped manually: warm-up slots first (first-touch
//! buffer growth, schedule draws, protocol state), then a measured
//! window in which the allocation counter must not move at all for
//! every protocol (OPT / DBAO / OF / naive), clean and under burst+drift
//! faults. Churn is the one sanctioned exception — a rebooted node
//! redraws its working schedule — so the churn window asserts a small
//! amortized budget instead of zero.
//!
//! Tracing is held to the same bar. The [`BinSink`] every traced run
//! attaches buffers events into fixed-size frames and allocates only
//! when it encodes one, so its window asserts a budget per frame
//! flushed in it and zero between flushes. A run observed by a
//! [`JsonlSink`] (the `trace export` writer) encodes every event into
//! one reused buffer, so its window is zero, and a [`JsonlReader`]
//! parses every line after its first without touching the heap.
//!
//! The counter is per thread, so a window counts only the allocations
//! of the thread that opened it: other tests, and any other thread of
//! this process, may allocate concurrently without touching it. The
//! last test here holds the counter to that.

use ldcf_net::{LinkQuality, NodeId, Topology};
use ldcf_obs::binlog::FRAME_EVENTS;
use ldcf_obs::{BinSink, CountingAlloc, JsonlReader, JsonlSink, SimObserver};
use ldcf_protocols::{Dbao, NaiveFlood, OpportunisticFlooding, Opt};
use ldcf_sim::{Engine, FaultConfig, FaultInjector, FaultPlan, FloodingProtocol, SimConfig};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

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

/// Allocations [`BinSink`] may make per frame it flushes: the frame's
/// payload, header and output buffers, plus one growth of its index.
const ALLOCS_PER_FRAME: u64 = 4;

/// Step the engine through warm-up, then count heap allocations over
/// the measured window. Returns `(allocations, slots_measured)`.
fn steady_state_allocs<P, O, F>(engine: &mut Engine<P, O, F>) -> (u64, u64)
where
    P: FloodingProtocol,
    O: SimObserver,
    F: FaultPlan,
{
    warm_up(engine);
    measure(engine)
}

fn warm_up<P: FloodingProtocol, O: SimObserver, F: FaultPlan>(engine: &mut Engine<P, O, F>) {
    let mut warmed = 0;
    while warmed < WARMUP && engine.step() {
        warmed += 1;
    }
    assert_eq!(
        warmed, WARMUP,
        "flood ended during warm-up — grow the workload"
    );
}

/// Count heap allocations over the measured window. Returns
/// `(allocations, slots_measured)`.
fn measure<P: FloodingProtocol, O: SimObserver, F: FaultPlan>(
    engine: &mut Engine<P, O, F>,
) -> (u64, u64) {
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
    let (delta, slots) = steady_state_allocs(&mut Engine::new(topo.clone(), cfg.clone(), mk()));
    assert_eq!(
        delta, 0,
        "{name}/clean allocated {delta} times in {slots} steady-state slots"
    );

    // Burst + drift: still zero once the per-link burst state exists.
    let mut engine =
        Engine::new(topo.clone(), cfg.clone(), mk()).with_faults(prewarmed_burst_drift(&topo, 5));
    let (delta, slots) = steady_state_allocs(&mut engine);
    assert_eq!(
        delta, 0,
        "{name}/burst+drift allocated {delta} times in {slots} steady-state slots"
    );

    // Churn: recoveries redraw schedules, so allow a small amortized
    // budget — well under one allocation per slot, so a per-slot leak
    // anywhere in the engine still trips the gate.
    let mut engine = Engine::new(topo.clone(), cfg, mk()).with_faults(churn_faults(5).build());
    let (delta, slots) = steady_state_allocs(&mut engine);
    let budget = slots / 2 + 256;
    assert!(
        delta <= budget,
        "{name}/churn allocated {delta} times in {slots} slots (budget {budget})"
    );
    eprintln!("alloc-gate {name}: clean 0, burst+drift 0, churn {delta}/{slots} slots");
}

/// A DBAO run (DBAO's floods emit every kind of reception event)
/// traced to binary: the window may allocate only for the frames it
/// flushes. Traced to JSONL: the encoding window must not allocate.
/// Then the JSONL trace is read back from memory, its longest line
/// first so the reader's line buffer reaches full size on that line:
/// no later line may allocate.
fn gate_tracing() {
    let mut engine =
        Engine::new(grid(), grid_cfg(), Dbao::new()).with_observer(BinSink::new(io::sink()));
    warm_up(&mut engine);
    let frames_before = engine.observer().events() / FRAME_EVENTS as u64;
    let (bin_delta, bin_slots) = measure(&mut engine);
    let frames = engine.observer().events() / FRAME_EVENTS as u64 - frames_before;
    let budget = ALLOCS_PER_FRAME * frames;
    assert!(
        bin_delta <= budget,
        "dbao traced to binary allocated {bin_delta} times in {bin_slots} steady-state \
         slots, flushing {frames} frames (budget {budget})"
    );

    let mut engine =
        Engine::new(grid(), grid_cfg(), Dbao::new()).with_observer(JsonlSink::new(io::sink()));
    let (delta, slots) = steady_state_allocs(&mut engine);
    assert_eq!(
        delta, 0,
        "dbao traced to JSONL allocated {delta} times in {slots} steady-state slots"
    );

    let engine =
        Engine::new(grid(), grid_cfg(), Dbao::new()).with_observer(JsonlSink::new(Vec::new()));
    let text = String::from_utf8(engine.run_traced().2.into_result().unwrap()).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let longest = (0..lines.len()).max_by_key(|&i| lines[i].len()).unwrap();
    lines.swap(0, longest);
    let trace = lines.join("\n") + "\n";

    let mut reader = JsonlReader::new(trace.as_bytes());
    reader.next().expect("a first line").expect("it parses");
    let before = CountingAlloc::allocations();
    let mut read = 1;
    for ev in reader.by_ref() {
        ev.expect("every line parses");
        read += 1;
    }
    let delta = CountingAlloc::allocations() - before;
    assert_eq!(read, lines.len());
    assert_eq!(
        delta,
        0,
        "JsonlReader allocated {delta} times over {} lines after its first",
        read - 1
    );
    eprintln!(
        "alloc-gate tracing: bin encode {bin_delta} in {bin_slots} slots ({frames} frames), \
         jsonl encode 0 in {slots} slots, jsonl read 0 in {} lines",
        read - 1
    );
}

#[test]
fn hot_path_is_allocation_free_for_every_protocol() {
    gate_protocol("opt", grid(), Opt::new);
    gate_protocol("dbao", grid(), Dbao::new);
    gate_protocol("of", grid(), OpportunisticFlooding::new);
    gate_protocol("naive", grid(), NaiveFlood::new);
    gate_tracing();
}

#[test]
fn other_threads_do_not_count_in_a_window() {
    let stop = Arc::new(AtomicBool::new(false));
    let rounds = Arc::new(AtomicU64::new(0));
    let churner = {
        let (stop, rounds) = (Arc::clone(&stop), Arc::clone(&rounds));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::hint::black_box(Vec::<u64>::with_capacity(64));
                rounds.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    while rounds.load(Ordering::Relaxed) == 0 {
        std::hint::spin_loop();
    }
    let before = CountingAlloc::allocations();
    let opened = rounds.load(Ordering::Relaxed);
    while rounds.load(Ordering::Relaxed) < opened + 10_000 {
        std::hint::spin_loop();
    }
    let delta = CountingAlloc::allocations() - before;
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();
    assert_eq!(
        delta, 0,
        "a window read {delta} allocations made by another thread"
    );
}
