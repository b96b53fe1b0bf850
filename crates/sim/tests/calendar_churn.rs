//! Wake-calendar ↔ churn interaction: when churn recovers a node with a
//! re-randomized working schedule, the calendar must serve the *new*
//! schedule (not the stale pre-crash one), `SimState::is_active` must
//! agree, and the calendar accounting identities must keep holding for
//! every offset of the period — equal periods or mixed ones, whose
//! calendar spans their LCM.

use ldcf_net::{bitset, LinkQuality, NeighborTable, NodeId, Topology, WorkingSchedule};
use ldcf_sim::{
    ChurnAction, Engine, EngineKind, FaultConfig, FaultPlan, FloodingProtocol, Injection,
    SimConfig, SimState, TxIntent, VecObserver,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PERIOD: u32 = 8;
const VICTIM: NodeId = NodeId(3);
const CRASH_AT: u64 = 10;
const RECOVER_AT: u64 = 26;
/// The recovered node's re-randomized wake offset (distinct from
/// whatever the seeded schedule chose, which the test asserts).
const NEW_SLOT: u32 = 6;

/// Deterministic churn script: one crash, one recovery with a known
/// fresh schedule. No loss, no drift. Tracks the earliest scripted
/// slot still pending so `churn_horizon` lets the event engine skip
/// right up to — but never past — each transition.
struct ScriptedChurn {
    next: u64,
}

impl ScriptedChurn {
    fn new() -> Self {
        Self { next: CRASH_AT }
    }
}

impl FaultPlan for ScriptedChurn {
    fn on_start(&mut self, _n_nodes: usize) {}

    fn link_prr(&mut self, _s: NodeId, _r: NodeId, base: f64, _slot: u64) -> f64 {
        base
    }

    fn churn_actions(&mut self, slot: u64, _: &NeighborTable, out: &mut Vec<ChurnAction>) {
        if slot == CRASH_AT {
            out.push(ChurnAction::Crash(VICTIM));
            self.next = RECOVER_AT;
        }
        if slot == RECOVER_AT {
            out.push(ChurnAction::Recover(
                VICTIM,
                WorkingSchedule::new(PERIOD, vec![NEW_SLOT]),
            ));
            self.next = u64::MAX;
        }
    }

    fn churn_horizon(&self) -> u64 {
        self.next
    }
}

/// A protocol that never transmits, so the test drives the engine slot
/// by slot without flooding side effects.
struct Idle;

impl FloodingProtocol for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn propose(&mut self, _: &SimState, _: &mut Vec<TxIntent>) {}
}

/// A minimal correct flooding protocol (mirror of the engine's
/// unit-test flood) so the churn script interacts with real traffic:
/// every holder unicasts the FCFS-first packet some awake neighbor is
/// missing, toward its best such neighbor.
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

/// The calendar accounting identities at time `t`: the packed row, the
/// ascending iterator, the count, and the per-node predicate must all
/// describe the same set.
fn assert_calendar_identities(state: &SimState, t: u64) {
    let n = state.n_nodes();
    let from_pred: Vec<NodeId> = (0..n)
        .map(NodeId::from)
        .filter(|&v| state.schedules.is_active(v, t))
        .collect();
    let from_iter: Vec<NodeId> = state.schedules.all_active(t).collect();
    assert_eq!(from_iter, from_pred, "all_active vs is_active at t={t}");
    assert_eq!(
        state.schedules.active_count(t),
        from_pred.len(),
        "active_count at t={t}"
    );
    let from_words: Vec<NodeId> = bitset::iter_ones(state.schedules.active_words(t))
        .map(NodeId::from)
        .collect();
    assert_eq!(from_words, from_pred, "active_words at t={t}");
}

#[test]
fn recovered_schedule_is_reflected_in_calendar_and_is_active() {
    let topo = Topology::complete(6, LinkQuality::PERFECT);
    let cfg = SimConfig {
        period: PERIOD,
        active_per_period: 1,
        n_packets: 1,
        coverage: 1.0,
        max_slots: 10_000,
        seed: 42,
        mistiming_prob: 0.0,
    };
    let mut engine = Engine::new(topo, cfg, Idle).with_faults(ScriptedChurn::new());

    // The victim's seeded wake offset, read back through the calendar.
    let old_slot = (0..PERIOD as u64)
        .find(|&t| engine.state().schedules.is_active(VICTIM, t))
        .expect("every node wakes once per period");
    assert_ne!(
        old_slot, NEW_SLOT as u64,
        "test needs the re-randomized offset to differ (adjust seed)"
    );

    // Before the crash: is_active mirrors the schedule.
    while engine.state().now < CRASH_AT {
        engine.step();
    }
    for t in 0..PERIOD as u64 {
        assert_calendar_identities(engine.state(), t);
    }

    // Step past the crash: the node is off the air in every slot, even
    // its scheduled one, while the schedule table still carries it (a
    // crash does not rewrite the calendar; `down` masks it).
    while engine.state().now <= CRASH_AT {
        engine.step();
    }
    let state = engine.state();
    assert!(state.is_down(VICTIM));
    for t in state.now..state.now + PERIOD as u64 {
        assert!(
            !(state.schedules.is_active(VICTIM, t) && state.is_active(VICTIM)),
            "a crashed node must never be active"
        );
    }
    assert!(!state.is_active(VICTIM));

    // Step past the recovery: the calendar now serves the re-randomized
    // schedule — active exactly at NEW_SLOT, not at the old offset.
    while engine.state().now <= RECOVER_AT {
        engine.step();
    }
    let state = engine.state();
    assert!(!state.is_down(VICTIM));
    for t in state.now..state.now + 2 * PERIOD as u64 {
        let expect = t % PERIOD as u64 == NEW_SLOT as u64;
        assert_eq!(
            state.schedules.is_active(VICTIM, t),
            expect,
            "recovered schedule at t={t}"
        );
        let in_row = bitset::test_bit(state.schedules.active_words(t), VICTIM.index());
        assert_eq!(in_row, expect, "calendar row at t={t}");
        assert_calendar_identities(state, t);
    }
    // And `SimState::is_active` agrees at the node's own wake slot once
    // the engine reaches it.
    while engine.state().now % PERIOD as u64 != NEW_SLOT as u64 {
        engine.step();
    }
    assert!(engine.state().is_active(VICTIM));
    // The old offset no longer wakes the victim.
    while engine.state().now % PERIOD as u64 != old_slot {
        engine.step();
    }
    assert!(!engine.state().is_active(VICTIM));
}

/// The mid-run schedule re-randomization rewrites the wake calendar
/// *and* its occupancy summary; the event engine's next-wake queries
/// must track that rewrite exactly, so both engine kinds produce
/// byte-identical artefacts through the whole crash/recovery script.
#[test]
fn event_engine_is_byte_identical_across_schedule_rerandomization() {
    let run = |kind: EngineKind| {
        let topo = Topology::complete(6, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: PERIOD,
            active_per_period: 1,
            n_packets: 3,
            coverage: 1.0,
            max_slots: 10_000,
            seed: 7,
            mistiming_prob: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let schedules = NeighborTable::random_single_slot(topo.n_nodes(), PERIOD, &mut rng);
        // Staggered injections keep traffic flowing before, between,
        // and after the scripted transitions, with idle gaps in between
        // that the event engine actually jumps.
        let plan = [
            Injection {
                origin: NodeId(0),
                slot: 0,
            },
            Injection {
                origin: NodeId(0),
                slot: 15,
            },
            Injection {
                origin: NodeId(0),
                slot: 40,
            },
        ];
        Engine::with_injections(topo, cfg, schedules, &plan, GreedyFlood)
            .with_faults(ScriptedChurn::new())
            .with_observer(VecObserver::default())
            .with_engine_kind(kind)
            .run_traced()
    };
    let (r_slot, e_slot, o_slot) = run(EngineKind::Slot);
    let (r_event, e_event, o_event) = run(EngineKind::Event);
    // The run outlived both scripted transitions, so the identity below
    // actually covers the calendar rewrite (not a pre-churn finish).
    assert!(
        r_slot.slots_elapsed > RECOVER_AT,
        "run must span the recovery (elapsed {})",
        r_slot.slots_elapsed
    );
    assert!(r_slot.all_covered());
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
        o_slot.events, o_event.events,
        "trace streams must be identical across engine kinds"
    );
}

/// After the recovery installs a fresh schedule, the calendar's
/// next-rendezvous answer must agree with a brute-force scan of
/// `is_active` for every single-node target set and every starting
/// slot — in particular, the victim's answer moves to the
/// re-randomized offset.
#[test]
fn next_wake_query_stays_exact_after_rerandomization() {
    let topo = Topology::complete(6, LinkQuality::PERFECT);
    let cfg = SimConfig {
        period: PERIOD,
        active_per_period: 1,
        n_packets: 1,
        coverage: 1.0,
        max_slots: 10_000,
        seed: 42,
        mistiming_prob: 0.0,
    };
    let mut engine = Engine::new(topo, cfg, Idle).with_faults(ScriptedChurn::new());
    while engine.state().now <= RECOVER_AT {
        engine.step();
    }
    let state = engine.state();
    let n = state.n_nodes();
    let nw = bitset::words_for(n);
    let sw = state.schedules.summary_words();
    for v in 0..n {
        let mut targets = vec![0u64; nw];
        bitset::set_bit(&mut targets, v);
        let mut summary = vec![0u64; sw];
        bitset::summarize_into(&targets, &mut summary);
        for from in state.now..state.now + 2 * PERIOD as u64 {
            let got = state.schedules.next_rendezvous(from, &targets, &summary);
            let brute = (from..from + PERIOD as u64)
                .find(|&t| state.schedules.is_active(NodeId::from(v), t));
            assert_eq!(got, brute, "node {v} from slot {from}");
        }
    }
    // The victim's rendezvous answer lands on the re-randomized offset.
    let mut targets = vec![0u64; nw];
    bitset::set_bit(&mut targets, VICTIM.index());
    let mut summary = vec![0u64; sw];
    bitset::summarize_into(&targets, &mut summary);
    let t = state
        .schedules
        .next_rendezvous(state.now, &targets, &summary)
        .expect("the recovered victim wakes every period");
    assert_eq!(t % PERIOD as u64, NEW_SLOT as u64);
}

/// Mixed wake periods 4, 8 and 12 (a 24-slot calendar), with one or
/// two active slots per period.
const MIXED: [u32; 3] = [4, 8, 12];

fn mixed_shape(node: usize) -> (u32, u32) {
    (MIXED[node % 3], 1 + node as u32 % 2)
}

fn mixed_table() -> NeighborTable {
    let mut rng = StdRng::seed_from_u64(11);
    NeighborTable::new(
        (0..25)
            .map(|i| {
                let (period, active) = mixed_shape(i);
                WorkingSchedule::multi_random(period, active, &mut rng)
            })
            .collect(),
    )
}

/// Real churn on mixed periods: each recovering node redraws a schedule
/// of its own period and active-slot count (the configured ones are
/// only representative), so the calendar keeps its LCM span and its
/// identities, and the event engine stays byte-identical to the
/// slot-stepped one through every crash and recovery.
#[test]
fn churn_on_mixed_periods_redraws_within_each_nodes_period() {
    let cfg = SimConfig {
        period: 12,
        active_per_period: 1,
        n_packets: 3,
        coverage: 1.0,
        max_slots: 20_000,
        seed: 5,
        mistiming_prob: 0.0,
    };
    let churn = || {
        let mut fc = FaultConfig::at_intensity(cfg.seed, 1.0).churn_only();
        if let Some(c) = fc.churn.as_mut() {
            c.mean_uptime = 150.0;
            c.mean_downtime = 30.0;
            c.retry_backoff = 20;
        }
        fc.build()
    };
    let topo = Topology::grid(5, 5, LinkQuality::new(0.9));

    let mut engine = Engine::with_schedules(topo.clone(), cfg.clone(), mixed_table(), GreedyFlood)
        .with_faults(churn());
    while engine.step() {}
    assert!(
        engine.report().node_recoveries >= 10,
        "only {} recoveries",
        engine.report().node_recoveries
    );
    let state = engine.state();
    assert_eq!(state.schedules.calendar_period(), 24);
    for v in 0..state.n_nodes() {
        let s = state.schedules.schedule(NodeId::from(v));
        assert_eq!(
            (s.period(), s.active_per_period()),
            mixed_shape(v),
            "node {v} kept its shape"
        );
    }
    for t in 0..24 {
        assert_calendar_identities(state, t);
    }

    let run = |kind: EngineKind| {
        Engine::with_schedules(topo.clone(), cfg.clone(), mixed_table(), GreedyFlood)
            .with_faults(churn())
            .with_observer(VecObserver::default())
            .with_engine_kind(kind)
            .run_traced()
    };
    let (r_slot, e_slot, o_slot) = run(EngineKind::Slot);
    let (r_event, e_event, o_event) = run(EngineKind::Event);
    assert_eq!(
        serde_json::to_string(&r_slot).unwrap(),
        serde_json::to_string(&r_event).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&e_slot).unwrap(),
        serde_json::to_string(&e_event).unwrap()
    );
    assert_eq!(o_slot.events, o_event.events);
}
