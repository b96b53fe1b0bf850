//! Differential test for OF's and DBAO's receiver selection: the
//! link-indexed `propose` (receiver lists built from the awake nodes'
//! rows, OF's back-off windows and DBAO's ranks keyed by the inbound
//! link) must emit exactly the intents of a reference that enumerates
//! every queued packet × awake neighbor pair from the sender's side,
//! keys OF's back-off windows by `(sender, receiver)` in a hash map and
//! keeps DBAO's ranks in a dense `n × n` matrix — at every slot of
//! random floods on lossy links, with equal and mixed wake periods and
//! with every node always awake, under churn, in both the default and
//! the ablated configurations. Collisions open OF's back-off windows;
//! where the MAC never collides, spoofed collisions open them instead.
//! DBAO keeps no back-off, and no DBAO flood may collide.

use ldcf_net::{LinkQuality, NeighborTable, NodeId, PacketId, Topology, WorkingSchedule};
use ldcf_protocols::{Dbao, DbaoConfig, EnergyTree, OfConfig, OpportunisticFlooding};
use ldcf_sim::mac::{DeliveryEvent, Outcome, Overhearing};
use ldcf_sim::{Engine, FaultConfig, FloodingProtocol, SimConfig, SimState, TxIntent};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Collision back-off keyed by `(sender, receiver)`: the reference for
/// the link-indexed table. Same RNG, same draw per collision.
struct PairBackoff {
    blocked_until: HashMap<(NodeId, NodeId), u64>,
    rng: StdRng,
    window: u32,
}

impl PairBackoff {
    fn new(seed: u64, window: u32) -> Self {
        Self {
            blocked_until: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            window,
        }
    }

    fn blocked(&self, sender: NodeId, receiver: NodeId, now: u64) -> bool {
        self.blocked_until
            .get(&(sender, receiver))
            .is_some_and(|&until| now < until)
    }

    fn observe(&mut self, events: &[DeliveryEvent], now: u64, period: u32) -> u64 {
        let mut collisions = 0;
        for e in events {
            if e.outcome == Outcome::Collision {
                collisions += 1;
                let periods = self.rng.random_range(1..=self.window) as u64;
                self.blocked_until
                    .insert((e.sender, e.receiver), now + periods * period as u64 + 1);
            }
        }
        collisions
    }
}

/// All `(packet, receiver)` pairs `u` could serve this slot, FCFS-ordered
/// by packet and quality-ordered by receiver within a packet.
fn all_candidates(state: &SimState, u: NodeId) -> Vec<(PacketId, NodeId)> {
    let mut out = Vec::new();
    for &p in state.queue(u) {
        let mut targets: Vec<(NodeId, f64)> = state
            .topo
            .neighbors(u)
            .filter(|&(v, _)| state.is_active(v) && !state.has(v, p))
            .map(|(v, q)| (v, q.prr()))
            .collect();
        targets.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("PRR is finite"));
        out.extend(targets.into_iter().map(|(v, _)| (p, v)));
    }
    out
}

/// OF's decision rule over the full candidate enumeration.
struct ReferenceOf {
    cfg: OfConfig,
    tree: Option<EnergyTree>,
    rng: StdRng,
    backoff: PairBackoff,
    /// Candidates skipped because their back-off window was open.
    blocked_hits: u64,
}

impl ReferenceOf {
    fn new(cfg: OfConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            backoff: PairBackoff::new(cfg.seed ^ 0x0F0F, 4),
            cfg,
            tree: None,
            blocked_hits: 0,
        }
    }

    fn on_start(&mut self, state: &SimState) {
        self.tree = Some(EnergyTree::build(&state.topo));
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let tree = self.tree.as_ref().expect("on_start ran");
        for u in state.nodes_with_work() {
            let mut chosen: Option<(u32, NodeId)> = None;
            let mut fallback: Option<(u32, NodeId)> = None;
            for (packet, receiver) in all_candidates(state, u) {
                if self.backoff.blocked(u, receiver, state.now) {
                    self.blocked_hits += 1;
                    continue;
                }
                if tree.is_child(u, receiver) {
                    chosen = Some((packet, receiver));
                    break;
                }
                if !self.cfg.opportunistic || fallback.is_some() {
                    continue;
                }
                let q = state.topo.quality(u, receiver).expect("a link").prr();
                if q < self.cfg.min_link_quality {
                    continue;
                }
                let parent_clear = tree.parent(receiver).is_some_and(|par| {
                    !state.has(par, packet)
                        && !state.queue(par).iter().any(|&p| !state.has(receiver, p))
                });
                if !parent_clear {
                    continue;
                }
                let competitors = state
                    .topo
                    .neighbors(receiver)
                    .filter(|&(s, q)| state.has(s, packet) && q.prr() >= self.cfg.min_link_quality)
                    .count()
                    .max(1);
                let my_overlap = state
                    .queue(u)
                    .iter()
                    .filter(|&&p| !state.has(receiver, p))
                    .count()
                    .max(1);
                let p_send = self.cfg.forward_probability / (competitors * my_overlap) as f64;
                if self.rng.random::<f64>() < p_send {
                    fallback = Some((packet, receiver));
                }
            }
            if let Some((packet, receiver)) = chosen.or(fallback) {
                out.push(TxIntent {
                    sender: u,
                    receiver,
                    packet,
                    backoff_rank: u.0,
                    bypass_mac: false,
                });
            }
        }
    }
}

/// DBAO's election over dense per-receiver rank maps.
struct ReferenceDbao {
    /// `rank[r][s]`: back-off rank of sender `s` at receiver `r`
    /// (`u32::MAX` for non-neighbors).
    rank: Vec<Vec<u32>>,
    clique_members: Vec<Vec<NodeId>>,
    non_clique_ranks: Vec<Vec<u32>>,
}

impl ReferenceDbao {
    fn new() -> Self {
        Self {
            rank: Vec::new(),
            clique_members: Vec::new(),
            non_clique_ranks: Vec::new(),
        }
    }

    fn on_start(&mut self, state: &SimState) {
        let topo = &state.topo;
        let n = topo.n_nodes();
        self.rank = vec![vec![u32::MAX; n]; n];
        self.clique_members = vec![Vec::new(); n];
        self.non_clique_ranks = vec![Vec::new(); n];
        for ri in 0..n {
            let r = NodeId::from(ri);
            let mut inbound: Vec<(NodeId, f64)> =
                topo.in_neighbors(r).map(|(s, q)| (s, q.prr())).collect();
            inbound.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("PRR is finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            let mut clique: Vec<NodeId> = Vec::new();
            let mut rest: Vec<NodeId> = Vec::new();
            for (s, _) in inbound {
                if clique.iter().all(|&c| topo.are_neighbors(c, s)) {
                    clique.push(s);
                } else {
                    rest.push(s);
                }
            }
            let csize = clique.len();
            self.clique_members[ri] = clique.clone();
            for (rank, s) in clique.into_iter().chain(rest).enumerate() {
                self.rank[ri][s.index()] = rank as u32;
                if rank >= csize {
                    self.non_clique_ranks[ri].push(rank as u32);
                }
            }
        }
    }

    fn eligible(&self, state: &SimState, u: NodeId, r: NodeId, p: PacketId) -> bool {
        let my_rank = self.rank[r.index()][u.index()];
        if my_rank == u32::MAX {
            return false;
        }
        let clique = &self.clique_members[r.index()];
        if (my_rank as usize) < clique.len() {
            !clique[..my_rank as usize].iter().any(|&s| state.has(s, p))
        } else {
            let clique_busy = clique
                .iter()
                .any(|&s| state.queue(s).iter().any(|&p| !state.has(r, p)));
            if clique_busy {
                return false;
            }
            let ncr = &self.non_clique_ranks[r.index()];
            let pick = (state.now / state.cfg.period as u64) as usize % ncr.len();
            ncr[pick] == my_rank
        }
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        for u in state.nodes_with_work() {
            let mut cand: Option<(PacketId, NodeId)> = None;
            'queue: for &p in state.queue(u) {
                let mut best: Option<(f64, NodeId)> = None;
                for (v, q) in state.topo.neighbors(u) {
                    if !state.is_active(v) || state.has(v, p) {
                        continue;
                    }
                    if best.is_none_or(|(bq, _)| q.prr() > bq) && self.eligible(state, u, v, p) {
                        best = Some((q.prr(), v));
                    }
                }
                if let Some((_, v)) = best {
                    cand = Some((p, v));
                    break 'queue;
                }
            }
            if let Some((packet, receiver)) = cand {
                out.push(TxIntent {
                    sender: u,
                    receiver,
                    packet,
                    backoff_rank: self.rank[receiver.index()][u.index()],
                    bypass_mac: false,
                });
            }
        }
    }
}

/// The reference side of a [`Checked`] run.
enum Reference {
    Of(ReferenceOf),
    Dbao(ReferenceDbao),
}

impl Reference {
    fn on_start(&mut self, state: &SimState) {
        match self {
            Reference::Of(r) => r.on_start(state),
            Reference::Dbao(r) => r.on_start(state),
        }
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        match self {
            Reference::Of(r) => r.propose(state, out),
            Reference::Dbao(r) => r.propose(state, out),
        }
    }

    /// Digest a slot's outcomes; returns the collisions among them.
    fn observe(&mut self, events: &[DeliveryEvent], now: u64, period: u32) -> u64 {
        match self {
            Reference::Of(r) => r.backoff.observe(events, now, period),
            Reference::Dbao(_) => events
                .iter()
                .filter(|e| e.outcome == Outcome::Collision)
                .count() as u64,
        }
    }

    fn blocked_hits(&self) -> u64 {
        match self {
            Reference::Of(r) => r.blocked_hits,
            Reference::Dbao(_) => 0,
        }
    }
}

/// What a checked run saw: slots and intents compared, collisions the
/// protocols were told of (spoofed ones included), collisions the MAC
/// reported, candidates a back-off window held back, slots in which a
/// crashed node the schedule calls awake sat next to a node with work,
/// and the first disagreement.
#[derive(Default)]
struct Tally {
    slots: u64,
    intents: u64,
    collisions: u64,
    mac_collisions: u64,
    blocked_hits: u64,
    crashed_beside_senders: u64,
    mismatch: Option<String>,
}

/// Whether some node with work has a neighbor its schedule wakes now
/// but churn has crashed: a receiver the awake-side walk must skip.
fn crashed_beside_a_sender(state: &SimState) -> bool {
    state.nodes_with_work().any(|u| {
        state
            .topo
            .neighbor_ids(u)
            .iter()
            .any(|&v| state.is_down(v) && state.schedules.is_active(v, state.now))
    })
}

/// Runs the real protocol (whose intents drive the flood) and the
/// reference side by side on the same state, and books every
/// disagreement.
struct Checked<P> {
    fast: P,
    /// Report every third reception outcome to both sides as a
    /// collision.
    spoof: bool,
    reference: Reference,
    scratch: Vec<TxIntent>,
    tally: Rc<RefCell<Tally>>,
}

impl<P: FloodingProtocol> FloodingProtocol for Checked<P> {
    fn name(&self) -> &str {
        self.fast.name()
    }

    fn overhearing(&self) -> Overhearing {
        self.fast.overhearing()
    }

    fn on_start(&mut self, state: &SimState) {
        self.fast.on_start(state);
        self.reference.on_start(state);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let first = out.len();
        self.fast.propose(state, out);
        self.scratch.clear();
        self.reference.propose(state, &mut self.scratch);
        let mut tally = self.tally.borrow_mut();
        tally.slots += 1;
        tally.intents += self.scratch.len() as u64;
        tally.crashed_beside_senders += u64::from(crashed_beside_a_sender(state));
        tally.blocked_hits = self.reference.blocked_hits();
        if tally.mismatch.is_none() && out[first..] != self.scratch[..] {
            tally.mismatch = Some(format!(
                "slot {}: {} proposed {:?}, reference {:?}",
                state.now,
                self.fast.name(),
                &out[first..],
                self.scratch
            ));
        }
    }

    fn on_events(&mut self, state: &SimState, events: &[DeliveryEvent]) {
        let mut events = events.to_vec();
        if self.spoof {
            // Both sides see every third reception as a collision, so
            // OF's back-off windows open even where the MAC never
            // collides (pure-tree OF). The flood itself is untouched:
            // the deliveries already happened.
            for (i, e) in events.iter_mut().enumerate() {
                if (state.now as usize + i).is_multiple_of(3) {
                    e.outcome = Outcome::Collision;
                }
            }
        }
        self.fast.on_events(state, &events);
        let collisions = self.reference.observe(&events, state.now, state.cfg.period);
        self.tally.borrow_mut().collisions += collisions;
    }
}

/// A connected network of about `n` nodes: a random geometric graph
/// with link qualities between 0.95 and 0.4, or (`grid`) a grid whose
/// links draw each direction's quality from a few levels — every
/// receiver's neighbors are hidden from one another there, and equal
/// qualities exercise the id tie-break.
fn network(n: usize, seed: u64, grid: bool) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    if grid {
        let rows = (n as f64).sqrt() as usize;
        let cols = n / rows;
        let levels = [0.45, 0.6, 0.75, 0.9];
        let mut level = || LinkQuality::new(levels[rng.random_range(0..levels.len())]);
        let edges: Vec<_> = Topology::grid(rows, cols, LinkQuality::PERFECT)
            .links()
            .filter(|l| l.from < l.to)
            .map(|l| (l.from, l.to, level(), level()))
            .collect();
        Topology::from_edges(rows * cols, edges)
    } else {
        let side = (n as f64).sqrt() * 1.2;
        loop {
            let topo = Topology::random_geometric(n, side, 2.0, 0.95, 0.4, &mut rng);
            if topo.is_connected() {
                break topo;
            }
        }
    }
}

/// How the nodes of a checked flood wake.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Wake {
    /// One random slot per `period`.
    Single,
    /// As `Single`, but half the nodes wake every `2 * period` slots,
    /// so the wake calendar spans `2 * period`.
    Mixed,
    /// Every node awake every slot: the awake side is the whole
    /// network, and every row is walked.
    AlwaysOn,
}

fn schedules(n: usize, period: u32, wake: Wake, rng: &mut StdRng) -> NeighborTable {
    NeighborTable::new(
        (0..n)
            .map(|i| match wake {
                Wake::AlwaysOn => WorkingSchedule::always_on(),
                Wake::Mixed if i % 2 == 1 => WorkingSchedule::single_random(2 * period, rng),
                _ => WorkingSchedule::single_random(period, rng),
            })
            .collect(),
    )
}

fn wake_of(i: u8) -> Wake {
    [Wake::Single, Wake::Mixed, Wake::AlwaysOn][i as usize % 3]
}

/// The knobs of one checked flood.
#[derive(Clone, Copy, Debug)]
struct Case {
    n: usize,
    seed: u64,
    period: u32,
    m: u32,
    grid: bool,
    wake: Wake,
    churn: bool,
    spoof: bool,
}

/// Flood `case` with `fast` checked against `reference`; returns the
/// tally.
fn run_checked<P: FloodingProtocol>(case: Case, fast: P, reference: Reference) -> Tally {
    let topo = network(case.n, case.seed, case.grid);
    let n = topo.n_nodes();
    let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5eed);
    let table = schedules(n, case.period, case.wake, &mut rng);
    let lcm = match case.wake {
        Wake::Single => case.period,
        Wake::Mixed => 2 * case.period,
        Wake::AlwaysOn => 1,
    };
    assert_eq!(table.calendar_period(), lcm);
    let cfg = SimConfig {
        period: case.period,
        active_per_period: 1,
        n_packets: case.m,
        coverage: 1.0,
        max_slots: 3_000,
        seed: case.seed,
        mistiming_prob: 0.0,
    };
    let tally = Rc::new(RefCell::new(Tally::default()));
    let proto = Checked {
        fast,
        spoof: case.spoof,
        reference,
        scratch: Vec::new(),
        tally: Rc::clone(&tally),
    };
    let engine = Engine::with_schedules(topo, cfg, table, proto);
    let (report, _) = if case.churn {
        let mut fc = FaultConfig::at_intensity(case.seed, 1.0).churn_only();
        if let Some(c) = fc.churn.as_mut() {
            c.mean_uptime = 200.0;
            c.mean_downtime = 40.0;
            c.retry_backoff = 20;
        }
        engine.with_faults(fc.build()).run()
    } else {
        engine.run()
    };
    let mut tally = Rc::try_unwrap(tally)
        .ok()
        .expect("the engine is gone")
        .into_inner();
    tally.mac_collisions = report.collisions;
    tally
}

fn check_of(case: Case, opportunistic: bool) -> Tally {
    let cfg = OfConfig {
        opportunistic,
        seed: case.seed,
        ..OfConfig::default()
    };
    run_checked(
        case,
        OpportunisticFlooding::with_config(cfg),
        Reference::Of(ReferenceOf::new(cfg)),
    )
}

fn check_dbao(case: Case, overhearing: bool) -> Tally {
    run_checked(
        case,
        Dbao::with_config(DbaoConfig { overhearing }),
        Reference::Dbao(ReferenceDbao::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Link-indexed OF emits the reference's intents at every slot,
    /// with and without opportunistic forwards.
    #[test]
    fn of_matches_full_enumeration(
        n in 8usize..60,
        seed in any::<u64>(),
        period in 2u32..10,
        m in 1u32..5,
        grid in any::<bool>(),
        wake in any::<u8>(),
        churn in any::<bool>(),
        spoof in any::<bool>(),
        opportunistic in any::<bool>(),
    ) {
        let case = Case { n, seed, period, m, grid, wake: wake_of(wake), churn, spoof };
        let tally = check_of(case, opportunistic);
        if let Some(msg) = &tally.mismatch {
            prop_assert!(false, "{}", msg);
        }
        prop_assert!(tally.slots > 0 && tally.intents > 0, "vacuous run: {:?}", case);
    }

    /// Link-indexed DBAO emits the reference's intents at every slot,
    /// with and without overhearing.
    #[test]
    fn dbao_matches_dense_ranks(
        n in 8usize..60,
        seed in any::<u64>(),
        period in 2u32..10,
        m in 1u32..5,
        grid in any::<bool>(),
        wake in any::<u8>(),
        churn in any::<bool>(),
        spoof in any::<bool>(),
        overhearing in any::<bool>(),
    ) {
        let case = Case { n, seed, period, m, grid, wake: wake_of(wake), churn, spoof };
        let tally = check_dbao(case, overhearing);
        if let Some(msg) = &tally.mismatch {
            prop_assert!(false, "{}", msg);
        }
        // DBAO's license rotates once per *configured* period, so a
        // receiver waking every `2 * period` slots (mixed tables) can
        // see the same outsider licensed at every wake-up, and a flood
        // whose source is outside both of its neighbors' cliques never
        // starts. Both sides agree on that; only calendar runs must
        // propose something.
        prop_assert!(
            tally.slots > 0 && (case.wake == Wake::Mixed || tally.intents > 0),
            "vacuous run: {:?}",
            case
        );
        // Clique members serialise by carrier sense, and an outsider
        // sends only with the license and an idle clique, so at most one
        // committed sender ever targets a receiver. Spoofing changes
        // nothing here: DBAO keeps no back-off to feed.
        prop_assert_eq!(tally.mac_collisions, 0, "DBAO collided: {:?}", case);
    }
}

/// The comparison is not vacuous about back-off. Opportunistic OF
/// collides on a lossy grid by itself, and the windows those collisions
/// open hold candidates back. Pure-tree OF never collides under the
/// MAC's model (one parent per child), so its windows are opened by
/// spoofed collisions. DBAO never collides either (carrier-sensed
/// cliques and one licensed outsider per receiver) and has no windows
/// to open. Either way the intents still agree.
#[test]
fn back_off_windows_are_exercised() {
    for spoof in [false, true] {
        let case = Case {
            n: 50,
            seed: 1,
            period: 5,
            m: 4,
            grid: true,
            wake: Wake::Single,
            churn: false,
            spoof,
        };
        for flag in [true, false] {
            for (name, tally) in [
                ("OF", check_of(case, flag)),
                ("DBAO", check_dbao(case, flag)),
            ] {
                let what = format!("{name} flag={flag} spoof={spoof}");
                assert_eq!(tally.mismatch, None, "{what}");
                let live = name == "OF" && (spoof || flag);
                assert_eq!(
                    live,
                    tally.collisions > 0 && tally.blocked_hits > 0,
                    "{what}: {} collisions, {} blocked candidates",
                    tally.collisions,
                    tally.blocked_hits
                );
                if name == "DBAO" {
                    assert_eq!(tally.mac_collisions, 0, "{what}");
                }
            }
        }
    }
}

/// Churn crashes nodes that the wake calendar still calls awake, next
/// to nodes with work, so the awake-side walk has live and crashed
/// rows to tell apart — at low duty and with every node always awake.
#[test]
fn churn_puts_crashed_nodes_beside_senders() {
    for wake in [Wake::Single, Wake::AlwaysOn] {
        for grid in [false, true] {
            let case = Case {
                n: 40,
                seed: 3,
                period: 4,
                m: 4,
                grid,
                wake,
                churn: true,
                spoof: true,
            };
            for (name, tally) in [
                ("OF", check_of(case, true)),
                ("DBAO", check_dbao(case, true)),
            ] {
                let what = format!("{name} {case:?}");
                assert_eq!(tally.mismatch, None, "{what}");
                assert!(tally.intents > 0, "{what}: vacuous");
                assert!(
                    tally.crashed_beside_senders > 0,
                    "{what}: no crashed node ever sat beside a sender"
                );
            }
        }
    }
}
