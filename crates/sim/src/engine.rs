//! The slotted simulation engine.

use crate::config::SimConfig;
use crate::energy::EnergyLedger;
use crate::mac::{self, MacScratch, Outcome, SlotResolution, TxIntent};
use crate::protocol::FloodingProtocol;
use crate::queue::FcfsQueues;
use crate::stats::SimReport;
use ldcf_faults::{ChurnAction, FaultPlan, NullFaultPlan};
use ldcf_net::bitset;
use ldcf_net::{NeighborTable, NodeId, PacketId, Topology, SOURCE};
use ldcf_obs::{NullObserver, NullProfiler, Phase, SimEvent, SimObserver, SimProfiler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// One packet's entry into the network: which node originates it and at
/// which slot. The default plan — every packet at the source, slot 0 —
/// reproduces the paper's workload; scenario workloads use secondary
/// origins (multi-source concurrent floods) or staggered slots
/// (periodic injection exercising Corollary 1 pipelining).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// The node the packet is injected at (already holding it).
    pub origin: NodeId,
    /// The slot the packet enters that node's forwarding queue.
    pub slot: u64,
}

impl Injection {
    /// The default injection: at the source, slot 0.
    pub fn at_source() -> Self {
        Self {
            origin: SOURCE,
            slot: 0,
        }
    }
}

/// How [`Engine::run`] advances simulated time.
///
/// The engine is event-driven: it refuses to *execute* slots it can
/// prove dead. Low-duty-cycle runs (the paper's regime: duty `1/T`
/// with large `T`) are mostly dead slots. The slot-stepped kind is
/// kept only as the oracle the differential tests hold the event
/// engine to: both kinds produce byte-identical artefacts — report,
/// energy ledger, trace stream, RNG consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Execute every slot in order (the reference oracle).
    Slot,
    /// After each quiet slot, jump straight to the next slot where any
    /// node with forwarding work has an awake, live neighbor (or where
    /// an injection, churn transition or source retry is due), booking
    /// the skipped span's energy, metrics and trace events in batch,
    /// for equal and mixed schedule periods alike.
    #[default]
    Event,
}

/// Read-only world + dynamic state exposed to protocols.
pub struct SimState {
    /// Run configuration.
    pub cfg: SimConfig,
    /// The network graph with link qualities.
    pub topo: Topology,
    /// All working schedules (local-synchronization table).
    pub schedules: NeighborTable,
    /// Current slot.
    pub now: u64,
    /// Possession matrix (the paper's X vector per packet), node-major:
    /// node `u`'s row is `packet_words` packed words starting at
    /// `u * packet_words`, bit `p` set iff `u` holds packet `p`.
    have: Vec<u64>,
    /// Words per node row of `have`.
    packet_words: usize,
    /// The same matrix transposed, packet-major: packet `p`'s row is
    /// `node_words` words starting at `p * node_words`, bit `u` set iff
    /// node `u` (source included) holds `p`. Kept in lock-step with
    /// `have`; lets churn repair and queue pruning reason about *who
    /// holds a packet* with word algebra instead of per-node probes.
    holder_bits: Vec<u64>,
    /// Words per packet row of `holder_bits` and `reach` (and per
    /// node of the adjacency/down/work bitsets).
    node_words: usize,
    /// Packet-major flood frontier, laid out like `holder_bits`: bit
    /// `v` of packet `p`'s row is set whenever `v` has a neighbor that
    /// holds `p` — a superset, since [`SimState::revoke`] never clears
    /// bits. Each grant sets the granted node's neighbors, so keeping
    /// it costs O(degree) per grant; a stale bit costs a reader one
    /// node visit, never a wrong answer.
    reach: Vec<u64>,
    /// Packet-major count of missing neighbors: entry `p * n + u` is the
    /// number of `u`'s neighbors (crashed ones included) that do not
    /// hold `p`. Starts at `u`'s degree; [`SimState::grant`] decrements
    /// it at every neighbor of the granted node, [`SimState::revoke`]
    /// increments it back. Queue pruning drops `(u, p)` once it is 0.
    missing: Vec<u32>,
    /// Every node's FCFS forwarding queue, with each queue's packet
    /// set as a row laid out like `have` (so "does `s` queue a packet
    /// `r` misses" is a word AND per row word,
    /// [`SimState::queue_misses`]), the set of nodes with a non-empty
    /// queue (protocols iterate it instead of scanning all N nodes for
    /// proposals) and the total queued, all kept exact at every queue
    /// mutation.
    queues: FcfsQueues,
    /// Per-packet count of *sensors* (source excluded) holding it.
    holders: Vec<u32>,
    /// Sensors needed for a packet to count as flooded.
    coverage_target: u32,
    /// Bitset of nodes crashed by fault injection (off the air). All
    /// zero unless a fault plan with churn is attached.
    down: Vec<u64>,
    /// Per-packet flood origin (all `SOURCE` for the default plan).
    origins: Vec<NodeId>,
    /// Packets injected so far. Injection plans are non-decreasing in
    /// packet id, so `0..injected` is exactly the in-flight prefix.
    injected: u32,
}

impl SimState {
    /// Whether `node` currently holds `packet`.
    #[inline]
    pub fn has(&self, node: NodeId, packet: PacketId) -> bool {
        bitset::test_bit(
            &self.have[node.index() * self.packet_words..],
            packet as usize,
        )
    }

    /// Packed row of packets `node` holds, bit `p` set iff it holds `p`.
    #[inline]
    pub fn have_words(&self, node: NodeId) -> &[u64] {
        &self.have[node.index() * self.packet_words..][..self.packet_words]
    }

    /// Packed row of packets in `node`'s FCFS queue, laid out like
    /// [`Self::have_words`].
    #[inline]
    pub fn queued_words(&self, node: NodeId) -> &[u64] {
        self.queues.queued_words(node)
    }

    /// Whether `s` queues a packet `r` does not hold: some word of
    /// `queued(s) & !have(r)` is non-zero. Without it, no packet of `s`'s
    /// queue can be forwarded to `r`.
    #[inline]
    pub fn queue_misses(&self, s: NodeId, r: NodeId) -> bool {
        self.queued_words(s)
            .iter()
            .zip(self.have_words(r))
            .any(|(&q, &h)| q & !h != 0)
    }

    /// Packed row of nodes (source included) holding `packet`, bit `u`
    /// set iff node `u` holds it. Indexed like
    /// [`NeighborTable::active_words`], so "awake and missing it" is
    /// word algebra.
    #[inline]
    pub fn holder_words(&self, packet: PacketId) -> &[u64] {
        &self.holder_bits[packet as usize * self.node_words..][..self.node_words]
    }

    /// Packed frontier row of `packet`: bit `v` is set for every `v`
    /// with a neighbor holding `packet` (source included). A superset —
    /// crash wipes leave their bits behind — so readers must still test
    /// real possession; what it buys is that no node *outside* the row
    /// can be one hop from a holder. Indexed like [`Self::holder_words`].
    #[inline]
    pub fn reach_words(&self, packet: PacketId) -> &[u64] {
        &self.reach[packet as usize * self.node_words..][..self.node_words]
    }

    /// Packed bitset of nodes whose forwarding queue is non-empty.
    #[inline]
    pub fn work_words(&self) -> &[u64] {
        self.queues.nonempty_words()
    }

    /// Nodes with a non-empty forwarding queue, ascending. Only these
    /// can propose a transmission, so protocol `propose` loops iterate
    /// this instead of every node.
    #[inline]
    pub fn nodes_with_work(&self) -> impl Iterator<Item = NodeId> + '_ {
        bitset::iter_ones(self.work_words()).map(NodeId::from)
    }

    /// Whether some node with forwarding work has a live neighbor awake
    /// at slot `t` — exactly when the event engine's rendezvous query
    /// from `t` would answer `t`. Adjacency is symmetric, so this walks
    /// the rows of the awake, live nodes (at low duty far fewer than
    /// the nodes with work) looking for a neighbor with work.
    fn work_has_awake_neighbor(&self, t: u64) -> bool {
        let awake = self.schedules.active_words(t);
        let work = self.work_words();
        for (w, (&a, &d)) in awake.iter().zip(&self.down).enumerate() {
            let mut live = a & !d;
            while live != 0 {
                let v = NodeId::from(w * 64 + live.trailing_zeros() as usize);
                live &= live - 1;
                let row = self.topo.neighbor_ids(v);
                if row.iter().any(|u| bitset::test_bit(work, u.index())) {
                    return true;
                }
            }
        }
        false
    }

    /// The FCFS queue of `node`: its packets in arrival order.
    #[inline]
    pub fn queue(&self, node: NodeId) -> &[PacketId] {
        self.queues.get(node)
    }

    /// Whether `node` is active (can receive) this slot. A node crashed
    /// by fault injection is never active, whatever its schedule says.
    #[inline]
    pub fn is_active(&self, node: NodeId) -> bool {
        self.schedules.is_active(node, self.now) && !bitset::test_bit(&self.down, node.index())
    }

    /// Whether `node` is currently crashed (fault injection).
    #[inline]
    pub fn is_down(&self, node: NodeId) -> bool {
        bitset::test_bit(&self.down, node.index())
    }

    /// Packed bitset of crashed nodes (all zero without churn).
    #[inline]
    pub fn down_words(&self) -> &[u64] {
        &self.down
    }

    /// Number of sensors holding `packet`.
    pub fn holders(&self, packet: PacketId) -> u32 {
        self.holders[packet as usize]
    }

    /// Sensors required for coverage.
    pub fn coverage_target(&self) -> u32 {
        self.coverage_target
    }

    /// Whether `packet` already reached its coverage target (protocols
    /// may use this only where the paper grants them the knowledge —
    /// OPT's oracle does; local protocols use local heuristics instead).
    pub fn is_covered(&self, packet: PacketId) -> bool {
        self.holders[packet as usize] >= self.coverage_target
    }

    /// Total nodes (source + sensors).
    pub fn n_nodes(&self) -> usize {
        self.topo.n_nodes()
    }

    /// Packets injected so far (all of `0..n_injected` are in flight or
    /// done; plans are non-decreasing in packet id, so the injected set
    /// is always a prefix).
    pub fn n_injected(&self) -> u32 {
        self.injected
    }

    /// The node `packet` was injected at — the source unless an
    /// explicit injection plan says otherwise.
    pub fn origin(&self, packet: PacketId) -> NodeId {
        self.origins[packet as usize]
    }

    /// Mark `node` as holding `packet` in both orientations of the
    /// possession matrix, put its neighbors on the packet's frontier
    /// row, and count it out of their missing neighbors.
    #[inline]
    fn grant(&mut self, node: NodeId, packet: PacketId) {
        if !bitset::set_bit(
            &mut self.holder_bits[packet as usize * self.node_words..],
            node.index(),
        ) {
            return;
        }
        bitset::set_bit(
            &mut self.have[node.index() * self.packet_words..],
            packet as usize,
        );
        let n = self.topo.n_nodes();
        let reach = &mut self.reach[packet as usize * self.node_words..][..self.node_words];
        let missing = &mut self.missing[packet as usize * n..][..n];
        for &v in self.topo.neighbor_ids(node) {
            bitset::set_bit(reach, v.index());
            missing[v.index()] -= 1;
        }
    }

    /// Erase `node`'s copy of `packet` (crash wipe) and count it back
    /// into its neighbors' missing neighbors. The frontier row keeps its
    /// bits: clearing them would need every other holder's adjacency,
    /// and a stale bit is harmless (see `reach`).
    #[inline]
    fn revoke(&mut self, node: NodeId, packet: PacketId) {
        if !self.has(node, packet) {
            return;
        }
        bitset::clear_bit(
            &mut self.have[node.index() * self.packet_words..],
            packet as usize,
        );
        bitset::clear_bit(
            &mut self.holder_bits[packet as usize * self.node_words..],
            node.index(),
        );
        let n = self.topo.n_nodes();
        for &v in self.topo.neighbor_ids(node) {
            self.missing[packet as usize * n + v.index()] += 1;
        }
    }

    /// Churn repair for one uncovered packet: re-queue it at every live
    /// holder that has a live neighbor still missing it (queue pruning
    /// assumed possession was monotone, so a crash or recovery can leave
    /// live holders with real forwarding work but empty queues). Word
    /// algebra over the possession row keeps this proportional to the
    /// holders of `p`, not to packets × nodes.
    fn repair_requeue(&mut self, p: PacketId) {
        for w in 0..self.node_words {
            let mut live_holders = self.holder_words(p)[w] & !self.down[w];
            while live_holders != 0 {
                let u = NodeId::from(w * 64 + live_holders.trailing_zeros() as usize);
                live_holders &= live_holders - 1;
                if self.queues.contains(u, p) {
                    continue;
                }
                let holders = self.holder_words(p);
                let needy = self.topo.neighbor_ids(u).iter().any(|&v| {
                    !bitset::test_bit(&self.down, v.index())
                        && !bitset::test_bit(holders, v.index())
                });
                if needy {
                    self.queues.push(u, p);
                }
            }
        }
    }
}

/// The simulation engine: owns state, protocol, RNG and statistics.
///
/// Generic over a [`SimObserver`]; the default [`NullObserver`] has
/// `ENABLED = false`, so every emission site below compiles away and an
/// un-observed engine pays nothing for observability. Attach a real
/// observer with [`Engine::with_observer`].
///
/// Likewise generic over a [`FaultPlan`]; the default [`NullFaultPlan`]
/// has `ENABLED = false`, so every fault hook compiles away and the
/// fault-free hot path is byte-identical to an engine that never heard
/// of faults. Attach a real plan with [`Engine::with_faults`]. Fault
/// randomness lives in the plan's own RNGs: an enabled plan only moves
/// the thresholds of the engine's existing Bernoulli draws, never their
/// count or order, so the engine RNG stream is untouched.
///
/// And generic over a [`SimProfiler`]; the default [`NullProfiler`]
/// has `ENABLED = false`, so no clock is ever read and every timing
/// site compiles away. Attach a profiler with [`Engine::with_profiler`].
/// Profiling reads wall clocks but touches no simulation state and no
/// RNG, so a profiled run's outcomes are byte-identical to an
/// unprofiled one.
pub struct Engine<
    P: FloodingProtocol,
    O: SimObserver = NullObserver,
    F: FaultPlan = NullFaultPlan,
    Pr: SimProfiler = NullProfiler,
> {
    /// Everything that does not depend on the type parameters, so the
    /// `with_*` builders move it as one value.
    core: Core,
    protocol: P,
    obs: O,
    faults: F,
    profiler: Pr,
}

/// The non-generic part of an [`Engine`]: world state, RNG, statistics
/// and the slot loop's reusable scratch.
struct Core {
    state: SimState,
    rng: StdRng,
    report: SimReport,
    energy: EnergyLedger,
    intents_buf: Vec<TxIntent>,
    /// Reusable MAC working set (bitsets + index buffers).
    mac_scratch: MacScratch,
    /// Reusable MAC result buffers.
    res_buf: SlotResolution,
    /// Reusable per-slot list of fresh `(receiver, packet)` deliveries.
    delivered_buf: Vec<(NodeId, PacketId)>,
    /// Final clock read of the previous slot, carried over as the next
    /// slot's start anchor (profiled runs only). Chaining the anchor
    /// across slots attributes the inter-slot overhead — the profiler's
    /// own bookkeeping, the run loop, the termination check — to the
    /// next slot instead of leaving it unattributed, so the profile's
    /// phase coverage of the run loop's wall clock stays near 1.
    slot_anchor: Option<Instant>,
    /// Scratch buffer for [`FaultPlan::churn_actions`].
    churn_buf: Vec<ChurnAction>,
    /// Pending source retries `(due_slot, packet)` (churn recovery).
    retry_heap: BinaryHeap<Reverse<(u64, PacketId)>>,
    /// Per-packet retry count (drives exponential backoff).
    retry_attempts: Vec<u32>,
    /// Per-packet flag: a retry is already queued in `retry_heap`.
    retry_pending: Vec<bool>,
    /// Deferred injections `(slot, packet, origin)`, sorted by slot;
    /// empty for the default plan (everything enters at slot 0).
    pending_injections: Vec<(u64, PacketId, NodeId)>,
    /// Cursor into `pending_injections`.
    next_injection: usize,
    /// Non-default slot-0 injections `(packet, origin)`, kept so the
    /// observer (attached after construction) can be told at slot 0.
    start_injections: Vec<(PacketId, NodeId)>,
    /// How `run` advances time (event skipping, or the slot-stepped
    /// oracle).
    kind: EngineKind,
    /// Scratch: packed union of the neighbors of every node with work,
    /// masked by live nodes — the receivers whose wake-up could make
    /// the next slot matter (event engine only).
    reach_buf: Vec<u64>,
    /// Scratch: word-occupancy summary of `reach_buf` (see
    /// [`bitset::summarize_into`]), sized for the calendar's
    /// next-rendezvous query.
    reach_summary_buf: Vec<u64>,
    /// Scratch: awake-node count per calendar offset of an idle span
    /// (event engine only), with room for the whole calendar period.
    awake_buf: Vec<u64>,
    /// Nanoseconds of idle-skip settlement awaiting attribution to the
    /// next dispatched slot's total (profiled event runs only), so
    /// phase times keep telescoping to the slot total exactly.
    skip_carry_ns: u64,
}

impl Core {
    /// Put packet `p` into `origin`'s queue at slot `now`: the one path
    /// of every injection, at build time (slot 0) and from the deferred
    /// plan. A sensor origin holds its own packet, so it counts towards
    /// that packet's coverage from then on.
    fn inject(&mut self, origin: NodeId, p: PacketId, now: u64) {
        let state = &mut self.state;
        state.grant(origin, p);
        state.queues.push(origin, p);
        self.report.record_injection(p, now);
        state.injected += 1;
        if origin != SOURCE {
            let pi = p as usize;
            state.holders[pi] += 1;
            if state.holders[pi] >= state.coverage_target {
                self.report.record_coverage(p, now);
            }
        }
    }
}

/// Drop every intent `missed` flags, booking each as a mistimed
/// transmission: the energy and a failure are spent, nothing reaches
/// the MAC. An in-place retain: the per-slot scratch Vec this used to
/// allocate showed up in the engine profile at high duty.
#[inline]
fn drop_mistimed<O: SimObserver>(
    intents: &mut Vec<TxIntent>,
    slot: u64,
    report: &mut SimReport,
    energy: &mut EnergyLedger,
    obs: &mut O,
    mut missed: impl FnMut(&TxIntent) -> bool,
) {
    intents.retain(|it| {
        if !missed(it) {
            return true;
        }
        report.transmissions += 1;
        report.transmission_failures += 1;
        report.mistimed += 1;
        report.packets[it.packet as usize].failures += 1;
        energy.tx_slots += 1;
        energy.failed_tx_slots += 1;
        if O::ENABLED {
            obs.on_event(&SimEvent::Mistimed {
                slot,
                sender: it.sender,
                receiver: it.receiver,
                packet: it.packet,
            });
        }
        false
    });
}

impl<P: FloodingProtocol> Engine<P> {
    /// Build an engine. Schedules are drawn from the config's duty cycle
    /// (one schedule per node, single-slot unless `active_per_period > 1`).
    pub fn new(topo: Topology, cfg: SimConfig, protocol: P) -> Self {
        cfg.validate();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = topo.n_nodes();
        let schedules = if cfg.active_per_period == 1 {
            NeighborTable::random_single_slot(n, cfg.period, &mut rng)
        } else {
            NeighborTable::new(
                (0..n)
                    .map(|_| {
                        ldcf_net::WorkingSchedule::multi_random(
                            cfg.period,
                            cfg.active_per_period,
                            &mut rng,
                        )
                    })
                    .collect(),
            )
        };
        Self::with_schedules(topo, cfg, schedules, protocol)
    }

    /// Build an engine with explicit working schedules; every packet is
    /// injected at the source in slot 0 ([`Injection::at_source`]).
    pub fn with_schedules(
        topo: Topology,
        cfg: SimConfig,
        schedules: NeighborTable,
        protocol: P,
    ) -> Self {
        let plan = vec![Injection::at_source(); cfg.n_packets as usize];
        Self::with_injections(topo, cfg, schedules, &plan, protocol)
    }

    /// Build an engine with explicit schedules *and* an explicit
    /// injection plan (one [`Injection`] per packet, slots non-decreasing
    /// in packet id).
    pub fn with_injections(
        topo: Topology,
        cfg: SimConfig,
        schedules: NeighborTable,
        plan: &[Injection],
        protocol: P,
    ) -> Self {
        cfg.validate();
        assert_eq!(schedules.n_nodes(), topo.n_nodes());
        let n = topo.n_nodes();
        let n_sensors = topo.n_sensors();
        let m = cfg.n_packets as usize;
        let coverage_target = ((cfg.coverage * n_sensors as f64).ceil() as u32).max(1);
        let rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let report = SimReport::new(protocol.name(), n_sensors, cfg.duty_ratio(), cfg.n_packets);
        let packet_words = bitset::words_for(m);
        let node_words = bitset::words_for(n);
        // The most intents, MAC events, deliveries or touched nodes one
        // slot can have: intents run over distinct links into awake
        // receivers and each awake node overhears at most once, so the
        // wake calendar's busiest offset bounds them by its sum of
        // (degree + 1), and no list outgrows the node count.
        let per_slot = schedules.busiest_offset(|v| topo.degree(v) + 1).min(n);
        let calendar_period = schedules.calendar_period() as usize;
        // Nobody holds anything yet: every neighbor is missing.
        let missing = (0..m)
            .flat_map(|_| (0..n).map(|u| topo.degree(NodeId::from(u)) as u32))
            .collect();
        let state = SimState {
            cfg,
            topo,
            schedules,
            now: 0,
            have: vec![0; n * packet_words],
            packet_words,
            holder_bits: vec![0; m * node_words],
            node_words,
            reach: vec![0; m * node_words],
            missing,
            queues: FcfsQueues::new(n, m),
            holders: vec![0; m],
            coverage_target,
            down: vec![0; node_words],
            origins: vec![SOURCE; m],
            injected: 0,
        };
        assert_eq!(plan.len(), m, "injection plan needs one entry per packet");
        assert!(
            plan.windows(2).all(|w| w[0].slot <= w[1].slot),
            "injection slots must be non-decreasing in packet id"
        );
        let mut core = Core {
            state,
            rng,
            report,
            energy: EnergyLedger::default(),
            // Slot-loop scratch, sized by what can be awake in one slot
            // (`per_slot`), not by the node count: the flood wave
            // widening mid-run must not grow any of these — the
            // allocation gate asserts zero heap allocations per
            // steady-state slot. Only churn, redrawing a schedule into a
            // busier offset, can outgrow them.
            intents_buf: Vec::with_capacity(per_slot),
            mac_scratch: MacScratch::for_nodes(n, per_slot),
            res_buf: SlotResolution::with_capacity(per_slot),
            delivered_buf: Vec::with_capacity(per_slot),
            slot_anchor: None,
            churn_buf: Vec::new(),
            retry_heap: BinaryHeap::new(),
            retry_attempts: vec![0; m],
            retry_pending: vec![false; m],
            pending_injections: Vec::new(),
            next_injection: 0,
            start_injections: Vec::new(),
            kind: EngineKind::Event,
            // Event-engine scratch, pre-sized like the rest: skipping
            // must stay allocation-free too.
            reach_buf: vec![0; node_words],
            reach_summary_buf: vec![0; bitset::words_for(node_words)],
            awake_buf: Vec::with_capacity(calendar_period),
            skip_carry_ns: 0,
        };
        for (pi, inj) in plan.iter().enumerate() {
            let p = pi as PacketId;
            assert!(inj.origin.index() < n, "injection origin out of range");
            core.state.origins[pi] = inj.origin;
            if inj.slot > 0 {
                core.pending_injections.push((inj.slot, p, inj.origin));
                continue;
            }
            // Slot-0 packets enter their origin's queue in packet order:
            // at the source, FCFS realises the paper's sequential injection.
            core.inject(inj.origin, p, 0);
            if inj.origin != SOURCE {
                core.start_injections.push((p, inj.origin));
            }
        }
        Self {
            core,
            protocol,
            obs: NullObserver,
            faults: NullFaultPlan,
            profiler: NullProfiler,
        }
    }
}

impl<P: FloodingProtocol, O: SimObserver, F: FaultPlan, Pr: SimProfiler> Engine<P, O, F, Pr> {
    /// Attach an observer, consuming the engine. Typically called right
    /// after construction:
    ///
    /// `Engine::new(topo, cfg, proto).with_observer(JsonlSink::new(file))`
    pub fn with_observer<O2: SimObserver>(self, obs: O2) -> Engine<P, O2, F, Pr> {
        Engine {
            core: self.core,
            protocol: self.protocol,
            obs,
            faults: self.faults,
            profiler: self.profiler,
        }
    }

    /// Attach a fault plan, consuming the engine:
    ///
    /// `Engine::new(topo, cfg, proto).with_faults(fault_cfg.build())`
    pub fn with_faults<F2: FaultPlan>(self, faults: F2) -> Engine<P, O, F2, Pr> {
        Engine {
            core: self.core,
            protocol: self.protocol,
            obs: self.obs,
            faults,
            profiler: self.profiler,
        }
    }

    /// Attach a profiler, consuming the engine. Lend a
    /// [`ldcf_obs::PhaseProfiler`] by mutable reference to keep it after
    /// the run:
    ///
    /// `Engine::new(topo, cfg, proto).with_profiler(&mut profiler)`
    pub fn with_profiler<Pr2: SimProfiler>(self, profiler: Pr2) -> Engine<P, O, F, Pr2> {
        Engine {
            core: self.core,
            protocol: self.protocol,
            obs: self.obs,
            faults: self.faults,
            profiler,
        }
    }

    /// Select how [`Engine::run`] advances time. The default
    /// [`EngineKind::Event`] skips provably dead spans;
    /// [`EngineKind::Slot`] is the oracle that executes every slot,
    /// with byte-identical artefacts.
    pub fn with_engine_kind(mut self, kind: EngineKind) -> Self {
        self.core.kind = kind;
        self
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Immutable view of the state (for tests and tools).
    pub fn state(&self) -> &SimState {
        &self.core.state
    }

    /// The statistics gathered so far.
    pub fn report(&self) -> &SimReport {
        &self.core.report
    }

    /// Energy ledger gathered so far.
    pub fn energy(&self) -> &EnergyLedger {
        &self.core.energy
    }

    /// Execute the fault plan's churn transitions due this slot: crashes
    /// wipe RAM (possession + queue) and take the node off the air;
    /// recoveries bring it back with a fresh working schedule. After any
    /// transition, a repair pass re-queues packets whose dissemination
    /// the churn may have wedged.
    fn apply_churn(&mut self) {
        let now = self.core.state.now;
        let mut actions = std::mem::take(&mut self.core.churn_buf);
        actions.clear();
        self.faults
            .churn_actions(now, &self.core.state.schedules, &mut actions);
        let churned = !actions.is_empty();
        let backoff = self.faults.source_retry_backoff();
        for a in actions.drain(..) {
            match a {
                ChurnAction::Crash(v) => {
                    debug_assert_ne!(v, SOURCE, "fault plans must not crash the source");
                    let vi = v.index();
                    if bitset::test_bit(&self.core.state.down, vi) {
                        continue;
                    }
                    bitset::set_bit(&mut self.core.state.down, vi);
                    self.core.report.node_crashes += 1;
                    if O::ENABLED {
                        self.obs
                            .on_event(&SimEvent::NodeCrashed { slot: now, node: v });
                    }
                    // RAM wipe: forwarding queue and packet possession.
                    self.core.state.queues.clear(v);
                    for p in 0..self.core.state.cfg.n_packets {
                        let pi = p as usize;
                        if !self.core.state.has(v, p) {
                            continue;
                        }
                        self.core.state.revoke(v, p);
                        self.core.state.holders[pi] -= 1;
                        // Arm a source-side retry for packets the crash
                        // may have orphaned mid-flood.
                        if backoff.is_some()
                            && self.core.report.packets[pi].covered_at.is_none()
                            && !self.core.retry_pending[pi]
                        {
                            self.core.retry_pending[pi] = true;
                            self.core
                                .retry_heap
                                .push(Reverse((now + backoff.unwrap_or(1), p)));
                        }
                    }
                }
                ChurnAction::Recover(v, schedule) => {
                    let vi = v.index();
                    if !bitset::test_bit(&self.core.state.down, vi) {
                        continue;
                    }
                    bitset::clear_bit(&mut self.core.state.down, vi);
                    self.core.state.schedules.set_schedule(v, schedule);
                    self.core.report.node_recoveries += 1;
                    if O::ENABLED {
                        self.obs
                            .on_event(&SimEvent::NodeRecovered { slot: now, node: v });
                    }
                }
            }
        }
        self.core.churn_buf = actions;
        if !churned {
            return;
        }
        // Repair pass: re-queue each uncovered packet at every live
        // holder that still has a live, needy neighbor (see
        // [`SimState::repair_requeue`]).
        for p in 0..self.core.state.cfg.n_packets {
            if self.core.report.packets[p as usize].covered_at.is_some() {
                continue;
            }
            self.core.state.repair_requeue(p);
        }
    }

    /// Fire due source retries: re-queue still-uncovered packets at the
    /// source with exponential backoff, so a flood interrupted by node
    /// crashes degrades instead of wedging.
    fn fire_retries(&mut self) {
        let Some(base) = self.faults.source_retry_backoff() else {
            return;
        };
        let now = self.core.state.now;
        while let Some(&Reverse((at, p))) = self.core.retry_heap.peek() {
            if at > now {
                break;
            }
            self.core.retry_heap.pop();
            let pi = p as usize;
            self.core.retry_pending[pi] = false;
            if self.core.report.packets[pi].covered_at.is_some() {
                continue;
            }
            // With a deferred-injection plan the source may not hold a
            // not-yet-injected packet; a retry can only re-queue copies
            // the source actually has (always true for the default plan).
            if self.core.state.has(SOURCE, p) && !self.core.state.queues.contains(SOURCE, p) {
                self.core.state.queues.push(SOURCE, p);
                self.core.report.source_retries += 1;
                if O::ENABLED {
                    self.obs.on_event(&SimEvent::SourceRetry {
                        slot: now,
                        packet: p,
                    });
                }
            }
            // Re-arm with exponential backoff (capped) until covered.
            let shift = self.core.retry_attempts[pi].min(6);
            self.core.retry_attempts[pi] += 1;
            self.core.retry_pending[pi] = true;
            self.core
                .retry_heap
                .push(Reverse((now + (base << shift), p)));
        }
    }

    /// Close the current profiling phase: record the time since the
    /// previous boundary under `phase` and advance the chain. Each
    /// boundary reads the clock once and hands the timestamp to both
    /// the closing phase and the opening one, so per-slot phase times
    /// telescope — their sum equals the slot total exactly. Compiles to
    /// nothing under [`NullProfiler`].
    #[inline]
    fn phase_mark(&mut self, chain: &mut Option<Instant>, phase: Phase) {
        if Pr::ENABLED {
            let t = Instant::now();
            if let Some(prev) = chain.replace(t) {
                self.profiler
                    .record(phase, t.duration_since(prev).as_nanos() as u64);
            }
        }
    }

    /// Advance one slot. Returns `false` once the run has terminated
    /// (all packets covered, or `max_slots` reached).
    pub fn step(&mut self) -> bool {
        if self.core.report.all_covered() || self.core.state.now >= self.core.state.cfg.max_slots {
            return false;
        }
        // Profiling timestamp chain: `t_slot` anchors the whole slot,
        // `t_chain` walks the phase boundaries (see [`Self::phase_mark`]).
        // The anchor is the previous slot's final clock read when one
        // exists (see [`Self::slot_anchor`]): the inter-slot gap — the
        // profiler's own recording, the caller's loop — lands in this
        // slot's Injection phase instead of vanishing unattributed.
        let t_slot = if Pr::ENABLED {
            Some(self.core.slot_anchor.take().unwrap_or_else(Instant::now))
        } else {
            None
        };
        let mut t_chain = t_slot;
        if self.core.state.now == 0 {
            if O::ENABLED {
                // Dump every node's working schedule up front so a trace
                // is self-contained: consumers (forensics) can tell a
                // receiver that was asleep from one that was awake but
                // starved. Schedules only change after construction when
                // a fault plan's churn reboots a node (such traces are
                // not forensics-compatible).
                for ni in 0..self.core.state.n_nodes() {
                    let node = NodeId::from(ni);
                    let sched = self.core.state.schedules.schedule(node);
                    for &offset in sched.active_slots() {
                        self.obs.on_event(&SimEvent::ScheduleSlot {
                            slot: 0,
                            node,
                            period: sched.period(),
                            offset,
                        });
                    }
                }
                // Announce non-default slot-0 injections (multi-source
                // workloads) so a trace carries every packet's origin.
                // The observer attaches after construction, which is why
                // these are emitted here and not at build time.
                for i in 0..self.core.start_injections.len() {
                    let (packet, node) = self.core.start_injections[i];
                    self.obs.on_event(&SimEvent::PacketInjected {
                        slot: 0,
                        node,
                        packet,
                    });
                }
            }
            if F::ENABLED {
                self.faults.on_start(self.core.state.n_nodes());
                // A plan that can reboot nodes rewrites schedules: take
                // the run's own copy of a shared table now, before any
                // slot work, not at the first reboot mid-run.
                if self.faults.churn_horizon() != u64::MAX {
                    self.core.state.schedules.unshare();
                }
            }
            self.protocol.on_start(&self.core.state);
        }

        // --- deferred injections (periodic / staged workloads) ---------------
        // Empty for the default plan, so single-source runs skip this
        // entirely (no RNG draws, no events: pinned traces are unchanged).
        while self.core.next_injection < self.core.pending_injections.len() {
            let (slot, p, origin) = self.core.pending_injections[self.core.next_injection];
            if slot > self.core.state.now {
                break;
            }
            self.core.next_injection += 1;
            let now = self.core.state.now;
            self.core.inject(origin, p, now);
            if O::ENABLED {
                self.obs.on_event(&SimEvent::PacketInjected {
                    slot: now,
                    node: origin,
                    packet: p,
                });
            }
        }

        self.phase_mark(&mut t_chain, Phase::Injection);

        // --- fault dynamics (churn + source retries) -------------------------
        if F::ENABLED {
            self.apply_churn();
            self.fire_retries();
        }
        self.phase_mark(&mut t_chain, Phase::Faults);

        // --- gather intents ------------------------------------------------
        self.core.intents_buf.clear();
        let mut intents = std::mem::take(&mut self.core.intents_buf);
        self.protocol.propose(&self.core.state, &mut intents);
        self.phase_mark(&mut t_chain, Phase::Propose);

        // Residual local-sync error: each transmission independently
        // misses its rendezvous with probability `mistiming_prob` — the
        // sender wakes against a stale schedule estimate and emits into a
        // closed window. The transmission is spent (energy + failure) but
        // nothing is received.
        if self.core.state.cfg.mistiming_prob > 0.0 {
            let p = self.core.state.cfg.mistiming_prob;
            let rng = &mut self.core.rng;
            drop_mistimed(
                &mut intents,
                self.core.state.now,
                &mut self.core.report,
                &mut self.core.energy,
                &mut self.obs,
                |_| rand::Rng::random::<f64>(rng) < p,
            );
        }

        // Injected clock drift: the fault plan draws (from its own RNG)
        // whether each sender's accumulated skew makes it miss the
        // rendezvous. Same bookkeeping as residual mis-sync above, as a
        // second pass: interleaving the two would reorder the
        // `Mistimed` events a trace records.
        if F::ENABLED {
            let slot = self.core.state.now;
            let faults = &mut self.faults;
            drop_mistimed(
                &mut intents,
                slot,
                &mut self.core.report,
                &mut self.core.energy,
                &mut self.obs,
                |it| faults.drift_miss(it.sender, slot),
            );
        }

        #[cfg(debug_assertions)]
        for it in &intents {
            debug_assert!(
                self.core.state.has(it.sender, it.packet),
                "{} proposes {} it does not hold",
                it.sender,
                it.packet
            );
            debug_assert!(
                self.core.state.is_active(it.receiver),
                "receiver {} is dormant at {}",
                it.receiver,
                self.core.state.now
            );
            debug_assert!(
                self.core.state.topo.are_neighbors(it.sender, it.receiver),
                "no link {} -> {}",
                it.sender,
                it.receiver
            );
        }
        self.phase_mark(&mut t_chain, Phase::Sync);

        // --- resolve through the MAC ---------------------------------------
        let now = self.core.state.now;
        let schedules = &self.core.state.schedules;
        let have = &self.core.state.have;
        let packet_words = self.core.state.packet_words;
        let down = &self.core.state.down;
        let faults = &mut self.faults;
        let mut res = std::mem::take(&mut self.core.res_buf);
        mac::resolve_slot_into(
            &self.core.state.topo,
            &intents,
            self.protocol.overhearing(),
            |r| schedules.is_active(r, now) && (!F::ENABLED || !bitset::test_bit(down, r.index())),
            |r, p| !bitset::test_bit(&have[r.index() * packet_words..], p as usize),
            |s, r, base| {
                if F::ENABLED {
                    faults.link_prr(s, r, base, now)
                } else {
                    base
                }
            },
            &mut self.core.rng,
            &mut self.core.mac_scratch,
            &mut res,
        );
        self.phase_mark(&mut t_chain, Phase::Mac);

        // --- apply outcomes -------------------------------------------------
        self.core.report.transmissions += res.transmitted.len() as u64;
        self.core.report.deferrals += res.deferred.len() as u64;
        self.core.energy.tx_slots += res.transmitted.len() as u64;

        if O::ENABLED {
            for &i in &res.committed {
                let it = &intents[i];
                self.obs.on_event(&SimEvent::TxAttempt {
                    slot: now,
                    sender: it.sender,
                    receiver: it.receiver,
                    packet: it.packet,
                    bypass_mac: it.bypass_mac,
                });
            }
            for &d in &res.deferred {
                let it = &intents[d];
                self.obs.on_event(&SimEvent::Deferred {
                    slot: now,
                    sender: it.sender,
                    receiver: it.receiver,
                    packet: it.packet,
                });
            }
        }

        let mut newly_delivered = std::mem::take(&mut self.core.delivered_buf);
        newly_delivered.clear();
        for e in &res.events {
            if e.sender == self.core.state.origins[e.packet as usize] {
                self.core.report.record_push(e.packet, now);
            }
            match e.outcome {
                Outcome::Delivered | Outcome::Overheard => {
                    let pi = e.packet as usize;
                    self.core.energy.rx_slots += 1;
                    let fresh = !self.core.state.has(e.receiver, e.packet);
                    if O::ENABLED {
                        let ev = match e.outcome {
                            Outcome::Overheard => SimEvent::Overheard {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                                fresh,
                            },
                            _ => SimEvent::Delivered {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                                fresh,
                            },
                        };
                        self.obs.on_event(&ev);
                    }
                    if fresh {
                        self.core.state.grant(e.receiver, e.packet);
                        self.core.state.queues.push(e.receiver, e.packet);
                        newly_delivered.push((e.receiver, e.packet));
                        if e.receiver != SOURCE {
                            self.core.state.holders[pi] += 1;
                            if self.core.state.holders[pi] >= self.core.state.coverage_target {
                                if O::ENABLED && self.core.report.packets[pi].covered_at.is_none() {
                                    self.obs.on_event(&SimEvent::CoverageReached {
                                        slot: now,
                                        packet: e.packet,
                                        holders: self.core.state.holders[pi],
                                    });
                                }
                                self.core.report.record_coverage(e.packet, now);
                            }
                        }
                        let st = &mut self.core.report.packets[pi];
                        match e.outcome {
                            Outcome::Overheard => {
                                st.overhears += 1;
                                self.core.report.overhears += 1;
                            }
                            _ => st.deliveries += 1,
                        }
                    }
                    // Duplicate deliveries cost energy but change nothing.
                }
                o if o.is_failure() => {
                    self.core.report.transmission_failures += 1;
                    self.core.report.packets[e.packet as usize].failures += 1;
                    self.core.energy.failed_tx_slots += 1;
                    if o == Outcome::Collision {
                        self.core.report.collisions += 1;
                    }
                    if O::ENABLED {
                        let ev = match o {
                            Outcome::Collision => SimEvent::Collision {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                            },
                            Outcome::LinkLoss => SimEvent::LinkLoss {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                            },
                            _ => SimEvent::ReceiverBusy {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                            },
                        };
                        self.obs.on_event(&ev);
                        // Tag losses taken while the link sat in an
                        // injected burst's bad state (supplementary to
                        // the LinkLoss above; consumers count once).
                        if F::ENABLED
                            && o == Outcome::LinkLoss
                            && self.faults.in_burst(e.sender, e.receiver)
                        {
                            self.obs.on_event(&SimEvent::BurstLoss {
                                slot: now,
                                sender: e.sender,
                                receiver: e.receiver,
                                packet: e.packet,
                            });
                        }
                    }
                }
                _ => unreachable!("all outcomes handled"),
            }
        }
        self.phase_mark(&mut t_chain, Phase::Deliver);

        // Prune exhausted queue entries: once every neighbor of `u` holds
        // packet `p`, `u` can never again have forwarding work for `p`
        // (possession is monotone), so drop it from `u`'s FCFS queue.
        // Triggered incrementally by fresh deliveries to keep this cheap:
        // only the receiver and its neighbors can have just become
        // exhausted, and "all neighbors hold it" is a zero count of
        // missing neighbors, kept by `grant`/`revoke`.
        let state = &mut self.core.state;
        let n = state.topo.n_nodes();
        for &(r, p) in &newly_delivered {
            let missing = &state.missing[p as usize * n..][..n];
            for &u in state.topo.neighbor_ids(r).iter().chain(std::iter::once(&r)) {
                if missing[u.index()] == 0 {
                    state.queues.remove(u, p);
                }
            }
        }

        self.protocol.on_events(&self.core.state, &res.events);
        self.phase_mark(&mut t_chain, Phase::Prune);

        // --- energy for scheduled duty cycling -------------------------------
        // Crashed nodes draw no power: they count as asleep, keeping the
        // ledger identity `active + sleep == slots * n` under churn.
        let n = self.core.state.n_nodes() as u64;
        let active_now = if F::ENABLED {
            self.core
                .state
                .schedules
                .active_words(now)
                .iter()
                .zip(&self.core.state.down)
                .map(|(a, d)| (a & !d).count_ones() as u64)
                .sum()
        } else {
            self.core.state.schedules.active_count(now) as u64
        };
        self.core.energy.active_slots += active_now;
        self.core.energy.sleep_slots += n - active_now;

        if O::ENABLED {
            self.obs.on_event(&SimEvent::SlotEnd {
                slot: now,
                queued: self.core.state.queues.total(),
                active_nodes: active_now as u32,
            });
        }

        self.core.state.now += 1;
        self.core.report.slots_elapsed = self.core.state.now;
        self.core.intents_buf = intents;
        self.core.res_buf = res;
        self.core.delivered_buf = newly_delivered;
        if Pr::ENABLED {
            // One final clock read closes both the Energy phase and the
            // whole slot, so phase times sum to the slot total exactly.
            // Any pending idle-skip nanoseconds (event engine) join this
            // slot's total — their segment was already recorded under
            // `Phase::IdleSkip`, keeping the telescoping exact.
            let t = Instant::now();
            if let Some(prev) = t_chain {
                self.profiler
                    .record(Phase::Energy, t.duration_since(prev).as_nanos() as u64);
            }
            if let Some(start) = t_slot {
                self.profiler
                    .slot_end(t.duration_since(start).as_nanos() as u64 + self.core.skip_carry_ns);
                self.core.skip_carry_ns = 0;
            }
            self.core.slot_anchor = Some(t);
        }
        true
    }

    /// Event-engine core: after a quiet slot, jump the clock straight
    /// to the next slot that could possibly change anything.
    ///
    /// A slot is *provably dead* — safe to settle without dispatching —
    /// when all of these hold:
    ///
    /// * no deferred injection, churn transition or source retry is due
    ///   at it (those mutate state outside the protocol), and
    /// * either no node has forwarding work at all, or no node with
    ///   work has an awake, live neighbor at it (every in-tree protocol
    ///   proposes only toward awake live neighbors of nodes with work,
    ///   so `propose` provably yields nothing; no intents means no MAC
    ///   events, no RNG draws, no possession change — only the energy
    ///   and slot-end bookkeeping [`Self::settle_idle_span`] performs).
    ///
    /// Dispatching a dead slot is always byte-identical to settling it,
    /// so the skip target only ever errs toward dispatching: the first
    /// rendezvous slot found may turn out idle (the awake neighbor
    /// already holds everything), but never the other way around.
    ///
    /// Every schedule table has a wake calendar over the LCM of its
    /// periods, so the rendezvous query — at most one calendar period
    /// of offsets — serves equal and mixed periods alike.
    fn maybe_skip(&mut self) {
        if self.core.report.all_covered() {
            return;
        }
        // Quiet gate: only skip out of a dead configuration. A slot
        // that proposed or delivered anything may have re-armed
        // protocol state (backoffs) or coverage; the next slot must be
        // dispatched normally.
        if !self.core.intents_buf.is_empty() || !self.core.res_buf.events.is_empty() {
            return;
        }
        let now = self.core.state.now;
        // Externally scheduled state changes bound the skip: their slot
        // must be dispatched, never jumped past.
        let mut bound = self.core.state.cfg.max_slots;
        if let Some(&(slot, _, _)) = self.core.pending_injections.get(self.core.next_injection) {
            bound = bound.min(slot);
        }
        if F::ENABLED {
            bound = bound.min(self.faults.churn_horizon());
            if let Some(&Reverse((at, _))) = self.core.retry_heap.peek() {
                bound = bound.min(at);
            }
        }
        if bound <= now {
            return;
        }
        let target = if self.core.state.work_words().iter().all(|&w| w == 0) {
            // No forwarding work anywhere: nothing can happen before
            // the next external event.
            bound
        } else if self.core.state.work_has_awake_neighbor(now) {
            // The rendezvous query below would answer `now`: nothing to
            // skip. On a busy calendar most quiet slots end here, so the
            // exact answer is had without building the reach union.
            return;
        } else {
            // Rendezvous targets: every awake one of these could give
            // some node with work a receiver. Crashed nodes are masked
            // (never active); the mask is stable across the span
            // because churn bounds it.
            let nw = self.core.state.node_words;
            let mut targets = std::mem::take(&mut self.core.reach_buf);
            let mut summary = std::mem::take(&mut self.core.reach_summary_buf);
            targets.clear();
            targets.resize(nw, 0);
            for u in self.core.state.nodes_with_work() {
                for &v in self.core.state.topo.neighbor_ids(u) {
                    bitset::set_bit(&mut targets, v.index());
                }
            }
            for (t, d) in targets.iter_mut().zip(&self.core.state.down) {
                *t &= !d;
            }
            summary.clear();
            summary.resize(bitset::words_for(nw), 0);
            bitset::summarize_into(&targets, &mut summary);
            let rendezvous = self
                .core
                .state
                .schedules
                .next_rendezvous(now, &targets, &summary);
            self.core.reach_buf = targets;
            self.core.reach_summary_buf = summary;
            match rendezvous {
                Some(t) => t.min(bound),
                // No offset of the whole period wakes a target: the
                // flood is wedged until the next external event.
                None => bound,
            }
        };
        if target <= now {
            return;
        }
        self.settle_idle_span(target);
        if Pr::ENABLED {
            // One IdleSkip segment per settlement, on the same anchor
            // chain as the slot phases. Its nanoseconds are carried
            // into the *next* dispatched slot's total (see
            // [`Self::skip_carry_ns`]), so phase times still telescope
            // to the slot total exactly. The run-final settlement (no
            // dispatch follows) stays unattributed, like the tail past
            // any run's last `slot_end`.
            let t = Instant::now();
            if let Some(prev) = self.core.slot_anchor.replace(t) {
                if target < self.core.state.cfg.max_slots {
                    let dt = t.duration_since(prev).as_nanos() as u64;
                    self.profiler.record(Phase::IdleSkip, dt);
                    self.core.skip_carry_ns += dt;
                }
            }
        }
    }

    /// Book every slot in `[self.core.state.now, to)` exactly as dispatching
    /// it dead would have: duty-cycle energy (crashed nodes asleep),
    /// one `SlotEnd` per slot when observed, and the slot counters.
    /// The wake pattern repeats with the calendar period and the down
    /// set and queues are frozen across the span, so the awake count of
    /// each calendar offset is taken once: O(period × words) however
    /// long the jump, plus O(1) per slot when observed.
    fn settle_idle_span(&mut self, to: u64) {
        let from = self.core.state.now;
        debug_assert!(to > from);
        let state = &self.core.state;
        let n = state.n_nodes() as u64;
        let span = to - from;
        let period = state.schedules.calendar_period() as u64;
        let mut awake = std::mem::take(&mut self.core.awake_buf);
        awake.clear();
        awake.extend((from..from + period.min(span)).map(|t| {
            state
                .schedules
                .active_words(t)
                .iter()
                .zip(&state.down)
                .map(|(a, d)| (a & !d).count_ones() as u64)
                .sum::<u64>()
        }));
        let (full, rem) = (span / period, span % period);
        let active_total: u64 = (0..)
            .zip(&awake)
            .map(|(i, &active)| active * (full + u64::from(i < rem)))
            .sum();
        self.core.energy.active_slots += active_total;
        self.core.energy.sleep_slots += n * span - active_total;
        if O::ENABLED {
            let queued = state.queues.total();
            for (t, &active_now) in (from..to).zip(awake.iter().cycle()) {
                self.obs.on_event(&SimEvent::SlotEnd {
                    slot: t,
                    queued,
                    active_nodes: active_now as u32,
                });
            }
        }
        self.core.awake_buf = awake;
        self.core.state.now = to;
        self.core.report.slots_elapsed = to;
    }

    /// Run to termination and return the report.
    pub fn run(self) -> (SimReport, EnergyLedger) {
        let (report, energy, _) = self.run_traced();
        (report, energy)
    }

    /// Run to termination, returning the observer alongside the report
    /// (a [`ldcf_obs::BinSink`] to read its totals from, a
    /// [`ldcf_obs::VecObserver`] to inspect, ...).
    pub fn run_traced(mut self) -> (SimReport, EnergyLedger, O) {
        match self.core.kind {
            EngineKind::Slot => while self.step() {},
            EngineKind::Event => {
                // Slot 0 is always dispatched (protocol/fault/observer
                // start-up); skipping is attempted only out of a quiet
                // dispatched slot, so the two kinds interleave the same
                // events in the same order.
                while self.step() {
                    self.maybe_skip();
                }
            }
        }
        // Final holder counts.
        for p in 0..self.core.state.cfg.n_packets {
            self.core.report.packets[p as usize].final_holders =
                self.core.state.holders[p as usize];
        }
        self.obs.on_finish();
        (self.core.report, self.core.energy, self.obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::Overhearing;
    use ldcf_net::{LinkQuality, WorkingSchedule};

    /// A minimal correct protocol: every node holding a packet unicasts
    /// the FCFS-first packet that some active neighbor is missing.
    struct GreedyFlood;

    impl FloodingProtocol for GreedyFlood {
        fn name(&self) -> &str {
            "greedy"
        }
        fn propose(&mut self, s: &SimState, out: &mut Vec<TxIntent>) {
            for ni in 0..s.n_nodes() {
                let u = NodeId::from(ni);
                let entry = s.queue(u).iter().copied().find(|&p| {
                    s.topo
                        .neighbor_ids(u)
                        .iter()
                        .any(|&v| s.is_active(v) && !s.has(v, p))
                });
                if let Some(p) = entry {
                    // Best active neighbor missing the packet.
                    let target = s
                        .topo
                        .neighbors(u)
                        .filter(|&(v, _)| s.is_active(v) && !s.has(v, p))
                        .max_by(|a, b| a.1.prr().partial_cmp(&b.1.prr()).unwrap());
                    if let Some((v, _)) = target {
                        out.push(TxIntent {
                            sender: u,
                            receiver: v,
                            packet: p,
                            backoff_rank: u.0,
                            bypass_mac: false,
                        });
                    }
                }
            }
        }
        fn overhearing(&self) -> Overhearing {
            Overhearing::Disabled
        }
    }

    /// [`GreedyFlood`] with the OPT oracle's MAC bypass. Deterministic
    /// backoff ranks make two greedy flood fronts collide at a shared
    /// receiver forever (hidden terminals re-synchronize every period),
    /// so concurrent-flood tests use the collision-free oracle instead.
    struct OracleGreedy(GreedyFlood);

    impl FloodingProtocol for OracleGreedy {
        fn name(&self) -> &str {
            "greedy-oracle"
        }
        fn propose(&mut self, s: &SimState, out: &mut Vec<TxIntent>) {
            self.0.propose(s, out);
            for it in out.iter_mut() {
                it.bypass_mac = true;
            }
        }
        fn overhearing(&self) -> Overhearing {
            Overhearing::Disabled
        }
    }

    fn line_cfg(m: u32) -> SimConfig {
        SimConfig {
            period: 5,
            active_per_period: 1,
            n_packets: m,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 42,
            mistiming_prob: 0.0,
        }
    }

    #[test]
    fn single_packet_floods_a_line() {
        let topo = Topology::line(5, LinkQuality::PERFECT);
        let engine = Engine::new(topo, line_cfg(1), GreedyFlood);
        let (report, energy) = engine.run();
        assert!(report.all_covered());
        assert_eq!(report.packets[0].final_holders, 4);
        assert!(report.transmissions >= 4);
        assert_eq!(report.transmission_failures, 0); // perfect links, no contention in a line? collisions possible
        assert!(energy.tx_slots >= 4);
    }

    #[test]
    fn multi_packet_floods_and_orders() {
        let topo = Topology::line(4, LinkQuality::PERFECT);
        let engine = Engine::new(topo, line_cfg(5), GreedyFlood);
        let (report, _) = engine.run();
        assert!(report.all_covered());
        for p in &report.packets {
            assert!(p.pushed_at.is_some());
            assert!(p.flooding_delay().is_some());
        }
        // FCFS at the source: packets are pushed in order.
        let pushes: Vec<u64> = report
            .packets
            .iter()
            .map(|p| p.pushed_at.unwrap())
            .collect();
        let mut sorted = pushes.clone();
        sorted.sort_unstable();
        assert_eq!(pushes, sorted);
    }

    #[test]
    fn lossy_links_cause_failures_but_flood_completes() {
        let topo = Topology::line(4, LinkQuality::new(0.6));
        let engine = Engine::new(topo, line_cfg(3), GreedyFlood);
        let (report, energy) = engine.run();
        assert!(report.all_covered());
        assert!(report.transmission_failures > 0);
        assert_eq!(energy.failed_tx_slots, report.transmission_failures);
    }

    #[test]
    fn max_slots_terminates_unreachable_runs() {
        // Disconnected topology: packet can never cover all sensors.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::PERFECT,
            LinkQuality::PERFECT,
        );
        let cfg = SimConfig {
            max_slots: 500,
            ..line_cfg(1)
        };
        let engine = Engine::new(topo, cfg, GreedyFlood);
        let (report, _) = engine.run();
        assert!(!report.all_covered());
        assert_eq!(report.slots_elapsed, 500);
        assert_eq!(report.packets[0].final_holders, 1);
    }

    #[test]
    fn coverage_99_excludes_stragglers() {
        // 200 sensors in a star around the source, one unreachable sensor:
        // 99% coverage (198.99 -> 199 of 201... choose numbers cleanly).
        let n_sensors = 200;
        let mut topo = Topology::empty(n_sensors + 1);
        for i in 1..=n_sensors - 1 {
            topo.add_edge(
                NodeId(0),
                NodeId::from(i),
                LinkQuality::PERFECT,
                LinkQuality::PERFECT,
            );
        }
        // Sensor `n_sensors` is isolated. target = ceil(0.99*200) = 198.
        let cfg = SimConfig {
            coverage: 0.99,
            max_slots: 200_000,
            ..line_cfg(1)
        };
        let engine = Engine::new(topo, cfg, GreedyFlood);
        let (report, _) = engine.run();
        assert!(
            report.all_covered(),
            "99% coverage must tolerate 1 straggler"
        );
        // The engine stops as soon as the target (198 = ceil(0.99*200)) is
        // met, so the isolated sensor never blocks termination.
        assert_eq!(report.packets[0].final_holders, 198);
    }

    #[test]
    fn deterministic_under_seed() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
        let run = |seed| {
            let cfg = SimConfig {
                seed,
                ..line_cfg(4)
            };
            let (r, _) = Engine::new(topo.clone(), cfg, GreedyFlood).run();
            (
                r.slots_elapsed,
                r.transmissions,
                r.transmission_failures,
                r.mean_flooding_delay(),
            )
        };
        assert_eq!(run(7), run(7));
        // And different seeds (almost surely) differ somewhere.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn sleep_latency_dominates_low_duty() {
        // Same topology, duty 50% vs duty 5%: delay should grow sharply.
        let topo = Topology::line(6, LinkQuality::PERFECT);
        let delay = |period| {
            let cfg = SimConfig {
                period,
                ..line_cfg(1)
            };
            let (r, _) = Engine::new(topo.clone(), cfg, GreedyFlood).run();
            r.mean_flooding_delay().unwrap()
        };
        let fast = delay(2);
        let slow = delay(20);
        assert!(
            slow > fast * 2.0,
            "duty 5% delay {slow} should far exceed duty 50% delay {fast}"
        );
    }

    #[test]
    fn explicit_schedules_are_respected() {
        // Deterministic schedules: receiver active every slot 0 mod 2.
        let topo = Topology::line(2, LinkQuality::PERFECT);
        let schedules = NeighborTable::new(vec![
            WorkingSchedule::new(2, vec![1]),
            WorkingSchedule::new(2, vec![0]),
        ]);
        let cfg = SimConfig {
            period: 2,
            n_packets: 1,
            coverage: 1.0,
            max_slots: 100,
            seed: 1,
            active_per_period: 1,
            mistiming_prob: 0.0,
        };
        let engine = Engine::with_schedules(topo, cfg, schedules, GreedyFlood);
        let (report, _) = engine.run();
        assert!(report.all_covered());
        // Node 1 is active at even slots; the packet lands at slot 0 or 2.
        let covered = report.packets[0].covered_at.unwrap();
        assert_eq!(covered % 2, 0);
    }

    #[test]
    fn mistiming_costs_failures_but_flood_still_completes() {
        let topo = Topology::line(4, LinkQuality::PERFECT);
        let run = |p: f64| {
            let cfg = SimConfig {
                mistiming_prob: p,
                ..line_cfg(2)
            };
            Engine::new(topo.clone(), cfg, GreedyFlood).run()
        };
        let (clean, _) = run(0.0);
        assert_eq!(clean.mistimed, 0);
        let (noisy, energy) = run(0.3);
        assert!(noisy.all_covered(), "flood completes despite mis-sync");
        assert!(noisy.mistimed > 0, "30% mistiming must bite");
        assert!(noisy.transmission_failures >= noisy.mistimed);
        assert!(energy.failed_tx_slots >= noisy.mistimed);
        // Mis-sync costs delay on average.
        assert!(
            noisy.mean_flooding_delay().unwrap() >= clean.mean_flooding_delay().unwrap(),
            "mistimed rendezvous must not speed the flood up"
        );
    }

    #[test]
    fn null_fault_plan_changes_nothing() {
        // `with_faults(NullFaultPlan)` must reproduce the plain engine
        // bit for bit: same RNG stream, same outcomes.
        let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
        let (plain, plain_energy) = Engine::new(topo.clone(), line_cfg(4), GreedyFlood).run();
        let (nulled, nulled_energy) = Engine::new(topo, line_cfg(4), GreedyFlood)
            .with_faults(ldcf_faults::NullFaultPlan)
            .run();
        assert_eq!(plain.slots_elapsed, nulled.slots_elapsed);
        assert_eq!(plain.transmissions, nulled.transmissions);
        assert_eq!(plain.transmission_failures, nulled.transmission_failures);
        assert_eq!(plain.mean_flooding_delay(), nulled.mean_flooding_delay());
        assert_eq!(plain_energy.tx_slots, nulled_energy.tx_slots);
        assert_eq!(plain_energy.active_slots, nulled_energy.active_slots);
    }

    #[test]
    fn accounting_identities_hold_under_active_faults() {
        // A full-intensity fault campaign (bursts + degradation + drift
        // + churn) must not break any ledger/report identity.
        let topo = Topology::grid(5, 5, LinkQuality::new(0.8));
        let cfg = SimConfig {
            period: 10,
            coverage: 0.9,
            max_slots: 60_000,
            ..line_cfg(3)
        };
        let mut faults = ldcf_faults::FaultConfig::at_intensity(9, 1.0);
        // Crash hard enough that churn provably bites within the run.
        if let Some(c) = &mut faults.churn {
            c.mean_uptime = 2_000.0;
            c.mean_downtime = 500.0;
        }
        let engine = Engine::new(topo, cfg, GreedyFlood).with_faults(faults.build());
        let n = engine.state().n_nodes() as u64;
        let (report, energy) = engine.run();
        assert!(report.node_crashes > 0, "churn at this rate must crash");
        assert!(report.node_recoveries > 0, "and some nodes must reboot");
        // Ledger <-> report identities, exactly as in fault-free runs.
        assert_eq!(energy.tx_slots, report.transmissions);
        assert_eq!(energy.failed_tx_slots, report.transmission_failures);
        assert_eq!(
            energy.active_slots + energy.sleep_slots,
            report.slots_elapsed * n,
            "crashed nodes must be booked asleep, never dropped"
        );
        assert!(report.transmission_failures >= report.mistimed);
    }

    #[test]
    fn drift_only_plan_causes_mistimed_failures() {
        let topo = Topology::line(6, LinkQuality::PERFECT);
        let cfg = line_cfg(6);
        let faults = ldcf_faults::FaultConfig {
            drift: Some(ldcf_faults::DriftConfig {
                max_rate: 0.1,
                resync_interval: 50,
                max_miss_prob: 0.4,
            }),
            ..ldcf_faults::FaultConfig::none(5)
        };
        let (report, energy) = Engine::new(topo, cfg, GreedyFlood)
            .with_faults(faults.build())
            .run();
        assert!(report.all_covered(), "drift degrades, it must not wedge");
        assert!(report.mistimed > 0, "this much drift must miss sometimes");
        assert_eq!(energy.failed_tx_slots, report.transmission_failures);
        assert_eq!(energy.tx_slots, report.transmissions);
    }

    #[test]
    fn flood_survives_churn_with_source_retry() {
        // Aggressive churn on a complete graph: every sensor crashes and
        // reboots repeatedly, yet the flood must still reach coverage —
        // the repair pass plus source retries un-wedge it.
        let topo = Topology::complete(8, LinkQuality::PERFECT);
        let cfg = SimConfig {
            coverage: 0.6,
            max_slots: 400_000,
            ..line_cfg(8)
        };
        let faults = ldcf_faults::FaultConfig {
            churn: Some(ldcf_faults::ChurnConfig {
                mean_uptime: 60.0,
                mean_downtime: 15.0,
                retry_backoff: 40,
            }),
            ..ldcf_faults::FaultConfig::none(13)
        };
        let (report, _) = Engine::new(topo, cfg, GreedyFlood)
            .with_faults(faults.build())
            .run();
        assert!(report.node_crashes > 0);
        assert!(
            report.all_covered(),
            "flood must degrade, not wedge: crashes={} retries={}",
            report.node_crashes,
            report.source_retries
        );
    }

    /// `reach[p]` ⊇ the neighbors of every holder of `p`.
    fn assert_reach_covers_holders(s: &SimState) {
        for p in 0..s.cfg.n_packets {
            for u in bitset::iter_ones(s.holder_words(p)) {
                for &v in s.topo.neighbor_ids(NodeId::from(u)) {
                    assert!(
                        bitset::test_bit(s.reach_words(p), v.index()),
                        "slot {}: {v} neighbors holder {u} of packet {p} but is off its frontier",
                        s.now
                    );
                }
            }
        }
    }

    /// `missing[p][u]` = the number of `u`'s neighbors not holding `p`.
    fn assert_missing_counts_exact(s: &SimState) {
        let n = s.n_nodes();
        for p in 0..s.cfg.n_packets {
            for u in 0..n {
                let lacking = s
                    .topo
                    .neighbor_ids(NodeId::from(u))
                    .iter()
                    .filter(|v| !bitset::test_bit(s.holder_words(p), v.index()))
                    .count();
                assert_eq!(
                    s.missing[p as usize * n + u] as usize,
                    lacking,
                    "slot {}: missing count of node {u} for packet {p}",
                    s.now
                );
            }
        }
    }

    #[test]
    fn reach_rows_cover_live_holders_through_grants_crashes_and_recoveries() {
        // Two origins, one deferred injection, and churn aggressive
        // enough to wipe and reboot nodes mid-flood; the missing-neighbor
        // counts must stay exact through the same steps.
        let topo = Topology::grid(6, 6, LinkQuality::new(0.8));
        let cfg = SimConfig {
            n_packets: 3,
            max_slots: 20_000,
            ..line_cfg(3)
        };
        let plan = [
            Injection::at_source(),
            Injection {
                origin: NodeId(35),
                slot: 0,
            },
            Injection {
                origin: NodeId(17),
                slot: 40,
            },
        ];
        let schedules = drawn_schedules(&topo, &cfg);
        let faults = ldcf_faults::FaultConfig {
            churn: Some(ldcf_faults::ChurnConfig {
                mean_uptime: 80.0,
                mean_downtime: 20.0,
                retry_backoff: 30,
            }),
            ..ldcf_faults::FaultConfig::none(5)
        };
        let mut engine =
            Engine::with_injections(topo, cfg, schedules, &plan, OracleGreedy(GreedyFlood))
                .with_faults(faults.build());
        assert_reach_covers_holders(engine.state());
        assert_missing_counts_exact(engine.state());
        while engine.step() {
            assert_reach_covers_holders(engine.state());
            assert_missing_counts_exact(engine.state());
        }
        let report = engine.report();
        assert!(report.node_crashes > 0 && report.node_recoveries > 0);
        assert!(report.packets.iter().all(|p| p.deliveries > 0));
    }

    fn drawn_schedules(topo: &Topology, cfg: &SimConfig) -> NeighborTable {
        // Reproduce the schedule draw `Engine::new` performs, so explicit
        // builders can be compared against it bit for bit.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        NeighborTable::random_single_slot(topo.n_nodes(), cfg.period, &mut rng)
    }

    #[test]
    fn default_injection_plan_is_byte_identical_to_with_schedules() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
        let cfg = line_cfg(4);
        let schedules = drawn_schedules(&topo, &cfg);
        let plan: Vec<Injection> = (0..cfg.n_packets).map(|_| Injection::at_source()).collect();
        let (a, ea) =
            Engine::with_schedules(topo.clone(), cfg.clone(), schedules.clone(), GreedyFlood).run();
        let (b, eb) = Engine::with_injections(topo, cfg, schedules, &plan, GreedyFlood).run();
        assert_eq!(a.slots_elapsed, b.slots_elapsed);
        assert_eq!(a.transmissions, b.transmissions);
        assert_eq!(a.transmission_failures, b.transmission_failures);
        assert_eq!(a.mean_flooding_delay(), b.mean_flooding_delay());
        assert_eq!(ea.tx_slots, eb.tx_slots);
        assert_eq!(ea.active_slots, eb.active_slots);
        for (pa, pb) in a.packets.iter().zip(&b.packets) {
            assert_eq!(pa.pushed_at, pb.pushed_at);
            assert_eq!(pa.covered_at, pb.covered_at);
        }
    }

    #[test]
    fn multi_source_floods_cover_from_both_origins() {
        // Two concurrent floods on a line: packet 0 from the source end,
        // packet 1 from the far end. Both must cover, and each packet's
        // push is its *own* origin's first transmission.
        let topo = Topology::line(6, LinkQuality::PERFECT);
        let cfg = line_cfg(2);
        let schedules = drawn_schedules(&topo, &cfg);
        let far = NodeId(5);
        let plan = [
            Injection::at_source(),
            Injection {
                origin: far,
                slot: 0,
            },
        ];
        let engine =
            Engine::with_injections(topo, cfg, schedules, &plan, OracleGreedy(GreedyFlood))
                .with_observer(crate::VecObserver::default());
        assert_eq!(engine.state().origin(0), SOURCE);
        assert_eq!(engine.state().origin(1), far);
        assert_eq!(engine.state().n_injected(), 2);
        let (report, _, obs) = engine.run_traced();
        assert!(report.all_covered(), "packets: {:#?}", report.packets);
        assert!(report.packets[0].pushed_at.is_some());
        assert!(report.packets[1].pushed_at.is_some());
        // The secondary origin's injection is announced in the trace.
        assert!(obs.events.iter().any(|e| matches!(
            e,
            SimEvent::PacketInjected {
                slot: 0,
                node,
                packet: 1,
            } if *node == far
        )));
        // Packet 1's push is far's first attempt, not the source's.
        let push1 = report.packets[1].pushed_at.unwrap();
        let first_far_tx = obs
            .events
            .iter()
            .find_map(|e| match e {
                SimEvent::TxAttempt {
                    slot,
                    sender,
                    packet: 1,
                    ..
                } if *sender == far => Some(*slot),
                _ => None,
            })
            .unwrap();
        assert_eq!(push1, first_far_tx);
    }

    #[test]
    fn periodic_injection_defers_entry() {
        // Packets enter the source queue every 7 slots; a packet can
        // never be pushed before its injection slot.
        let topo = Topology::line(4, LinkQuality::PERFECT);
        let cfg = line_cfg(4);
        let schedules = drawn_schedules(&topo, &cfg);
        let interval = 7u64;
        let plan: Vec<Injection> = (0..cfg.n_packets as u64)
            .map(|p| Injection {
                origin: SOURCE,
                slot: p * interval,
            })
            .collect();
        let engine = Engine::with_injections(topo, cfg, schedules, &plan, GreedyFlood)
            .with_observer(crate::VecObserver::default());
        assert_eq!(engine.state().n_injected(), 1, "only packet 0 at slot 0");
        let (report, _, obs) = engine.run_traced();
        assert!(report.all_covered());
        for (p, st) in report.packets.iter().enumerate() {
            assert_eq!(st.injected_at, p as u64 * interval);
            assert!(st.pushed_at.unwrap() >= st.injected_at);
        }
        // Deferred injections are announced at their injection slot.
        for p in 1..plan.len() {
            assert!(obs.events.iter().any(|e| matches!(
                e,
                SimEvent::PacketInjected { slot, node, packet }
                    if *slot == p as u64 * interval
                        && *node == SOURCE
                        && *packet == p as u32
            )));
        }
    }

    /// Byte-level artefact equality of a slot-stepped and an
    /// event-skipping run of the same engine configuration.
    fn assert_engines_agree<P: FloodingProtocol, F: ldcf_faults::FaultPlan>(
        mk: impl Fn() -> Engine<P, NullObserver, F>,
    ) {
        let (ra, ea, oa) = mk()
            .with_observer(crate::VecObserver::default())
            .with_engine_kind(EngineKind::Slot)
            .run_traced();
        let (rb, eb, ob) = mk()
            .with_observer(crate::VecObserver::default())
            .run_traced();
        assert_eq!(
            serde_json::to_string(&ra).unwrap(),
            serde_json::to_string(&rb).unwrap(),
            "SimReport must be byte-identical across engine kinds"
        );
        assert_eq!(
            serde_json::to_string(&ea).unwrap(),
            serde_json::to_string(&eb).unwrap(),
            "EnergyLedger must be byte-identical across engine kinds"
        );
        assert_eq!(oa.events.len(), ob.events.len(), "trace length");
        for (i, (a, b)) in oa.events.iter().zip(&ob.events).enumerate() {
            assert_eq!(a, b, "trace event {i} diverges");
        }
    }

    #[test]
    fn event_engine_is_byte_identical_on_a_low_duty_grid() {
        let topo = Topology::grid(5, 5, LinkQuality::new(0.8));
        let cfg = SimConfig {
            period: 25,
            mistiming_prob: 0.02,
            ..line_cfg(3)
        };
        assert_engines_agree(|| Engine::new(topo.clone(), cfg.clone(), GreedyFlood));
    }

    #[test]
    fn event_engine_is_byte_identical_with_staggered_injections() {
        // Large injection gaps produce long work-empty spans — the
        // skip-to-bound path — plus rendezvous skips in between.
        let topo = Topology::line(6, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 40,
            ..line_cfg(3)
        };
        let schedules = drawn_schedules(&topo, &cfg);
        let plan: Vec<Injection> = (0..cfg.n_packets as u64)
            .map(|p| Injection {
                origin: SOURCE,
                slot: p * 1_000,
            })
            .collect();
        assert_engines_agree(|| {
            Engine::with_injections(
                topo.clone(),
                cfg.clone(),
                schedules.clone(),
                &plan,
                GreedyFlood,
            )
        });
    }

    #[test]
    fn event_engine_is_byte_identical_under_full_fault_campaign() {
        let topo = Topology::grid(5, 5, LinkQuality::new(0.8));
        let cfg = SimConfig {
            period: 20,
            coverage: 0.9,
            max_slots: 60_000,
            ..line_cfg(2)
        };
        let faults = ldcf_faults::FaultConfig::at_intensity(9, 1.0);
        assert_engines_agree(|| {
            Engine::new(topo.clone(), cfg.clone(), GreedyFlood).with_faults(faults.build())
        });
    }

    #[test]
    fn event_engine_terminates_wedged_runs_at_max_slots() {
        // Disconnected topology at low duty: the flood can never cover,
        // and after the reachable side saturates there is no rendezvous
        // at all — the event engine must settle straight to max_slots
        // with the same report and ledger as stepping there.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::PERFECT,
            LinkQuality::PERFECT,
        );
        let cfg = SimConfig {
            period: 10,
            max_slots: 5_000,
            ..line_cfg(1)
        };
        assert_engines_agree(|| Engine::new(topo.clone(), cfg.clone(), GreedyFlood));
    }

    /// The slot-loop buffers are sized by the wake calendar, not by N:
    /// on a 10 000-node RGG at period 100 (about 100 nodes awake per
    /// slot) every one holds at most the busiest offset's sum of
    /// (degree + 1), and a stretch of flooding does not grow them.
    #[test]
    fn slot_scratch_is_sized_by_the_calendar() {
        let n = 10_000;
        let mut rng = StdRng::seed_from_u64(4);
        let topo = Topology::random_geometric(n, 100.0, 2.2, 0.95, 0.6, &mut rng);
        let schedules = NeighborTable::random_single_slot(n, 100, &mut rng);
        let bound = (0..100)
            .map(|t| {
                schedules
                    .all_active(t)
                    .map(|v| topo.degree(v) + 1)
                    .sum::<usize>()
            })
            .max()
            .unwrap();
        assert!(
            bound < n,
            "the premise: {bound} awake pairs per slot < {n} nodes"
        );
        let cfg = SimConfig {
            period: 100,
            n_packets: 4,
            ..line_cfg(4)
        };
        let mut engine = Engine::with_schedules(topo, cfg, schedules, GreedyFlood);
        let capacities = |e: &Engine<GreedyFlood>| {
            let (c, r) = (&e.core, &e.core.res_buf);
            let mut caps = vec![
                c.intents_buf.capacity(),
                c.delivered_buf.capacity(),
                r.transmitted.capacity(),
                r.committed.capacity(),
                r.deferred.capacity(),
                r.events.capacity(),
            ];
            caps.extend(c.mac_scratch.list_capacities());
            caps
        };
        let built = capacities(&engine);
        assert!(
            built.iter().all(|&c| c > 0 && c <= bound),
            "capacities {built:?} against the bound {bound}"
        );
        for _ in 0..400 {
            assert!(engine.step());
        }
        assert!(engine.report().transmissions > 0, "the flood moved");
        assert_eq!(capacities(&engine), built, "no buffer grew");
    }

    /// Churn rewrites schedules, so a run whose plan can reboot nodes
    /// takes its own copy of a shared table before slot 0's work; a
    /// plan that never reboots keeps reading the shared one.
    #[test]
    fn only_a_churning_run_copies_a_shared_schedule_table() {
        let topo = Topology::complete(8, LinkQuality::PERFECT);
        let shared = drawn_schedules(&topo, &line_cfg(2));
        let churn = ldcf_faults::FaultConfig {
            churn: Some(ldcf_faults::ChurnConfig {
                mean_uptime: 60.0,
                mean_downtime: 15.0,
                retry_backoff: 40,
            }),
            ..ldcf_faults::FaultConfig::none(13)
        };
        let same = |e: &NeighborTable| std::ptr::eq(e.active_words(0), shared.active_words(0));
        let mut engine =
            Engine::with_schedules(topo.clone(), line_cfg(2), shared.clone(), GreedyFlood)
                .with_faults(churn.build());
        assert!(same(&engine.state().schedules), "building copies nothing");
        engine.step();
        assert!(!same(&engine.state().schedules), "slot 0 took a copy");
        let mut engine = Engine::with_schedules(topo, line_cfg(2), shared.clone(), GreedyFlood)
            .with_faults(ldcf_faults::FaultConfig::none(13).build());
        engine.step();
        assert!(same(&engine.state().schedules), "no churn, no copy");
    }

    #[test]
    fn energy_ledger_accumulates_duty_cycling() {
        let topo = Topology::line(3, LinkQuality::PERFECT);
        let cfg = SimConfig {
            period: 10,
            ..line_cfg(1)
        };
        let (report, energy) = Engine::new(topo, cfg, GreedyFlood).run();
        let slots = report.slots_elapsed;
        assert_eq!(energy.active_slots + energy.sleep_slots, slots * 3);
        // Active fraction ~ duty ratio.
        let frac = energy.active_slots as f64 / (slots * 3) as f64;
        assert!(frac <= 0.4, "active fraction {frac} at duty 10%");
    }
}
