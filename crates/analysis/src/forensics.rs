//! Flood forensics: dissemination-tree reconstruction and per-node
//! delay attribution from a slot-level JSONL trace.
//!
//! The paper's delay claims are *causal* — duty-cycle waiting
//! (Lemma 2 / Theorem 1), link-loss magnification (§IV-C) and queue
//! blocking bounded by `m - 1` packets (Corollary 1) — but a
//! `SimReport` only shows the aggregate mean. [`ForensicsReport`]
//! rebuilds the mechanism from the event stream:
//!
//! * per packet, the **dissemination tree**: each informed node's
//!   unique fresh-copy parent (`Delivered`/`Overheard` with
//!   `fresh: true`; duplicates cost energy but never create edges),
//! * per node, the **five-way attribution** of its flooding delay
//!   (see [`crate::attribution`]) along its informing chain,
//! * per packet, the **critical path** — the informing chain of the
//!   node whose copy triggered `CoverageReached`, the empirical
//!   analogue of the FDL bound,
//! * per relay, the **blocking depth** — how many FCFS-earlier packets
//!   the relay served between a packet's arrival and its first service
//!   of that packet, checked against Corollary 1's `m - 1`.
//!
//! Three identities are *hard checks* (any breach lands in
//! [`ForensicsReport::violations`] and fails the CI forensics pass):
//! every node's five components sum exactly to its flooding delay; the
//! tree spans all informed nodes (exactly one parent, informed no
//! later than the child); and — on oracle runs (any `TxAttempt` with
//! `bypass_mac`, i.e. the OPT protocol that realises the paper's
//! structured pipeline) — blocking depth never exceeds `m - 1`.
//! Corollary 1 is a property of that pipeline, and on the GreenOrbs
//! fig9 trace the OPT bound is *tight*: the observed maximum equals
//! `m - 1` exactly. Heuristic MAC protocols (DBAO, opportunistic
//! flooding) are outside the corollary's hypotheses — their relays
//! provably pile up more concurrent floods — so for them an exceeded
//! bound is reported as an advisory with the measured depth, like tree
//! depth against the compact-model `m = ceil(log2(1 + N))`, which real
//! topologies beat for the same reason (the complete-graph model the
//! bound lives in).

use crate::attribution::{attribute_hop, merge_failures, Cause, DelayAttribution};
use ldcf_core::fdl::{blocking_depth, m_of};
use ldcf_net::{NodeId, PacketId, SOURCE};
use ldcf_obs::SimEvent;
use serde::Value;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Error raised when a trace cannot support forensics (unparseable, or
/// missing the schedule/push information reconstruction needs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForensicsError(pub String);

impl fmt::Display for ForensicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "forensics: {}", self.0)
    }
}

impl std::error::Error for ForensicsError {}

/// How a node obtained its first copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Via {
    /// Dedicated unicast reception.
    Delivery,
    /// Opportunistic capture of someone else's unicast.
    Overhear,
}

impl Via {
    /// Stable label used in JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            Via::Delivery => "delivery",
            Via::Overhear => "overhear",
        }
    }
}

/// One informed node's place in a packet's dissemination tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeForensics {
    /// The informed node.
    pub node: NodeId,
    /// The node whose transmission informed it (its unique parent).
    pub parent: NodeId,
    /// Dedicated delivery or overhear.
    pub via: Via,
    /// Slot of the node's first copy.
    pub informed_at: u64,
    /// Hops from the source along informing edges.
    pub depth: u32,
    /// Flooding delay `informed_at - pushed_at`.
    pub delay: u64,
    /// Five-way split of `delay`; sums to it exactly.
    pub attribution: DelayAttribution,
    /// Distinct FCFS-earlier packets this node served between this
    /// packet's arrival and its first service of it (Corollary 1);
    /// `None` if the node never served the packet.
    pub blocking: Option<u32>,
}

/// One hop of a critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathHop {
    /// The node informed at this hop.
    pub node: NodeId,
    /// Slot the node was informed.
    pub slot: u64,
    /// How it was informed.
    pub via: Via,
}

/// Forensics of one packet's flood.
#[derive(Clone, Debug)]
pub struct PacketForensics {
    /// Sequence number.
    pub packet: PacketId,
    /// The node this packet's flood is rooted at: the source unless the
    /// trace carries a `packet_injected` event (multi-source workloads).
    pub origin: NodeId,
    /// Slot of the origin's first committed transmission.
    pub pushed_at: u64,
    /// Slot the coverage target was reached, if it was.
    pub covered_at: Option<u64>,
    /// Informed nodes in informing order (tree in parent-before-child
    /// order).
    pub nodes: Vec<NodeForensics>,
    /// Attribution summed over all informed nodes.
    pub attribution: DelayAttribution,
    /// Attribution along the critical path; totals exactly the
    /// packet's flooding delay. `None` if the packet never covered.
    pub coverage_attribution: Option<DelayAttribution>,
    /// Source-rooted informing chain of the node whose copy triggered
    /// coverage. Empty if the packet never covered.
    pub critical_path: Vec<PathHop>,
    /// Deepest informed node.
    pub tree_depth: u32,
    /// Largest observed blocking depth.
    pub max_blocking: u32,
}

impl PacketForensics {
    /// Flooding delay (push → coverage), the paper's Fig. 9/10 metric.
    pub fn flooding_delay(&self) -> Option<u64> {
        Some(self.covered_at?.saturating_sub(self.pushed_at))
    }
}

/// A breach of one of the hard theory checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A node's five attribution components do not sum to its delay.
    AttributionMismatch {
        /// Packet involved.
        packet: PacketId,
        /// Node whose attribution is off.
        node: NodeId,
        /// Sum of the five components.
        attributed: u64,
        /// The node's actual flooding delay.
        delay: u64,
    },
    /// A fresh copy arrived from a parent that was not itself informed
    /// strictly earlier (the tree would not span the informed set).
    OrphanNode {
        /// Packet involved.
        packet: PacketId,
        /// The freshly informed node.
        node: NodeId,
        /// The claimed parent.
        parent: NodeId,
        /// Slot of the fresh copy.
        slot: u64,
    },
    /// A node received two fresh copies of the same packet.
    DuplicateParent {
        /// Packet involved.
        packet: PacketId,
        /// The doubly informed node.
        node: NodeId,
        /// Slot of the second fresh copy.
        slot: u64,
    },
    /// A relay's blocking depth exceeded Corollary 1's `m - 1`.
    BlockingDepthExceeded {
        /// Packet involved.
        packet: PacketId,
        /// The blocked relay.
        node: NodeId,
        /// Observed blocking depth.
        depth: u32,
        /// The `m - 1` bound.
        bound: u32,
    },
}

impl Violation {
    /// Human-readable one-liner.
    pub fn describe(&self) -> String {
        match *self {
            Violation::AttributionMismatch {
                packet,
                node,
                attributed,
                delay,
            } => format!(
                "packet {packet}: node {node} attribution {attributed} != delay {delay}"
            ),
            Violation::OrphanNode {
                packet,
                node,
                parent,
                slot,
            } => format!(
                "packet {packet}: node {node} informed at {slot} by {parent}, which was not informed earlier"
            ),
            Violation::DuplicateParent { packet, node, slot } => format!(
                "packet {packet}: node {node} received a second fresh copy at {slot}"
            ),
            Violation::BlockingDepthExceeded {
                packet,
                node,
                depth,
                bound,
            } => format!(
                "packet {packet}: relay {node} blocked by {depth} packets, Corollary 1 bound is {bound}"
            ),
        }
    }
}

/// One node's working schedule, rebuilt from `schedule_slot` events.
#[derive(Clone, Debug)]
struct ScheduleInfo {
    period: u32,
    active: Vec<bool>,
}

impl ScheduleInfo {
    fn is_active(&self, slot: u64) -> bool {
        self.active[(slot % self.period as u64) as usize]
    }
}

/// Full forensic reconstruction of one traced run.
#[derive(Clone, Debug)]
pub struct ForensicsReport {
    /// Nodes in the trace (source + sensors).
    pub n_nodes: usize,
    /// Sensors `N` (source excluded).
    pub n_sensors: usize,
    /// The paper's `m = ceil(log2(1 + N))`.
    pub m: u32,
    /// Corollary 1's blocking bound `m - 1`.
    pub blocking_bound: u32,
    /// Whether the trace is an oracle (`bypass_mac`) run — the regime
    /// Corollary 1's pipeline bound is enforced in; heuristic MAC runs
    /// get blocking exceedances as advisories instead.
    pub oracle: bool,
    /// Per-packet forensics, indexed by sequence number.
    pub packets: Vec<PacketForensics>,
    /// Attribution summed over every informed node of every packet.
    pub totals: DelayAttribution,
    /// Attribution summed along critical paths only; its total divided
    /// by the covered-packet count is exactly the run's mean flooding
    /// delay.
    pub coverage_totals: DelayAttribution,
    /// Mean flooding delay over covered packets — same arithmetic as
    /// `SimReport::mean_flooding_delay`, so the figures match exactly.
    pub mean_flooding_delay: Option<f64>,
    /// Deepest dissemination tree seen.
    pub max_tree_depth: u32,
    /// Largest blocking depth seen.
    pub max_blocking: u32,
    /// Non-fresh dedicated deliveries (energy only, no tree edges).
    pub duplicate_deliveries: u64,
    /// Non-fresh overheard copies (energy only, no tree edges).
    pub duplicate_overhears: u64,
    /// Hard theory-check breaches; empty on a healthy run.
    pub violations: Vec<Violation>,
    /// Soft observations (e.g. tree depth beyond the compact-model
    /// `m`) — reported, never failed on.
    pub advisories: Vec<String>,
}

/// Hashing for the fold's `(node, packet)` keys, packed into one `u64`
/// by [`pair`]: one multiply, then a rotate so the bucket bits see the
/// node as well as the packet. Ids read from a trace need none of
/// SipHash's flood resistance, and the fold looks up a key for most
/// events it absorbs.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The key of one `(node, packet)` pair.
fn pair(node: NodeId, p: PacketId) -> u64 {
    (u64::from(node.0) << 32) | u64::from(p)
}

/// What the fold knows of one packet.
#[derive(Clone, Copy, Debug)]
struct PacketLog {
    /// Flood origin; the source unless a `packet_injected` event names
    /// another. An injection precedes the packet's first transmission
    /// in stream order, so the origin is known by the time a push could
    /// be recorded.
    origin: NodeId,
    /// Slot of the origin's first transmission of the packet.
    pushed_at: Option<u64>,
    /// Slot and node of the fresh copy that reached coverage.
    covered: Option<(u64, NodeId)>,
    /// Receiver of the latest fresh copy.
    last_fresh: Option<NodeId>,
}

impl Default for PacketLog {
    fn default() -> Self {
        Self {
            origin: SOURCE,
            pushed_at: None,
            covered: None,
            last_fresh: None,
        }
    }
}

/// What the fold knows of one `(node, packet)` pair.
#[derive(Debug, Default)]
struct PairLog {
    /// Slots the node served the packet: committed, deferred or
    /// mistimed transmission attempts carrying it.
    serves: Vec<u64>,
    /// Failed or deferred attempts aimed at the node with the packet,
    /// as `(slot, cause)`. In stream order while collecting; sorted by
    /// slot with one merged entry per slot once collection ends (see
    /// [`Collector::finish`]), which the tree pass reads with a forward
    /// cursor per hop window.
    failures: Vec<(u64, Cause)>,
    /// Position of the packet in the node's FCFS arrival order.
    arrival: Option<usize>,
}

/// Streaming pass 1 of the forensic reconstruction: absorbs events one
/// at a time into the static/dynamic tables the tree pass needs. Peak
/// memory is bounded by the *reconstruction state* (schedules, fresh
/// edges, failure slots) — never by the raw event stream, which is why
/// [`ForensicsReport::from_source`] can digest traces far larger than
/// RAM.
#[derive(Debug, Default)]
struct Collector {
    schedules: Vec<Option<ScheduleInfo>>,
    /// Per-packet tables, indexed by packet id: one entry for every id
    /// up to the largest any event carries.
    packets: Vec<PacketLog>,
    /// Fresh-copy edges in stream order: (packet, child, parent, slot, via).
    edges: Vec<(PacketId, NodeId, NodeId, u64, Via)>,
    /// Per-(node, packet) tables, keyed by [`pair`].
    pairs: HashMap<u64, PairLog, BuildHasherDefault<PairHasher>>,
    dup_delivered: u64,
    dup_overheard: u64,
    oracle: bool,
}

impl Collector {
    fn pair(&mut self, node: NodeId, p: PacketId) -> &mut PairLog {
        self.pairs.entry(pair(node, p)).or_default()
    }

    fn fail(&mut self, r: NodeId, p: PacketId, s: u64, cause: Cause) {
        self.pair(r, p).failures.push((s, cause));
    }

    fn serve(&mut self, sender: NodeId, p: PacketId, s: u64) {
        self.pair(sender, p).serves.push(s);
    }

    fn absorb(&mut self, ev: &SimEvent) -> Result<(), ForensicsError> {
        if let Some(p) = ev.packet_id() {
            if p as usize >= self.packets.len() {
                self.packets.resize(p as usize + 1, PacketLog::default());
            }
        }
        match *ev {
            SimEvent::ScheduleSlot {
                node,
                period,
                offset,
                ..
            } => {
                let i = node.index();
                if i >= self.schedules.len() {
                    self.schedules.resize_with(i + 1, || None);
                }
                let info = self.schedules[i].get_or_insert_with(|| ScheduleInfo {
                    period,
                    active: vec![false; period as usize],
                });
                if info.period != period || offset >= period {
                    return Err(ForensicsError(format!(
                        "inconsistent schedule_slot for node {node}: period {period}, offset {offset}"
                    )));
                }
                info.active[offset as usize] = true;
            }
            SimEvent::TxAttempt {
                slot,
                sender,
                packet,
                bypass_mac,
                ..
            } => {
                self.oracle |= bypass_mac;
                let log = &mut self.packets[packet as usize];
                if sender == log.origin {
                    log.pushed_at.get_or_insert(slot);
                }
                self.serve(sender, packet, slot);
            }
            SimEvent::Mistimed {
                slot,
                sender,
                receiver,
                packet,
            } => {
                self.serve(sender, packet, slot);
                self.fail(receiver, packet, slot, Cause::LinkLoss);
            }
            SimEvent::Deferred {
                slot,
                sender,
                receiver,
                packet,
            } => {
                self.serve(sender, packet, slot);
                self.fail(receiver, packet, slot, Cause::BusyDefer);
            }
            SimEvent::LinkLoss {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::LinkLoss),
            SimEvent::Collision {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::Collision),
            SimEvent::ReceiverBusy {
                slot,
                receiver,
                packet,
                ..
            } => self.fail(receiver, packet, slot, Cause::BusyDefer),
            SimEvent::Delivered {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            } => {
                if fresh {
                    self.edges
                        .push((packet, receiver, sender, slot, Via::Delivery));
                    self.packets[packet as usize].last_fresh = Some(receiver);
                } else {
                    self.dup_delivered += 1;
                }
            }
            SimEvent::Overheard {
                slot,
                sender,
                receiver,
                packet,
                fresh,
            } => {
                if fresh {
                    self.edges
                        .push((packet, receiver, sender, slot, Via::Overhear));
                    self.packets[packet as usize].last_fresh = Some(receiver);
                } else {
                    self.dup_overheard += 1;
                }
            }
            SimEvent::CoverageReached { slot, packet, .. } => {
                // The engine emits this right after the fresh copy
                // that crossed the target, so the last fresh
                // receiver of the packet is the covering node.
                let log = &mut self.packets[packet as usize];
                let who = log.last_fresh.ok_or_else(|| {
                    ForensicsError(format!(
                        "coverage_reached for packet {packet} with no prior fresh copy"
                    ))
                })?;
                log.covered.get_or_insert((slot, who));
            }
            // Fault-injection annotations: BurstLoss is tagged onto
            // a LinkLoss already attributed above; churn and retry
            // events carry no delay attribution of their own (and
            // churn traces are rejected later for their schedule
            // changes anyway).
            SimEvent::BurstLoss { .. }
            | SimEvent::NodeCrashed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::SourceRetry { .. } => {}
            SimEvent::PacketInjected { node, packet, .. } => {
                self.packets[packet as usize].origin = node;
            }
            SimEvent::SlotEnd { .. } => {}
        }
        Ok(())
    }

    /// End of collection: sort each failure list by slot and merge the
    /// entries of one slot with [`merge_failures`]. The merge is a max
    /// by rank, so the result does not depend on the stream's order.
    fn finish(&mut self) {
        for log in self.pairs.values_mut() {
            log.failures.sort_by_key(|&(s, _)| s);
            log.failures.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    kept.1 = merge_failures(kept.1, later.1);
                }
                same
            });
        }
    }
}

impl ForensicsReport {
    /// Reconstruct from any fallible event stream — a
    /// [`ldcf_obs::JsonlReader`], a [`ldcf_obs::binlog::BinReader`]
    /// iterator, or an in-memory collection — holding only the
    /// reconstruction tables, never the full event vector.
    pub fn from_source<I, E>(events: I) -> Result<Self, ForensicsError>
    where
        I: IntoIterator<Item = Result<SimEvent, E>>,
        E: fmt::Display,
    {
        let mut c = Collector::default();
        for ev in events {
            let ev = ev.map_err(|e| ForensicsError(e.to_string()))?;
            c.absorb(&ev)?;
        }
        Self::from_collector(c)
    }

    /// Reconstruct from an in-memory event stream.
    pub fn from_events(events: &[SimEvent]) -> Result<Self, ForensicsError> {
        let mut c = Collector::default();
        for ev in events {
            c.absorb(ev)?;
        }
        Self::from_collector(c)
    }

    /// Pass 2: per-packet trees, attribution and blocking over the
    /// collected tables.
    fn from_collector(mut collector: Collector) -> Result<Self, ForensicsError> {
        collector.finish();
        let Collector {
            schedules,
            packets: logs,
            edges,
            mut pairs,
            dup_delivered,
            dup_overheard,
            oracle,
        } = collector;

        if schedules.is_empty() {
            return Err(ForensicsError(
                "trace has no schedule_slot events — it predates forensic tracing; \
                 re-generate it with --trace-events"
                    .into(),
            ));
        }
        let schedules: Vec<ScheduleInfo> = schedules
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| ForensicsError(format!("node {i} has no schedule_slot events")))
            })
            .collect::<Result<_, _>>()?;
        let n_nodes = schedules.len();
        let n_sensors = n_nodes.saturating_sub(1);
        if n_sensors == 0 {
            return Err(ForensicsError(
                "trace schedules the source alone — there is no flood to reconstruct".into(),
            ));
        }
        let m = m_of(n_sensors as u64);
        let bound = blocking_depth(n_sensors as u64);

        // Each packet's fresh edges, in stream order; and the FCFS
        // arrival order per node, across packets (the queues are
        // shared), with each pair's position in it. Only nodes with a
        // schedule get an order: an edge into any other node fails the
        // reconstruction before its blocking depth is needed.
        let n_packets = logs.len();
        let mut packet_edges: Vec<Vec<usize>> = vec![Vec::new(); n_packets];
        let mut arrivals: Vec<Vec<PacketId>> = vec![Vec::new(); n_nodes];
        for (i, &(p, child, ..)) in edges.iter().enumerate() {
            packet_edges[p as usize].push(i);
            if let Some(list) = arrivals.get_mut(child.index()) {
                let log = pairs.entry(pair(child, p)).or_default();
                if log.arrival.is_none() {
                    log.arrival = Some(list.len());
                    list.push(p);
                }
            }
        }

        // --- pass 2: per-packet trees, attribution, blocking ------------
        let mut violations: Vec<Violation> = Vec::new();
        let mut advisories: Vec<String> = Vec::new();
        let mut packets: Vec<PacketForensics> = Vec::with_capacity(n_packets);
        // Per node, its index in the current packet's `nodes`.
        let mut informed: Vec<Option<usize>> = vec![None; n_nodes];
        let informed_index =
            |informed: &[Option<usize>], n: NodeId| informed.get(n.index()).copied().flatten();

        for (p, log) in (0..n_packets as PacketId).zip(&logs) {
            let origin = log.origin;
            let pushed = match log.pushed_at {
                Some(s) => s,
                None => {
                    // Never pushed: nothing to attribute. A fresh copy
                    // without a push would be an incoherent trace.
                    if !packet_edges[p as usize].is_empty() {
                        return Err(ForensicsError(format!(
                            "packet {p} has fresh copies but no transmission from its origin {origin}"
                        )));
                    }
                    packets.push(PacketForensics {
                        packet: p,
                        origin,
                        pushed_at: 0,
                        covered_at: None,
                        nodes: Vec::new(),
                        attribution: DelayAttribution::default(),
                        coverage_attribution: None,
                        critical_path: Vec::new(),
                        tree_depth: 0,
                        max_blocking: 0,
                    });
                    continue;
                }
            };

            let mut nodes: Vec<NodeForensics> = Vec::new();
            let mut pkt_attr = DelayAttribution::default();
            let mut tree_depth = 0u32;
            let mut max_blocking = 0u32;

            for &e in &packet_edges[p as usize] {
                let (_, child, parent, slot, via) = edges[e];
                if informed_index(&informed, child).is_some() {
                    violations.push(Violation::DuplicateParent {
                        packet: p,
                        node: child,
                        slot,
                    });
                    continue;
                }
                let (parent_ready, parent_depth, parent_attr) = if parent == origin {
                    (pushed, 0, DelayAttribution::default())
                } else {
                    match informed_index(&informed, parent) {
                        Some(pi) if nodes[pi].informed_at < slot => (
                            nodes[pi].informed_at,
                            nodes[pi].depth,
                            nodes[pi].attribution,
                        ),
                        _ => {
                            violations.push(Violation::OrphanNode {
                                packet: p,
                                node: child,
                                parent,
                                slot,
                            });
                            continue;
                        }
                    }
                };
                let sched = schedules.get(child.index()).ok_or_else(|| {
                    ForensicsError(format!("node {child} informed but has no schedule"))
                })?;
                let pair_log = pairs.get(&pair(child, p));
                let failures = pair_log.map_or(&[][..], |l| &l.failures[..]);
                let mut next = 0;
                let hop = attribute_hop(
                    parent_ready,
                    slot,
                    |s| sched.is_active(s),
                    |s| {
                        while failures.get(next).is_some_and(|&(f, _)| f < s) {
                            next += 1;
                        }
                        failures
                            .get(next)
                            .filter(|&&(f, _)| f == s)
                            .map(|&(_, c)| c)
                    },
                );
                let mut attribution = parent_attr;
                attribution.merge(&hop);
                let delay = slot.saturating_sub(pushed);
                if attribution.total() != delay {
                    violations.push(Violation::AttributionMismatch {
                        packet: p,
                        node: child,
                        attributed: attribution.total(),
                        delay,
                    });
                }

                // Corollary 1: FCFS-earlier packets this relay served
                // strictly between p's arrival (end of `slot`) and its
                // first service of p. Hard on oracle runs — the bound
                // belongs to the paper's structured pipeline — advisory
                // under heuristic MACs (see module docs).
                let blocking = pair_log.filter(|l| !l.serves.is_empty()).map(|l| {
                    let first_serve = l.serves.iter().copied().min().expect("non-empty");
                    let my_pos = l.arrival.expect("every edge's child has an arrival");
                    let depth = arrivals[child.index()][..my_pos]
                        .iter()
                        .filter(|&&q| {
                            q != p
                                && pairs.get(&pair(child, q)).is_some_and(|ql| {
                                    ql.serves.iter().any(|&s| s > slot && s < first_serve)
                                })
                        })
                        .count() as u32;
                    if depth > bound {
                        if oracle {
                            violations.push(Violation::BlockingDepthExceeded {
                                packet: p,
                                node: child,
                                depth,
                                bound,
                            });
                        } else {
                            advisories.push(format!(
                                "packet {p}: relay {child} blocked by {depth} packets — \
                                 Corollary 1's pipeline bound m - 1 = {bound} holds for the \
                                 oracle schedule; heuristic MAC relays can exceed it"
                            ));
                        }
                    }
                    depth
                });

                let depth = parent_depth + 1;
                tree_depth = tree_depth.max(depth);
                max_blocking = max_blocking.max(blocking.unwrap_or(0));
                pkt_attr.merge(&attribution);
                informed[child.index()] = Some(nodes.len());
                nodes.push(NodeForensics {
                    node: child,
                    parent,
                    via,
                    informed_at: slot,
                    depth,
                    delay,
                    attribution,
                    blocking,
                });
            }

            // Critical path: source-rooted chain of the covering node.
            let covered_entry = log.covered;
            let mut critical_path = Vec::new();
            let mut coverage_attribution = None;
            if let Some((_, cnode)) = covered_entry {
                let mut cursor = Some(cnode);
                while let Some(n) = cursor {
                    match informed_index(&informed, n) {
                        Some(i) => {
                            let nf = &nodes[i];
                            critical_path.push(PathHop {
                                node: nf.node,
                                slot: nf.informed_at,
                                via: nf.via,
                            });
                            cursor = (nf.parent != origin).then_some(nf.parent);
                        }
                        None => {
                            // Chain broken — already reported as an
                            // OrphanNode/DuplicateParent violation.
                            critical_path.clear();
                            cursor = None;
                        }
                    }
                    if critical_path.len() > n_nodes {
                        critical_path.clear();
                        break;
                    }
                }
                critical_path.reverse();
                coverage_attribution =
                    informed_index(&informed, cnode).map(|i| nodes[i].attribution);
            }
            for nf in &nodes {
                informed[nf.node.index()] = None;
            }

            if tree_depth > m {
                advisories.push(format!(
                    "packet {p}: tree depth {tree_depth} exceeds the compact-model m = {m} \
                     (expected on real topologies whose diameter beats the complete-graph model)"
                ));
            }

            packets.push(PacketForensics {
                packet: p,
                origin,
                pushed_at: pushed,
                covered_at: covered_entry.map(|(s, _)| s),
                nodes,
                attribution: pkt_attr,
                coverage_attribution,
                critical_path,
                tree_depth,
                max_blocking,
            });
        }

        // --- aggregates --------------------------------------------------
        let mut totals = DelayAttribution::default();
        let mut coverage_totals = DelayAttribution::default();
        let mut delays: Vec<u64> = Vec::new();
        let mut max_tree_depth = 0;
        let mut max_blocking = 0;
        for pf in &packets {
            totals.merge(&pf.attribution);
            if let Some(ca) = &pf.coverage_attribution {
                coverage_totals.merge(ca);
            }
            if let Some(d) = pf.flooding_delay() {
                delays.push(d);
            }
            max_tree_depth = max_tree_depth.max(pf.tree_depth);
            max_blocking = max_blocking.max(pf.max_blocking);
        }
        let mean_flooding_delay =
            (!delays.is_empty()).then(|| delays.iter().sum::<u64>() as f64 / delays.len() as f64);

        Ok(ForensicsReport {
            n_nodes,
            n_sensors,
            m,
            blocking_bound: bound,
            oracle,
            packets,
            totals,
            coverage_totals,
            mean_flooding_delay,
            max_tree_depth,
            max_blocking,
            duplicate_deliveries: dup_delivered,
            duplicate_overhears: dup_overheard,
            violations,
            advisories,
        })
    }

    /// Whether every hard theory check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the full report as a JSON value (schema documented in
    /// `EXPERIMENTS.md`).
    pub fn to_value(&self) -> Value {
        let path_value = |path: &[PathHop]| {
            Value::Array(
                path.iter()
                    .map(|h| {
                        Value::Object(vec![
                            ("node".into(), Value::UInt(h.node.0 as u64)),
                            ("slot".into(), Value::UInt(h.slot)),
                            ("via".into(), Value::Str(h.via.label().into())),
                        ])
                    })
                    .collect(),
            )
        };
        let opt_u64 = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
        let packets = self
            .packets
            .iter()
            .map(|pf| {
                let nodes = pf
                    .nodes
                    .iter()
                    .map(|nf| {
                        Value::Object(vec![
                            ("node".into(), Value::UInt(nf.node.0 as u64)),
                            ("parent".into(), Value::UInt(nf.parent.0 as u64)),
                            ("via".into(), Value::Str(nf.via.label().into())),
                            ("informed_at".into(), Value::UInt(nf.informed_at)),
                            ("depth".into(), Value::UInt(nf.depth as u64)),
                            ("delay".into(), Value::UInt(nf.delay)),
                            (
                                "blocking".into(),
                                nf.blocking.map_or(Value::Null, |b| Value::UInt(b as u64)),
                            ),
                            ("attribution".into(), nf.attribution.to_value()),
                        ])
                    })
                    .collect();
                Value::Object(vec![
                    ("packet".into(), Value::UInt(pf.packet as u64)),
                    ("origin".into(), Value::UInt(pf.origin.0 as u64)),
                    ("pushed_at".into(), Value::UInt(pf.pushed_at)),
                    ("covered_at".into(), opt_u64(pf.covered_at)),
                    ("flooding_delay".into(), opt_u64(pf.flooding_delay())),
                    ("informed".into(), Value::UInt(pf.nodes.len() as u64)),
                    ("tree_depth".into(), Value::UInt(pf.tree_depth as u64)),
                    ("max_blocking".into(), Value::UInt(pf.max_blocking as u64)),
                    ("attribution".into(), pf.attribution.to_value()),
                    (
                        "coverage_attribution".into(),
                        pf.coverage_attribution
                            .as_ref()
                            .map_or(Value::Null, DelayAttribution::to_value),
                    ),
                    ("critical_path".into(), path_value(&pf.critical_path)),
                    ("nodes".into(), Value::Array(nodes)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("n_nodes".into(), Value::UInt(self.n_nodes as u64)),
            ("n_sensors".into(), Value::UInt(self.n_sensors as u64)),
            ("m".into(), Value::UInt(self.m as u64)),
            (
                "blocking_bound".into(),
                Value::UInt(self.blocking_bound as u64),
            ),
            ("oracle".into(), Value::Bool(self.oracle)),
            (
                "mean_flooding_delay".into(),
                self.mean_flooding_delay.map_or(Value::Null, Value::Float),
            ),
            ("attribution_totals".into(), self.totals.to_value()),
            (
                "coverage_attribution_totals".into(),
                self.coverage_totals.to_value(),
            ),
            (
                "max_tree_depth".into(),
                Value::UInt(self.max_tree_depth as u64),
            ),
            ("max_blocking".into(), Value::UInt(self.max_blocking as u64)),
            (
                "duplicate_deliveries".into(),
                Value::UInt(self.duplicate_deliveries),
            ),
            (
                "duplicate_overhears".into(),
                Value::UInt(self.duplicate_overhears),
            ),
            (
                "violations".into(),
                Value::Array(
                    self.violations
                        .iter()
                        .map(|v| Value::Str(v.describe()))
                        .collect(),
                ),
            ),
            (
                "advisories".into(),
                Value::Array(
                    self.advisories
                        .iter()
                        .map(|a| Value::Str(a.clone()))
                        .collect(),
                ),
            ),
            ("packets".into(), Value::Array(packets)),
        ])
    }

    /// Pretty-printed JSON report.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("forensics report serializes")
    }

    /// Human-readable terminal summary: headline, attribution
    /// histograms, top-`k` critical paths, and the theory-check result.
    pub fn summary(&self, top_k: usize) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flood forensics: {} nodes ({} sensors), {} packets, m = {}, blocking bound {} ({})",
            self.n_nodes,
            self.n_sensors,
            self.packets.len(),
            self.m,
            self.blocking_bound,
            if self.oracle {
                "oracle run: Corollary 1 enforced"
            } else {
                "heuristic MAC: Corollary 1 advisory"
            },
        );
        match self.mean_flooding_delay {
            Some(d) => {
                let _ = writeln!(out, "mean flooding delay: {d:.2} slots");
            }
            None => {
                let _ = writeln!(out, "mean flooding delay: n/a (no packet covered)");
            }
        }

        let histogram = |out: &mut String, title: &str, attr: &DelayAttribution| {
            let total = attr.total().max(1);
            let _ = writeln!(out, "{title} ({} slots):", attr.total());
            for (label, v) in attr.components() {
                let pct = 100.0 * v as f64 / total as f64;
                let bar = "#".repeat((pct / 2.5).round() as usize);
                let _ = writeln!(out, "  {label:<11} {v:>10}  {pct:5.1}%  {bar}");
            }
        };
        histogram(
            &mut out,
            "delay attribution, all informed nodes",
            &self.totals,
        );
        histogram(
            &mut out,
            "delay attribution, critical paths",
            &self.coverage_totals,
        );

        let _ = writeln!(
            out,
            "duplicates: {} delivered + {} overheard (energy only, no tree edges)",
            self.duplicate_deliveries, self.duplicate_overhears
        );
        let _ = writeln!(
            out,
            "max tree depth {} (compact-model m = {}), max blocking depth {} (bound {})",
            self.max_tree_depth, self.m, self.max_blocking, self.blocking_bound
        );

        let mut by_delay: Vec<&PacketForensics> = self
            .packets
            .iter()
            .filter(|pf| pf.flooding_delay().is_some())
            .collect();
        by_delay.sort_by_key(|pf| std::cmp::Reverse(pf.flooding_delay()));
        let _ = writeln!(out, "top {} critical paths:", top_k.min(by_delay.len()));
        for pf in by_delay.iter().take(top_k) {
            let mut path = format!("{}", pf.origin);
            for h in &pf.critical_path {
                let tag = match h.via {
                    Via::Delivery => 'd',
                    Via::Overhear => 'o',
                };
                let _ = write!(path, " -[{tag}@{}]-> {}", h.slot, h.node);
            }
            let _ = writeln!(
                out,
                "  packet {} (delay {}, depth {}): {}",
                pf.packet,
                pf.flooding_delay().expect("filtered"),
                pf.critical_path.len(),
                path
            );
        }

        if self.violations.is_empty() {
            let _ = writeln!(out, "theory checks: OK (no violations)");
        } else {
            let _ = writeln!(out, "theory checks: {} VIOLATIONS", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  !! {}", v.describe());
            }
        }
        for a in &self.advisories {
            let _ = writeln!(out, "  note: {a}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::NodeId;

    fn sched(node: u32, period: u32, offsets: &[u32]) -> Vec<SimEvent> {
        offsets
            .iter()
            .map(|&offset| SimEvent::ScheduleSlot {
                slot: 0,
                node: NodeId(node),
                period,
                offset,
            })
            .collect()
    }

    fn delivered(slot: u64, sender: u32, receiver: u32, packet: PacketId, fresh: bool) -> SimEvent {
        SimEvent::Delivered {
            slot,
            sender: NodeId(sender),
            receiver: NodeId(receiver),
            packet,
            fresh,
        }
    }

    fn tx(slot: u64, sender: u32, receiver: u32, packet: PacketId) -> SimEvent {
        SimEvent::TxAttempt {
            slot,
            sender: NodeId(sender),
            receiver: NodeId(receiver),
            packet,
            bypass_mac: false,
        }
    }

    /// Source 0, sensors 1 and 2 in a line, always-on schedules: push
    /// at 1, node 1 informed at 1, node 2 at 3 (one loss at 2).
    fn line_trace() -> Vec<SimEvent> {
        let mut ev = Vec::new();
        for n in 0..3 {
            ev.extend(sched(n, 1, &[0]));
        }
        ev.push(tx(1, 0, 1, 0));
        ev.push(delivered(1, 0, 1, 0, true));
        ev.push(tx(2, 1, 2, 0));
        ev.push(SimEvent::LinkLoss {
            slot: 2,
            sender: NodeId(1),
            receiver: NodeId(2),
            packet: 0,
        });
        ev.push(tx(3, 1, 2, 0));
        ev.push(delivered(3, 1, 2, 0, true));
        ev.push(SimEvent::CoverageReached {
            slot: 3,
            packet: 0,
            holders: 2,
        });
        ev
    }

    #[test]
    fn reconstructs_a_line_flood() {
        let r = ForensicsReport::from_events(&line_trace()).unwrap();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.n_nodes, 3);
        assert_eq!(r.n_sensors, 2);
        let pf = &r.packets[0];
        assert_eq!(pf.pushed_at, 1);
        assert_eq!(pf.covered_at, Some(3));
        assert_eq!(pf.nodes.len(), 2);

        // Node 1: informed at the push slot, delay 0.
        let n1 = &pf.nodes[0];
        assert_eq!((n1.node, n1.parent, n1.depth), (NodeId(1), NodeId(0), 1));
        assert_eq!(n1.delay, 0);
        assert_eq!(n1.attribution.total(), 0);

        // Node 2: delay 2 = one link-loss slot + the rendezvous slot.
        let n2 = &pf.nodes[1];
        assert_eq!((n2.node, n2.parent, n2.depth), (NodeId(2), NodeId(1), 2));
        assert_eq!(n2.delay, 2);
        assert_eq!(n2.attribution.link_loss, 1);
        assert_eq!(n2.attribution.sleep_wait, 1);
        assert_eq!(n2.attribution.total(), 2);

        // Critical path reaches the covering node through node 1.
        assert_eq!(
            pf.critical_path.iter().map(|h| h.node).collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(pf.coverage_attribution.unwrap().total(), 2);
        assert_eq!(r.mean_flooding_delay, Some(2.0));
        assert_eq!(pf.tree_depth, 2);
    }

    #[test]
    fn sleep_wait_dominates_duty_cycled_hops() {
        // Node 1 active only at slot 9 of a 10-slot period: push at 1
        // (to the always-on node 2), delivery to node 1 at 9 -> 8 slots
        // of delay, mostly sleep-wait.
        let mut ev = Vec::new();
        ev.extend(sched(0, 10, &[0]));
        ev.extend(sched(1, 10, &[9]));
        ev.extend(sched(2, 10, &(0..10).collect::<Vec<_>>()));
        ev.push(tx(1, 0, 2, 0));
        ev.push(delivered(1, 0, 2, 0, true));
        ev.push(SimEvent::Mistimed {
            slot: 5,
            sender: NodeId(0),
            receiver: NodeId(1),
            packet: 0,
        });
        ev.push(tx(9, 0, 1, 0));
        ev.push(delivered(9, 0, 1, 0, true));
        ev.push(SimEvent::CoverageReached {
            slot: 9,
            packet: 0,
            holders: 2,
        });
        let r = ForensicsReport::from_events(&ev).unwrap();
        assert!(r.is_clean(), "{:?}", r.violations);
        let n1 = r.packets[0]
            .nodes
            .iter()
            .find(|n| n.node == NodeId(1))
            .unwrap();
        assert_eq!(n1.delay, 8);
        // Slot 5 carries the mistimed failure (sender-side energy was
        // spent), classified link_loss even though node 1 was dormant.
        assert_eq!(n1.attribution.link_loss, 1);
        assert_eq!(n1.attribution.sleep_wait, 7);
        assert_eq!(n1.attribution.total(), 8);
    }

    #[test]
    fn duplicates_count_but_never_create_edges() {
        let mut ev = line_trace();
        // Forced duplicates: node 1 hears packet 0 twice more.
        ev.push(delivered(5, 0, 1, 0, false));
        ev.push(SimEvent::Overheard {
            slot: 5,
            sender: NodeId(1),
            receiver: NodeId(2),
            packet: 0,
            fresh: false,
        });
        let r = ForensicsReport::from_events(&ev).unwrap();
        assert!(r.is_clean(), "{:?}", r.violations);
        assert_eq!(r.duplicate_deliveries, 1);
        assert_eq!(r.duplicate_overhears, 1);
        // Still exactly one parent per informed node.
        assert_eq!(r.packets[0].nodes.len(), 2);
    }

    #[test]
    fn double_fresh_copy_is_a_violation() {
        let mut ev = line_trace();
        ev.push(delivered(7, 0, 1, 0, true)); // engine would never emit this
        let r = ForensicsReport::from_events(&ev).unwrap();
        assert!(matches!(
            r.violations[..],
            [Violation::DuplicateParent {
                packet: 0,
                node: NodeId(1),
                slot: 7
            }]
        ));
    }

    #[test]
    fn orphan_parent_is_a_violation() {
        let mut ev: Vec<SimEvent> = (0..4).flat_map(|n| sched(n, 1, &[0])).collect();
        ev.push(tx(1, 0, 1, 0));
        ev.push(delivered(1, 0, 1, 0, true));
        // Node 3 claims a parent (node 2) that was never informed.
        ev.push(delivered(4, 2, 3, 0, true));
        let r = ForensicsReport::from_events(&ev).unwrap();
        assert!(matches!(
            r.violations[..],
            [Violation::OrphanNode {
                packet: 0,
                node: NodeId(3),
                parent: NodeId(2),
                slot: 4
            }]
        ));
    }

    #[test]
    fn blocking_counts_fcfs_predecessors_only() {
        // Node 1 receives packets 0 then 1; it serves packet 0 at slots
        // 3 and 4, then first serves packet 1 at slot 5: packet 1 was
        // blocked by one FCFS predecessor.
        let mut ev: Vec<SimEvent> = (0..3).flat_map(|n| sched(n, 1, &[0])).collect();
        ev.push(tx(1, 0, 1, 0));
        ev.push(delivered(1, 0, 1, 0, true));
        ev.push(tx(2, 0, 1, 1));
        ev.push(delivered(2, 0, 1, 1, true));
        for s in [3, 4] {
            ev.push(tx(s, 1, 2, 0));
            ev.push(SimEvent::LinkLoss {
                slot: s,
                sender: NodeId(1),
                receiver: NodeId(2),
                packet: 0,
            });
        }
        ev.push(tx(5, 1, 2, 1));
        ev.push(delivered(5, 1, 2, 1, true));
        let r = ForensicsReport::from_events(&ev).unwrap();
        let p1 = &r.packets[1];
        let n1 = p1.nodes.iter().find(|n| n.node == NodeId(1)).unwrap();
        assert_eq!(n1.blocking, Some(1), "blocked by packet 0");
        let p0 = &r.packets[0];
        let n1p0 = p0.nodes.iter().find(|n| n.node == NodeId(1)).unwrap();
        assert_eq!(n1p0.blocking, Some(0), "packet 0 went first");
        // Queue blocking shows up in packet 1's attribution at node 2
        // only via the failure slots charged to packet 0's loss; node
        // 2's packet-1 window slots 3..=5 are loss-free for packet 1,
        // awake, non-final -> queue_block.
        let n2p1 = p1.nodes.iter().find(|n| n.node == NodeId(2)).unwrap();
        assert_eq!(n2p1.attribution.queue_block, 2);
        assert_eq!(n2p1.attribution.total(), n2p1.delay);
    }

    #[test]
    fn blocking_bound_is_hard_for_oracle_runs_and_advisory_otherwise() {
        // 4 nodes -> 3 sensors -> m = 2, bound = 1. Relay 1 receives
        // packets 0, 1, 2 back to back, then serves 0 and 1 before
        // first serving 2: packet 2 is blocked by 2 > 1 predecessors.
        let build = |bypass_mac: bool| {
            let mut ev: Vec<SimEvent> = (0..4).flat_map(|n| sched(n, 1, &[0])).collect();
            for p in 0..3 {
                ev.push(SimEvent::TxAttempt {
                    slot: 1 + p as u64,
                    sender: NodeId(0),
                    receiver: NodeId(1),
                    packet: p,
                    bypass_mac,
                });
                ev.push(delivered(1 + p as u64, 0, 1, p, true));
            }
            for (s, p) in [(4, 0), (5, 1), (6, 2)] {
                ev.push(tx(s, 1, 2, p));
                ev.push(delivered(s, 1, 2, p, true));
            }
            ev
        };
        let heuristic = ForensicsReport::from_events(&build(false)).unwrap();
        assert!(heuristic.is_clean(), "{:?}", heuristic.violations);
        assert!(!heuristic.oracle);
        assert!(
            heuristic
                .advisories
                .iter()
                .any(|a| a.contains("blocked by 2")),
            "{:?}",
            heuristic.advisories
        );
        assert_eq!(heuristic.max_blocking, 2);

        let oracle = ForensicsReport::from_events(&build(true)).unwrap();
        assert!(oracle.oracle);
        assert!(matches!(
            oracle.violations[..],
            [Violation::BlockingDepthExceeded {
                packet: 2,
                node: NodeId(1),
                depth: 2,
                bound: 1
            }]
        ));
    }

    #[test]
    fn a_source_alone_is_an_error_not_a_panic() {
        let mut ev = sched(0, 1, &[0]);
        ev.push(SimEvent::SlotEnd {
            slot: 0,
            queued: 0,
            active_nodes: 1,
        });
        let err = ForensicsReport::from_events(&ev).unwrap_err();
        assert!(err.to_string().contains("source alone"), "{err}");
    }

    #[test]
    fn traces_without_schedules_are_rejected() {
        let ev = [tx(1, 0, 1, 0), delivered(1, 0, 1, 0, true)];
        let err = ForensicsReport::from_events(&ev).unwrap_err();
        assert!(err.to_string().contains("schedule_slot"), "{err}");
    }

    #[test]
    fn json_report_round_trips_through_serde_json(// sanity: the report renders and contains the headline keys
    ) {
        let r = ForensicsReport::from_events(&line_trace()).unwrap();
        let json = r.to_json_pretty();
        for key in [
            "attribution_totals",
            "coverage_attribution_totals",
            "critical_path",
            "blocking_bound",
            "sleep_wait",
            "queue_block",
            "violations",
        ] {
            assert!(json.contains(key), "report lacks {key}: {json}");
        }
        let summary = r.summary(3);
        assert!(summary.contains("theory checks: OK"), "{summary}");
        assert!(summary.contains("critical paths"), "{summary}");
    }
}
