//! MAC layer: transmission intents, carrier sense, hidden-terminal
//! collisions, loss draws, and overhearing.
//!
//! The model follows §V of the paper:
//!
//! * Flooding proceeds by **unicasts**: each intent names one sender,
//!   one receiver and one packet.
//! * **Carrier sense** — senders that can hear an already-committed
//!   sender defer to it ("each sensor maintains a subset of its neighbors
//!   in which those neighbors can hear each other. As a result, the
//!   carrier sense can be used to prevent them from sending packets at
//!   the same time"). Deference order is the protocol-supplied
//!   `backoff_rank` (DBAO assigns these deterministically).
//! * **Hidden terminals** — committed senders that cannot hear each other
//!   may still interfere at a common receiver; a receiver hearing two or
//!   more concurrent transmissions gets nothing.
//! * **Loss** — a sole transmission at a receiver succeeds with the
//!   link's PRR.
//! * **Overhearing** — if enabled by the protocol (DBAO), an active node
//!   that is not the intended receiver of the sole audible transmission
//!   still captures the packet with the link's PRR.
//! * **OPT bypass** — the oracle protocol sets `bypass_mac`; its intents
//!   skip carrier sense and collisions (the paper assumes "there is no
//!   collision occurring in OPT") but still take loss draws (OPT's
//!   failure counts in Fig. 11 are nonzero).

use ldcf_net::bitset;
use ldcf_net::{NodeId, PacketId, Topology};
use rand::Rng;

/// A protocol's wish to unicast `packet` from `sender` to `receiver`
/// in the current slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxIntent {
    /// Transmitting node (must hold `packet`).
    pub sender: NodeId,
    /// Intended receiver (must be active this slot).
    pub receiver: NodeId,
    /// Packet to transmit.
    pub packet: PacketId,
    /// CSMA deference order; lower ranks win contention.
    pub backoff_rank: u32,
    /// Oracle flag: skip carrier sense and collision modelling.
    pub bypass_mac: bool,
}

/// Outcome of one intended or overheard reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryEvent {
    /// The transmitting node.
    pub sender: NodeId,
    /// The node that received (or failed to receive) the packet.
    pub receiver: NodeId,
    /// The packet involved.
    pub packet: PacketId,
    /// What happened.
    pub outcome: Outcome,
}

/// Per-reception outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Reception succeeded; the receiver now holds the packet.
    Delivered,
    /// Reception succeeded via overhearing (receiver was not the target).
    Overheard,
    /// The link dropped the packet (Bernoulli loss).
    LinkLoss,
    /// Two or more hidden senders interfered at the receiver.
    Collision,
    /// The intended receiver was itself transmitting (semi-duplex).
    ReceiverBusy,
}

impl Outcome {
    /// Whether this outcome counts as a transmission failure in the
    /// paper's Fig. 11 sense (energy wasted on an unsuccessful intended
    /// transmission). Overhearing misses are not failures — nobody spent
    /// a dedicated transmission on them.
    pub fn is_failure(self) -> bool {
        matches!(
            self,
            Outcome::LinkLoss | Outcome::Collision | Outcome::ReceiverBusy
        )
    }
}

/// Result of resolving one slot's intents.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlotResolution {
    /// Senders that actually transmitted (committed after carrier sense).
    pub transmitted: Vec<NodeId>,
    /// Indices into the input intent slice of the committed
    /// transmissions, in commit (backoff) order; parallel to
    /// `transmitted`. Lets callers recover the full intent (receiver,
    /// packet, bypass flag) behind each transmission.
    pub committed: Vec<usize>,
    /// Indices into the input intent slice of the intents silenced by
    /// carrier sense (the sender heard an audible committed sender).
    /// The full intent is kept so callers can attribute the deferral to
    /// the receiver/packet that had to wait.
    pub deferred: Vec<usize>,
    /// All reception events, including failures and overhears.
    pub events: Vec<DeliveryEvent>,
}

impl SlotResolution {
    /// A resolution with room for `per_slot` entries in every vector:
    /// the most (awake node, neighbor) pairs plus awake nodes any slot
    /// of the run can have (see [`MacScratch::for_nodes`]). A slot logs
    /// at most one event per intent, and intents run over distinct
    /// links into awake receivers, plus at most one overheard capture
    /// per awake node. Pre-sizing to this bound keeps the slot loop free
    /// of high-water-mark `Vec` growth (the allocation gate asserts zero
    /// heap allocs per slot).
    pub fn with_capacity(per_slot: usize) -> Self {
        Self {
            transmitted: Vec::with_capacity(per_slot),
            committed: Vec::with_capacity(per_slot),
            deferred: Vec::with_capacity(per_slot),
            events: Vec::with_capacity(per_slot),
        }
    }

    /// Empty every vector, keeping capacity for the next slot.
    pub fn clear(&mut self) {
        self.transmitted.clear();
        self.committed.clear();
        self.deferred.clear();
        self.events.clear();
    }
}

/// Reusable buffers for [`resolve_slot_into`].
///
/// The engine resolves hundreds of thousands of slots per run, and the
/// per-slot `Vec` allocations plus linear `contains` scans of the
/// reference MAC dominated its profile. All intermediate state lives
/// here instead, cleared (not freed) between slots; the membership
/// scans become single-word bitset probes, and carrier sense becomes
/// one intersection against the committed senders' adjacency rows.
///
/// Clearing is proportional to the slot, not to the network: every
/// node whose bit or counter a slot sets is recorded once in `touched`,
/// and the next reset zeroes just those nodes. Only a change of node
/// count falls back to rebuilding the rows.
#[derive(Clone, Debug, Default)]
pub struct MacScratch {
    /// Intent indices in (backoff_rank, sender) order.
    order: Vec<usize>,
    /// Committed non-bypass intent indices, in commit order.
    contended: Vec<usize>,
    /// Committed bypass (oracle) intent indices, in commit order.
    bypassed: Vec<usize>,
    /// Nodes that committed a transmission this slot.
    committed: Vec<u64>,
    /// Nodes silenced by carrier sense this slot.
    deferred: Vec<u64>,
    /// Committed non-bypass senders (the field carrier sense listens to).
    carrier: Vec<u64>,
    /// Receivers unable to overhear (handled unicasts + oracle targets).
    busy_rx: Vec<u64>,
    /// Overhearing candidates already evaluated.
    seen: Vec<u64>,
    /// Per-node count of committed non-bypass intents targeting it.
    targeting: Vec<u32>,
    /// Nodes listed in `touched` (so each is listed once).
    marked: Vec<u64>,
    /// Nodes with state set since the last reset, in first-touch order.
    touched: Vec<u32>,
}

impl MacScratch {
    /// Scratch for an `n`-node run whose slots have at most `per_slot`
    /// intents and touched nodes. Intents name awake receivers over
    /// distinct links, so the wake calendar's busiest offset bounds
    /// both: its sum of (degree + 1) over the awake nodes, capped at
    /// `n` (the engine computes it with
    /// [`ldcf_net::NeighborTable::busiest_offset`]). The per-node bit
    /// rows and the targeting counter stay sized by `n`. See
    /// [`SlotResolution::with_capacity`].
    pub fn for_nodes(n: usize, per_slot: usize) -> Self {
        let words = bitset::words_for(n);
        Self {
            order: Vec::with_capacity(per_slot),
            contended: Vec::with_capacity(per_slot),
            bypassed: Vec::with_capacity(per_slot),
            committed: Vec::with_capacity(words),
            deferred: Vec::with_capacity(words),
            carrier: Vec::with_capacity(words),
            busy_rx: Vec::with_capacity(words),
            seen: Vec::with_capacity(words),
            targeting: Vec::with_capacity(n),
            marked: Vec::with_capacity(words),
            touched: Vec::with_capacity(per_slot),
        }
    }

    /// Capacities of the per-slot index lists (order, contended,
    /// bypassed, touched), for the engine's sizing test.
    #[cfg(test)]
    pub(crate) fn list_capacities(&self) -> [usize; 4] {
        [
            self.order.capacity(),
            self.contended.capacity(),
            self.bypassed.capacity(),
            self.touched.capacity(),
        ]
    }

    /// The per-node bit rows, every one indexed by node id.
    fn bit_rows(&mut self) -> [&mut Vec<u64>; 6] {
        [
            &mut self.committed,
            &mut self.deferred,
            &mut self.carrier,
            &mut self.busy_rx,
            &mut self.seen,
            &mut self.marked,
        ]
    }

    fn reset(&mut self, n_nodes: usize) {
        self.order.clear();
        self.contended.clear();
        self.bypassed.clear();
        if self.targeting.len() == n_nodes {
            for k in 0..self.touched.len() {
                let i = self.touched[k] as usize;
                for bits in self.bit_rows() {
                    bitset::clear_bit(bits, i);
                }
                self.targeting[i] = 0;
            }
        } else {
            // First use, or a network of another size: rebuild the rows.
            let words = bitset::words_for(n_nodes);
            for bits in self.bit_rows() {
                bits.clear();
                bits.resize(words, 0);
            }
            self.targeting.clear();
            self.targeting.resize(n_nodes, 0);
        }
        self.touched.clear();
    }

    /// Record that node `i` has state to clear at the next reset.
    #[inline]
    fn touch(&mut self, i: usize) {
        if bitset::set_bit(&mut self.marked, i) {
            self.touched.push(i as u32);
        }
    }
}

/// Who may overhear: passed by the engine, decided by the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Overhearing {
    /// No opportunistic capture of others' unicasts.
    Disabled,
    /// Active nodes capture the sole audible transmission with PRR.
    Enabled,
}

/// Resolve one slot's intents into `res`, reusing `scratch` — the
/// engine's hot path.
///
/// Behaviourally identical to [`resolve_slot_reference`] (the
/// differential tests hold them equal on random topologies, intent
/// sets and seeds) but allocation-free after warm-up. Crucially the
/// RNG draw count and order are exactly those of the reference: one
/// draw per committed oracle intent, one per uncontended unicast
/// reception, one per overhearing capture attempt, in the same
/// sequence — so artefacts stay byte-identical.
#[allow(clippy::too_many_arguments)]
pub fn resolve_slot_into<R: Rng + ?Sized>(
    topo: &Topology,
    intents: &[TxIntent],
    overhearing: Overhearing,
    mut is_active: impl FnMut(NodeId) -> bool,
    mut wants: impl FnMut(NodeId, PacketId) -> bool,
    mut link_prr: impl FnMut(NodeId, NodeId, f64) -> f64,
    rng: &mut R,
    scratch: &mut MacScratch,
    res: &mut SlotResolution,
) {
    res.clear();
    if intents.is_empty() {
        return;
    }
    scratch.reset(topo.n_nodes());

    // --- commit phase: carrier sense in backoff order ------------------
    scratch.order.extend(0..intents.len());
    // Unstable sort with the index as final key reproduces the
    // reference's stable (rank, sender) order without its scratch
    // allocation.
    scratch
        .order
        .sort_unstable_by_key(|&i| (intents[i].backoff_rank, intents[i].sender, i));

    for k in 0..scratch.order.len() {
        let i = scratch.order[k];
        let it = &intents[i];
        debug_assert!(
            topo.are_neighbors(it.sender, it.receiver),
            "intent over a non-existent link {} -> {}",
            it.sender,
            it.receiver
        );
        let si = it.sender.index();
        // One transmission per sender per slot (semi-duplex radio) —
        // enforced for oracle intents too; a radio is a radio. A sender
        // that already deferred stays silent for the whole slot.
        if bitset::test_bit(&scratch.committed, si) || bitset::test_bit(&scratch.deferred, si) {
            continue;
        }
        scratch.touch(si);
        if it.bypass_mac {
            res.committed.push(i);
            res.transmitted.push(it.sender);
            bitset::set_bit(&mut scratch.committed, si);
            scratch.bypassed.push(i);
            continue;
        }
        // Carrier sense: defer if an audible sender already committed.
        // The sender's row is short (its degree); the walk stops at the
        // first committed neighbor.
        let audible_busy = topo
            .neighbor_ids(it.sender)
            .iter()
            .any(|&v| bitset::test_bit(&scratch.carrier, v.index()));
        if audible_busy {
            res.deferred.push(i);
            bitset::set_bit(&mut scratch.deferred, si);
        } else {
            res.committed.push(i);
            res.transmitted.push(it.sender);
            bitset::set_bit(&mut scratch.committed, si);
            bitset::set_bit(&mut scratch.carrier, si);
            scratch.contended.push(i);
            scratch.touch(it.receiver.index());
            scratch.targeting[it.receiver.index()] += 1;
        }
    }

    // --- reception phase ------------------------------------------------
    // Oracle intents: direct loss draw, no interference.
    for &i in &scratch.bypassed {
        let it = &intents[i];
        let q = topo
            .quality(it.sender, it.receiver)
            .expect("validated above");
        let outcome = if rng.random::<f64>() < link_prr(it.sender, it.receiver, q.prr()) {
            Outcome::Delivered
        } else {
            Outcome::LinkLoss
        };
        res.events.push(DeliveryEvent {
            sender: it.sender,
            receiver: it.receiver,
            packet: it.packet,
            outcome,
        });
    }

    // Intended receptions. Collision model: a reception fails when two
    // or more committed senders *target* the same receiver (they must be
    // mutually hidden, or carrier sense would have serialised them).
    // Concurrent transmissions aimed elsewhere do not garble it — the
    // capture-effect assumption common to low-duty-cycle WSN evaluations.
    for &i in &scratch.contended {
        let it = &intents[i];
        let r = it.receiver;
        // Semi-duplex: a receiver that is itself transmitting hears nothing.
        if bitset::test_bit(&scratch.committed, r.index()) {
            res.events.push(DeliveryEvent {
                sender: it.sender,
                receiver: r,
                packet: it.packet,
                outcome: Outcome::ReceiverBusy,
            });
            continue;
        }
        let outcome = if scratch.targeting[r.index()] >= 2 {
            Outcome::Collision
        } else if rng.random::<f64>()
            < link_prr(
                it.sender,
                r,
                topo.quality(it.sender, r).expect("validated above").prr(),
            )
        {
            Outcome::Delivered
        } else {
            Outcome::LinkLoss
        };
        res.events.push(DeliveryEvent {
            sender: it.sender,
            receiver: r,
            packet: it.packet,
            outcome,
        });
        bitset::set_bit(&mut scratch.busy_rx, r.index());
    }

    // Overhearing: every other active node with exactly one audible
    // committed sender (oracle or contended) may capture that packet —
    // it was on the air either way.
    if overhearing == Overhearing::Enabled {
        // Intended receivers are busy receiving their own unicast and
        // cannot also capture an overheard one.
        for k in 0..scratch.bypassed.len() {
            let ri = intents[scratch.bypassed[k]].receiver.index();
            scratch.touch(ri);
            bitset::set_bit(&mut scratch.busy_rx, ri);
        }
        for k in 0..res.transmitted.len() {
            let s = res.transmitted[k];
            for &r in topo.neighbor_ids(s) {
                let ri = r.index();
                if bitset::test_bit(&scratch.seen, ri)
                    || bitset::test_bit(&scratch.busy_rx, ri)
                    || bitset::test_bit(&scratch.committed, ri)
                    || !is_active(r)
                {
                    continue;
                }
                scratch.touch(ri);
                bitset::set_bit(&mut scratch.seen, ri);
                // Oracle transmissions are collision-free by fiat, and
                // that fiat extends to overhearing: a bystander captures
                // the best audible oracle unicast carrying a packet it
                // wants (later intents win PRR ties, as in the
                // reference's `max_by`). Contended transmissions keep
                // physical rules: a capture happens only when exactly
                // one committed sender is audible.
                let mut chosen: Option<usize> = None;
                let mut best_prr = 0.0f64;
                for &i in &scratch.bypassed {
                    let it = &intents[i];
                    if !wants(r, it.packet) {
                        continue;
                    }
                    // One row search answers both "audible?" and "how well?".
                    if let Some(q) = topo.quality(it.sender, r) {
                        if chosen.is_none() || q.prr() >= best_prr {
                            chosen = Some(i);
                            best_prr = q.prr();
                        }
                    }
                }
                if chosen.is_none() {
                    let mut only: Option<usize> = None;
                    let mut audible = 0u32;
                    for &i in &scratch.contended {
                        if topo.are_neighbors(intents[i].sender, r) {
                            audible += 1;
                            if audible >= 2 {
                                break; // garble — no capture
                            }
                            only = Some(i);
                        }
                    }
                    if audible == 1 {
                        let i = only.expect("counted one audible sender");
                        if wants(r, intents[i].packet) {
                            chosen = Some(i);
                        }
                    }
                }
                if let Some(i) = chosen {
                    let it = &intents[i];
                    if rng.random::<f64>()
                        < link_prr(
                            it.sender,
                            r,
                            topo.quality(it.sender, r).expect("neighbors").prr(),
                        )
                    {
                        res.events.push(DeliveryEvent {
                            sender: it.sender,
                            receiver: r,
                            packet: it.packet,
                            outcome: Outcome::Overheard,
                        });
                    }
                }
            }
        }
    }
}

/// Reference MAC resolution — the executable specification.
///
/// This is the original straight-line implementation, kept verbatim as
/// the oracle for the differential tests: [`resolve_slot_into`] must
/// produce an identical [`SlotResolution`] (same vectors, same order)
/// from the same RNG on every input. Quadratic scans and per-slot
/// allocations make it unfit for the hot path, but its simplicity makes
/// it easy to audit against §V of the paper.
#[allow(clippy::too_many_arguments)]
pub fn resolve_slot_reference<R: Rng + ?Sized>(
    topo: &Topology,
    intents: &[TxIntent],
    overhearing: Overhearing,
    mut is_active: impl FnMut(NodeId) -> bool,
    mut wants: impl FnMut(NodeId, PacketId) -> bool,
    mut link_prr: impl FnMut(NodeId, NodeId, f64) -> f64,
    rng: &mut R,
) -> SlotResolution {
    let mut res = SlotResolution::default();
    if intents.is_empty() {
        return res;
    }

    // --- commit phase: carrier sense in backoff order ------------------
    let mut order: Vec<usize> = (0..intents.len()).collect();
    order.sort_by_key(|&i| (intents[i].backoff_rank, intents[i].sender));

    let mut committed: Vec<usize> = Vec::new();
    let mut committed_senders: Vec<NodeId> = Vec::new();
    for &i in &order {
        let it = &intents[i];
        debug_assert!(
            topo.are_neighbors(it.sender, it.receiver),
            "intent over a non-existent link {} -> {}",
            it.sender,
            it.receiver
        );
        // One transmission per sender per slot (semi-duplex radio) —
        // enforced for oracle intents too; a radio is a radio. A sender
        // that already deferred stays silent for the whole slot.
        if committed_senders.contains(&it.sender)
            || res.deferred.iter().any(|&j| intents[j].sender == it.sender)
        {
            continue;
        }
        if it.bypass_mac {
            committed.push(i);
            committed_senders.push(it.sender);
            continue;
        }
        // Carrier sense: defer if an audible sender already committed.
        let busy = committed
            .iter()
            .any(|&j| !intents[j].bypass_mac && topo.are_neighbors(it.sender, intents[j].sender));
        if busy {
            res.deferred.push(i);
        } else {
            committed.push(i);
            committed_senders.push(it.sender);
        }
    }
    res.transmitted = committed_senders.clone();

    // --- reception phase ------------------------------------------------
    // Oracle intents: direct loss draw, no interference.
    for &i in &committed {
        let it = &intents[i];
        if !it.bypass_mac {
            continue;
        }
        let q = topo
            .quality(it.sender, it.receiver)
            .expect("validated above");
        let outcome = if rng.random::<f64>() < link_prr(it.sender, it.receiver, q.prr()) {
            Outcome::Delivered
        } else {
            Outcome::LinkLoss
        };
        res.events.push(DeliveryEvent {
            sender: it.sender,
            receiver: it.receiver,
            packet: it.packet,
            outcome,
        });
    }

    // Contended intents: interference at each receiver.
    let contended: Vec<usize> = committed
        .iter()
        .copied()
        .filter(|&i| !intents[i].bypass_mac)
        .collect();

    // Intended receptions. Collision model: a reception fails when two
    // or more committed senders *target* the same receiver (they must be
    // mutually hidden, or carrier sense would have serialised them).
    // Concurrent transmissions aimed elsewhere do not garble it — the
    // capture-effect assumption common to low-duty-cycle WSN evaluations
    // (and implicit in the paper's Fig. 11 failure counts, which are
    // dominated by link loss).
    let mut handled_receivers: Vec<NodeId> = Vec::new();
    for &i in &contended {
        let it = &intents[i];
        let r = it.receiver;
        // Semi-duplex: a receiver that is itself transmitting hears nothing.
        if committed_senders.contains(&r) {
            res.events.push(DeliveryEvent {
                sender: it.sender,
                receiver: r,
                packet: it.packet,
                outcome: Outcome::ReceiverBusy,
            });
            continue;
        }
        let targeting = contended
            .iter()
            .filter(|&&j| intents[j].receiver == r)
            .count();
        let outcome = if targeting >= 2 {
            Outcome::Collision
        } else if rng.random::<f64>()
            < link_prr(
                it.sender,
                r,
                topo.quality(it.sender, r).expect("validated above").prr(),
            )
        {
            Outcome::Delivered
        } else {
            Outcome::LinkLoss
        };
        res.events.push(DeliveryEvent {
            sender: it.sender,
            receiver: r,
            packet: it.packet,
            outcome,
        });
        handled_receivers.push(r);
    }

    // Overhearing: every other active node with exactly one audible
    // committed sender (oracle or contended) may capture that packet —
    // it was on the air either way.
    if overhearing == Overhearing::Enabled {
        // Intended receivers are busy receiving their own unicast and
        // cannot also capture an overheard one.
        let mut busy_receivers = handled_receivers;
        for &i in &committed {
            if intents[i].bypass_mac {
                busy_receivers.push(intents[i].receiver);
            }
        }
        let mut seen: Vec<NodeId> = Vec::new();
        for &s in &committed_senders {
            for &r in topo.neighbor_ids(s) {
                if seen.contains(&r)
                    || busy_receivers.contains(&r)
                    || committed_senders.contains(&r)
                    || !is_active(r)
                {
                    continue;
                }
                seen.push(r);
                // Oracle transmissions are collision-free by fiat, and
                // that fiat extends to overhearing: a bystander captures
                // the best audible oracle unicast carrying a packet it
                // wants. Contended transmissions keep physical rules: a
                // capture happens only when exactly one committed sender
                // is audible.
                let oracle_best = committed
                    .iter()
                    .copied()
                    .filter(|&i| {
                        intents[i].bypass_mac
                            && topo.are_neighbors(intents[i].sender, r)
                            && wants(r, intents[i].packet)
                    })
                    .max_by(|&a, &b| {
                        let qa = topo.quality(intents[a].sender, r).expect("neighbors").prr();
                        let qb = topo.quality(intents[b].sender, r).expect("neighbors").prr();
                        qa.partial_cmp(&qb).expect("PRR is finite")
                    });
                let chosen = if let Some(i) = oracle_best {
                    Some(i)
                } else {
                    let audible: Vec<usize> = committed
                        .iter()
                        .copied()
                        .filter(|&i| {
                            !intents[i].bypass_mac && topo.are_neighbors(intents[i].sender, r)
                        })
                        .collect();
                    match audible[..] {
                        [only] if wants(r, intents[only].packet) => Some(only),
                        _ => None, // silence or garble — no capture
                    }
                };
                if let Some(i) = chosen {
                    let it = &intents[i];
                    if rng.random::<f64>()
                        < link_prr(
                            it.sender,
                            r,
                            topo.quality(it.sender, r).expect("neighbors").prr(),
                        )
                    {
                        res.events.push(DeliveryEvent {
                            sender: it.sender,
                            receiver: r,
                            packet: it.packet,
                            outcome: Outcome::Overheard,
                        });
                    }
                }
            }
        }
    }

    res.committed = committed;
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::LinkQuality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn intent(s: u32, r: u32, p: PacketId, rank: u32) -> TxIntent {
        TxIntent {
            sender: NodeId(s),
            receiver: NodeId(r),
            packet: p,
            backoff_rank: rank,
            bypass_mac: false,
        }
    }

    fn resolve(
        topo: &Topology,
        intents: &[TxIntent],
        over: Overhearing,
        seed: u64,
    ) -> SlotResolution {
        let mut rng = StdRng::seed_from_u64(seed);
        resolve_with(topo, intents, over, |_| true, |_, _| true, &mut rng)
    }

    /// [`resolve_slot_into`] into fresh buffers, static link PRRs.
    fn resolve_with(
        topo: &Topology,
        intents: &[TxIntent],
        over: Overhearing,
        is_active: impl FnMut(NodeId) -> bool,
        wants: impl FnMut(NodeId, PacketId) -> bool,
        rng: &mut StdRng,
    ) -> SlotResolution {
        let mut res = SlotResolution::default();
        resolve_slot_into(
            topo,
            intents,
            over,
            is_active,
            wants,
            |_, _, base| base,
            rng,
            &mut MacScratch::default(),
            &mut res,
        );
        res
    }

    #[test]
    fn sole_perfect_transmission_delivers() {
        let topo = Topology::line(2, LinkQuality::PERFECT);
        let res = resolve(&topo, &[intent(0, 1, 0, 0)], Overhearing::Disabled, 1);
        assert_eq!(res.transmitted, vec![NodeId(0)]);
        assert_eq!(res.events.len(), 1);
        assert_eq!(res.events[0].outcome, Outcome::Delivered);
    }

    #[test]
    fn carrier_sense_defers_audible_contender() {
        // 0 - 1 - 2 complete triangle: 0 and 2 can hear each other.
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        let res = resolve(
            &topo,
            &[intent(0, 1, 0, 0), intent(2, 1, 1, 1)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted, vec![NodeId(0)]);
        assert_eq!(res.deferred, vec![1], "intent index of the deferred sender");
        assert_eq!(res.events.len(), 1);
        assert_eq!(res.events[0].outcome, Outcome::Delivered);
    }

    #[test]
    fn hidden_senders_collide_at_receiver() {
        // Path 0 - 1 - 2: 0 and 2 are hidden from each other.
        let topo = Topology::line(3, LinkQuality::PERFECT);
        let res = resolve(
            &topo,
            &[intent(0, 1, 0, 0), intent(2, 1, 1, 0)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted.len(), 2);
        assert_eq!(res.events.len(), 2);
        for e in &res.events {
            assert_eq!(e.outcome, Outcome::Collision);
        }
    }

    #[test]
    fn lower_backoff_rank_wins_contention() {
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        let res = resolve(
            &topo,
            &[intent(0, 1, 0, 5), intent(2, 1, 1, 2)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted, vec![NodeId(2)]);
        assert_eq!(res.events[0].packet, 1);
    }

    #[test]
    fn lossy_link_fails_sometimes() {
        let topo = Topology::line(2, LinkQuality::new(0.5));
        let mut delivered = 0;
        let mut lost = 0;
        for seed in 0..2000 {
            let res = resolve(&topo, &[intent(0, 1, 0, 0)], Overhearing::Disabled, seed);
            match res.events[0].outcome {
                Outcome::Delivered => delivered += 1,
                Outcome::LinkLoss => lost += 1,
                o => panic!("unexpected outcome {o:?}"),
            }
        }
        let rate = delivered as f64 / (delivered + lost) as f64;
        assert!((rate - 0.5).abs() < 0.05, "delivery rate {rate}");
    }

    #[test]
    fn overhearing_captures_sole_transmission() {
        // Triangle: 0 sends to 1; node 2 is active and overhears.
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        let res = resolve(&topo, &[intent(0, 1, 7, 0)], Overhearing::Enabled, 1);
        assert_eq!(res.events.len(), 2);
        let overheard = res.events.iter().find(|e| e.receiver == NodeId(2)).unwrap();
        assert_eq!(overheard.outcome, Outcome::Overheard);
        assert_eq!(overheard.packet, 7);
    }

    #[test]
    fn overhearing_respects_wants_and_activity() {
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        let mut rng = StdRng::seed_from_u64(1);
        // Node 2 already has the packet -> no overhear event.
        let res = resolve_with(
            &topo,
            &[intent(0, 1, 7, 0)],
            Overhearing::Enabled,
            |_| true,
            |r, _| r != NodeId(2),
            &mut rng,
        );
        assert_eq!(res.events.len(), 1);
        // Node 2 dormant -> no overhear event.
        let res = resolve_with(
            &topo,
            &[intent(0, 1, 7, 0)],
            Overhearing::Enabled,
            |r| r != NodeId(2),
            |_, _| true,
            &mut rng,
        );
        assert_eq!(res.events.len(), 1);
    }

    #[test]
    fn concurrent_transmissions_to_different_receivers_capture() {
        // 0 -> 1 and 2 -> 3 on a line: the senders are hidden from each
        // other but target different receivers, so both deliveries
        // succeed (capture-effect collision model).
        let topo4 = Topology::line(4, LinkQuality::PERFECT);
        let res = resolve(
            &topo4,
            &[intent(2, 3, 1, 0), intent(0, 1, 0, 0)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted.len(), 2);
        assert!(res.events.iter().all(|e| e.outcome == Outcome::Delivered));
    }

    #[test]
    fn audible_contenders_serialise_then_hidden_same_target_collide() {
        // Audible pair (1, 2 on a line) serialises via carrier sense…
        let topo = Topology::line(4, LinkQuality::PERFECT);
        let res = resolve(
            &topo,
            &[intent(1, 0, 0, 0), intent(2, 1, 1, 1)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted, vec![NodeId(1)]);
        assert_eq!(res.deferred, vec![1]);
        // …while a hidden pair targeting the same receiver collides.
        let topo5 = Topology::line(5, LinkQuality::PERFECT);
        let res = resolve(
            &topo5,
            &[intent(1, 2, 0, 0), intent(3, 2, 1, 0)],
            Overhearing::Disabled,
            1,
        );
        assert!(res.events.iter().all(|e| e.outcome == Outcome::Collision));
    }

    #[test]
    fn oracle_bypasses_collisions() {
        let topo = Topology::line(3, LinkQuality::PERFECT);
        let mut a = intent(0, 1, 0, 0);
        let mut b = intent(2, 1, 1, 0);
        a.bypass_mac = true;
        b.bypass_mac = true;
        let res = resolve(&topo, &[a, b], Overhearing::Disabled, 1);
        assert_eq!(res.events.len(), 2);
        assert!(res.events.iter().all(|e| e.outcome == Outcome::Delivered));
    }

    #[test]
    fn failure_classification() {
        assert!(Outcome::LinkLoss.is_failure());
        assert!(Outcome::Collision.is_failure());
        assert!(Outcome::ReceiverBusy.is_failure());
        assert!(!Outcome::Delivered.is_failure());
        assert!(!Outcome::Overheard.is_failure());
    }

    #[test]
    fn committed_indices_parallel_transmitted() {
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        let intents = [intent(0, 1, 0, 5), intent(2, 1, 1, 2)];
        let res = resolve(&topo, &intents, Overhearing::Disabled, 1);
        assert_eq!(res.committed.len(), res.transmitted.len());
        for (k, &i) in res.committed.iter().enumerate() {
            assert_eq!(intents[i].sender, res.transmitted[k]);
        }
        assert_eq!(res.committed, vec![1], "rank 2 commits, rank 5 defers");
    }

    #[test]
    fn one_transmission_per_sender_per_slot() {
        let topo = Topology::complete(3, LinkQuality::PERFECT);
        // Same sender, two intents: only the lower rank commits.
        let res = resolve(
            &topo,
            &[intent(0, 1, 0, 0), intent(0, 2, 1, 1)],
            Overhearing::Disabled,
            1,
        );
        assert_eq!(res.transmitted, vec![NodeId(0)]);
        assert_eq!(res.events.len(), 1);
        assert_eq!(res.events[0].receiver, NodeId(1));
    }
}
