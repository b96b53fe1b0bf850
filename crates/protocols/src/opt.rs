//! OPT — the oracle-optimal flooding scheme (paper §V-A).
//!
//! "In OPT, each sensor (e.g. s) can always receive a packet from the
//! neighbor who has the best link quality to s. In addition, we assume
//! that there is no collision occurring in OPT."
//!
//! The scheme is *receiver-driven with global knowledge*: every active
//! sensor missing a packet is matched to the best-quality neighbor that
//! holds one, subject to the semi-duplex constraint (one transmission
//! per sender per slot, and a node cannot send and receive at once).
//! Intents bypass the MAC (no carrier sense, no collisions) but still
//! suffer link loss — OPT's transmission failures in Fig. 11 come from
//! loss alone.

use ldcf_net::{bitset, NodeId, PacketId};
use ldcf_sim::{FloodingProtocol, SimState, TxIntent};

/// The oracle protocol.
#[derive(Debug, Default, Clone)]
pub struct Opt {
    /// Scratch, reused across slots: candidate receptions
    /// (prr, receiver, sender, packet).
    candidates: Vec<(f64, NodeId, NodeId, PacketId)>,
    /// Scratch: injected packets still short of coverage, ascending.
    live: Vec<PacketId>,
    /// Scratch: senders already matched this slot, packed. All zero
    /// between slots: `propose` clears exactly the bits it set.
    sender_busy: Vec<u64>,
    /// Scratch: receivers already matched this slot, packed; all zero
    /// between slots like `sender_busy`.
    receiver_busy: Vec<u64>,
}

impl Opt {
    /// Create the oracle protocol.
    pub fn new() -> Self {
        Self::default()
    }

    /// The best reception awake receiver `r` can get this slot: its
    /// earliest (FCFS) live packet it is missing that a neighbor holds,
    /// served by the best-quality holding neighbor.
    fn best_reception(&mut self, state: &SimState, r: NodeId) {
        for &p in &self.live {
            if state.has(r, p) {
                continue;
            }
            // Holding neighbors, in ascending id order; crashed nodes
            // never hold (their possession is revoked). The quality of
            // the *incoming* direction s -> r sits inline in r's row, and
            // `>=` keeps the last maximum, exactly as `max_by` did over
            // the same ascending-id scan.
            let holders = state.holder_words(p);
            let mut best: Option<(f64, NodeId)> = None;
            for (s, q) in state.topo.in_neighbors(r) {
                if !bitset::test_bit(holders, s.index()) {
                    continue;
                }
                let prr = q.prr();
                if best.is_none_or(|(bq, _)| prr >= bq) {
                    best = Some((prr, s));
                }
            }
            if let Some((prr, s)) = best {
                self.candidates.push((prr, r, s, p));
                return; // one reception per receiver per slot (semi-duplex)
            }
        }
    }
}

impl FloodingProtocol for Opt {
    fn name(&self) -> &str {
        "OPT"
    }

    /// The oracle takes every free reception: active bystanders capture
    /// unicasts they can hear. Without this, a practical protocol with
    /// overhearing (DBAO) could beat the "optimal" scheme in dense
    /// networks, contradicting OPT's role as the upper bound.
    fn overhearing(&self) -> ldcf_sim::mac::Overhearing {
        ldcf_sim::mac::Overhearing::Enabled
    }

    fn on_start(&mut self, state: &SimState) {
        // Scratch high-water marks, known up front: at most one candidate
        // per awake receiver per slot (the wake calendar's busiest
        // offset), one live entry per packet, one matched-bit word row
        // per 64 nodes. Reserving here keeps the slot loop
        // allocation-free even as the flood wave widens.
        let nw = state.topo.words_per_row();
        self.candidates
            .reserve(state.schedules.busiest_offset(|_| 1));
        self.live.reserve(state.cfg.n_packets as usize);
        self.sender_busy.reserve(nw);
        self.receiver_busy.reserve(nw);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let nw = state.topo.words_per_row();
        self.live.clear();
        self.live
            .extend((0..state.n_injected()).filter(|&p| !state.is_covered(p)));
        // Candidate receptions: (prr, receiver, sender, packet). Only an
        // awake, live sensor on some live packet's frontier and missing
        // that packet can have one — every other node either holds each
        // live packet or has no neighbor holding it — so the scan walks
        // the frontier words, not every awake node. Ascending id order,
        // as a scan of all awake nodes would visit them.
        self.candidates.clear();
        let awake = state.schedules.active_words(state.now);
        let down = state.down_words();
        for w in 0..nw {
            let mut bits = 0;
            for &p in &self.live {
                bits |= state.reach_words(p)[w] & !state.holder_words(p)[w];
            }
            bits &= awake[w] & !down[w];
            if w == 0 {
                bits &= !1; // the source only sends
            }
            while bits != 0 {
                let r = NodeId::from(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                self.best_reception(state, r);
            }
        }
        // Greedy matching, best links first: each sender serves one
        // receiver; each receiver hears one sender; senders cannot also
        // be receivers this slot. Each receiver appears at most once, so
        // breaking PRR ties by ascending receiver id makes the order
        // total — identical to the stable collection order, but
        // sortable in place (a stable sort would allocate every slot).
        self.candidates.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("PRR is finite")
                .then_with(|| a.1.cmp(&b.1))
        });
        if self.sender_busy.len() != nw {
            self.sender_busy.clear();
            self.sender_busy.resize(nw, 0);
            self.receiver_busy.clear();
            self.receiver_busy.resize(nw, 0);
        }
        let first = out.len();
        for &(_, r, s, p) in &self.candidates {
            if bitset::test_bit(&self.sender_busy, s.index())
                || bitset::test_bit(&self.receiver_busy, r.index())
                // semi-duplex: a node already receiving cannot send and
                // vice versa
                || bitset::test_bit(&self.sender_busy, r.index())
                || bitset::test_bit(&self.receiver_busy, s.index())
            {
                continue;
            }
            bitset::set_bit(&mut self.sender_busy, s.index());
            bitset::set_bit(&mut self.receiver_busy, r.index());
            out.push(TxIntent {
                sender: s,
                receiver: r,
                packet: p,
                backoff_rank: 0,
                bypass_mac: true,
            });
        }
        // Every set bit belongs to an intent just pushed: clearing those
        // leaves both rows zero without touching the other N/64 words.
        for it in &out[first..] {
            bitset::clear_bit(&mut self.sender_busy, it.sender.index());
            bitset::clear_bit(&mut self.receiver_busy, it.receiver.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::{LinkQuality, NeighborTable, Topology, WorkingSchedule};
    use ldcf_sim::{Engine, SimConfig};

    fn cfg(m: u32) -> SimConfig {
        SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: m,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 3,
            mistiming_prob: 0.0,
        }
    }

    #[test]
    fn floods_a_grid_without_collisions() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.9));
        let (report, _) = Engine::new(topo, cfg(5), Opt::new()).run();
        assert!(report.all_covered());
        assert_eq!(
            report.collisions, 0,
            "OPT is collision-free by construction"
        );
        assert!(
            report.transmission_failures > 0,
            "loss still applies at PRR 0.9"
        );
    }

    #[test]
    fn perfect_links_mean_zero_failures() {
        let topo = Topology::grid(3, 3, LinkQuality::PERFECT);
        let (report, _) = Engine::new(topo, cfg(3), Opt::new()).run();
        assert!(report.all_covered());
        assert_eq!(report.transmission_failures, 0);
    }

    #[test]
    fn receiver_pulls_from_best_neighbor() {
        // Receiver 2 neighbors both the source (q 0.4) and node 1 (q 0.95).
        // Once node 1 holds the packet, 2 must receive from 1.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::PERFECT,
            LinkQuality::PERFECT,
        );
        topo.add_edge(
            NodeId(0),
            NodeId(2),
            LinkQuality::new(0.4),
            LinkQuality::new(0.4),
        );
        topo.add_edge(
            NodeId(1),
            NodeId(2),
            LinkQuality::new(0.95),
            LinkQuality::new(0.95),
        );
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 3]);
        let mut engine = Engine::with_schedules(topo, cfg(1), schedules, Opt::new());
        // Slot 0: node 1 and node 2 both want the packet; 0 can serve
        // only one of them and must pick the better link — node 1 at
        // PRR 1.0 — so node 1 holds the packet after one slot.
        engine.step();
        assert!(engine.state().has(NodeId(1), 0));
        // From slot 1 on, node 2 is served over the 0.95 link from node
        // 1 (which beats the source's 0.4); with retransmissions this
        // finishes within a few slots almost surely.
        for _ in 0..30 {
            if engine.state().has(NodeId(2), 0) {
                break;
            }
            engine.step();
        }
        assert!(engine.state().has(NodeId(2), 0));
        // The oracle never used more than one transmission per slot pair
        // and none once coverage was reached.
        let report = engine.report();
        assert!(report.transmissions <= 2 + report.slots_elapsed);
    }

    #[test]
    fn semi_duplex_respected_in_matching() {
        // Line 0-1-2: in one slot, 1 cannot both receive from 0 and send
        // to 2, so flooding a line of 3 needs >= 2 transmission slots.
        let topo = Topology::line(3, LinkQuality::PERFECT);
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 3]);
        let (report, _) = Engine::with_schedules(topo, cfg(1), schedules, Opt::new()).run();
        assert!(report.all_covered());
        let d = report.packets[0].covered_at.unwrap();
        assert!(d >= 1, "needs at least two slots, finished at slot {d}");
    }

    #[test]
    fn oracle_skips_covered_packets() {
        // With coverage < 1, once a packet hits the target OPT stops
        // pushing it even though sensors may still miss it. (In a star,
        // overhearing covers the other active leaves per transmission,
        // so the engine stops at >= the target, with few transmissions.)
        let n_sensors = 10;
        let mut topo = Topology::empty(n_sensors + 1);
        for i in 1..=n_sensors {
            topo.add_edge(
                NodeId(0),
                NodeId::from(i),
                LinkQuality::PERFECT,
                LinkQuality::PERFECT,
            );
        }
        let c = SimConfig {
            coverage: 0.9, // 9 of 10 sensors
            ..cfg(1)
        };
        let (report, _) = Engine::new(topo, c, Opt::new()).run();
        assert!(report.all_covered());
        assert!(report.packets[0].final_holders >= 9);
        assert!(report.transmissions <= 9);
    }
}
