//! DBAO — Deterministic Back-off Assignment + Overhearing (paper §V-A,
//! the authors' WASA'11 protocol, reference 20 of the paper).
//!
//! The practical scheme with "maximum possible local optimization":
//!
//! * **Deterministic back-off assignment** — "each sensor maintains a
//!   subset of its neighbors in which those neighbors can hear each
//!   other. As a result, the carrier sense can be used to prevent them
//!   from sending packets at the same time." We realise this by giving
//!   every sender a deterministic back-off rank per receiver: the
//!   neighbor with the best incoming link gets rank 0, the next rank 1,
//!   and so on. Mutually audible contenders therefore serialise with the
//!   best link winning — approaching OPT's best-neighbor reception
//!   without an oracle.
//! * **Overhearing** — bystanders capture unicasts they can hear, so one
//!   transmission often informs several sensors.
//!
//! The paper attributes the remaining DBAO↔OPT gap to the hidden
//! terminal. Here hidden contenders do not collide: outsiders to a
//! receiver's clique take turns by a license (below), so the gap shows up
//! as the idle slots that serialisation costs instead (DESIGN.md, "Why
//! DBAO never collides under this MAC").

use crate::common::{max_degree, ReceiverLists, SlotMemo};
use ldcf_net::{bitset, NodeId, Topology};
use ldcf_sim::mac::Overhearing;
use ldcf_sim::{FloodingProtocol, SimState, TxIntent};

/// DBAO tuning knobs (mostly for ablation experiments).
#[derive(Clone, Copy, Debug)]
pub struct DbaoConfig {
    /// Enable the overhearing component (default true; ablation:
    /// `experiments ablation-overhearing`).
    pub overhearing: bool,
}

impl Default for DbaoConfig {
    fn default() -> Self {
        Self { overhearing: true }
    }
}

/// The DBAO protocol.
#[derive(Debug)]
pub struct Dbao {
    cfg: DbaoConfig,
    /// `rank_in[link_index(r, s)]` = deterministic back-off of sender
    /// `s` when targeting receiver `r`, stored in `r`'s row (built at
    /// start). Ranks `0..clique size of r` are r's mutually-audible
    /// forwarder clique; larger ranks are the remaining inbound
    /// neighbors by quality, up to `degree(r) - 1`.
    rank_in: Vec<u32>,
    /// Receiver `r`'s forwarder clique in rank order is
    /// `clique_nodes[clique_offsets[r]..clique_offsets[r + 1]]`, so the
    /// clique-priority election scans only the few better-ranked
    /// members instead of every neighbor.
    clique_offsets: Vec<u32>,
    /// Clique members of every receiver, concatenated (see
    /// `clique_offsets`).
    clique_nodes: Vec<NodeId>,
    /// Scratch: this slot's receiver list per sender.
    lists: ReceiverLists,
    /// Per receiver, this slot: whether a member of its clique has a
    /// queued packet the receiver misses.
    clique_busy: SlotMemo,
}

impl Dbao {
    /// DBAO with default configuration.
    pub fn new() -> Self {
        Self::with_config(DbaoConfig::default())
    }

    /// DBAO with explicit configuration.
    pub fn with_config(cfg: DbaoConfig) -> Self {
        Self {
            cfg,
            rank_in: Vec::new(),
            clique_offsets: Vec::new(),
            clique_nodes: Vec::new(),
            lists: ReceiverLists::default(),
            clique_busy: SlotMemo::default(),
        }
    }

    fn build_ranks(&mut self, topo: &Topology) {
        let n = topo.n_nodes();
        self.rank_in.clear();
        self.rank_in.resize(topo.n_links(), u32::MAX);
        self.clique_offsets.clear();
        self.clique_offsets.reserve(n + 1);
        self.clique_offsets.push(0);
        self.clique_nodes.clear();
        // `(sender, PRR into r, in r's clique, link in r's row)`, one
        // receiver at a time.
        let mut inbound: Vec<(NodeId, f64, bool, usize)> = Vec::with_capacity(max_degree(topo));
        for ri in 0..n {
            let r = NodeId::from(ri);
            // Neighbors of r sorted by incoming quality (best first).
            inbound.clear();
            inbound.extend(
                topo.in_links(r)
                    .map(|(link, s, q)| (s, q.prr(), false, link)),
            );
            inbound.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("PRR is finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            // "Each sensor maintains a subset of its neighbors in which
            // those neighbors can hear each other": greedily build a
            // mutually-audible forwarder clique, best inbound links
            // first. Clique members have priority at r, so carrier sense
            // plus the deterministic ranks serialise them; the rest of
            // r's neighbors wait for an idle clique and a license.
            let start = self.clique_nodes.len();
            for (s, _, in_clique, _) in &mut inbound {
                if self.clique_nodes[start..]
                    .iter()
                    .all(|&c| topo.are_neighbors(c, *s))
                {
                    self.clique_nodes.push(*s);
                    *in_clique = true;
                }
            }
            self.clique_offsets.push(self.clique_nodes.len() as u32);
            // Clique members take ranks `0..csize` in clique (= inbound)
            // order, the rest follow in inbound order.
            let clique = inbound.iter().filter(|e| e.2);
            let rest = inbound.iter().filter(|e| !e.2);
            for (rank, e) in clique.chain(rest).enumerate() {
                self.rank_in[e.3] = rank as u32;
            }
        }
        // Frozen from here on: drop the growth slack.
        self.clique_nodes.shrink_to_fit();
    }
}

impl Default for Dbao {
    fn default() -> Self {
        Self::new()
    }
}

impl FloodingProtocol for Dbao {
    fn name(&self) -> &str {
        "DBAO"
    }

    fn overhearing(&self) -> Overhearing {
        if self.cfg.overhearing {
            Overhearing::Enabled
        } else {
            Overhearing::Disabled
        }
    }

    fn on_start(&mut self, state: &SimState) {
        self.build_ranks(&state.topo);
        self.lists.on_start(state);
        self.clique_busy.on_start(state.n_nodes());
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let now = state.now;
        let period = state.cfg.period as u64;
        let Self {
            rank_in,
            clique_offsets,
            clique_nodes,
            lists,
            clique_busy,
            ..
        } = self;
        // The only senders that can produce an intent: nodes with work
        // and an awake, live receiver. DBAO keeps no collision back-off:
        // at most one committed sender ever targets a receiver (DESIGN.md,
        // "Why DBAO never collides under this MAC").
        lists.build(state, |_| true);
        clique_busy.advance();
        // A receiver r is eligible for u if u wins the deterministic
        // back-off election: u yields to any better-ranked holder that
        // is either in r's forwarder clique (its priority is common
        // knowledge — r's clique assignment is broadcast) or audible to
        // u (plain carrier sense). Non-clique holders cannot hear each
        // other, so they do not elect at all: r's broadcast assignment
        // licenses one of them at a time.
        let mut eligible = |r: NodeId, my_rank: u32, p: u32| -> bool {
            let clique = &clique_nodes
                [clique_offsets[r.index()] as usize..clique_offsets[r.index() + 1] as usize];
            let csize = clique.len() as u32;
            if my_rank < csize {
                // Clique member: yield only to a better-ranked clique
                // holder of this packet. Clique members are mutually
                // audible, so whatever contention remains is resolved
                // by carrier sense, never by collision. Ranks below
                // `my_rank` are exactly `clique[..my_rank]`.
                !clique[..my_rank as usize].iter().any(|&s| state.has(s, p))
            } else {
                // Non-clique (bootstrap) forwarder. The clique has
                // absolute priority: stay silent whenever any clique
                // member has pending work for r (it may serve r this
                // very slot, and u cannot hear it coming). That depends
                // on neither u nor p, so it is computed once per
                // receiver.
                let busy = clique_busy.get_or(r.index(), || {
                    clique.iter().any(|&s| state.queue_misses(s, r))
                });
                if busy {
                    return false;
                }
                // Hidden non-clique contenders cannot elect among
                // themselves on the air, so r's broadcast assignment
                // licenses exactly one of them per period (a static
                // rotation over the non-clique ranks
                // `csize..degree(r)`). One licensed sender per
                // receiver per period ⇒ no sustained collisions, at
                // the price of idle bootstrap slots.
                let non_clique = state.topo.degree(r) as u64 - csize as u64;
                debug_assert!(my_rank as u64 - (csize as u64) < non_clique);
                csize as u64 + (now / period) % non_clique == my_rank as u64
            }
        };
        for (u, receivers) in lists.iter(&state.topo) {
            // FCFS packet scan with the election folded into the
            // receiver filter: the first awake receiver missing the
            // packet that u wins is that packet's best one.
            let mut cand: Option<(u32, NodeId, u32)> = None;
            'queue: for &packet in state.queue(u) {
                let holders = state.holder_words(packet);
                for r in receivers {
                    let my_rank = rank_in[r.link as usize];
                    if !bitset::test_bit(holders, r.node.index())
                        && eligible(r.node, my_rank, packet)
                    {
                        cand = Some((packet, r.node, my_rank));
                        break 'queue;
                    }
                }
            }
            if let Some((packet, receiver, my_rank)) = cand {
                out.push(TxIntent {
                    sender: u,
                    receiver,
                    packet,
                    backoff_rank: my_rank,
                    bypass_mac: false,
                });
            }
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
            max_slots: 200_000,
            seed: 5,
            mistiming_prob: 0.0,
        }
    }

    #[test]
    fn floods_a_grid() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.85));
        let (report, _) = Engine::new(topo, cfg(5), Dbao::new()).run();
        assert!(report.all_covered());
    }

    #[test]
    fn deterministic_backoff_prefers_best_inbound_link() {
        // Receiver 3 can hear senders 1 (q .95) and 2 (q .5), which can
        // also hear each other. All of them hold the packet; sender 1
        // must win the contention and deliver.
        let mut topo = Topology::empty(4);
        let q = LinkQuality::new(0.99);
        topo.add_edge(NodeId(0), NodeId(1), q, q);
        topo.add_edge(NodeId(0), NodeId(2), q, q);
        topo.add_edge(NodeId(1), NodeId(2), q, q);
        topo.add_edge(
            NodeId(1),
            NodeId(3),
            LinkQuality::new(0.95),
            LinkQuality::new(0.95),
        );
        topo.add_edge(
            NodeId(2),
            NodeId(3),
            LinkQuality::new(0.5),
            LinkQuality::new(0.5),
        );

        let mut dbao = Dbao::new();
        dbao.build_ranks(&topo);
        let rank_at_3 = |s: u32| dbao.rank_in[topo.link_index(NodeId(3), NodeId(s)).unwrap()];
        assert!(
            rank_at_3(1) < rank_at_3(2),
            "better inbound link gets the smaller back-off"
        );
    }

    #[test]
    fn overhearing_reduces_transmissions() {
        // A dense cluster where most sensors hear the source directly:
        // with overhearing, one unicast serves many active listeners.
        let topo = Topology::complete(12, LinkQuality::new(0.95));
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 12]);
        let run = |overhearing: bool| {
            let protocol = Dbao::with_config(DbaoConfig { overhearing });
            let (r, _) =
                Engine::with_schedules(topo.clone(), cfg(3), schedules.clone(), protocol).run();
            assert!(r.all_covered());
            r.transmissions
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "overhearing ({with} tx) should beat no-overhearing ({without} tx)"
        );
    }

    #[test]
    fn hidden_non_clique_holders_are_serialised_by_the_license() {
        // Receiver 3's forwarder clique is {1} (best inbound link);
        // nodes 2 and 4 are non-clique forwarders hidden from each
        // other. The per-period license rotation plus clique priority
        // must serialise them: the flood completes with no collisions,
        // even though 2 and 4 cannot hear each other.
        let q = LinkQuality::PERFECT;
        let half = LinkQuality::new(0.5);
        let lo = LinkQuality::new(0.35);
        let mut topo = Topology::empty(5);
        topo.add_edge(NodeId(0), NodeId(2), half, half); // source feeds 2 (lossy)
        topo.add_edge(NodeId(0), NodeId(4), lo, lo); // source feeds 4 (lossier)
        topo.add_edge(NodeId(2), NodeId(3), half, half);
        topo.add_edge(NodeId(4), NodeId(3), half, half);
        topo.add_edge(NodeId(1), NodeId(3), q, q); // 1: clique head of 3
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 5]);
        let (report, _) = Engine::with_schedules(topo, cfg(8), schedules, Dbao::new()).run();
        assert!(report.all_covered());
        assert_eq!(
            report.collisions, 0,
            "license rotation must prevent hidden non-clique collisions"
        );
    }

    #[test]
    fn bootstrap_works_when_source_is_not_in_any_clique() {
        // Receiver 2's inbound neighbors are 1 (best link) and the
        // source, which is hidden from 1 and thus outside 2's clique.
        // The flood must still start: with no clique member holding the
        // packet, the source elects itself.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(2),
            LinkQuality::new(0.4),
            LinkQuality::new(0.4),
        );
        topo.add_edge(
            NodeId(1),
            NodeId(2),
            LinkQuality::new(0.9),
            LinkQuality::new(0.9),
        );
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 3]);
        let (report, _) = Engine::with_schedules(topo, cfg(1), schedules, Dbao::new()).run();
        assert!(report.all_covered(), "source-only holder must bootstrap");
    }
}
