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
//! What DBAO *cannot* fix is the hidden terminal: contenders outside each
//! other's carrier-sense range still collide at the receiver. The paper
//! attributes the entire remaining DBAO↔OPT gap to exactly this.

use crate::common::CollisionBackoff;
use ldcf_net::{bitset, NodeId, Topology};
use ldcf_sim::mac::{DeliveryEvent, Overhearing};
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
    /// `rank[r][s]` = deterministic back-off of sender `s` when targeting
    /// receiver `r` (dense per-receiver maps, built at start). Ranks
    /// `0..clique_size[r]` are r's mutually-audible forwarder clique;
    /// larger ranks are the remaining inbound neighbors by quality.
    rank: Vec<Vec<u32>>,
    /// Number of clique (mutually audible, priority) forwarders per
    /// receiver.
    clique_size: Vec<u32>,
    /// Per-receiver clique members in rank order (`clique_members[r][k]`
    /// holds rank `k`), so the clique-priority election scans only the
    /// few better-ranked members instead of every neighbor.
    clique_members: Vec<Vec<NodeId>>,
    /// Per-receiver sorted non-clique ranks, precomputed once — the
    /// license rotation used to allocate + sort this list on every
    /// eligibility query.
    non_clique_ranks: Vec<Vec<u32>>,
    /// Randomized retry back-off after hidden-terminal collisions.
    backoff: CollisionBackoff,
    /// Scratch: this slot's active nodes, packed (only filled when the
    /// schedule table cannot supply a calendar row itself).
    active_buf: Vec<u64>,
    /// Scratch: awake, live neighbors of the sender under consideration.
    avail_buf: Vec<u64>,
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
            rank: Vec::new(),
            clique_size: Vec::new(),
            clique_members: Vec::new(),
            non_clique_ranks: Vec::new(),
            backoff: CollisionBackoff::new(0xDBA0, 4),
            active_buf: Vec::new(),
            avail_buf: Vec::new(),
        }
    }

    fn build_ranks(&mut self, topo: &Topology) {
        let n = topo.n_nodes();
        self.rank = vec![Vec::new(); n];
        self.clique_size.clear();
        self.clique_members = vec![Vec::new(); n];
        self.non_clique_ranks = vec![Vec::new(); n];
        for ri in 0..n {
            let r = NodeId::from(ri);
            // Neighbors of r sorted by incoming quality (best first).
            let mut inbound: Vec<(NodeId, f64)> =
                topo.in_neighbors(r).map(|(s, q)| (s, q.prr())).collect();
            inbound.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("PRR is finite")
                    .then_with(|| a.0.cmp(&b.0))
            });
            // "Each sensor maintains a subset of its neighbors in which
            // those neighbors can hear each other": greedily build a
            // mutually-audible forwarder clique, best inbound links
            // first. Only clique members may unicast to r, so carrier
            // sense plus the deterministic ranks fully serialise r's
            // forwarders; what remains is cross-receiver interference —
            // the hidden-terminal residue the paper attributes the
            // DBAO↔OPT gap to.
            let mut clique: Vec<NodeId> = Vec::new();
            let mut rest: Vec<NodeId> = Vec::new();
            for (s, _) in inbound {
                if clique.iter().all(|&c| topo.are_neighbors(c, s)) {
                    clique.push(s);
                } else {
                    rest.push(s);
                }
            }
            let mut map = vec![u32::MAX; n];
            let csize = clique.len();
            self.clique_size.push(csize as u32);
            self.clique_members[ri] = clique.clone();
            for (rank, s) in clique.into_iter().chain(rest).enumerate() {
                map[s.index()] = rank as u32;
                if rank >= csize {
                    self.non_clique_ranks[ri].push(rank as u32);
                }
            }
            debug_assert!(self.non_clique_ranks[ri].is_sorted());
            self.rank[ri] = map;
        }
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
        // Collision keys are directed neighbor pairs; reserving them all
        // keeps the back-off map from rehashing mid-run.
        self.backoff.reserve(state.topo.n_edges() * 2);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let now = state.now;
        let nw = state.topo.words_per_row();
        let down = state.down_words();
        let work = state.work_words();
        let period = state.cfg.period as u64;
        // One packed row of this slot's active nodes, straight from the
        // wake calendar; fall back to a scan when the schedule table has
        // no calendar (heterogeneous periods).
        let active: &[u64] = match state.schedules.active_words(now) {
            Some(w) => w,
            None => {
                self.active_buf.clear();
                self.active_buf.resize(nw, 0);
                for v in state.schedules.all_active(now) {
                    bitset::set_bit(&mut self.active_buf, v.index());
                }
                &self.active_buf
            }
        };
        let backoff = &self.backoff;
        let rank = &self.rank;
        let clique_size = &self.clique_size;
        let clique_members = &self.clique_members;
        let non_clique_ranks = &self.non_clique_ranks;
        let avail = &mut self.avail_buf;
        avail.clear();
        avail.resize(nw, 0);
        // Only nodes with queued work can produce an intent; everyone
        // else falls through the queue scan without effect, so skip them
        // wholesale via the work bitset.
        for u in state.nodes_with_work() {
            // avail = neighbors(u) ∩ active ∩ ¬down: the only receivers
            // this slot can serve. Empty ⇒ no candidate, next node.
            let mut any = 0u64;
            match state.topo.neighbor_words(u) {
                Some(nbrs) => {
                    for k in 0..nw {
                        let w = nbrs[k] & active[k] & !down[k];
                        avail[k] = w;
                        any |= w;
                    }
                }
                None => {
                    avail.fill(0);
                    for &v in state.topo.neighbor_ids(u) {
                        let vi = v.index();
                        let w = (1u64 << (vi % 64)) & active[vi / 64] & !down[vi / 64];
                        avail[vi / 64] |= w;
                        any |= w;
                    }
                }
            }
            if any == 0 {
                continue;
            }
            // A receiver r is eligible for u if u wins the deterministic
            // back-off election: u yields to any better-ranked holder
            // that is either in r's forwarder clique (its priority is
            // common knowledge — r's clique assignment is broadcast) or
            // audible to u (plain carrier sense). Better-ranked *hidden
            // non-clique* holders are invisible to u — both elect
            // themselves and collide at r: the residual hidden-terminal
            // gap to OPT the paper calls out.
            let eligible = |r: NodeId, p: u32| -> bool {
                let my_rank = rank[r.index()][u.index()];
                if my_rank == u32::MAX || backoff.blocked(u, r, now) {
                    return false;
                }
                let csize = clique_size[r.index()];
                if my_rank < csize {
                    // Clique member: yield only to a better-ranked clique
                    // holder of this packet. Clique members are mutually
                    // audible, so whatever contention remains is resolved
                    // by carrier sense, never by collision. Ranks below
                    // `my_rank` are exactly `clique_members[r][..my_rank]`.
                    !clique_members[r.index()][..my_rank as usize]
                        .iter()
                        .any(|&s| state.has(s, p))
                } else {
                    // Non-clique (bootstrap) forwarder. The clique has
                    // absolute priority: stay silent whenever any clique
                    // member has pending work for r (it may serve r this
                    // very slot, and u cannot hear it coming).
                    let clique_busy = clique_members[r.index()].iter().any(|&s| {
                        bitset::test_bit(work, s.index())
                            && state.queue(s).iter().any(|e| !state.has(r, e.packet))
                    });
                    if clique_busy {
                        return false;
                    }
                    // Hidden non-clique contenders cannot elect among
                    // themselves on the air, so r's broadcast assignment
                    // licenses exactly one of them per period (a static
                    // rotation over the non-clique ranks). One licensed
                    // sender per receiver per period ⇒ no sustained
                    // collisions, at the price of idle bootstrap slots.
                    let ncr = &non_clique_ranks[r.index()];
                    debug_assert!(ncr.binary_search(&my_rank).is_ok());
                    let pick = (now / period) as usize % ncr.len();
                    ncr[pick] == my_rank
                }
            };
            // FCFS packet scan with the election folded into the
            // receiver filter.
            let mut cand: Option<(u32, NodeId)> = None;
            'queue: for e in state.queue(u).iter() {
                let holders = state.holder_words(e.packet);
                // Word-level pre-check: someone awake must be missing
                // the packet before the per-neighbor election is worth
                // running at all.
                if !(0..nw).any(|k| (avail[k] & !holders[k]) != 0) {
                    continue;
                }
                let mut best: Option<(f64, NodeId)> = None;
                for (v, q) in state.topo.neighbors(u) {
                    if bitset::test_bit(avail, v.index())
                        && !bitset::test_bit(holders, v.index())
                        && best.is_none_or(|(bq, _)| q.prr() > bq)
                        && eligible(v, e.packet)
                    {
                        best = Some((q.prr(), v));
                    }
                }
                if let Some((_, v)) = best {
                    cand = Some((e.packet, v));
                    break 'queue;
                }
            }
            if let Some((packet, receiver)) = cand {
                let my_rank = rank[receiver.index()][u.index()];
                debug_assert_ne!(my_rank, u32::MAX, "sender must be a neighbor");
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

    fn on_events(&mut self, state: &SimState, events: &[DeliveryEvent]) {
        self.backoff.observe(events, state.now, state.cfg.period);
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
        assert!(
            dbao.rank[3][1] < dbao.rank[3][2],
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
