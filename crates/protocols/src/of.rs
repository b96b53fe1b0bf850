//! OF — Opportunistic Flooding (Guo et al., ACM MobiCom 2009; paper
//! §II, §V-A).
//!
//! "Opportunistic flooding makes the probabilistic forwarding decision
//! at each sender based on the delay distribution along an optimal
//! energy tree."
//!
//! Structure reproduced here:
//!
//! * Packets always flow down the **energy-optimal (min-ETX) tree** —
//!   every node forwards to its tree children.
//! * A sender may additionally make an **opportunistic forward** to a
//!   non-child active neighbor when (a) the link is good enough to be
//!   worth a dedicated unicast (`min_link_quality`), and (b) the sender
//!   judges its copy to be "early": the neighbor's tree parent neither
//!   holds the packet nor has other work for the neighbor, so the
//!   opportunistic copy beats the expected tree delivery. The decision
//!   is *probabilistic* — taken with probability `forward_probability`
//!   — which is how OF thins redundant senders without coordination.
//! * No overhearing; contention uses random-ish (node-id) back-off.
//!   OF therefore suffers both more collisions and tree detours, landing
//!   below DBAO and OPT exactly as in Figs. 9–10.

use crate::common::{CollisionBackoff, ReceiverLists};
use crate::tree::EnergyTree;
use ldcf_net::{bitset, NodeId};
use ldcf_sim::mac::DeliveryEvent;
use ldcf_sim::{FloodingProtocol, SimState, TxIntent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// OF tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct OfConfig {
    /// Minimum PRR for an opportunistic (non-tree) unicast.
    pub min_link_quality: f64,
    /// Probability of taking an eligible opportunistic forward.
    pub forward_probability: f64,
    /// Disable opportunistic forwards entirely (pure-tree ablation:
    /// `experiments ablation-opportunistic`).
    pub opportunistic: bool,
    /// Seed of the protocol's private decision RNG.
    pub seed: u64,
}

impl Default for OfConfig {
    fn default() -> Self {
        Self {
            min_link_quality: 0.6,
            forward_probability: 0.7,
            opportunistic: true,
            seed: 0xC0FFEE,
        }
    }
}

/// The Opportunistic Flooding protocol.
pub struct OpportunisticFlooding {
    cfg: OfConfig,
    tree: Option<EnergyTree>,
    rng: StdRng,
    backoff: CollisionBackoff,
    /// Scratch: this slot's receiver list per sender.
    lists: ReceiverLists,
}

impl OpportunisticFlooding {
    /// OF with default configuration.
    pub fn new() -> Self {
        Self::with_config(OfConfig::default())
    }

    /// OF with explicit configuration.
    pub fn with_config(cfg: OfConfig) -> Self {
        Self {
            rng: StdRng::seed_from_u64(cfg.seed),
            backoff: CollisionBackoff::new(cfg.seed ^ 0x0F0F, 4),
            cfg,
            tree: None,
            lists: ReceiverLists::default(),
        }
    }

    /// The energy tree (after `on_start`).
    pub fn tree(&self) -> Option<&EnergyTree> {
        self.tree.as_ref()
    }
}

impl Default for OpportunisticFlooding {
    fn default() -> Self {
        Self::new()
    }
}

impl FloodingProtocol for OpportunisticFlooding {
    fn name(&self) -> &str {
        "OF"
    }

    fn on_start(&mut self, state: &SimState) {
        self.tree = Some(EnergyTree::build(&state.topo));
        self.backoff.on_start(&state.topo);
        self.lists.on_start(state);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let Self {
            cfg,
            tree,
            rng,
            backoff,
            lists,
        } = self;
        let tree = tree.as_ref().expect("on_start ran");
        // Only nodes with an awake receiver missing a queued packet can
        // propose.
        // The decision RNG is only ever consulted inside the candidate
        // loop, so skipping every other node leaves the draw sequence
        // untouched.
        lists.build(state, |link| !backoff.blocked(link, state.now));
        for (u, receivers) in lists.iter(&state.topo) {
            // FCFS over (packet, receiver) candidates: queue × receiver
            // pairs in that order, minus receivers holding the packet.
            // Tree forwarding has absolute priority; an opportunistic
            // forward only fills a slot in which the sender has no tree
            // child to serve.
            let mut chosen: Option<(u32, NodeId)> = None;
            let mut fallback: Option<(u32, NodeId)> = None;
            'queue: for &packet in state.queue(u) {
                let holders = state.holder_words(packet);
                for r in receivers {
                    let receiver = r.node;
                    if bitset::test_bit(holders, receiver.index()) {
                        continue;
                    }
                    if tree.is_child(u, receiver) {
                        // Tree edge: always forward.
                        chosen = Some((packet, receiver));
                        break 'queue;
                    }
                    if !cfg.opportunistic || fallback.is_some() {
                        continue;
                    }
                    if state.topo.in_quality(r.link as usize).prr() < cfg.min_link_quality {
                        continue;
                    }
                    // "Early packet" test against the expected tree delivery:
                    // the opportunistic copy is worthwhile only while the
                    // receiver's tree parent has not caught up — then the
                    // receiver would otherwise wait at least one more period,
                    // and the unicast cannot contend with the parent's own
                    // transmission. (In real OF this is what the delay
                    // distribution along the energy tree establishes; here the
                    // possession bit plays the role of a sharp distribution.)
                    // The copy is "early" only if the receiver's tree parent
                    // neither holds this packet nor has *any* pending packet
                    // the receiver misses — otherwise the parent will serve
                    // this same active slot and the opportunistic unicast
                    // would collide with it.
                    let parent_clear = tree.parent(receiver).is_some_and(|par| {
                        !state.has(par, packet) && !state.queue_misses(par, receiver)
                    });
                    if !parent_clear {
                        continue;
                    }
                    // Thin redundant senders: split the forwarding
                    // probability across the holders that would make the same
                    // opportunistic decision, so the *expected* sender count
                    // per receiver stays ~forward_probability. This is the
                    // role OF's per-link p-values play.
                    let competitors = state
                        .topo
                        .neighbors(receiver)
                        .filter(|&(s, q)| state.has(s, packet) && q.prr() >= cfg.min_link_quality)
                        .count()
                        .max(1);
                    // Opportunistic streams for *different* packets can also
                    // converge on the receiver, so thin additionally by the
                    // number of packets u itself could offer r (a local proxy
                    // for the frontier width at this receiver): the queued
                    // packets of u that r misses, at least one since r is
                    // on u's list.
                    let my_overlap: usize = state
                        .queued_words(u)
                        .iter()
                        .zip(state.have_words(receiver))
                        .map(|(&q, &h)| (q & !h).count_ones() as usize)
                        .sum();
                    let p_send = cfg.forward_probability / (competitors * my_overlap) as f64;
                    if rng.random::<f64>() < p_send {
                        fallback = Some((packet, receiver));
                    }
                }
            }
            let chosen = chosen.or(fallback);
            if let Some((packet, receiver)) = chosen {
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

    fn on_events(&mut self, state: &SimState, events: &[DeliveryEvent]) {
        self.backoff
            .observe(&state.topo, events, state.now, state.cfg.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::{LinkQuality, Topology};
    use ldcf_sim::{Engine, SimConfig};

    fn cfg(m: u32) -> SimConfig {
        SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: m,
            coverage: 1.0,
            max_slots: 400_000,
            seed: 11,
            mistiming_prob: 0.0,
        }
    }

    #[test]
    fn floods_a_grid() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.85));
        let (report, _) = Engine::new(topo, cfg(4), OpportunisticFlooding::new()).run();
        assert!(report.all_covered());
    }

    #[test]
    fn pure_tree_mode_also_floods() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.9));
        let protocol = OpportunisticFlooding::with_config(OfConfig {
            opportunistic: false,
            ..OfConfig::default()
        });
        let (report, _) = Engine::new(topo, cfg(2), protocol).run();
        assert!(report.all_covered(), "tree forwarding alone must cover");
    }

    #[test]
    fn opportunistic_beats_pure_tree_at_low_duty() {
        // The paper's §IV-B argument: at low duty cycles a lost tree
        // transmission costs a whole period, so the extra delivery
        // chances of opportunistic forwarding cut delay. (At high duty
        // the channel is contention-bound and the effect reverses —
        // that regime is probed by `experiments ablation-opportunistic`.)
        let topo = Topology::grid(5, 5, LinkQuality::new(0.7));
        let mean_delay = |opportunistic: bool| -> f64 {
            let mut total = 0.0;
            let seeds = 5;
            for seed in 0..seeds {
                let protocol = OpportunisticFlooding::with_config(OfConfig {
                    opportunistic,
                    ..OfConfig::default()
                });
                let c = SimConfig {
                    period: 20, // duty 5%: sleep latency dominates
                    seed: 100 + seed,
                    ..cfg(3)
                };
                let (r, _) = Engine::new(topo.clone(), c, protocol).run();
                assert!(r.all_covered());
                total += r.mean_flooding_delay().unwrap();
            }
            total / seeds as f64
        };
        let with = mean_delay(true);
        let without = mean_delay(false);
        assert!(
            with < without,
            "at 5% duty, opportunistic ({with}) should beat pure tree ({without})"
        );
    }

    #[test]
    fn tree_is_built_on_start() {
        let topo = Topology::line(4, LinkQuality::new(0.8));
        let mut engine = Engine::new(topo, cfg(1), OpportunisticFlooding::new());
        engine.step();
        // Can't reach the protocol from the engine; rebuild and compare
        // the invariant instead: the line's tree is the line.
        let tree = EnergyTree::build(&engine.state().topo);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
    }
}
