//! Shared helpers for protocol implementations.

use ldcf_net::{bitset, NodeId, PacketId, Topology};
use ldcf_sim::mac::{DeliveryEvent, Outcome};
use ldcf_sim::SimState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FCFS-earliest packet at `u` for which some active neighbor of `u`
/// is still missing it, together with the best such neighbor (highest
/// PRR). This is the canonical "what should I unicast now" query shared
/// by the sender-initiated protocols.
pub fn fcfs_candidate(state: &SimState, u: NodeId) -> Option<(PacketId, NodeId)> {
    fcfs_candidate_filtered(state, u, |_| true)
}

/// [`fcfs_candidate`] restricted to the links `u → receiver` whose
/// index (see [`Topology::link_index`]) passes `allow` (used to honour
/// per-link collision back-off windows).
pub fn fcfs_candidate_filtered(
    state: &SimState,
    u: NodeId,
    mut allow: impl FnMut(usize) -> bool,
) -> Option<(PacketId, NodeId)> {
    let entry = state.queue(u).first_with_work(|p| {
        state
            .topo
            .out_links(u)
            .any(|(link, v, _)| state.is_active(v) && !state.has(v, p) && allow(link))
    })?;
    let (_, v, _) = state
        .topo
        .out_links(u)
        .filter(|&(link, v, _)| state.is_active(v) && !state.has(v, entry.packet) && allow(link))
        .max_by(|a, b| a.2.prr().partial_cmp(&b.2.prr()).expect("PRR is finite"))?;
    Some((entry.packet, v))
}

/// Randomized retransmission back-off after collisions.
///
/// Two senders hidden from each other that keep retrying the same
/// receiver at its every active slot would collide forever under any
/// deterministic policy. Real link layers detect the missing ACK and
/// back off a random number of retry opportunities; this helper keeps a
/// skip window per directed link `sender → receiver` doing exactly
/// that, in a flat table indexed by [`Topology::link_index`].
#[derive(Debug)]
pub struct CollisionBackoff {
    /// `blocked_until[link]`: the first slot at which the link's sender
    /// may target its receiver again (0: never blocked).
    blocked_until: Vec<u64>,
    rng: StdRng,
    window: u32,
}

impl CollisionBackoff {
    /// A back-off skipping `1..=window` retry opportunities (the
    /// receiver wakes once per period, so a window is counted in
    /// periods).
    pub fn new(seed: u64, window: u32) -> Self {
        assert!(window >= 1);
        Self {
            blocked_until: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            window,
        }
    }

    /// Size the table to `topo`'s links, every window open. Called from
    /// the protocol's `on_start`, so the slot loop never allocates.
    pub fn on_start(&mut self, topo: &Topology) {
        self.blocked_until.clear();
        self.blocked_until.resize(topo.n_links(), 0);
    }

    /// Whether the sender of `link` is still backing off from its
    /// receiver at `now`.
    #[inline]
    pub fn blocked(&self, link: usize, now: u64) -> bool {
        now < self.blocked_until[link]
    }

    /// Digest a slot's outcomes: each collision blocks its sender from
    /// that receiver for a random number of periods.
    pub fn observe(&mut self, topo: &Topology, events: &[DeliveryEvent], now: u64, period: u32) {
        for e in events {
            if e.outcome == Outcome::Collision {
                let periods = self.rng.random_range(1..=self.window) as u64;
                let link = topo
                    .link_index(e.sender, e.receiver)
                    .expect("a collision is on a link");
                self.blocked_until[link] = now + periods * period as u64 + 1;
            }
        }
    }
}

/// One receiver a sender could serve this slot, reached over `link`
/// (the sender → `node` entry of [`Topology::link_index`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Receiver {
    /// The receiving neighbor.
    pub node: NodeId,
    /// Index of the link sender → `node`.
    pub link: usize,
    /// PRR of that link.
    pub prr: f64,
}

/// This slot's packed row of awake, live nodes, written into `buf`:
/// the wake calendar's row minus the crashed nodes.
pub(crate) fn awake_row<'a>(state: &SimState, buf: &'a mut Vec<u64>) -> &'a [u64] {
    buf.clear();
    buf.extend_from_slice(state.schedules.active_words(state.now));
    for (w, d) in buf.iter_mut().zip(state.down_words()) {
        *w &= !d;
    }
    buf
}

/// Fill `out` with the receivers `u` can serve this slot: neighbors in
/// `awake` (see [`awake_row`]) that `u` is not backing off from, best
/// link first (PRR descending, ties to the lower id). Built once per
/// sender per slot; a queue scan then takes the first entry missing
/// each packet, which is that packet's best receiver.
pub(crate) fn awake_receivers(
    state: &SimState,
    u: NodeId,
    awake: &[u64],
    backoff: &CollisionBackoff,
    out: &mut Vec<Receiver>,
) {
    out.clear();
    for (link, node, q) in state.topo.out_links(u) {
        if bitset::test_bit(awake, node.index()) && !backoff.blocked(link, state.now) {
            out.push(Receiver {
                node,
                link,
                prr: q.prr(),
            });
        }
    }
    // The row is in ascending id order, so sorting on (PRR, id) is the
    // stable PRR sort without the scratch a stable sort allocates.
    out.sort_unstable_by(|a, b| {
        b.prr
            .partial_cmp(&a.prr)
            .expect("PRR is finite")
            .then_with(|| a.node.cmp(&b.node))
    });
}

/// The largest degree in `topo`: the capacity an [`awake_receivers`]
/// list needs so that filling it never allocates.
pub(crate) fn max_degree(topo: &Topology) -> usize {
    (0..topo.n_nodes())
        .map(|i| topo.degree(NodeId::from(i)))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod backoff_tests {
    use super::*;
    use ldcf_net::LinkQuality;

    /// Four mutually audible nodes: every ordered pair is a link.
    fn backoff_on_k4(seed: u64, window: u32) -> (CollisionBackoff, Topology) {
        let topo = Topology::complete(4, LinkQuality::PERFECT);
        let mut b = CollisionBackoff::new(seed, window);
        b.on_start(&topo);
        (b, topo)
    }

    fn link(topo: &Topology, s: u32, r: u32) -> usize {
        topo.link_index(NodeId(s), NodeId(r)).unwrap()
    }

    fn collision_event(s: u32, r: u32) -> DeliveryEvent {
        DeliveryEvent {
            sender: NodeId(s),
            receiver: NodeId(r),
            packet: 0,
            outcome: Outcome::Collision,
        }
    }

    #[test]
    fn collision_opens_a_window_then_expires() {
        let (mut b, topo) = backoff_on_k4(1, 1); // exactly one period
        let period = 10;
        let l12 = link(&topo, 1, 2);
        b.observe(&topo, &[collision_event(1, 2)], 100, period);
        // Blocked through the receiver's next active slot (t=110)...
        assert!(b.blocked(l12, 100));
        assert!(b.blocked(l12, 110));
        // ...but free by the one after.
        assert!(!b.blocked(l12, 111));
    }

    #[test]
    fn window_is_per_pair() {
        let (mut b, topo) = backoff_on_k4(2, 3);
        b.observe(&topo, &[collision_event(1, 2)], 50, 5);
        assert!(b.blocked(link(&topo, 1, 2), 51));
        assert!(!b.blocked(link(&topo, 1, 3), 51));
        // The reverse link is a different entry.
        assert!(!b.blocked(link(&topo, 2, 1), 51));
    }

    #[test]
    fn non_collision_outcomes_do_not_block() {
        let (mut b, topo) = backoff_on_k4(3, 3);
        b.observe(
            &topo,
            &[DeliveryEvent {
                sender: NodeId(1),
                receiver: NodeId(2),
                packet: 0,
                outcome: Outcome::LinkLoss,
            }],
            10,
            5,
        );
        assert!(!b.blocked(link(&topo, 1, 2), 10));
    }

    #[test]
    fn windows_are_bounded_by_the_configured_maximum() {
        let (mut b, topo) = backoff_on_k4(4, 3);
        let period = 7u32;
        let l12 = link(&topo, 1, 2);
        for trial in 0..50u64 {
            let now = trial * 1000;
            b.observe(&topo, &[collision_event(1, 2)], now, period);
            // Must expire within `window` periods (+1 slot).
            assert!(!b.blocked(l12, now + 3 * period as u64 + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::{LinkQuality, NeighborTable, Topology, WorkingSchedule};
    use ldcf_sim::{Engine, FloodingProtocol, SimConfig, TxIntent};

    /// Capture a state snapshot by running zero slots of a no-op protocol.
    struct Idle;
    impl FloodingProtocol for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn propose(&mut self, _: &SimState, _: &mut Vec<TxIntent>) {}
    }

    #[test]
    fn fcfs_candidate_prefers_earliest_packet_then_best_link() {
        // Star: source 0 with sensors 1 (q=0.9), 2 (q=0.5), all active
        // every slot.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::new(0.9),
            LinkQuality::new(0.9),
        );
        topo.add_edge(
            NodeId(0),
            NodeId(2),
            LinkQuality::new(0.5),
            LinkQuality::new(0.5),
        );
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 3]);
        let cfg = SimConfig {
            period: 1,
            active_per_period: 1,
            n_packets: 3,
            coverage: 1.0,
            max_slots: 10,
            seed: 1,
            mistiming_prob: 0.0,
        };
        let engine = Engine::with_schedules(topo, cfg, schedules, Idle);
        let state = engine.state();
        let (p, v) = fcfs_candidate(state, NodeId(0)).unwrap();
        assert_eq!(p, 0, "FCFS: earliest packet first");
        assert_eq!(v, NodeId(1), "best link first");

        let mut backoff = CollisionBackoff::new(1, 1);
        backoff.on_start(&state.topo);
        let mut buf = Vec::new();
        let awake = awake_row(state, &mut buf);
        let mut list = Vec::new();
        awake_receivers(state, NodeId(0), awake, &backoff, &mut list);
        let order: Vec<(NodeId, usize)> = list.iter().map(|r| (r.node, r.link)).collect();
        assert_eq!(
            order,
            vec![(NodeId(1), 0), (NodeId(2), 1)],
            "best link first"
        );
    }

    #[test]
    fn no_candidate_when_neighbors_sleep_or_have() {
        let topo = Topology::line(2, LinkQuality::PERFECT);
        // Node 1 never active in the first period slot 0? Give it slot 3.
        let schedules = NeighborTable::new(vec![
            WorkingSchedule::new(4, vec![0]),
            WorkingSchedule::new(4, vec![3]),
        ]);
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 1,
            coverage: 1.0,
            max_slots: 10,
            seed: 1,
            mistiming_prob: 0.0,
        };
        let engine = Engine::with_schedules(topo, cfg, schedules, Idle);
        // At slot 0, node 1 is dormant: no candidate.
        assert!(fcfs_candidate(engine.state(), NodeId(0)).is_none());
        let mut backoff = CollisionBackoff::new(1, 1);
        backoff.on_start(&engine.state().topo);
        let mut buf = Vec::new();
        let awake = awake_row(engine.state(), &mut buf);
        let mut list = Vec::new();
        awake_receivers(engine.state(), NodeId(0), awake, &backoff, &mut list);
        assert!(list.is_empty());
    }
}
