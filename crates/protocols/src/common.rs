//! Shared helpers for protocol implementations.

use ldcf_net::{bitset, NodeId, PacketId};
use ldcf_sim::mac::{DeliveryEvent, Outcome};
use ldcf_sim::SimState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The FCFS-earliest packet at `u` for which some active neighbor of `u`
/// is still missing it, together with the best such neighbor (highest
/// PRR). This is the canonical "what should I unicast now" query shared
/// by the sender-initiated protocols.
pub fn fcfs_candidate(state: &SimState, u: NodeId) -> Option<(PacketId, NodeId)> {
    fcfs_candidate_filtered(state, u, |_| true)
}

/// [`fcfs_candidate`] restricted to receivers passing `allow` (used to
/// honour per-receiver collision back-off windows).
pub fn fcfs_candidate_filtered(
    state: &SimState,
    u: NodeId,
    mut allow: impl FnMut(NodeId) -> bool,
) -> Option<(PacketId, NodeId)> {
    let entry = state.queue(u).first_with_work(|p| {
        state
            .topo
            .neighbor_ids(u)
            .iter()
            .any(|&v| state.is_active(v) && !state.has(v, p) && allow(v))
    })?;
    let (v, _) = state
        .topo
        .neighbors(u)
        .filter(|&(v, _)| state.is_active(v) && !state.has(v, entry.packet) && allow(v))
        .max_by(|a, b| a.1.prr().partial_cmp(&b.1.prr()).expect("PRR is finite"))?;
    Some((entry.packet, v))
}

/// Randomized retransmission back-off after collisions.
///
/// Two senders hidden from each other that keep retrying the same
/// receiver at its every active slot would collide forever under any
/// deterministic policy. Real link layers detect the missing ACK and
/// back off a random number of retry opportunities; this helper tracks a
/// per-`(sender, receiver)` skip window doing exactly that.
#[derive(Debug)]
pub struct CollisionBackoff {
    blocked_until: HashMap<(NodeId, NodeId), u64>,
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
            blocked_until: HashMap::new(),
            rng: StdRng::seed_from_u64(seed),
            window,
        }
    }

    /// Reserve room for `pairs` distinct `(sender, receiver)` keys.
    /// Collision keys are always neighbor pairs, so reserving the
    /// topology's directed edge count up front means the map never
    /// rehashes mid-run — the allocation gate counts on that.
    pub fn reserve(&mut self, pairs: usize) {
        self.blocked_until.reserve(pairs);
    }

    /// Whether `sender` is still backing off from `receiver` at `now`.
    pub fn blocked(&self, sender: NodeId, receiver: NodeId, now: u64) -> bool {
        self.blocked_until
            .get(&(sender, receiver))
            .is_some_and(|&until| now < until)
    }

    /// Digest a slot's outcomes: each collision blocks its sender from
    /// that receiver for a random number of periods.
    pub fn observe(&mut self, events: &[DeliveryEvent], now: u64, period: u32) {
        for e in events {
            if e.outcome == Outcome::Collision {
                let periods = self.rng.random_range(1..=self.window) as u64;
                self.blocked_until
                    .insert((e.sender, e.receiver), now + periods * period as u64 + 1);
            }
        }
        // Drop stale entries occasionally to bound memory.
        if self.blocked_until.len() > 4096 {
            self.blocked_until.retain(|_, &mut until| until > now);
        }
    }
}

/// All `(packet, receiver)` pairs `u` could serve this slot, FCFS-ordered
/// by packet and quality-ordered by receiver within a packet.
pub fn all_candidates(state: &SimState, u: NodeId) -> Vec<(PacketId, NodeId)> {
    let mut out = Vec::new();
    for e in state.queue(u).iter() {
        let mut targets: Vec<(NodeId, f64)> = state
            .topo
            .neighbors(u)
            .filter(|&(v, _)| state.is_active(v) && !state.has(v, e.packet))
            .map(|(v, q)| (v, q.prr()))
            .collect();
        targets.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("PRR is finite"));
        out.extend(targets.into_iter().map(|(v, _)| (e.packet, v)));
    }
    out
}

/// Allocation-free [`all_candidates`]: same pairs in the same order, but
/// the active-receiver filter arrives as a packed availability row
/// (`avail` = neighbors(u) ∩ active ∩ ¬down, one bit per node) and both
/// vectors are caller-owned scratch reused across slots. The possession
/// filter is a word probe into the holder bitset instead of a matrix
/// lookup.
pub fn all_candidates_into(
    state: &SimState,
    u: NodeId,
    avail: &[u64],
    targets: &mut Vec<(NodeId, f64)>,
    out: &mut Vec<(PacketId, NodeId)>,
) {
    out.clear();
    for e in state.queue(u).iter() {
        let holders = state.holder_words(e.packet);
        targets.clear();
        for (v, q) in state.topo.neighbors(u) {
            if bitset::test_bit(avail, v.index()) && !bitset::test_bit(holders, v.index()) {
                targets.push((v, q.prr()));
            }
        }
        // Each receiver appears once and is pushed in ascending id order,
        // so an id tie-break reproduces the stable order exactly without
        // the merge-sort scratch a stable sort would allocate per call.
        targets.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("PRR is finite")
                .then_with(|| a.0.cmp(&b.0))
        });
        out.extend(targets.iter().map(|&(v, _)| (e.packet, v)));
    }
}

#[cfg(test)]
mod backoff_tests {
    use super::*;

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
        let mut b = CollisionBackoff::new(1, 1); // exactly one period
        let period = 10;
        b.observe(&[collision_event(1, 2)], 100, period);
        // Blocked through the receiver's next active slot (t=110)...
        assert!(b.blocked(NodeId(1), NodeId(2), 100));
        assert!(b.blocked(NodeId(1), NodeId(2), 110));
        // ...but free by the one after.
        assert!(!b.blocked(NodeId(1), NodeId(2), 111));
    }

    #[test]
    fn window_is_per_pair() {
        let mut b = CollisionBackoff::new(2, 3);
        b.observe(&[collision_event(1, 2)], 50, 5);
        assert!(b.blocked(NodeId(1), NodeId(2), 51));
        assert!(!b.blocked(NodeId(1), NodeId(3), 51));
        assert!(!b.blocked(NodeId(2), NodeId(1), 51));
    }

    #[test]
    fn non_collision_outcomes_do_not_block() {
        let mut b = CollisionBackoff::new(3, 3);
        b.observe(
            &[DeliveryEvent {
                sender: NodeId(1),
                receiver: NodeId(2),
                packet: 0,
                outcome: Outcome::LinkLoss,
            }],
            10,
            5,
        );
        assert!(!b.blocked(NodeId(1), NodeId(2), 10));
    }

    #[test]
    fn windows_are_bounded_by_the_configured_maximum() {
        let mut b = CollisionBackoff::new(4, 3);
        let period = 7u32;
        for trial in 0..50u64 {
            let now = trial * 1000;
            b.observe(&[collision_event(1, 2)], now, period);
            // Must expire within `window` periods (+1 slot).
            assert!(!b.blocked(NodeId(1), NodeId(2), now + 3 * period as u64 + 1));
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

        let all = all_candidates(state, NodeId(0));
        assert_eq!(
            all,
            vec![
                (0, NodeId(1)),
                (0, NodeId(2)),
                (1, NodeId(1)),
                (1, NodeId(2)),
                (2, NodeId(1)),
                (2, NodeId(2)),
            ]
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
        assert!(all_candidates(engine.state(), NodeId(0)).is_empty());
    }
}
