//! Shared helpers for protocol implementations.

use ldcf_net::{bitset, NodeId, PacketId, Topology};
use ldcf_sim::mac::{DeliveryEvent, Outcome};
use ldcf_sim::SimState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The FCFS-earliest packet at `u` for which some active neighbor of `u`
/// is still missing it, together with the best such neighbor (highest
/// PRR). This is the canonical "what should I unicast now" query shared
/// by the sender-initiated protocols. Only receivers `v` whose inbound
/// link from `u` (index [`Topology::link_index`]`(v, u)`, the key of
/// [`CollisionBackoff`]) passes `allow` count (used to honour per-link
/// collision back-off windows; `|_| true` admits every receiver).
pub fn fcfs_candidate_filtered(
    state: &SimState,
    u: NodeId,
    mut allow: impl FnMut(usize) -> bool,
) -> Option<(PacketId, NodeId)> {
    let mut open = |v: NodeId| allow(state.topo.link_index(v, u).expect("links are symmetric"));
    let entry = state.queue(u).first_with_work(|p| {
        state
            .topo
            .neighbor_ids(u)
            .iter()
            .any(|&v| state.is_active(v) && !state.has(v, p) && open(v))
    })?;
    let (v, _) = state
        .topo
        .neighbors(u)
        .filter(|&(v, _)| state.is_active(v) && !state.has(v, entry.packet) && open(v))
        .max_by(|a, b| a.1.prr().partial_cmp(&b.1.prr()).expect("PRR is finite"))?;
    Some((entry.packet, v))
}

/// Randomized retransmission back-off after collisions.
///
/// Two senders hidden from each other that keep retrying the same
/// receiver at its every active slot would collide forever under any
/// deterministic policy. Real link layers detect the missing ACK and
/// back off a random number of retry opportunities; this helper keeps a
/// skip window per directed link `sender → receiver` doing exactly
/// that, in a flat table indexed by the link's entry in the
/// *receiver's* row, [`Topology::link_index`]`(receiver, sender)` — the
/// index a walk of the awake receivers' rows ([`ReceiverLists::build`])
/// is already at.
#[derive(Debug)]
pub struct CollisionBackoff {
    /// `blocked_until[link_index(r, s)]`: the first slot at which `s`
    /// may target `r` again (0: never blocked).
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

    /// Whether the sender of the inbound `link`
    /// (`link_index(receiver, sender)`) is still backing off from its
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
                    .link_index(e.receiver, e.sender)
                    .expect("a collision is on a link");
                self.blocked_until[link] = now + periods * period as u64 + 1;
            }
        }
    }
}

/// One receiver a sender could serve this slot: an entry of the
/// sender's list in [`ReceiverLists`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Receiver {
    /// The receiving neighbor.
    pub node: NodeId,
    /// Index of the link sender → `node` in `node`'s row,
    /// `link_index(node, sender)`: the key of inbound per-link state,
    /// and where [`Topology::in_quality`] reads its PRR.
    pub link: u32,
}

/// This slot's sender → receiver lists, built from the awake side.
///
/// A sender can only serve a neighbor that is awake, live, missing a
/// packet the sender has queued and (for a protocol with a collision
/// back-off) not one it is backing off from, and at low duty far fewer
/// nodes are awake than have work. So [`ReceiverLists::build`] walks the
/// rows of the awake, live nodes only, once, and collects each pair of
/// an awake node and a neighbor whose queue holds a packet it misses
/// ([`SimState::queue_misses`], a word AND per packet word). It then
/// scatters the pairs into one buffer of 8-byte entries, the lists one
/// after another in sender order. A pair with nothing to move would
/// fail every packet of the sender's queue scan, so leaving it out
/// changes no decision.
///
/// [`ReceiverLists::iter`] hands the lists out best link first (PRR
/// descending, ties to the lower id): awake nodes arrive in ascending
/// id order, so a stable insertion sort on PRR keeps the tie order. A
/// queue scan then takes the first entry missing each packet, which is
/// that packet's best receiver. The senders — the nodes whose list is
/// non-empty — come out ascending, the order of the work bitset they
/// are a subset of.
#[derive(Debug, Default)]
pub(crate) struct ReceiverLists {
    /// Nodes whose list is non-empty, packed.
    senders: Vec<u64>,
    /// Per sender: its list's length while collecting, then where its
    /// next entry goes, which ends as where its list ends in `entries`.
    /// Zero for every other node.
    ends: Vec<u32>,
    /// This slot's (sender, receiver) pairs in walk order.
    pairs: Vec<(NodeId, Receiver)>,
    /// Every list, in sender order.
    entries: Vec<Receiver>,
}

impl ReceiverLists {
    /// Size the scratch for `state`'s network and wake calendar: a pair
    /// and an entry per (awake node, neighbor) pair of the busiest
    /// calendar offset, so building never allocates unless churn
    /// redraws schedules into a busier offset.
    pub fn on_start(&mut self, state: &SimState) {
        let n = state.n_nodes();
        self.senders.clear();
        self.senders.resize(bitset::words_for(n), 0);
        self.ends.clear();
        self.ends.resize(n, 0);
        let busiest = (0..u64::from(state.schedules.calendar_period()))
            .map(|t| {
                state
                    .schedules
                    .all_active(t)
                    .map(|v| state.topo.degree(v))
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        self.pairs.clear();
        self.pairs.reserve(busiest);
        self.entries.clear();
        self.entries.reserve(busiest);
    }

    /// Build this slot's lists: every awake, live node `r`, in
    /// ascending order, joins the list of each neighbor `u` with a
    /// queued packet `r` misses whose inbound link `link_index(r, u)`
    /// passes `open` (a back-off filter, or `|_| true`).
    pub fn build(&mut self, state: &SimState, open: impl Fn(usize) -> bool) {
        for u in bitset::iter_ones(&self.senders) {
            self.ends[u] = 0;
        }
        bitset::clear_all(&mut self.senders);
        self.pairs.clear();
        let work = state.work_words();
        let awake = state.schedules.active_words(state.now);
        for (w, (&a, &d)) in awake.iter().zip(state.down_words()).enumerate() {
            let mut live = a & !d;
            while live != 0 {
                let r = NodeId::from(w * 64 + live.trailing_zeros() as usize);
                live &= live - 1;
                for (link, u, _) in state.topo.in_links(r) {
                    if bitset::test_bit(work, u.index()) && state.queue_misses(u, r) && open(link) {
                        self.ends[u.index()] += 1;
                        bitset::set_bit(&mut self.senders, u.index());
                        let link = link as u32;
                        self.pairs.push((u, Receiver { node: r, link }));
                    }
                }
            }
        }
        // Lay the lists out in sender order (`ends[u]` becomes where u's
        // list starts), then scatter the pairs, keeping walk order
        // within each list.
        let mut at = 0;
        for u in bitset::iter_ones(&self.senders) {
            let len = self.ends[u];
            self.ends[u] = at;
            at += len;
        }
        let blank = Receiver {
            node: NodeId(0),
            link: 0,
        };
        self.entries.clear();
        self.entries.resize(at as usize, blank);
        for &(u, receiver) in &self.pairs {
            let end = &mut self.ends[u.index()];
            self.entries[*end as usize] = receiver;
            *end += 1;
        }
    }

    /// Every sender with its receivers, senders ascending. Each list is
    /// put best link first as it is handed out.
    pub fn iter<'a>(
        &'a mut self,
        topo: &'a Topology,
    ) -> impl Iterator<Item = (NodeId, &'a [Receiver])> + 'a {
        let Self {
            senders,
            ends,
            entries,
            ..
        } = self;
        let prr = |r: &Receiver| topo.in_quality(r.link as usize).prr();
        let mut rest = &mut entries[..];
        let mut start = 0;
        bitset::iter_ones(senders).map(move |u| {
            let end = ends[u] as usize;
            let (list, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = tail;
            start = end;
            // Stable insertion sort: an entry moves only past strictly
            // worse links. Lists are a few entries long.
            for i in 1..list.len() {
                let r = list[i];
                let mut j = i;
                while j > 0 && prr(&list[j - 1]) < prr(&r) {
                    list[j] = list[j - 1];
                    j -= 1;
                }
                list[j] = r;
            }
            (NodeId::from(u), &*list)
        })
    }
}

/// Per-node yes/no answers valid for one `propose` call. A stamp marks
/// which entries were computed in the current call, so
/// [`SlotMemo::advance`] forgets every answer without touching the
/// table (a one-byte stamp wraps after 127 calls, and only then is the
/// table cleared).
#[derive(Debug, Default)]
pub(crate) struct SlotMemo {
    stamp: u8,
    /// `marks[i] = stamp << 1 | answer` for entries computed at `stamp`.
    marks: Vec<u8>,
}

impl SlotMemo {
    /// One entry per node of `n`, none computed.
    pub fn on_start(&mut self, n: usize) {
        self.stamp = 0;
        self.marks.clear();
        self.marks.resize(n, 0);
    }

    /// Start a new call: forget every answer.
    #[inline]
    pub fn advance(&mut self) {
        self.stamp += 1;
        if self.stamp == 1 << 7 {
            // The stamp would no longer fit beside the answer bit.
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    /// The answer for node `i` in this call, computed by `f` the first
    /// time it is asked for.
    #[inline]
    pub fn get_or(&mut self, i: usize, f: impl FnOnce() -> bool) -> bool {
        let mark = self.marks[i];
        if mark >> 1 == self.stamp {
            return mark & 1 == 1;
        }
        let answer = f();
        self.marks[i] = self.stamp << 1 | answer as u8;
        answer
    }
}

/// The largest degree in `topo`.
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

    /// The back-off key of `s → r`: its entry in `r`'s row.
    fn link(topo: &Topology, s: u32, r: u32) -> usize {
        topo.link_index(NodeId(r), NodeId(s)).unwrap()
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
        let (p, v) = fcfs_candidate_filtered(state, NodeId(0), |_| true).unwrap();
        assert_eq!(p, 0, "FCFS: earliest packet first");
        assert_eq!(v, NodeId(1), "best link first");

        let mut backoff = CollisionBackoff::new(1, 1);
        backoff.on_start(&state.topo);
        let order = lists_of(state, &backoff);
        // Rows: 0 → [1, 2] (links 0, 1), 1 → [0] (link 2), 2 → [0]
        // (link 3); each entry carries the link in the receiver's row.
        assert_eq!(
            order,
            vec![(NodeId(0), vec![(NodeId(1), 2), (NodeId(2), 3)])],
            "best link first"
        );
    }

    /// Every sender's list after one build: `(sender, [(receiver,
    /// inbound link)])`, senders ascending.
    fn lists_of(
        state: &SimState,
        backoff: &CollisionBackoff,
    ) -> Vec<(NodeId, Vec<(NodeId, usize)>)> {
        let mut lists = ReceiverLists::default();
        lists.on_start(state);
        lists.build(state, |link| !backoff.blocked(link, state.now));
        lists
            .iter(&state.topo)
            .map(|(u, rs)| (u, rs.iter().map(|r| (r.node, r.link as usize)).collect()))
            .collect()
    }

    #[test]
    fn lists_keep_prr_ties_in_id_order_and_skip_backed_off_links() {
        // Star: source 0 with leaves 1..=4 at qualities 0.5, 0.9, 0.5,
        // 0.9, every node awake every slot.
        let mut topo = Topology::empty(5);
        for (leaf, q) in [(1, 0.5), (2, 0.9), (3, 0.5), (4, 0.9)] {
            let q = LinkQuality::new(q);
            topo.add_edge(NodeId(0), NodeId(leaf), q, q);
        }
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on(); 5]);
        let cfg = SimConfig {
            period: 1,
            active_per_period: 1,
            n_packets: 1,
            coverage: 1.0,
            max_slots: 10,
            seed: 1,
            mistiming_prob: 0.0,
        };
        let engine = Engine::with_schedules(topo, cfg, schedules, Idle);
        let state = engine.state();
        let mut backoff = CollisionBackoff::new(1, 1);
        backoff.on_start(&state.topo);
        let receivers = |lists: Vec<(NodeId, Vec<(NodeId, usize)>)>| -> Vec<NodeId> {
            assert_eq!(lists.len(), 1, "only the source has work");
            lists[0].1.iter().map(|&(r, _)| r).collect()
        };
        assert_eq!(
            receivers(lists_of(state, &backoff)),
            [2, 4, 1, 3].map(NodeId),
            "PRR descending, ties to the lower id"
        );
        // A collision 0 → 4 blocks that link only.
        let collision = DeliveryEvent {
            sender: NodeId(0),
            receiver: NodeId(4),
            packet: 0,
            outcome: Outcome::Collision,
        };
        backoff.observe(&state.topo, &[collision], state.now, 1);
        assert_eq!(receivers(lists_of(state, &backoff)), [2, 1, 3].map(NodeId));
    }

    #[test]
    fn a_sender_whose_awake_receivers_hold_its_queue_gets_no_list() {
        // Line 0 – 1 – 2, period 4: node 1 wakes at slot 1, node 0 at
        // slot 2, node 2 at slot 3. At slot 1 the source hands its one
        // packet to node 1, which keeps it queued for the sleeping
        // node 2. At slot 2 node 1's only awake neighbor already holds
        // it: node 1 has work but nothing to move.
        let topo = Topology::line(3, LinkQuality::PERFECT);
        let schedules = NeighborTable::new(vec![
            WorkingSchedule::new(4, vec![2]),
            WorkingSchedule::new(4, vec![1]),
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
        let mut engine = Engine::with_schedules(topo, cfg, schedules, crate::Dbao::new())
            .with_engine_kind(ldcf_sim::EngineKind::Slot);
        engine.step();
        engine.step();
        let state = engine.state();
        assert_eq!(state.now, 2);
        assert!(state.is_active(NodeId(0)) && state.has(NodeId(0), 0));
        assert_eq!(state.queue(NodeId(1)).len(), 1, "node 1 queues the packet");
        assert!(!state.queue_misses(NodeId(1), NodeId(0)));
        let mut lists = ReceiverLists::default();
        lists.on_start(state);
        lists.build(state, |_| true);
        assert!(!bitset::test_bit(&lists.senders, 1), "node 1 is no sender");
        assert!(lists.iter(&state.topo).next().is_none());
    }

    #[test]
    fn slot_memo_forgets_on_advance() {
        let mut memo = SlotMemo::default();
        memo.on_start(2);
        memo.advance();
        assert!(memo.get_or(0, || true));
        assert!(memo.get_or(0, || false), "kept within a call");
        assert!(!memo.get_or(1, || false));
        memo.advance();
        assert!(!memo.get_or(0, || false), "forgotten by the next call");
        // 127 calls later the one-byte stamp is back to its value, but
        // the wrap cleared the answer.
        assert!(memo.get_or(1, || true));
        for _ in 0..127 {
            memo.advance();
        }
        assert!(!memo.get_or(1, || false), "forgotten across the wrap");
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
        assert!(fcfs_candidate_filtered(engine.state(), NodeId(0), |_| true).is_none());
        let mut backoff = CollisionBackoff::new(1, 1);
        backoff.on_start(&engine.state().topo);
        assert!(lists_of(engine.state(), &backoff).is_empty());
    }
}
