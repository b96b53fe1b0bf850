//! Local synchronization (paper §III-B).
//!
//! "With local synchronization, a sender knows when it shall wake up to
//! transmit a packet to each of its neighbors according to their working
//! schedules." The [`NeighborTable`] holds the full set of schedules and
//! answers the two questions a sender needs:
//!
//! * which neighbors are active (receivable) at slot `t`, and
//! * when is neighbor `v` next active at-or-after slot `t`.

use crate::bitset;
use crate::schedule::WorkingSchedule;
use crate::topology::Topology;
use crate::NodeId;

/// Precomputed wake calendar: for each slot offset of the shared period
/// `T`, the set of nodes active at that offset, as both a packed bitset
/// (for word-level intersection with adjacency rows) and a sorted id
/// list (for "who is awake now" iteration). Exists only when every
/// schedule shares one period — the simulator's normal configuration —
/// and is maintained incrementally when churn re-randomizes a schedule.
#[derive(Clone, Debug)]
struct WakeCalendar {
    period: u32,
    /// Words per offset row of `bits`.
    words_per_offset: usize,
    /// Words per offset row of `summary`
    /// (`words_for(words_per_offset)`).
    summary_words: usize,
    /// Offset-major bitset: node `i` active at offset `o` ⇔ bit `i` of
    /// row `o`.
    bits: Vec<u64>,
    /// Offset-major word-occupancy summary of `bits`: bit `w` of the
    /// offset-`o` summary row ⇔ word `w` of the offset-`o` active row
    /// is non-zero. The next-rendezvous scan rejects a whole offset
    /// with `summary_words` probes (64 active-row words per summary
    /// bit) before ever touching the row itself, which is what keeps
    /// the skip query O(period words) instead of O(period × N).
    summary: Vec<u64>,
    /// Sorted active-node list per offset.
    lists: Vec<Vec<NodeId>>,
}

impl WakeCalendar {
    /// Build from homogeneous-period schedules; `None` if periods mix.
    fn build(schedules: &[WorkingSchedule]) -> Option<Self> {
        let period = schedules[0].period();
        if schedules.iter().any(|s| s.period() != period) {
            return None;
        }
        let words_per_offset = bitset::words_for(schedules.len());
        let summary_words = bitset::words_for(words_per_offset);
        let mut cal = Self {
            period,
            words_per_offset,
            summary_words,
            bits: vec![0; period as usize * words_per_offset],
            summary: vec![0; period as usize * summary_words],
            lists: vec![Vec::new(); period as usize],
        };
        for (i, s) in schedules.iter().enumerate() {
            // Ascending node order keeps every offset list sorted.
            cal.insert(NodeId::from(i), s.active_slots());
        }
        Some(cal)
    }

    #[inline]
    fn offset_of(&self, t: u64) -> usize {
        (t % self.period as u64) as usize
    }

    #[inline]
    fn words(&self, offset: usize) -> &[u64] {
        &self.bits[offset * self.words_per_offset..(offset + 1) * self.words_per_offset]
    }

    #[inline]
    fn summary_row(&self, offset: usize) -> &[u64] {
        &self.summary[offset * self.summary_words..(offset + 1) * self.summary_words]
    }

    #[inline]
    fn is_active(&self, node: NodeId, t: u64) -> bool {
        bitset::test_bit(self.words(self.offset_of(t)), node.index())
    }

    /// Add `node` at each given offset (keeps lists sorted).
    fn insert(&mut self, node: NodeId, offsets: &[u32]) {
        for &o in offsets {
            let o = o as usize;
            let row = &mut self.bits[o * self.words_per_offset..(o + 1) * self.words_per_offset];
            if bitset::set_bit(row, node.index()) {
                // The node's word is now non-zero; mark it occupied.
                let srow = &mut self.summary[o * self.summary_words..(o + 1) * self.summary_words];
                bitset::set_bit(srow, node.index() / 64);
                let list = &mut self.lists[o];
                let at = list.partition_point(|&v| v < node);
                list.insert(at, node);
            }
        }
    }

    /// Remove `node` from each given offset.
    fn remove(&mut self, node: NodeId, offsets: &[u32]) {
        for &o in offsets {
            let o = o as usize;
            let row = &mut self.bits[o * self.words_per_offset..(o + 1) * self.words_per_offset];
            bitset::clear_bit(row, node.index());
            if row[node.index() / 64] == 0 {
                let srow = &mut self.summary[o * self.summary_words..(o + 1) * self.summary_words];
                bitset::clear_bit(srow, node.index() / 64);
            }
            if let Ok(at) = self.lists[o].binary_search(&node) {
                self.lists[o].remove(at);
            }
        }
    }

    /// Whether any node of `targets` is active at `offset`.
    /// `targets_summary` is the word-occupancy summary of `targets`;
    /// only words whose summaries collide are probed.
    #[inline]
    fn rendezvous_at(&self, offset: usize, targets: &[u64], targets_summary: &[u64]) -> bool {
        let row = self.words(offset);
        for w in bitset::iter_ones_and(self.summary_row(offset), targets_summary) {
            if row[w] & targets[w] != 0 {
                return true;
            }
        }
        false
    }
}

/// Iterator over the nodes active at one slot, from either a calendar
/// list or a schedule scan (see [`NeighborTable::all_active`]).
#[derive(Clone, Debug)]
pub enum ActiveNodes<'a> {
    /// Calendar-backed: a precomputed sorted slice.
    Calendar(std::slice::Iter<'a, NodeId>),
    /// Fallback: filter-scan over heterogeneous-period schedules.
    Scan {
        /// Remaining `(index, schedule)` pairs to filter.
        schedules: std::iter::Enumerate<std::slice::Iter<'a, WorkingSchedule>>,
        /// The queried slot.
        t: u64,
    },
}

impl Iterator for ActiveNodes<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match self {
            ActiveNodes::Calendar(it) => it.next().copied(),
            ActiveNodes::Scan { schedules, t } => schedules
                .by_ref()
                .find(|(_, s)| s.is_active(*t))
                .map(|(i, _)| NodeId::from(i)),
        }
    }
}

/// Per-network table of working schedules with neighbor-aware queries.
///
/// This models the state each node accumulates via low-cost local
/// synchronization protocols; we keep it network-global for simulation
/// convenience (each node only ever queries its own neighborhood).
///
/// When all schedules share one period (the normal case), the table
/// carries a [`WakeCalendar`] making [`NeighborTable::is_active`] an
/// O(1) bit probe and [`NeighborTable::all_active`] a precomputed-slice
/// walk; [`NeighborTable::set_schedule`] keeps the calendar in sync when
/// churn re-randomizes a rebooted node's schedule.
#[derive(Clone, Debug)]
pub struct NeighborTable {
    schedules: Vec<WorkingSchedule>,
    calendar: Option<WakeCalendar>,
}

impl NeighborTable {
    /// Build from one schedule per node.
    pub fn new(schedules: Vec<WorkingSchedule>) -> Self {
        assert!(!schedules.is_empty());
        let calendar = WakeCalendar::build(&schedules);
        Self {
            schedules,
            calendar,
        }
    }

    /// Generate the paper's normalized configuration: every node picks a
    /// single uniformly random active slot in a period of `period` slots.
    pub fn random_single_slot<R: rand::Rng + ?Sized>(
        n_nodes: usize,
        period: u32,
        rng: &mut R,
    ) -> Self {
        Self::new(
            (0..n_nodes)
                .map(|_| WorkingSchedule::single_random(period, rng))
                .collect(),
        )
    }

    /// Number of nodes covered by the table.
    pub fn n_nodes(&self) -> usize {
        self.schedules.len()
    }

    /// The schedule of `node`.
    pub fn schedule(&self, node: NodeId) -> &WorkingSchedule {
        &self.schedules[node.index()]
    }

    /// Whether `node` is active at slot `t`.
    #[inline]
    pub fn is_active(&self, node: NodeId, t: u64) -> bool {
        match &self.calendar {
            Some(cal) => cal.is_active(node, t),
            None => self.schedules[node.index()].is_active(t),
        }
    }

    /// Replace the schedule of `node` (a rebooted mote re-enters the
    /// duty-cycle lottery with a fresh working schedule). The new
    /// schedule must keep the network-wide period. The wake calendar is
    /// updated incrementally: the node moves from its old offsets to the
    /// new ones.
    pub fn set_schedule(&mut self, node: NodeId, schedule: WorkingSchedule) {
        assert_eq!(
            schedule.period(),
            self.schedules[node.index()].period(),
            "replacement schedule must keep the period"
        );
        if let Some(cal) = &mut self.calendar {
            cal.remove(node, self.schedules[node.index()].active_slots());
            cal.insert(node, schedule.active_slots());
        }
        self.schedules[node.index()] = schedule;
    }

    /// Next slot `>= t` at which `node` is active (sleep-latency query).
    pub fn next_active(&self, node: NodeId, t: u64) -> u64 {
        self.schedules[node.index()].next_active_at_or_after(t)
    }

    /// Neighbors of `u` (per `topo`) that are active at slot `t`.
    pub fn active_neighbors<'a>(
        &'a self,
        topo: &'a Topology,
        u: NodeId,
        t: u64,
    ) -> impl Iterator<Item = NodeId> + 'a {
        topo.neighbor_ids(u)
            .iter()
            .copied()
            .filter(move |&v| self.is_active(v, t))
    }

    /// All nodes active at slot `t`, in ascending id order.
    #[inline]
    pub fn all_active(&self, t: u64) -> ActiveNodes<'_> {
        match &self.calendar {
            Some(cal) => ActiveNodes::Calendar(cal.lists[cal.offset_of(t)].iter()),
            None => ActiveNodes::Scan {
                schedules: self.schedules.iter().enumerate(),
                t,
            },
        }
    }

    /// Number of nodes active at slot `t` (O(1) with a calendar).
    #[inline]
    pub fn active_count(&self, t: u64) -> usize {
        match &self.calendar {
            Some(cal) => cal.lists[cal.offset_of(t)].len(),
            None => self.all_active(t).count(),
        }
    }

    /// Packed bitset over the nodes active at slot `t`
    /// ([`crate::bitset::words_for`]`(n_nodes)` words), when the table
    /// has a wake calendar. Hot paths intersect this with
    /// [`Topology::neighbor_words`] to enumerate awake neighbors.
    #[inline]
    pub fn active_words(&self, t: u64) -> Option<&[u64]> {
        self.calendar
            .as_ref()
            .map(|cal| cal.words(cal.offset_of(t)))
    }

    /// Whether the table carries a wake calendar (homogeneous periods).
    /// Without one there is no packed active row per slot and no
    /// [`NeighborTable::next_rendezvous`] query; callers wanting to
    /// skip dead slots must fall back to stepping.
    #[inline]
    pub fn has_calendar(&self) -> bool {
        self.calendar.is_some()
    }

    /// The calendar's common schedule period (`None` without a
    /// calendar). The wake pattern — and so every per-slot active
    /// count — repeats with exactly this period.
    #[inline]
    pub fn calendar_period(&self) -> Option<u32> {
        self.calendar.as_ref().map(|cal| cal.period)
    }

    /// Number of `u64` words in each summary row the calendar keeps per
    /// offset (`words_for(words_for(n_nodes))`), i.e. the length
    /// `targets_summary` must have in [`NeighborTable::next_rendezvous`].
    /// `None` without a calendar.
    #[inline]
    pub fn summary_words(&self) -> Option<usize> {
        self.calendar.as_ref().map(|cal| cal.summary_words)
    }

    /// Smallest slot `t >= from` at which any node of `targets` (a
    /// packed bitset over node ids, `words_for(n_nodes)` words) is
    /// active, or `None` when no offset of the whole period wakes one
    /// (or when the table has no calendar — gate on
    /// [`NeighborTable::has_calendar`] to tell the cases apart).
    ///
    /// `targets_summary` must be the word-occupancy summary of
    /// `targets` — bit `w` set ⇔ `targets[w] != 0`, as produced by
    /// [`bitset::summarize_into`] — sized per
    /// [`NeighborTable::summary_words`]. The scan visits at most
    /// `period` offsets, each rejected via its occupancy summary
    /// (1/64th of the row words) with full words probed only on
    /// summary collisions, so a miss costs O(period × n/4096) words
    /// rather than O(period × n/64).
    pub fn next_rendezvous(
        &self,
        from: u64,
        targets: &[u64],
        targets_summary: &[u64],
    ) -> Option<u64> {
        let cal = self.calendar.as_ref()?;
        (from..from + cal.period as u64)
            .find(|&t| cal.rendezvous_at(cal.offset_of(t), targets, targets_summary))
    }

    /// Mean duty ratio across nodes.
    pub fn mean_duty_ratio(&self) -> f64 {
        self.schedules.iter().map(|s| s.duty_ratio()).sum::<f64>() / self.schedules.len() as f64
    }

    /// Probability that two independently-random single-slot schedules
    /// share an active slot: `a/T` when both have `a` active slots. The
    /// paper's unicast assumption (§III-B) rests on this being small in
    /// low-duty-cycle networks.
    pub fn rendezvous_probability(period: u32, active_per_period: u32) -> f64 {
        // P(specific slot of u collides with one of v's a slots) = a/T for
        // a single-slot u; for multi-slot schedules this is the expected
        // per-slot overlap probability.
        active_per_period as f64 / period as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkQuality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> NeighborTable {
        NeighborTable::new(vec![
            WorkingSchedule::new(5, vec![0]),
            WorkingSchedule::new(5, vec![2]),
            WorkingSchedule::new(5, vec![2]),
            WorkingSchedule::new(5, vec![4]),
        ])
    }

    #[test]
    fn active_queries() {
        let t = table();
        assert!(t.is_active(NodeId(0), 0));
        assert!(t.is_active(NodeId(1), 7));
        assert!(!t.is_active(NodeId(1), 6));
        assert_eq!(t.next_active(NodeId(3), 0), 4);
        assert_eq!(t.next_active(NodeId(3), 5), 9);
    }

    #[test]
    fn all_active_at_slot() {
        let t = table();
        let at2: Vec<NodeId> = t.all_active(2).collect();
        assert_eq!(at2, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn active_neighbors_respects_topology() {
        let t = table();
        let topo = Topology::line(4, LinkQuality::PERFECT);
        // node 0's only neighbor is node 1, active at slot 2.
        let act: Vec<NodeId> = t.active_neighbors(&topo, NodeId(0), 2).collect();
        assert_eq!(act, vec![NodeId(1)]);
        // node 2's neighbors are 1 and 3; at slot 4 only 3 is active.
        let act: Vec<NodeId> = t.active_neighbors(&topo, NodeId(2), 4).collect();
        assert_eq!(act, vec![NodeId(3)]);
    }

    #[test]
    fn mean_duty_ratio_matches() {
        let t = table();
        assert!((t.mean_duty_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn rendezvous_probability_is_low_at_low_duty() {
        assert!((NeighborTable::rendezvous_probability(50, 1) - 0.02).abs() < 1e-12);
        assert!(NeighborTable::rendezvous_probability(20, 1) <= 0.05);
    }

    #[test]
    fn random_single_slot_has_unit_duty() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = NeighborTable::random_single_slot(50, 20, &mut rng);
        assert_eq!(t.n_nodes(), 50);
        assert!((t.mean_duty_ratio() - 0.05).abs() < 1e-12);
    }

    /// The calendar-backed queries must agree with a direct schedule
    /// scan at every slot, for homogeneous and mixed periods alike.
    fn assert_queries_match_scan(t: &NeighborTable, slots: u64) {
        for slot in 0..slots {
            let scan: Vec<NodeId> = (0..t.n_nodes())
                .filter(|&i| t.schedule(NodeId::from(i)).is_active(slot))
                .map(NodeId::from)
                .collect();
            let fast: Vec<NodeId> = t.all_active(slot).collect();
            assert_eq!(fast, scan, "all_active at slot {slot}");
            assert_eq!(t.active_count(slot), scan.len());
            for i in 0..t.n_nodes() {
                let node = NodeId::from(i);
                assert_eq!(
                    t.is_active(node, slot),
                    t.schedule(node).is_active(slot),
                    "is_active({i}, {slot})"
                );
            }
            if let Some(words) = t.active_words(slot) {
                let from_words: Vec<NodeId> =
                    crate::bitset::iter_ones(words).map(NodeId::from).collect();
                assert_eq!(from_words, scan, "active_words at slot {slot}");
            }
        }
    }

    #[test]
    fn calendar_matches_schedule_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = NeighborTable::new(
            (0..40)
                .map(|_| WorkingSchedule::multi_random(12, 3, &mut rng))
                .collect(),
        );
        assert!(
            t.active_words(0).is_some(),
            "homogeneous periods ⇒ calendar"
        );
        assert_queries_match_scan(&t, 30);
    }

    #[test]
    fn mixed_periods_fall_back_to_scan() {
        let t = NeighborTable::new(vec![
            WorkingSchedule::new(5, vec![0]),
            WorkingSchedule::new(3, vec![1]),
            WorkingSchedule::always_on(),
        ]);
        assert!(t.active_words(0).is_none(), "mixed periods ⇒ no calendar");
        assert_queries_match_scan(&t, 20);
    }

    /// Brute-force reference for `next_rendezvous`: scan slot by slot.
    fn brute_next_rendezvous(t: &NeighborTable, from: u64, targets: &[NodeId]) -> Option<u64> {
        let period = t.schedule(NodeId(0)).period() as u64;
        (from..from + period).find(|&slot| targets.iter().any(|&v| t.is_active(v, slot)))
    }

    /// Query `next_rendezvous` for an explicit target set, exercising
    /// the packed-row + summary path.
    fn query_rendezvous(t: &NeighborTable, from: u64, targets: &[NodeId]) -> Option<u64> {
        let mut words = vec![0u64; bitset::words_for(t.n_nodes())];
        for &v in targets {
            bitset::set_bit(&mut words, v.index());
        }
        let mut summary = vec![0u64; t.summary_words().expect("calendar exists")];
        bitset::summarize_into(&words, &mut summary);
        t.next_rendezvous(from, &words, &summary)
    }

    #[test]
    fn next_rendezvous_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(77);
        // 200 nodes ⇒ several row words, so the summary actually prunes.
        let t = NeighborTable::random_single_slot(200, 25, &mut rng);
        let mut pick = StdRng::seed_from_u64(5);
        for from in 0..60u64 {
            use rand::Rng;
            let k = pick.random_range(0..5usize);
            let targets: Vec<NodeId> = (0..k)
                .map(|_| NodeId(pick.random_range(0..200u32)))
                .collect();
            assert_eq!(
                query_rendezvous(&t, from, &targets),
                brute_next_rendezvous(&t, from, &targets),
                "from={from} targets={targets:?}"
            );
        }
        // An empty target set never has a rendezvous.
        assert_eq!(query_rendezvous(&t, 3, &[]), None);
    }

    #[test]
    fn next_rendezvous_tracks_schedule_churn() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut t = NeighborTable::random_single_slot(130, 16, &mut rng);
        let targets = [NodeId(65), NodeId(129)];
        assert_eq!(
            query_rendezvous(&t, 0, &targets),
            brute_next_rendezvous(&t, 0, &targets)
        );
        // Move both targets; the summary must follow the rows exactly,
        // including clearing bits when a word empties.
        t.set_schedule(NodeId(65), WorkingSchedule::new(16, vec![13]));
        t.set_schedule(NodeId(129), WorkingSchedule::new(16, vec![13]));
        for from in 0..40u64 {
            assert_eq!(
                query_rendezvous(&t, from, &targets),
                brute_next_rendezvous(&t, from, &targets),
                "after churn, from={from}"
            );
        }
        assert_eq!(query_rendezvous(&t, 0, &targets), Some(13));
    }

    #[test]
    fn next_rendezvous_is_none_without_calendar() {
        let t = NeighborTable::new(vec![
            WorkingSchedule::new(5, vec![0]),
            WorkingSchedule::new(3, vec![1]),
        ]);
        assert!(!t.has_calendar());
        assert_eq!(t.summary_words(), None);
        assert_eq!(t.next_rendezvous(0, &[u64::MAX], &[u64::MAX]), None);
    }

    #[test]
    fn set_schedule_updates_calendar_incrementally() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut t = NeighborTable::random_single_slot(20, 10, &mut rng);
        // Re-randomize a few nodes (the churn-recovery path) and check
        // every query against the ground truth after each change.
        for &(node, slot) in &[(3u32, 7u32), (0, 0), (19, 9), (3, 7), (3, 2)] {
            t.set_schedule(NodeId(node), WorkingSchedule::new(10, vec![slot]));
            assert!(t.is_active(NodeId(node), slot as u64));
            assert_queries_match_scan(&t, 20);
        }
        // Multi-slot replacement keeps the lists sorted too.
        t.set_schedule(NodeId(5), WorkingSchedule::new(10, vec![1, 4, 9]));
        assert_queries_match_scan(&t, 20);
    }
}
