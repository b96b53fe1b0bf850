//! Local synchronization (paper §III-B).
//!
//! "With local synchronization, a sender knows when it shall wake up to
//! transmit a packet to each of its neighbors according to their working
//! schedules." The [`NeighborTable`] holds the full set of schedules and
//! answers the two questions a sender needs:
//!
//! * which nodes are active (receivable) at slot `t`, and
//! * when does any node of a set next wake at-or-after slot `t`
//!   ([`NeighborTable::next_rendezvous`]).

use crate::bitset;
use crate::schedule::WorkingSchedule;
use crate::NodeId;
use std::sync::Arc;

/// Precomputed wake calendar: for each slot offset of the calendar
/// period `L` — the least common multiple of every schedule's period —
/// the set of nodes active at that offset, as both a packed bitset (for
/// word-level intersection with awake/possession rows) and a sorted id
/// list (for "who is awake now" iteration). A node with period `T` and
/// active offset `a` sits at every offset `a + kT`, `k < L / T`, so the
/// whole wake pattern repeats with period `L`. Maintained incrementally
/// when churn re-randomizes a schedule. Its three tables are shared
/// between clones and copied on the first write (see
/// [`NeighborTable::set_schedule`]).
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
    bits: Arc<[u64]>,
    /// Offset-major word-occupancy summary of `bits`: bit `w` of the
    /// offset-`o` summary row ⇔ word `w` of the offset-`o` active row
    /// is non-zero. The next-rendezvous scan rejects a whole offset
    /// with `summary_words` probes (64 active-row words per summary
    /// bit) before ever touching the row itself, which is what keeps
    /// the skip query O(period words) instead of O(period × N).
    summary: Arc<[u64]>,
    /// Sorted active-node list per offset.
    lists: Arc<[Vec<NodeId>]>,
}

impl WakeCalendar {
    /// Build over `period` offsets (the LCM of the schedules' periods).
    fn build(schedules: &[WorkingSchedule], period: u32) -> Self {
        let words_per_offset = bitset::words_for(schedules.len());
        let summary_words = bitset::words_for(words_per_offset);
        // Each offset's list is allocated once, at its final length.
        let mut awake = vec![0usize; period as usize];
        for s in schedules {
            for o in Self::offsets(period, s) {
                awake[o] += 1;
            }
        }
        let mut cal = Self {
            period,
            words_per_offset,
            summary_words,
            bits: std::iter::repeat_n(0, period as usize * words_per_offset).collect(),
            summary: std::iter::repeat_n(0, period as usize * summary_words).collect(),
            lists: awake.iter().map(|&k| Vec::with_capacity(k)).collect(),
        };
        for (i, s) in schedules.iter().enumerate() {
            // Ascending node order keeps every offset list sorted.
            cal.insert(NodeId::from(i), s);
        }
        cal
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

    /// Every calendar offset at which `schedule` is active: each active
    /// slot `a` of its period `T` at `a + kT` for `k < period / T`.
    fn offsets(period: u32, schedule: &WorkingSchedule) -> impl Iterator<Item = usize> + '_ {
        (0..period as usize)
            .step_by(schedule.period() as usize)
            .flat_map(move |base| {
                schedule
                    .active_slots()
                    .iter()
                    .map(move |&a| base + a as usize)
            })
    }

    /// The three tables, writable: each is copied first if a clone
    /// still shares it.
    fn tables_mut(&mut self) -> (&mut [u64], &mut [u64], &mut [Vec<NodeId>]) {
        (
            Arc::make_mut(&mut self.bits),
            Arc::make_mut(&mut self.summary),
            Arc::make_mut(&mut self.lists),
        )
    }

    /// Add `node` at every calendar offset of `schedule` (keeps lists
    /// sorted).
    fn insert(&mut self, node: NodeId, schedule: &WorkingSchedule) {
        let (wpo, sw, period) = (self.words_per_offset, self.summary_words, self.period);
        let (bits, summary, lists) = self.tables_mut();
        for o in Self::offsets(period, schedule) {
            if bitset::set_bit(&mut bits[o * wpo..(o + 1) * wpo], node.index()) {
                // The node's word is now non-zero; mark it occupied.
                bitset::set_bit(&mut summary[o * sw..(o + 1) * sw], node.index() / 64);
                let list = &mut lists[o];
                let at = list.partition_point(|&v| v < node);
                list.insert(at, node);
            }
        }
    }

    /// Remove `node` from every calendar offset of `schedule`.
    fn remove(&mut self, node: NodeId, schedule: &WorkingSchedule) {
        let (wpo, sw, period) = (self.words_per_offset, self.summary_words, self.period);
        let (bits, summary, lists) = self.tables_mut();
        for o in Self::offsets(period, schedule) {
            let row = &mut bits[o * wpo..(o + 1) * wpo];
            bitset::clear_bit(row, node.index());
            if row[node.index() / 64] == 0 {
                bitset::clear_bit(&mut summary[o * sw..(o + 1) * sw], node.index() / 64);
            }
            if let Ok(at) = lists[o].binary_search(&node) {
                lists[o].remove(at);
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

/// Per-network table of working schedules with neighbor-aware queries.
///
/// This models the state each node accumulates via low-cost local
/// synchronization protocols; we keep it network-global for simulation
/// convenience (each node only ever queries its own neighborhood).
///
/// The table carries a [`WakeCalendar`] over the least common multiple
/// of the schedules' periods, at most
/// [`NeighborTable::MAX_CALENDAR_SLOTS`] offsets: equal periods give a
/// calendar of one period, mixed periods one of their LCM. That makes
/// [`NeighborTable::is_active`] an O(1) bit probe,
/// [`NeighborTable::all_active`] a precomputed-slice walk and
/// [`NeighborTable::next_rendezvous`] a scan of at most one calendar
/// period; [`NeighborTable::set_schedule`] keeps the calendar in sync
/// when churn re-randomizes a rebooted node's schedule.
///
/// The schedules and the calendar's tables are shared immutable slices:
/// `clone()` bumps four reference counts and copies nothing, so the runs
/// of a sweep read one copy. [`NeighborTable::set_schedule`] copies on
/// write; a run that will rewrite schedules takes its own copy up front
/// with [`NeighborTable::unshare`].
#[derive(Clone, Debug)]
pub struct NeighborTable {
    schedules: Arc<[WorkingSchedule]>,
    calendar: WakeCalendar,
}

impl NeighborTable {
    /// Largest wake-calendar period, in slots: the LCM of a table's
    /// schedule periods may not exceed it. The calendar holds one
    /// active row of `n / 8` bytes per offset, so this bounds it at
    /// `10 000 × n / 8` bytes — 100× the largest period any shipped
    /// experiment, scenario or benchmark workload uses.
    pub const MAX_CALENDAR_SLOTS: u32 = 10_000;

    /// The wake-calendar period for schedules with these periods: their
    /// least common multiple, or `None` when it exceeds
    /// [`NeighborTable::MAX_CALENDAR_SLOTS`] (or a period is 0).
    pub fn calendar_period_of(periods: impl IntoIterator<Item = u32>) -> Option<u32> {
        let cap = u64::from(Self::MAX_CALENDAR_SLOTS);
        let mut lcm = 1u64;
        for p in periods {
            let p = u64::from(p);
            if p == 0 || p > cap {
                return None;
            }
            let (mut a, mut b) = (lcm, p);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            lcm = lcm / a * p;
            if lcm > cap {
                return None;
            }
        }
        Some(lcm as u32)
    }

    /// Build from one schedule per node. Panics when the LCM of the
    /// periods exceeds [`NeighborTable::MAX_CALENDAR_SLOTS`]; untrusted
    /// input is checked against [`NeighborTable::calendar_period_of`]
    /// first.
    pub fn new(schedules: Vec<WorkingSchedule>) -> Self {
        Self::from_shared(schedules.into())
    }

    fn from_shared(schedules: Arc<[WorkingSchedule]>) -> Self {
        assert!(!schedules.is_empty());
        let period = Self::calendar_period_of(schedules.iter().map(WorkingSchedule::period))
            .expect("the LCM of the schedule periods exceeds the calendar cap");
        let calendar = WakeCalendar::build(&schedules, period);
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
        Self::from_shared(
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
        self.calendar.is_active(node, t)
    }

    /// Replace the schedule of `node` (a rebooted mote re-enters the
    /// duty-cycle lottery with a fresh working schedule). The new
    /// schedule must keep the node's period, so the calendar period
    /// stands. The calendar is updated incrementally: the node moves
    /// from its old offsets to the new ones. While a clone shares the
    /// table, the first call copies it (see [`NeighborTable::unshare`]).
    pub fn set_schedule(&mut self, node: NodeId, schedule: WorkingSchedule) {
        assert_eq!(
            schedule.period(),
            self.schedules[node.index()].period(),
            "replacement schedule must keep the period"
        );
        self.calendar.remove(node, &self.schedules[node.index()]);
        self.calendar.insert(node, &schedule);
        Arc::make_mut(&mut self.schedules)[node.index()] = schedule;
    }

    /// Take a private copy of every table a clone still shares, so that
    /// later [`NeighborTable::set_schedule`] calls copy nothing. A table
    /// this one already owns alone is left as it is.
    pub fn unshare(&mut self) {
        Arc::make_mut(&mut self.schedules);
        self.calendar.tables_mut();
    }

    /// The largest sum of `weight` over the nodes awake at one calendar
    /// offset: with `|_| 1`, the most nodes ever awake in one slot; with
    /// a node's degree, the most (awake node, neighbor) pairs. Slot-loop
    /// buffers are sized by it.
    pub fn busiest_offset(&self, mut weight: impl FnMut(NodeId) -> usize) -> usize {
        self.calendar
            .lists
            .iter()
            .map(|list| list.iter().map(|&v| weight(v)).sum())
            .max()
            .unwrap_or(0)
    }

    /// All nodes active at slot `t`, in ascending id order.
    #[inline]
    pub fn all_active(&self, t: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.calendar.lists[self.calendar.offset_of(t)]
            .iter()
            .copied()
    }

    /// Number of nodes active at slot `t`.
    #[inline]
    pub fn active_count(&self, t: u64) -> usize {
        self.calendar.lists[self.calendar.offset_of(t)].len()
    }

    /// Packed bitset over the nodes active at slot `t`
    /// ([`crate::bitset::words_for`]`(n_nodes)` words). Hot paths
    /// intersect this with possession and crash rows to enumerate awake
    /// receivers word by word.
    #[inline]
    pub fn active_words(&self, t: u64) -> &[u64] {
        self.calendar.words(self.calendar.offset_of(t))
    }

    /// The calendar period: the LCM of the schedules' periods. The wake
    /// pattern — and so every per-slot active count — repeats with
    /// exactly this period.
    #[inline]
    pub fn calendar_period(&self) -> u32 {
        self.calendar.period
    }

    /// Number of `u64` words in each summary row the calendar keeps per
    /// offset (`words_for(words_for(n_nodes))`), i.e. the length
    /// `targets_summary` must have in [`NeighborTable::next_rendezvous`].
    #[inline]
    pub fn summary_words(&self) -> usize {
        self.calendar.summary_words
    }

    /// Smallest slot `t >= from` at which any node of `targets` (a
    /// packed bitset over node ids, `words_for(n_nodes)` words) is
    /// active, or `None` when no offset of the whole calendar period
    /// wakes one.
    ///
    /// `targets_summary` must be the word-occupancy summary of
    /// `targets` — bit `w` set ⇔ `targets[w] != 0`, as produced by
    /// [`bitset::summarize_into`] — sized per
    /// [`NeighborTable::summary_words`]. The scan visits at most
    /// `calendar_period` offsets, each rejected via its occupancy
    /// summary (1/64th of the row words) with full words probed only
    /// on summary collisions, so a miss costs O(period × n/4096) words
    /// rather than O(period × n/64).
    pub fn next_rendezvous(
        &self,
        from: u64,
        targets: &[u64],
        targets_summary: &[u64],
    ) -> Option<u64> {
        let cal = &self.calendar;
        (from..from + cal.period as u64)
            .find(|&t| cal.rendezvous_at(cal.offset_of(t), targets, targets_summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }

    #[test]
    fn all_active_at_slot() {
        let t = table();
        let at2: Vec<NodeId> = t.all_active(2).collect();
        assert_eq!(at2, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn random_single_slot_has_unit_duty() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = NeighborTable::random_single_slot(50, 20, &mut rng);
        assert_eq!(t.n_nodes(), 50);
        for i in 0..50usize {
            assert!((t.schedule(NodeId::from(i)).duty_ratio() - 0.05).abs() < 1e-12);
        }
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
            let from_words: Vec<NodeId> = crate::bitset::iter_ones(t.active_words(slot))
                .map(NodeId::from)
                .collect();
            assert_eq!(from_words, scan, "active_words at slot {slot}");
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
        assert_eq!(
            t.calendar_period(),
            12,
            "equal periods ⇒ one-period calendar"
        );
        assert_queries_match_scan(&t, 30);
    }

    #[test]
    fn mixed_periods_build_an_lcm_calendar() {
        let mut t = NeighborTable::new(vec![
            WorkingSchedule::new(5, vec![0]),
            WorkingSchedule::new(3, vec![1]),
            WorkingSchedule::always_on(),
            WorkingSchedule::new(6, vec![2, 5]),
        ]);
        assert_eq!(t.calendar_period(), 30, "lcm(5, 3, 1, 6)");
        assert_queries_match_scan(&t, 70);
        // A replacement keeps the node's own period and moves every one
        // of its calendar copies.
        t.set_schedule(NodeId(1), WorkingSchedule::new(3, vec![0, 2]));
        t.set_schedule(NodeId(3), WorkingSchedule::new(6, vec![4]));
        assert_queries_match_scan(&t, 70);
    }

    #[test]
    fn calendar_period_is_the_capped_lcm() {
        assert_eq!(NeighborTable::calendar_period_of([10, 20, 40]), Some(40));
        assert_eq!(NeighborTable::calendar_period_of([4, 6, 9]), Some(36));
        assert_eq!(NeighborTable::calendar_period_of([7]), Some(7));
        let cap = NeighborTable::MAX_CALENDAR_SLOTS;
        assert_eq!(NeighborTable::calendar_period_of([cap]), Some(cap));
        assert_eq!(NeighborTable::calendar_period_of([cap + 1]), None);
        assert_eq!(NeighborTable::calendar_period_of([99, 101]), Some(9_999));
        assert_eq!(NeighborTable::calendar_period_of([100, 101]), None);
        assert_eq!(NeighborTable::calendar_period_of([0]), None);
        assert_eq!(NeighborTable::calendar_period_of([u32::MAX, 2]), None);
    }

    #[test]
    #[should_panic(expected = "calendar cap")]
    fn rejects_a_calendar_above_the_cap() {
        // lcm(9 999, 10 000) ≈ 10⁸: refused before anything is allocated.
        let _ = NeighborTable::new(vec![
            WorkingSchedule::new(9_999, vec![0]),
            WorkingSchedule::new(10_000, vec![0]),
        ]);
    }

    /// Brute-force reference for `next_rendezvous`: scan slot by slot.
    fn brute_next_rendezvous(t: &NeighborTable, from: u64, targets: &[NodeId]) -> Option<u64> {
        let period = t.calendar_period() as u64;
        (from..from + period).find(|&slot| targets.iter().any(|&v| t.is_active(v, slot)))
    }

    /// Query `next_rendezvous` for an explicit target set, exercising
    /// the packed-row + summary path.
    fn query_rendezvous(t: &NeighborTable, from: u64, targets: &[NodeId]) -> Option<u64> {
        let mut words = vec![0u64; bitset::words_for(t.n_nodes())];
        for &v in targets {
            bitset::set_bit(&mut words, v.index());
        }
        let mut summary = vec![0u64; t.summary_words()];
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
    fn next_rendezvous_spans_the_lcm() {
        // Periods 6 and 10 share no wake offset below slot 30: a target
        // set of one node of each answers only within the LCM.
        let mut rng = StdRng::seed_from_u64(31);
        let t = NeighborTable::new(
            (0..150)
                .map(|i| WorkingSchedule::single_random([6, 10, 15][i % 3], &mut rng))
                .collect(),
        );
        assert_eq!(t.calendar_period(), 30);
        let mut pick = StdRng::seed_from_u64(6);
        for from in 0..70u64 {
            use rand::Rng;
            let k = pick.random_range(0..4usize);
            let targets: Vec<NodeId> = (0..k)
                .map(|_| NodeId(pick.random_range(0..150u32)))
                .collect();
            assert_eq!(
                query_rendezvous(&t, from, &targets),
                brute_next_rendezvous(&t, from, &targets),
                "from={from} targets={targets:?}"
            );
        }
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
