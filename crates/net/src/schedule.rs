//! Periodic working schedules (paper §III-A).
//!
//! A sensor alternates between an *active* and a *dormant* state. The
//! working schedule is periodic with period `T` slots; the sensor is
//! active in a fixed subset of slots of each period and dormant in the
//! rest. The paper's normalized analysis picks exactly **one** random
//! active slot per period, giving duty ratio `1/T`; the type supports any
//! number of active slots so higher duty ratios (Fig. 10's 2–20 % sweep)
//! are expressed either as `1/T` with varying `T` or as `a/T`.
//!
//! A dormant sensor can still *wake up to transmit* into a neighbor's
//! active slot (its timer fires on demand); it can only *receive* in its
//! own active slots. That asymmetry is enforced by the simulator, not
//! here — the schedule just answers "is node active at slot `t`?" and
//! "when is its next active slot?".

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A periodic active/dormant working schedule.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct WorkingSchedule {
    /// Period length `T` in slots.
    period: u32,
    /// Sorted, de-duplicated active slot offsets, each `< period`.
    active: Vec<u32>,
}

impl WorkingSchedule {
    /// Build a schedule from a period and a set of active slot offsets.
    ///
    /// Offsets are sorted and de-duplicated. Panics if `period == 0`, if
    /// no active slot is given, or if an offset is out of range — those
    /// are construction bugs, not runtime conditions.
    pub fn new(period: u32, mut active_slots: Vec<u32>) -> Self {
        assert!(period > 0, "schedule period must be positive");
        assert!(!active_slots.is_empty(), "schedule needs >= 1 active slot");
        active_slots.sort_unstable();
        active_slots.dedup();
        assert!(
            *active_slots.last().unwrap() < period,
            "active slot offset out of range"
        );
        Self {
            period,
            active: active_slots,
        }
    }

    /// The paper's normalized schedule: exactly one active slot, chosen
    /// uniformly at random in `0..period` (§III-A: "a sensor randomly
    /// picks up one active time slot in one period and repeats").
    pub fn single_random<R: Rng + ?Sized>(period: u32, rng: &mut R) -> Self {
        let slot = rng.random_range(0..period);
        Self::new(period, vec![slot])
    }

    /// A schedule with `count` distinct random active slots per period,
    /// for duty ratios above `1/T`.
    pub fn multi_random<R: Rng + ?Sized>(period: u32, count: u32, rng: &mut R) -> Self {
        assert!(count >= 1 && count <= period, "0 < count <= period");
        let mut offsets: Vec<u32> = (0..period).collect();
        offsets.shuffle(rng);
        offsets.truncate(count as usize);
        Self::new(period, offsets)
    }

    /// Always-on schedule (duty ratio 100 %), the degenerate `T = 1` case
    /// used by Fig. 5's "Duty Ratio = 100 %" curve.
    pub fn always_on() -> Self {
        Self::new(1, vec![0])
    }

    /// Period `T` in slots.
    #[inline]
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Number of active slots per period.
    #[inline]
    pub fn active_per_period(&self) -> u32 {
        self.active.len() as u32
    }

    /// Sorted active slot offsets within the period.
    pub fn active_slots(&self) -> &[u32] {
        &self.active
    }

    /// Duty ratio `a/T` in `(0, 1]`.
    pub fn duty_ratio(&self) -> f64 {
        self.active.len() as f64 / self.period as f64
    }

    /// Whether the node is active (can receive) at absolute slot `t`.
    #[inline]
    pub fn is_active(&self, t: u64) -> bool {
        let phase = (t % self.period as u64) as u32;
        self.active.binary_search(&phase).is_ok()
    }

    /// The first absolute slot `>= t` at which the node is active.
    ///
    /// This is the *sleep latency* primitive: a sender holding a packet at
    /// slot `t` must wait until `next_active_at_or_after(t)` to deliver it
    /// to this node.
    pub fn next_active_at_or_after(&self, t: u64) -> u64 {
        let period = self.period as u64;
        let phase = (t % period) as u32;
        match self.active.iter().find(|&&s| s >= phase) {
            Some(&s) => t + (s - phase) as u64,
            // Wrap to the first active slot of the next period.
            None => t + (period - phase as u64) + self.active[0] as u64,
        }
    }

    /// Expected waiting (in slots) from a uniformly random time until this
    /// node's next active slot. For a single-active-slot schedule this is
    /// `(T-1)/2`, matching the paper's `E[d_h] = (T-1)/2` under
    /// `P(d_h = k) = 1/T, k = 0..T-1` (Theorem 1 proof).
    pub fn mean_sleep_latency(&self) -> f64 {
        let t = self.period as f64;
        let a = self.active.len() as f64;
        // With `a` active slots evenly likely, the mean gap-to-next over a
        // uniform phase is (T/a - 1)/2 only for evenly spaced slots; for
        // exactness we average the per-phase wait.
        let total: u64 = (0..self.period)
            .map(|phase| self.next_active_at_or_after(phase as u64) - phase as u64)
            .sum();
        debug_assert!(a <= t);
        total as f64 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_slot_basics() {
        let s = WorkingSchedule::new(10, vec![3]);
        assert_eq!(s.period(), 10);
        assert_eq!(s.duty_ratio(), 0.1);
        assert!(s.is_active(3));
        assert!(s.is_active(13));
        assert!(!s.is_active(4));
    }

    #[test]
    fn next_active_wraps_period() {
        let s = WorkingSchedule::new(10, vec![3]);
        assert_eq!(s.next_active_at_or_after(0), 3);
        assert_eq!(s.next_active_at_or_after(3), 3);
        assert_eq!(s.next_active_at_or_after(4), 13);
        assert_eq!(s.next_active_at_or_after(23), 23);
    }

    #[test]
    fn multi_slot_next_active() {
        let s = WorkingSchedule::new(8, vec![1, 5]);
        assert_eq!(s.next_active_at_or_after(0), 1);
        assert_eq!(s.next_active_at_or_after(2), 5);
        assert_eq!(s.next_active_at_or_after(6), 9);
        assert_eq!(s.duty_ratio(), 0.25);
    }

    #[test]
    fn always_on_never_waits() {
        let s = WorkingSchedule::always_on();
        for t in 0..20 {
            assert!(s.is_active(t));
            assert_eq!(s.next_active_at_or_after(t), t);
        }
        assert_eq!(s.duty_ratio(), 1.0);
        assert_eq!(s.mean_sleep_latency(), 0.0);
    }

    #[test]
    fn mean_sleep_latency_single_slot() {
        // For one active slot in T, waits over phases 0..T are a
        // permutation of 0..T, so the mean is (T-1)/2.
        for t in [2u32, 5, 10, 50] {
            let s = WorkingSchedule::new(t, vec![t / 2]);
            let expect = (t as f64 - 1.0) / 2.0;
            assert!((s.mean_sleep_latency() - expect).abs() < 1e-9, "T={t}");
        }
    }

    #[test]
    fn random_schedules_are_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = WorkingSchedule::single_random(20, &mut rng);
            assert_eq!(s.active_per_period(), 1);
            assert!(s.active_slots()[0] < 20);
        }
        let m = WorkingSchedule::multi_random(20, 4, &mut rng);
        assert_eq!(m.active_per_period(), 4);
        assert!((m.duty_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dedups_and_sorts_offsets() {
        let s = WorkingSchedule::new(10, vec![7, 2, 7, 2]);
        assert_eq!(s.active_slots(), &[2, 7]);
    }

    #[test]
    #[should_panic(expected = "active slot offset out of range")]
    fn rejects_out_of_range_offset() {
        let _ = WorkingSchedule::new(5, vec![5]);
    }

    #[test]
    #[should_panic(expected = "needs >= 1 active slot")]
    fn rejects_empty_schedule() {
        let _ = WorkingSchedule::new(5, vec![]);
    }
}
