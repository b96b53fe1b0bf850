//! Clocks and local synchronization error (paper §III-B).
//!
//! The system model assumes *local synchronization*: "a sender knows
//! when it shall wake up to transmit a packet to each of its neighbors
//! according to their working schedules", citing low-cost protocols
//! (references 26 and 27 of the paper). Real clocks drift, so that knowledge is only
//! accurate up to a residual error that grows between re-synchronisation
//! points. This module provides
//!
//! * [`DriftClock`] — a crystal-oscillator clock with a fixed ppm rate
//!   error and phase offset, converting between local and global slots;
//! * [`SyncModel`] — the residual-error envelope of a periodic
//!   re-synchronisation protocol: right after a sync the error is the
//!   protocol's precision; between syncs it grows linearly with the
//!   drift rate;
//! * [`SyncModel::mistiming_probability`] — the probability that a
//!   sender targeting a 1-slot rendezvous misses it, which the simulator
//!   can inject (`SimConfig::mistiming_prob`) to quantify how sensitive
//!   flooding is to the local-sync assumption
//!   (`cargo run --release --example sync_sensitivity`).

use serde::{Deserialize, Serialize};

/// A drifting clock: local time runs at `1 + rate_ppm·1e-6` of global
/// time, with a phase offset (both in slots).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DriftClock {
    /// Rate error in parts per million (crystal tolerance; ±20–50 ppm is
    /// typical for WSN motes).
    pub rate_ppm: f64,
    /// Phase offset in slots at global time 0.
    pub offset_slots: f64,
}

impl DriftClock {
    /// A perfect clock.
    pub fn ideal() -> Self {
        Self {
            rate_ppm: 0.0,
            offset_slots: 0.0,
        }
    }

    /// Local reading (in slots, fractional) at global slot `t`.
    pub fn local_at(&self, t: u64) -> f64 {
        self.offset_slots + t as f64 * (1.0 + self.rate_ppm * 1e-6)
    }

    /// Phase error (local − global) at global slot `t`, in slots.
    pub fn error_at(&self, t: u64) -> f64 {
        self.local_at(t) - t as f64
    }

    /// Global slots until the accumulated phase error reaches `budget`
    /// slots (infinite for a perfect clock). This bounds how often two
    /// neighbors must re-synchronise to keep a 1-slot rendezvous.
    pub fn slots_to_drift(&self, budget: f64) -> f64 {
        assert!(budget > 0.0);
        if self.rate_ppm == 0.0 {
            f64::INFINITY
        } else {
            budget / (self.rate_ppm.abs() * 1e-6)
        }
    }
}

/// Residual-error envelope of a periodic local-synchronisation protocol.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SyncModel {
    /// Precision right after a sync exchange, in slots (protocol noise).
    pub precision_slots: f64,
    /// Relative drift rate between two neighbors, ppm.
    pub relative_drift_ppm: f64,
    /// Slots between re-synchronisations.
    pub resync_interval: u64,
}

impl SyncModel {
    /// A model with mote-class numbers: 0.05-slot precision, 40 ppm
    /// relative drift, re-sync every `resync_interval` slots.
    pub fn mote_class(resync_interval: u64) -> Self {
        Self {
            precision_slots: 0.05,
            relative_drift_ppm: 40.0,
            resync_interval,
        }
    }

    /// Worst-case phase error at `dt` slots after the last sync.
    pub fn error_after(&self, dt: u64) -> f64 {
        self.precision_slots + dt as f64 * self.relative_drift_ppm * 1e-6
    }

    /// Worst-case error over a full re-sync period (error at the end).
    pub fn max_error(&self) -> f64 {
        self.error_after(self.resync_interval)
    }

    /// Probability that a sender misses a neighbor's 1-slot active
    /// window, assuming the sync age is uniform over the re-sync period
    /// and the phase error is ± the envelope: a rendezvous fails when
    /// the error exceeds half a slot.
    ///
    /// With `e(dt) = precision + dt·drift`, the miss probability is the
    /// fraction of the period where `e(dt) > 0.5`.
    pub fn mistiming_probability(&self) -> f64 {
        if self.max_error() <= 0.5 {
            return 0.0;
        }
        if self.error_after(0) > 0.5 {
            return 1.0;
        }
        // dt* where the envelope crosses half a slot.
        let dt_star = (0.5 - self.precision_slots) / (self.relative_drift_ppm * 1e-6);
        (1.0 - dt_star / self.resync_interval as f64).clamp(0.0, 1.0)
    }

    /// The longest re-sync interval that keeps the miss probability at
    /// zero (error never exceeds half a slot).
    pub fn max_safe_resync_interval(&self) -> u64 {
        if self.precision_slots > 0.5 {
            return 0;
        }
        ((0.5 - self.precision_slots) / (self.relative_drift_ppm * 1e-6)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_clock_never_errs() {
        let c = DriftClock::ideal();
        assert_eq!(c.error_at(1_000_000), 0.0);
        assert!(c.slots_to_drift(0.5).is_infinite());
    }

    #[test]
    fn drift_accumulates_linearly() {
        let c = DriftClock {
            rate_ppm: 40.0,
            offset_slots: 0.0,
        };
        // 40 ppm: half a slot after 12_500 slots.
        assert!((c.error_at(12_500) - 0.5).abs() < 1e-9);
        assert!((c.slots_to_drift(0.5) - 12_500.0).abs() < 1e-6);
    }

    #[test]
    fn offset_shifts_local_time() {
        let c = DriftClock {
            rate_ppm: 0.0,
            offset_slots: 2.5,
        };
        assert_eq!(c.local_at(10), 12.5);
        assert_eq!(c.error_at(10), 2.5);
    }

    #[test]
    fn frequent_resync_means_no_misses() {
        let s = SyncModel::mote_class(1_000);
        assert!(s.max_error() < 0.5);
        assert_eq!(s.mistiming_probability(), 0.0);
    }

    #[test]
    fn stale_sync_misses_rendezvous() {
        let s = SyncModel::mote_class(100_000);
        assert!(s.max_error() > 0.5);
        let p = s.mistiming_probability();
        assert!(p > 0.0 && p < 1.0, "partial misses, got {p}");
        // A hopeless protocol (precision worse than half a slot) always
        // misses.
        let bad = SyncModel {
            precision_slots: 0.6,
            ..s
        };
        assert_eq!(bad.mistiming_probability(), 1.0);
    }

    #[test]
    fn miss_probability_grows_with_interval() {
        let mut prev = 0.0;
        for interval in [5_000u64, 20_000, 50_000, 200_000] {
            let p = SyncModel::mote_class(interval).mistiming_probability();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn safe_interval_matches_envelope() {
        let s = SyncModel::mote_class(123);
        let safe = s.max_safe_resync_interval();
        assert!(SyncModel::mote_class(safe).mistiming_probability() == 0.0);
        assert!(SyncModel::mote_class(safe + 1000).mistiming_probability() > 0.0);
    }
}
