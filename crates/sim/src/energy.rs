//! Energy accounting and lifetime model.
//!
//! §V-C2: "The receiver-side energy consumption is determined by its
//! working schedule and the energy consumption for successful packet
//! transmissions is the same in different systems. Thus, the energy
//! consumed by both transmission failures and the duty cycle operation
//! are mainly related to the energy consumption in the network." The
//! ledger tracks exactly those components so the Fig. 10 + Fig. 11
//! "overall benefit" argument (lifetime grows linearly while delay grows
//! exponentially as duty shrinks) can be reproduced quantitatively.

use serde::{Deserialize, Serialize};

/// Radio energy cost model, in normalized charge units per slot.
/// Defaults are CC2420-class ratios (rx ≈ tx ≈ idle-listen).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Cost of one active (listening) slot.
    pub listen: f64,
    /// Cost of one transmission slot.
    pub tx: f64,
    /// Cost of one reception slot (on top of the listen already paid).
    pub rx_extra: f64,
    /// Cost of a dormant slot (timer only).
    pub sleep: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            listen: 1.0,
            tx: 1.1,
            rx_extra: 0.1,
            sleep: 0.001,
        }
    }
}

/// Per-network energy ledger.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Scheduled active slots accumulated (all nodes).
    pub active_slots: u64,
    /// Dormant slots accumulated (all nodes).
    pub sleep_slots: u64,
    /// Transmission slots (including failed ones).
    pub tx_slots: u64,
    /// Reception slots.
    pub rx_slots: u64,
    /// Of the tx slots, how many were wasted on failures.
    pub failed_tx_slots: u64,
}

impl EnergyLedger {
    /// Total charge consumed under `model`.
    pub fn total(&self, model: &EnergyModel) -> f64 {
        self.active_slots as f64 * model.listen
            + self.sleep_slots as f64 * model.sleep
            + self.tx_slots as f64 * model.tx
            + self.rx_slots as f64 * model.rx_extra
    }
}

/// Idle-network lifetime (no traffic): battery / (duty·listen +
/// (1-duty)·sleep) slots. Useful as the closed-form check that lifetime
/// scales ~1/duty.
pub fn idle_lifetime_slots(model: &EnergyModel, duty: f64, capacity: f64) -> f64 {
    assert!(duty > 0.0 && duty <= 1.0);
    capacity / (duty * model.listen + (1.0 - duty) * model.sleep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_totals() {
        let m = EnergyModel::default();
        let l = EnergyLedger {
            active_slots: 100,
            sleep_slots: 1900,
            tx_slots: 10,
            rx_slots: 8,
            failed_tx_slots: 3,
        };
        let total = l.total(&m);
        assert!((total - (100.0 + 1.9 + 11.0 + 0.8)).abs() < 1e-9);
    }

    #[test]
    fn lifetime_scales_inverse_duty() {
        let m = EnergyModel::default();
        let l5 = idle_lifetime_slots(&m, 0.05, 1000.0);
        let l10 = idle_lifetime_slots(&m, 0.10, 1000.0);
        // Halving duty roughly doubles lifetime (sleep cost is small).
        let ratio = l5 / l10;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }
}
