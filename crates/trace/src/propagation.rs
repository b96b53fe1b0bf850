//! Log-distance path-loss propagation with log-normal shadowing.
//!
//! The standard outdoor WSN model: received power at distance `d` is
//!
//! ```text
//! RSSI(d) = P_tx - PL(d0) - 10·n·log10(d/d0) + X_sigma
//! ```
//!
//! where `n` is the path-loss exponent (forests: 3–4 because of foliage),
//! and `X_sigma ~ N(0, sigma²)` is shadowing. Per-*pair* shadowing is
//! drawn once (obstacles are static), while per-*measurement* fading is
//! drawn per sample in [`crate::prr::PrrModel::long_term_prr`].

use crate::deploy::standard_normal;
use rand::Rng;

/// Propagation model parameters (CC2420-class radio in forest).
#[derive(Clone, Debug)]
pub struct Propagation {
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Path loss at the reference distance, in dB.
    pub pl_d0_db: f64,
    /// Reference distance in metres.
    pub d0: f64,
    /// Path-loss exponent (forest: ~3.5).
    pub exponent: f64,
    /// Standard deviation of static (per-pair) shadowing, in dB.
    pub shadowing_sigma_db: f64,
    /// Standard deviation of per-measurement fading, in dB.
    pub fading_sigma_db: f64,
}

impl Default for Propagation {
    fn default() -> Self {
        Self {
            tx_power_dbm: 0.0, // CC2420 max
            pl_d0_db: 40.0,
            d0: 1.0,
            exponent: 2.8,
            shadowing_sigma_db: 4.0,
            fading_sigma_db: 2.0,
        }
    }
}

impl Propagation {
    /// Deterministic mean RSSI (dBm) at distance `d` metres (no shadowing).
    pub fn mean_rssi(&self, d: f64) -> f64 {
        let d = d.max(self.d0); // inside the reference distance, clamp
        self.tx_power_dbm - self.pl_d0_db - 10.0 * self.exponent * (d / self.d0).log10()
    }

    /// Mean RSSI plus one static per-pair shadowing draw.
    pub fn shadowed_rssi<R: Rng + ?Sized>(&self, d: f64, rng: &mut R) -> f64 {
        self.mean_rssi(d) + standard_normal(rng) * self.shadowing_sigma_db
    }

    /// One instantaneous RSSI measurement around a (shadowed) mean.
    pub fn measure<R: Rng + ?Sized>(&self, shadowed_mean: f64, rng: &mut R) -> f64 {
        shadowed_mean + standard_normal(rng) * self.fading_sigma_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rssi_decreases_with_distance() {
        let p = Propagation::default();
        let mut prev = f64::INFINITY;
        for d in [1.0, 5.0, 10.0, 30.0, 60.0, 100.0] {
            let r = p.mean_rssi(d);
            assert!(r < prev, "RSSI must be monotone decreasing");
            prev = r;
        }
    }

    #[test]
    fn reference_distance_clamps() {
        let p = Propagation::default();
        assert_eq!(p.mean_rssi(0.0), p.mean_rssi(p.d0));
    }

    #[test]
    fn shadowing_spreads_around_mean() {
        let p = Propagation::default();
        let mut rng = StdRng::seed_from_u64(9);
        let d = 30.0;
        let n = 10_000;
        let draws: Vec<f64> = (0..n).map(|_| p.shadowed_rssi(d, &mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        assert!((mean - p.mean_rssi(d)).abs() < 0.2);
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((var.sqrt() - p.shadowing_sigma_db).abs() < 0.2);
    }
}
