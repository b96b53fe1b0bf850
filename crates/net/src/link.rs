//! Unreliable wireless links (paper §III-B, §IV-B).
//!
//! Each directed link carries a *packet reception ratio* (PRR) — the
//! probability that a single unicast transmission over the link succeeds.
//! §IV-B quantifies quality through the *k-class* abstraction: a k-class
//! link delivers a packet with high probability within `k` transmissions.
//! The paper's Fig. 7 legend maps link quality `p` to
//! `k = 1/p` (expected transmission count, i.e. ETX):
//! 80 % → 1.25, 70 % → 1.42..., 60 % → 1.67, 50 % → 2.

use serde::{Deserialize, Serialize};

/// Quality of a (directed) wireless link, stored as PRR in `(0, 1]`.
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug, Serialize, Deserialize)]
pub struct LinkQuality(f64);

impl LinkQuality {
    /// A perfect (loss-free) link, the paper's "ideal network" case.
    pub const PERFECT: LinkQuality = LinkQuality(1.0);

    /// Construct from a PRR. Panics on values outside `(0, 1]` — a zero
    /// quality link is simply absent from the topology.
    pub fn new(prr: f64) -> Self {
        assert!(
            prr > 0.0 && prr <= 1.0 && prr.is_finite(),
            "PRR must be in (0,1], got {prr}"
        );
        Self(prr)
    }

    /// Construct, clamping into `[min_prr, 1]`. Useful when deriving PRR
    /// from noisy RSSI where the sigmoid can underflow.
    pub fn clamped(prr: f64, min_prr: f64) -> Self {
        Self::new(prr.clamp(min_prr, 1.0))
    }

    /// The packet reception ratio in `(0, 1]`.
    #[inline]
    pub fn prr(self) -> f64 {
        self.0
    }

    /// Expected number of transmissions for one success (ETX = `1/PRR`).
    /// This is the paper's fractional `k` (Fig. 7 legend).
    #[inline]
    pub fn etx(self) -> f64 {
        1.0 / self.0
    }

    /// The integer k-class at a confidence level: the smallest `k` with
    /// `1 - (1-p)^k >= confidence` ("with high probability, a packet can
    /// be transmitted successfully via k transmission(s)", §IV-B).
    pub fn k_class(self, confidence: f64) -> u32 {
        assert!(
            (0.0..1.0).contains(&confidence),
            "confidence must be in [0,1)"
        );
        if self.0 >= 1.0 {
            return 1;
        }
        let q = 1.0 - self.0;
        // Smallest k with q^k <= 1 - confidence.
        let k = ((1.0 - confidence).ln() / q.ln()).ceil();
        (k as u32).max(1)
    }
}

impl Default for LinkQuality {
    fn default() -> Self {
        Self::PERFECT
    }
}

/// A directed link between two nodes with a quality.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting endpoint.
    pub from: crate::NodeId,
    /// Receiving endpoint.
    pub to: crate::NodeId,
    /// Link quality (PRR).
    pub quality: LinkQuality,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etx_is_reciprocal_prr() {
        assert!((LinkQuality::new(0.8).etx() - 1.25).abs() < 1e-12);
        assert!((LinkQuality::new(0.5).etx() - 2.0).abs() < 1e-12);
        assert_eq!(LinkQuality::PERFECT.etx(), 1.0);
    }

    #[test]
    fn paper_fig7_k_values() {
        // Fig. 7 legend: quality -> expected transmission time k = 1/p.
        for (p, k) in [(0.8, 1.25), (0.7, 1.0 / 0.7), (0.6, 1.0 / 0.6), (0.5, 2.0)] {
            assert!((LinkQuality::new(p).etx() - k).abs() < 1e-9);
        }
    }

    #[test]
    fn k_class_confidence() {
        let l = LinkQuality::new(0.5);
        // 1-(0.5)^k >= 0.9 -> k >= 3.32 -> 4
        assert_eq!(l.k_class(0.9), 4);
        assert_eq!(l.k_class(0.5), 1);
        assert_eq!(LinkQuality::PERFECT.k_class(0.999), 1);
    }

    #[test]
    fn k_class_monotone_in_confidence() {
        let l = LinkQuality::new(0.7);
        let mut prev = 0;
        for c in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let k = l.k_class(c);
            assert!(k >= prev);
            prev = k;
        }
    }

    #[test]
    fn clamped_respects_floor() {
        let l = LinkQuality::clamped(1e-9, 0.01);
        assert!((l.prr() - 0.01).abs() < 1e-12);
        let h = LinkQuality::clamped(5.0, 0.01);
        assert_eq!(h.prr(), 1.0);
    }

    #[test]
    #[should_panic(expected = "PRR must be in (0,1]")]
    fn rejects_zero_prr() {
        let _ = LinkQuality::new(0.0);
    }
}
