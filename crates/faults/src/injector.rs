//! Fault composition: a declarative [`FaultConfig`] and the
//! [`FaultInjector`] plan that executes any subset of the models.

use crate::churn::{ChurnConfig, NodeChurn};
use crate::degradation::{DegradationConfig, KClassDegradation};
use crate::drift::{ClockDrift, DriftConfig};
use crate::gilbert_elliott::{GilbertElliott, GilbertElliottConfig};
use crate::plan::{ChurnAction, FaultPlan};
use ldcf_net::{NeighborTable, NodeId};

/// Declarative description of the faults to inject into one run.
///
/// Each model is optional; [`FaultConfig::build`] turns the description
/// into a live [`FaultInjector`]. Sub-model RNGs are derived from
/// `seed` with distinct stream constants, so one seed fully determines
/// every fault in the run.
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    /// Master fault seed (independent of the simulation seed).
    pub seed: u64,
    /// Gilbert–Elliott burst loss.
    pub burst: Option<GilbertElliottConfig>,
    /// Time-varying k-class PRR degradation.
    pub degradation: Option<DegradationConfig>,
    /// Per-node clock drift (missed rendezvous).
    pub drift: Option<DriftConfig>,
    /// Node crash/reboot churn.
    pub churn: Option<ChurnConfig>,
}

impl FaultConfig {
    /// No faults at all (an enabled plan that injects nothing — for the
    /// genuinely zero-cost path use `NullFaultPlan` instead).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Every fault model scaled by a single `intensity` knob in
    /// `[0, 1]`: 0 means no fault model is active, 1 the harshest
    /// campaign setting. Used by the `experiments resilience`
    /// degradation-curve sweep; all models worsen monotonically in
    /// `intensity`.
    pub fn at_intensity(seed: u64, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "intensity must be in [0,1]"
        );
        if intensity <= 0.0 {
            return Self::none(seed);
        }
        Self {
            seed,
            burst: Some(GilbertElliottConfig {
                // Bad-state fraction grows with intensity (20% at 1.0);
                // mean burst length 25 slots.
                p_gb: 0.01 * intensity,
                p_bg: 0.04,
                bad_factor: 0.1,
            }),
            degradation: Some(DegradationConfig {
                classes: 3,
                depth: 0.4 * intensity,
                episode_len: 200,
                cycle_len: 1_000,
                phase: 0,
            }),
            drift: Some(DriftConfig {
                // Up to 0.02% of a slot of error per slot at full
                // intensity; with re-sync every 500 slots the miss
                // probability peaks at ~10%.
                max_rate: 2.0e-4 * intensity,
                resync_interval: 500,
                max_miss_prob: 0.25,
            }),
            churn: Some(ChurnConfig {
                // At full intensity a sensor crashes about once per
                // 40k slots and stays down ~2k slots.
                mean_uptime: 40_000.0 / intensity,
                mean_downtime: 2_000.0,
                retry_backoff: 200,
            }),
        }
    }

    /// Keep only the burst and drift models (drop degradation and
    /// churn). Burst + drift leave working schedules static, which the
    /// forensics reconstruction requires — this is the profile CI runs
    /// its faulted-trace forensics pass on.
    pub fn burst_and_drift_only(mut self) -> Self {
        self.degradation = None;
        self.churn = None;
        self
    }

    /// Keep only the churn model (drop burst, degradation and drift).
    /// Churn is the one fault model whose recovery path is allowed to
    /// allocate (a rebooted node redraws its working schedule); the
    /// allocation-gate tests use this profile to budget that path in
    /// isolation, with every steady-state model stripped away.
    pub fn churn_only(mut self) -> Self {
        self.burst = None;
        self.degradation = None;
        self.drift = None;
        self
    }

    /// Instantiate the configured models.
    pub fn build(&self) -> FaultInjector {
        FaultInjector {
            burst: self
                .burst
                .map(|c| GilbertElliott::new(c, self.seed ^ 0x47_42_55_52_53_54)),
            degradation: self.degradation.map(KClassDegradation::new),
            drift: self
                .drift
                .map(|c| ClockDrift::new(c, self.seed ^ 0x44_52_49_46_54)),
            churn: self
                .churn
                .map(|c| NodeChurn::new(c, self.seed ^ 0x43_48_55_52_4e)),
        }
    }
}

/// A live fault plan composing any subset of the fault models.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    burst: Option<GilbertElliott>,
    degradation: Option<KClassDegradation>,
    drift: Option<ClockDrift>,
    churn: Option<NodeChurn>,
}

impl FaultInjector {
    /// The burst model, if configured.
    pub fn burst(&self) -> Option<&GilbertElliott> {
        self.burst.as_ref()
    }

    /// The degradation model, if configured.
    pub fn degradation(&self) -> Option<&KClassDegradation> {
        self.degradation.as_ref()
    }

    /// The drift model, if configured.
    pub fn drift(&self) -> Option<&ClockDrift> {
        self.drift.as_ref()
    }

    /// The churn model, if configured.
    pub fn churn(&self) -> Option<&NodeChurn> {
        self.churn.as_ref()
    }
}

impl FaultPlan for FaultInjector {
    fn on_start(&mut self, n_nodes: usize) {
        if let Some(d) = &mut self.drift {
            d.on_start(n_nodes);
        }
        if let Some(c) = &mut self.churn {
            c.on_start(n_nodes);
        }
    }

    fn link_prr(&mut self, sender: NodeId, receiver: NodeId, base: f64, slot: u64) -> f64 {
        let mut prr = base;
        if let Some(d) = &self.degradation {
            prr *= d.multiplier(base, slot);
        }
        if let Some(b) = &mut self.burst {
            prr *= b.multiplier(sender, receiver, slot);
        }
        prr
    }

    fn in_burst(&self, sender: NodeId, receiver: NodeId) -> bool {
        self.burst
            .as_ref()
            .map(|b| b.is_bad(sender, receiver))
            .unwrap_or(false)
    }

    fn drift_miss(&mut self, sender: NodeId, slot: u64) -> bool {
        self.drift
            .as_mut()
            .map(|d| d.miss(sender, slot))
            .unwrap_or(false)
    }

    fn churn_actions(&mut self, slot: u64, schedules: &NeighborTable, out: &mut Vec<ChurnAction>) {
        if let Some(c) = &mut self.churn {
            c.actions(slot, schedules, out);
        }
    }

    fn source_retry_backoff(&self) -> Option<u64> {
        self.churn.as_ref().and_then(|c| c.retry_backoff())
    }

    /// Burst, degradation and drift are slot-indexed (fast-forwarded on
    /// demand), so only churn constrains how far the event engine may
    /// skip: up to — but not past — the next pending transition.
    fn churn_horizon(&self) -> u64 {
        match &self.churn {
            Some(c) => c.next_action_at().unwrap_or(u64::MAX),
            None => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn table() -> NeighborTable {
        NeighborTable::random_single_slot(10, 20, &mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn none_config_is_inert() {
        let mut inj = FaultConfig::none(7).build();
        inj.on_start(10);
        assert_eq!(inj.link_prr(NodeId(0), NodeId(1), 0.8, 5), 0.8);
        assert!(!inj.in_burst(NodeId(0), NodeId(1)));
        assert!(!inj.drift_miss(NodeId(0), 5));
        let mut out = Vec::new();
        inj.churn_actions(5, &table(), &mut out);
        assert!(out.is_empty());
        assert_eq!(inj.source_retry_backoff(), None);
    }

    #[test]
    fn zero_intensity_configures_nothing() {
        let cfg = FaultConfig::at_intensity(1, 0.0);
        assert!(cfg.burst.is_none() && cfg.churn.is_none());
        assert!(cfg.degradation.is_none() && cfg.drift.is_none());
    }

    #[test]
    fn intensity_scales_monotonically() {
        let lo = FaultConfig::at_intensity(1, 0.25);
        let hi = FaultConfig::at_intensity(1, 1.0);
        assert!(lo.burst.unwrap().stationary_bad() < hi.burst.unwrap().stationary_bad());
        assert!(lo.degradation.unwrap().depth < hi.degradation.unwrap().depth);
        assert!(lo.drift.unwrap().max_rate < hi.drift.unwrap().max_rate);
        assert!(lo.churn.unwrap().mean_uptime > hi.churn.unwrap().mean_uptime);
    }

    #[test]
    fn full_intensity_reduces_effective_prr() {
        let mut inj = FaultConfig::at_intensity(3, 1.0).build();
        inj.on_start(20);
        // Average the effective PRR over many slots of one link: the
        // degradation episodes plus burst states must pull it below
        // the static base.
        let base = 0.8;
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|t| inj.link_prr(NodeId(1), NodeId(2), base, t))
            .sum::<f64>()
            / n as f64;
        assert!(
            mean < base - 0.02,
            "mean effective PRR {mean} vs base {base}"
        );
        assert!(mean > 0.3, "faults must degrade, not annihilate: {mean}");
    }

    #[test]
    fn burst_and_drift_only_strips_dynamic_topology_models() {
        let cfg = FaultConfig::at_intensity(1, 0.5).burst_and_drift_only();
        assert!(cfg.burst.is_some() && cfg.drift.is_some());
        assert!(cfg.degradation.is_none() && cfg.churn.is_none());
        assert_eq!(cfg.build().source_retry_backoff(), None);
    }

    #[test]
    fn churn_only_strips_everything_else() {
        let cfg = FaultConfig::at_intensity(1, 0.5).churn_only();
        assert!(cfg.churn.is_some());
        assert!(cfg.burst.is_none() && cfg.degradation.is_none() && cfg.drift.is_none());
        assert!(cfg.build().source_retry_backoff().is_some());
    }

    #[test]
    fn churn_horizon_tracks_the_next_pending_transition() {
        let mut inj = FaultConfig::none(7).build();
        inj.on_start(10);
        assert_eq!(inj.churn_horizon(), u64::MAX, "no churn model: skip freely");

        let mut inj = FaultConfig::at_intensity(1, 1.0).churn_only().build();
        inj.on_start(10);
        let h = inj.churn_horizon();
        assert!(h > 0 && h < u64::MAX, "pending transitions bound the skip");
        let mut out = Vec::new();
        inj.churn_actions(h, &table(), &mut out);
        assert!(!out.is_empty(), "the horizon slot itself carries an action");
        assert!(inj.churn_horizon() > h, "popping advances the horizon");
    }

    #[test]
    fn seeded_builds_are_deterministic() {
        let mk = || {
            let mut inj = FaultConfig::at_intensity(11, 0.7).build();
            inj.on_start(15);
            (0..500)
                .map(|t| inj.link_prr(NodeId(2), NodeId(3), 0.7, t))
                .collect::<Vec<f64>>()
        };
        assert_eq!(mk(), mk());
    }
}
