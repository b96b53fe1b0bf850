//! The engine-facing fault-plan trait and its zero-cost null plan.

use ldcf_net::{NeighborTable, NodeId, WorkingSchedule};

/// A churn event the engine must apply at the start of a slot.
#[derive(Clone, Debug)]
pub enum ChurnAction {
    /// The node crashes: it loses its packets and queue, stops waking,
    /// and is invisible to the network until it recovers.
    Crash(NodeId),
    /// The node reboots with a fresh (re-randomized) working schedule —
    /// a rebooted sensor re-enters the duty-cycle lottery, it does not
    /// resume its old wake pattern.
    Recover(NodeId, WorkingSchedule),
}

/// Injects faults into the engine's slot loop.
///
/// Mirrors `ldcf_obs::SimObserver`: the engine is generic over its
/// fault plan and consults `Self::ENABLED` (a `const`) at every hook,
/// so with the default [`NullFaultPlan`] each hook monomorphizes to
/// dead code and the fault-free hot path pays nothing.
///
/// Implementations own their randomness (seeded independently of the
/// engine RNG). Hooks that modulate an engine draw — [`link_prr`] — must
/// only change the *threshold* of that draw, never cause the engine to
/// draw more or fewer random numbers.
///
/// [`link_prr`]: FaultPlan::link_prr
pub trait FaultPlan {
    /// Whether the engine should invoke fault hooks at all.
    /// Implementations that inject faults leave this `true`.
    const ENABLED: bool = true;

    /// Called once at slot 0 with the network size; draw per-node
    /// parameters (drift rates, first crash times, ...) here.
    fn on_start(&mut self, n_nodes: usize);

    /// Effective delivery probability for one loss draw on the link
    /// `sender → receiver` at `slot`, given the static `base` PRR.
    /// Called exactly once per engine loss draw.
    fn link_prr(&mut self, sender: NodeId, receiver: NodeId, base: f64, slot: u64) -> f64;

    /// Whether the link `sender → receiver` is currently in a
    /// burst-loss (bad channel) state — used to tag loss events that a
    /// burst caused. Only meaningful right after a [`link_prr`] query
    /// for the same link.
    ///
    /// [`link_prr`]: FaultPlan::link_prr
    fn in_burst(&self, _sender: NodeId, _receiver: NodeId) -> bool {
        false
    }

    /// Whether `sender`'s transmission at `slot` misses its rendezvous
    /// because of accumulated clock drift. The plan performs the draw
    /// itself (with its own RNG).
    fn drift_miss(&mut self, _sender: NodeId, _slot: u64) -> bool {
        false
    }

    /// Append the churn actions due at `slot` to `out`, in
    /// deterministic order. `schedules` is the current schedule table:
    /// a [`ChurnAction::Recover`] schedule must keep the recovering
    /// node's period.
    fn churn_actions(
        &mut self,
        _slot: u64,
        _schedules: &NeighborTable,
        _out: &mut Vec<ChurnAction>,
    ) {
    }

    /// Base backoff (in slots) for the source-side retry of packets
    /// whose dissemination a crash interrupted; the engine doubles it
    /// per attempt. `None` disables source retry.
    fn source_retry_backoff(&self) -> Option<u64> {
        None
    }

    /// The earliest future slot at which [`churn_actions`] may yield an
    /// action, given the plan's current pending transitions. The
    /// event-driven engine must dispatch (not skip over) that slot, or
    /// a crash/recovery would land later than the slot-stepped engine
    /// applies it. `u64::MAX` promises the plan will never churn;
    /// the conservative default `0` means "may act at any slot" and
    /// disables slot skipping entirely.
    ///
    /// [`churn_actions`]: FaultPlan::churn_actions
    fn churn_horizon(&self) -> u64 {
        0
    }
}

/// The default do-nothing fault plan; `ENABLED = false` compiles every
/// fault hook out of the engine, keeping the fault-free hot path
/// byte-identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullFaultPlan;

impl FaultPlan for NullFaultPlan {
    const ENABLED: bool = false;

    #[inline(always)]
    fn on_start(&mut self, _n_nodes: usize) {}

    #[inline(always)]
    fn link_prr(&mut self, _sender: NodeId, _receiver: NodeId, base: f64, _slot: u64) -> f64 {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_plan_is_disabled_and_inert() {
        assert!(!NullFaultPlan::ENABLED);
        let mut plan = NullFaultPlan;
        plan.on_start(10);
        assert_eq!(plan.link_prr(NodeId(0), NodeId(1), 0.73, 42), 0.73);
        assert!(!plan.in_burst(NodeId(0), NodeId(1)));
        assert!(!plan.drift_miss(NodeId(0), 42));
        let mut out = Vec::new();
        let schedules = NeighborTable::new(vec![WorkingSchedule::always_on()]);
        plan.churn_actions(42, &schedules, &mut out);
        assert!(out.is_empty());
        assert_eq!(plan.source_retry_backoff(), None);
        assert_eq!(plan.churn_horizon(), 0, "default horizon forbids skipping");
    }
}
