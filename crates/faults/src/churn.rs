//! Node churn: crash/reboot dynamics with schedule re-randomization.
//!
//! Each sensor alternates exponentially-distributed up and down times
//! (means `mean_uptime` / `mean_downtime` slots). A crash wipes the
//! node's RAM — packets and forwarding queue — and takes it off the
//! air; a reboot re-enters the duty-cycle lottery with a *fresh random
//! working schedule* of its own period and active-slot count (rebooted
//! motes do not resume their old wake pattern). The source node never
//! crashes (the paper's flood originator is the one mains-powered
//! device); instead, the model
//! supplies a source-side retry backoff so floods interrupted by
//! crashes degrade instead of wedging.

use crate::plan::ChurnAction;
use ldcf_net::{NeighborTable, NodeId, WorkingSchedule, SOURCE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parameters of the churn process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Mean number of slots a node stays up before crashing.
    pub mean_uptime: f64,
    /// Mean number of slots a crashed node stays down.
    pub mean_downtime: f64,
    /// Base backoff (slots) for the engine's source-side retry of
    /// packets a crash orphaned; doubled per attempt. 0 disables retry.
    pub retry_backoff: u64,
}

impl ChurnConfig {
    fn validate(&self) {
        assert!(self.mean_uptime >= 1.0, "mean_uptime must be >= 1 slot");
        assert!(self.mean_downtime >= 1.0, "mean_downtime must be >= 1 slot");
    }
}

/// Pending transition kind; `Ord` makes heap order deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Transition {
    Crash,
    Recover,
}

/// The churn process over all sensors.
#[derive(Clone, Debug)]
pub struct NodeChurn {
    cfg: ChurnConfig,
    rng: StdRng,
    /// Min-heap of pending transitions `(slot, node, kind)`.
    pending: BinaryHeap<Reverse<(u64, u32, Transition)>>,
}

impl NodeChurn {
    /// Build the process; transitions are scheduled when the engine
    /// starts.
    pub fn new(cfg: ChurnConfig, seed: u64) -> Self {
        cfg.validate();
        Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            pending: BinaryHeap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// Exponential sample with the given mean, rounded up to >= 1 slot.
    /// Hand-rolled inverse transform — the vendored RNG only samples
    /// uniforms.
    fn exp_slots(&mut self, mean: f64) -> u64 {
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        (-u.ln() * mean).ceil().max(1.0) as u64
    }

    /// Schedule every sensor's first crash.
    pub fn on_start(&mut self, n_nodes: usize) {
        self.pending.clear();
        for ni in 0..n_nodes {
            let node = NodeId::from(ni);
            if node == SOURCE {
                continue;
            }
            let at = self.exp_slots(self.cfg.mean_uptime);
            self.pending.push(Reverse((at, node.0, Transition::Crash)));
        }
    }

    /// Pop every transition due at or before `slot` into `out`,
    /// scheduling each node's next transition as it goes. A recovering
    /// node redraws its schedule with the period and active-slot count
    /// of its current one in `schedules`, so the table's wake-calendar
    /// period stands.
    pub fn actions(&mut self, slot: u64, schedules: &NeighborTable, out: &mut Vec<ChurnAction>) {
        while let Some(&Reverse((at, node, kind))) = self.pending.peek() {
            if at > slot {
                break;
            }
            self.pending.pop();
            let node_id = NodeId(node);
            match kind {
                Transition::Crash => {
                    let back_at = slot + self.exp_slots(self.cfg.mean_downtime);
                    self.pending
                        .push(Reverse((back_at, node, Transition::Recover)));
                    out.push(ChurnAction::Crash(node_id));
                }
                Transition::Recover => {
                    let next_crash = slot + self.exp_slots(self.cfg.mean_uptime);
                    self.pending
                        .push(Reverse((next_crash, node, Transition::Crash)));
                    let old = schedules.schedule(node_id);
                    let (period, active) = (old.period(), old.active_per_period());
                    let schedule = if active <= 1 {
                        WorkingSchedule::single_random(period, &mut self.rng)
                    } else {
                        WorkingSchedule::multi_random(period, active, &mut self.rng)
                    };
                    out.push(ChurnAction::Recover(node_id, schedule));
                }
            }
        }
    }

    /// The configured source-retry backoff (`None` when disabled).
    pub fn retry_backoff(&self) -> Option<u64> {
        (self.cfg.retry_backoff > 0).then_some(self.cfg.retry_backoff)
    }

    /// The slot of the earliest pending transition (`None` before
    /// [`NodeChurn::on_start`] or once every node is permanently
    /// settled). The event-driven engine may skip every slot strictly
    /// before it.
    pub fn next_action_at(&self) -> Option<u64> {
        self.pending.peek().map(|&Reverse((at, _, _))| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Ten nodes waking once per 20 slots.
    fn table() -> NeighborTable {
        NeighborTable::random_single_slot(10, 20, &mut StdRng::seed_from_u64(1))
    }

    fn churn(mean_up: f64, mean_down: f64) -> NodeChurn {
        let mut c = NodeChurn::new(
            ChurnConfig {
                mean_uptime: mean_up,
                mean_downtime: mean_down,
                retry_backoff: 50,
            },
            3,
        );
        c.on_start(10);
        c
    }

    /// Drain all actions over `slots` slots against `table()`.
    fn drain(c: &mut NodeChurn, slots: u64) -> Vec<(u64, ChurnAction)> {
        let schedules = table();
        let mut all = Vec::new();
        let mut buf = Vec::new();
        for t in 0..slots {
            buf.clear();
            c.actions(t, &schedules, &mut buf);
            for a in buf.drain(..) {
                all.push((t, a));
            }
        }
        all
    }

    #[test]
    fn source_never_crashes() {
        let mut c = churn(50.0, 20.0);
        for (_, a) in drain(&mut c, 2_000) {
            let node = match a {
                ChurnAction::Crash(n) => n,
                ChurnAction::Recover(n, _) => n,
            };
            assert_ne!(node, SOURCE, "the source must not churn");
        }
    }

    #[test]
    fn crashes_alternate_with_recoveries_per_node() {
        let mut c = churn(40.0, 10.0);
        let mut up = [true; 10];
        for (_, a) in drain(&mut c, 3_000) {
            match a {
                ChurnAction::Crash(n) => {
                    assert!(up[n.index()], "{n} crashed while down");
                    up[n.index()] = false;
                }
                ChurnAction::Recover(n, s) => {
                    assert!(!up[n.index()], "{n} recovered while up");
                    up[n.index()] = true;
                    assert_eq!(s.period(), 20);
                    assert_eq!(s.active_per_period(), 1);
                }
            }
        }
    }

    #[test]
    fn churn_rate_tracks_mean_uptime() {
        let mut fast = churn(30.0, 10.0);
        let mut slow = churn(300.0, 10.0);
        let n_fast = drain(&mut fast, 3_000)
            .iter()
            .filter(|(_, a)| matches!(a, ChurnAction::Crash(_)))
            .count();
        let n_slow = drain(&mut slow, 3_000)
            .iter()
            .filter(|(_, a)| matches!(a, ChurnAction::Crash(_)))
            .count();
        assert!(
            n_fast > n_slow * 3,
            "10x shorter uptime must crash much more: {n_fast} vs {n_slow}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = churn(40.0, 15.0);
        let mut b = churn(40.0, 15.0);
        let fmt = |acts: Vec<(u64, ChurnAction)>| {
            acts.iter()
                .map(|(t, a)| format!("{t}:{a:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        assert_eq!(fmt(drain(&mut a, 2_000)), fmt(drain(&mut b, 2_000)));
    }

    #[test]
    fn retry_backoff_gating() {
        assert_eq!(churn(50.0, 10.0).retry_backoff(), Some(50));
        let c = NodeChurn::new(
            ChurnConfig {
                mean_uptime: 10.0,
                mean_downtime: 10.0,
                retry_backoff: 0,
            },
            1,
        );
        assert_eq!(c.retry_backoff(), None);
    }
}
