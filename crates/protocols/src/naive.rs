//! Naive unicast flooding baseline.
//!
//! Every node that holds a packet unicasts it to every neighbor that is
//! missing it, one active neighbor per slot, FCFS, with no back-off
//! discipline (contention order is node id) and no overhearing. This is
//! the "traditional flooding protocol" strawman whose poor behaviour in
//! low-duty-cycle networks motivates the paper (§I) — useful as the
//! lower baseline in ablation experiments.

use crate::common::{fcfs_candidate_filtered, CollisionBackoff};
use ldcf_net::{bitset, NodeId};
use ldcf_sim::mac::DeliveryEvent;
use ldcf_sim::{FloodingProtocol, SimState, TxIntent};

/// The naive baseline protocol.
#[derive(Debug)]
pub struct NaiveFlood {
    backoff: CollisionBackoff,
    /// Scratch bitset: nodes-with-work adjacent to a scheduled-awake
    /// node — the only possible proposers this slot (see
    /// [`Self::propose`]'s awake-first strategy). Sized at `on_start`
    /// so steady-state slots stay allocation-free.
    cands: Vec<u64>,
}

impl NaiveFlood {
    /// Create the baseline protocol.
    pub fn new() -> Self {
        Self {
            backoff: CollisionBackoff::new(0x7A1E, 4),
            cands: Vec::new(),
        }
    }
}

impl Default for NaiveFlood {
    fn default() -> Self {
        Self::new()
    }
}

impl FloodingProtocol for NaiveFlood {
    fn name(&self) -> &str {
        "NAIVE"
    }

    fn on_start(&mut self, state: &SimState) {
        // Collision keys are directed neighbor pairs; reserving them all
        // keeps the back-off map from rehashing mid-run.
        self.backoff.reserve(state.topo.n_edges() * 2);
        self.cands.resize(bitset::words_for(state.n_nodes()), 0);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let backoff = &self.backoff;
        let now = state.now;
        let work = state.work_words();
        // A node proposes only when some neighbor is awake and missing
        // a packet, so the proposers are always a subset of
        // work ∩ neighbors(scheduled-awake). At low duty cycles on large
        // graphs the awake set is far smaller than the work set (work
        // lingers until a whole neighborhood saturates), so when a wake
        // calendar exists and work outnumbers the awake set it is
        // cheaper to walk the awake nodes' neighborhoods than to probe
        // every queue. Both strategies evaluate the identical per-node
        // rule over the same ascending node order, so they propose
        // byte-identical intents (`awake_first_scan_matches_direct_scan`
        // pins this differentially).
        let active = state.schedules.active_words(now);
        let invert = active.is_some_and(|row| {
            let work_count: u32 = work.iter().map(|w| w.count_ones()).sum();
            let active_count: u32 = row.iter().map(|w| w.count_ones()).sum();
            work_count > active_count
        });
        if invert {
            let row = active.expect("invert implies a calendar row");
            self.cands.fill(0);
            for v in bitset::iter_ones(row) {
                for &u in state.topo.neighbor_ids(NodeId::from(v)) {
                    if bitset::test_bit(work, u.index()) {
                        bitset::set_bit(&mut self.cands, u.index());
                    }
                }
            }
            for u in bitset::iter_ones(&self.cands).map(NodeId::from) {
                let cand = fcfs_candidate_filtered(state, u, |r| !backoff.blocked(u, r, now));
                if let Some((packet, receiver)) = cand {
                    out.push(TxIntent {
                        sender: u,
                        receiver,
                        packet,
                        backoff_rank: u.0, // arbitrary, not quality-aware
                        bypass_mac: false,
                    });
                }
            }
            return;
        }
        // Nodes with empty queues can never yield a candidate; the work
        // bitset skips them in bulk.
        for u in state.nodes_with_work() {
            let cand = fcfs_candidate_filtered(state, u, |r| !backoff.blocked(u, r, now));
            if let Some((packet, receiver)) = cand {
                out.push(TxIntent {
                    sender: u,
                    receiver,
                    packet,
                    backoff_rank: u.0, // arbitrary, not quality-aware
                    bypass_mac: false,
                });
            }
        }
    }

    fn on_events(&mut self, state: &SimState, events: &[DeliveryEvent]) {
        self.backoff.observe(events, state.now, state.cfg.period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::{LinkQuality, Topology};
    use ldcf_sim::{Engine, SimConfig, VecObserver};

    /// The pre-inversion propose loop, verbatim: probe every node with
    /// work directly. Reference for the differential test below.
    struct DirectNaive {
        backoff: CollisionBackoff,
    }

    impl FloodingProtocol for DirectNaive {
        fn name(&self) -> &str {
            "NAIVE"
        }
        fn on_start(&mut self, state: &SimState) {
            self.backoff.reserve(state.topo.n_edges() * 2);
        }
        fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
            let backoff = &self.backoff;
            let now = state.now;
            for u in state.nodes_with_work() {
                let cand = fcfs_candidate_filtered(state, u, |r| !backoff.blocked(u, r, now));
                if let Some((packet, receiver)) = cand {
                    out.push(TxIntent {
                        sender: u,
                        receiver,
                        packet,
                        backoff_rank: u.0,
                        bypass_mac: false,
                    });
                }
            }
        }
        fn on_events(&mut self, state: &SimState, events: &[DeliveryEvent]) {
            self.backoff.observe(events, state.now, state.cfg.period);
        }
    }

    /// The awake-first strategy must propose byte-identical intents to
    /// the direct work scan: same report, same energy ledger, same
    /// event stream. Low duty on a mid-sized grid keeps
    /// `work > awake` for most of the flood, so the inverted path is
    /// exercised heavily (and the strategy switch itself flips back and
    /// forth as work drains).
    #[test]
    fn awake_first_scan_matches_direct_scan() {
        for (rows, cols, period, seed) in
            [(6, 6, 36, 1u64), (8, 5, 50, 2), (4, 4, 8, 3), (7, 7, 90, 4)]
        {
            let topo = Topology::grid(rows, cols, LinkQuality::new(0.85));
            let cfg = SimConfig {
                period,
                active_per_period: 1,
                n_packets: 3,
                coverage: 1.0,
                max_slots: 200_000,
                seed,
                mistiming_prob: 0.0,
            };
            let run_direct = Engine::new(
                topo.clone(),
                cfg.clone(),
                DirectNaive {
                    backoff: CollisionBackoff::new(0x7A1E, 4),
                },
            )
            .with_observer(VecObserver::default())
            .run_traced();
            let run_inverted = Engine::new(topo, cfg, NaiveFlood::new())
                .with_observer(VecObserver::default())
                .run_traced();
            assert_eq!(
                serde_json::to_string(&run_direct.0).unwrap(),
                serde_json::to_string(&run_inverted.0).unwrap(),
                "reports diverge (grid {rows}x{cols}, period {period}, seed {seed})"
            );
            assert_eq!(
                serde_json::to_string(&run_direct.1).unwrap(),
                serde_json::to_string(&run_inverted.1).unwrap(),
                "ledgers diverge (grid {rows}x{cols}, period {period}, seed {seed})"
            );
            assert_eq!(
                run_direct.2.events, run_inverted.2.events,
                "event streams diverge (grid {rows}x{cols}, period {period}, seed {seed})"
            );
        }
    }

    #[test]
    fn naive_floods_but_wastes_more_than_dbao() {
        let topo = Topology::grid(4, 4, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 4,
            coverage: 1.0,
            max_slots: 200_000,
            seed: 9,
            mistiming_prob: 0.0,
        };
        let (naive, _) = Engine::new(topo.clone(), cfg.clone(), NaiveFlood::new()).run();
        assert!(naive.all_covered());
        let (dbao, _) = Engine::new(topo, cfg, crate::Dbao::new()).run();
        assert!(dbao.all_covered());
        // DBAO's overhearing + back-off should not use more transmissions.
        assert!(
            dbao.transmissions <= naive.transmissions,
            "dbao {} vs naive {}",
            dbao.transmissions,
            naive.transmissions
        );
    }
}
