//! Differential test for OPT's receiver filter: the frontier-driven
//! `propose` (which visits only awake nodes on some live packet's
//! `reach` row) must emit exactly the intents of a reference that walks
//! every awake node, at every slot of random floods — with equal and
//! mixed wake periods, under churn (crash wipes, revocations, recoveries
//! with fresh schedules) and with deferred multi-origin injection plans.

use ldcf_net::{NeighborTable, NodeId, PacketId, Topology, WorkingSchedule};
use ldcf_protocols::Opt;
use ldcf_sim::{
    mac::Overhearing, Engine, FaultConfig, FloodingProtocol, Injection, SimConfig, SimState,
    TxIntent,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// OPT's `propose` as a scan of every awake node: the specification
/// the frontier filter must reproduce intent for intent.
fn reference_propose(state: &SimState, out: &mut Vec<TxIntent>) {
    let mut candidates: Vec<(f64, NodeId, NodeId, PacketId)> = Vec::new();
    for r in state.schedules.all_active(state.now) {
        if r.index() == 0 || state.is_down(r) {
            continue;
        }
        for p in 0..state.n_injected() {
            if state.has(r, p) || state.is_covered(p) {
                continue;
            }
            let best = state
                .topo
                .neighbor_ids(r)
                .iter()
                .filter(|&&s| state.has(s, p))
                .map(|&s| (state.topo.quality(s, r).expect("symmetric").prr(), s))
                // Ties go to the later (higher-id) holder.
                .fold(None, |best: Option<(f64, NodeId)>, (prr, s)| match best {
                    Some((bq, _)) if prr < bq => best,
                    _ => Some((prr, s)),
                });
            if let Some((prr, s)) = best {
                candidates.push((prr, r, s, p));
                break;
            }
        }
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("PRR is finite"));
    let mut senders: Vec<NodeId> = Vec::new();
    let mut receivers: Vec<NodeId> = Vec::new();
    for (_, r, s, p) in candidates {
        if senders.contains(&s)
            || receivers.contains(&r)
            || senders.contains(&r)
            || receivers.contains(&s)
        {
            continue;
        }
        senders.push(s);
        receivers.push(r);
        out.push(TxIntent {
            sender: s,
            receiver: r,
            packet: p,
            backoff_rank: 0,
            bypass_mac: true,
        });
    }
}

/// What the checked runs saw: slots compared, intents compared, and
/// the first disagreement.
#[derive(Default)]
struct Tally {
    slots: u64,
    intents: u64,
    mismatch: Option<String>,
}

/// Runs the real OPT (whose intents drive the flood) and the reference
/// side by side on the same state, and books every disagreement.
struct Checked {
    fast: Opt,
    scratch: Vec<TxIntent>,
    tally: Rc<RefCell<Tally>>,
}

impl FloodingProtocol for Checked {
    fn name(&self) -> &str {
        "OPT"
    }

    fn overhearing(&self) -> Overhearing {
        self.fast.overhearing()
    }

    fn on_start(&mut self, state: &SimState) {
        self.fast.on_start(state);
    }

    fn propose(&mut self, state: &SimState, out: &mut Vec<TxIntent>) {
        let first = out.len();
        self.fast.propose(state, out);
        self.scratch.clear();
        reference_propose(state, &mut self.scratch);
        let mut tally = self.tally.borrow_mut();
        tally.slots += 1;
        tally.intents += self.scratch.len() as u64;
        if tally.mismatch.is_none() && out[first..] != self.scratch[..] {
            tally.mismatch = Some(format!(
                "slot {}: frontier OPT proposed {:?}, reference {:?}",
                state.now,
                &out[first..],
                self.scratch
            ));
        }
    }
}

/// A connected random geometric network of `n` nodes.
fn network(n: usize, seed: u64) -> Topology {
    let side = (n as f64).sqrt() * 1.2;
    for k in 0.. {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(k));
        let topo = Topology::random_geometric(n, side, 2.0, 0.95, 0.4, &mut rng);
        if topo.is_connected() {
            return topo;
        }
    }
    unreachable!()
}

/// Single-slot schedules; with `mixed` periods half the nodes wake
/// every `2 * period` slots, so the wake calendar spans `2 * period`.
fn schedules(n: usize, period: u32, mixed: bool, rng: &mut StdRng) -> NeighborTable {
    NeighborTable::new(
        (0..n)
            .map(|i| {
                let p = if mixed && i % 2 == 1 {
                    2 * period
                } else {
                    period
                };
                WorkingSchedule::single_random(p, rng)
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Frontier-driven OPT emits the reference's intents at every slot.
    #[test]
    fn frontier_opt_matches_full_scan(
        n in 8usize..70,
        seed in any::<u64>(),
        period in 2u32..12,
        m in 1u32..5,
        mixed in any::<bool>(),
        churn in any::<bool>(),
        deferred in any::<bool>(),
        full_coverage in any::<bool>(),
    ) {
        let topo = network(n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let table = schedules(n, period, mixed, &mut rng);
        prop_assert_eq!(table.calendar_period(), if mixed { 2 * period } else { period });
        // Deferred plans spread the packets over random origins and
        // non-decreasing slots; the default plan injects all at the
        // source at slot 0.
        let plan: Vec<Injection> = if deferred {
            let mut slot = 0;
            (0..m)
                .map(|_| {
                    slot += rng.random_range(0..3 * period as u64);
                    Injection {
                        origin: NodeId::from(rng.random_range(0..n)),
                        slot,
                    }
                })
                .collect()
        } else {
            vec![Injection::at_source(); m as usize]
        };
        let cfg = SimConfig {
            period,
            active_per_period: 1,
            n_packets: m,
            coverage: if full_coverage { 1.0 } else { 0.8 },
            max_slots: 4_000,
            seed,
            mistiming_prob: 0.0,
        };
        let tally = Rc::new(RefCell::new(Tally::default()));
        let proto = Checked {
            fast: Opt::new(),
            scratch: Vec::new(),
            tally: Rc::clone(&tally),
        };
        let engine = Engine::with_injections(topo, cfg, table, &plan, proto);
        if churn {
            let mut fc = FaultConfig::at_intensity(seed, 1.0).churn_only();
            if let Some(c) = fc.churn.as_mut() {
                c.mean_uptime = 200.0;
                c.mean_downtime = 40.0;
                c.retry_backoff = 20;
            }
            engine.with_faults(fc.build()).run();
        } else {
            engine.run();
        }
        let tally = tally.borrow();
        if let Some(msg) = &tally.mismatch {
            prop_assert!(false, "{}", msg);
        }
        prop_assert!(tally.slots > 0 && tally.intents > 0, "vacuous run");
    }
}
