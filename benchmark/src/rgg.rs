//! `rgg-100k`: the scale regime. A 100 000-node random geometric
//! network at unit density (radius 2.2, mean degree ≈ 15), period 100
//! with one active slot, OPT, two packets a million slots apart, on the
//! event engine — about 1 % of the slots are dispatched. Each call
//! clones the topology and schedules into a fresh engine, as a run of
//! `experiments` would.
//!
//! Both packets start at the source, node 0, and must reach every node:
//! from another origin the engine dispatches a third of the slots, and
//! below full coverage every slot. `--seed` draws the network and
//! its schedules: the network seed is the first one derived from it
//! whose network is connected — about a third of them leave a corner
//! node isolated, so the flood never ends — and whose source lies
//! within a fiftieth of the side from the centre, since a flood from a
//! corner dispatches twice as many slots as one from the centre.

use crate::flood::{self, Flood, Proto};
use crate::{derive, measure, repeated_setup, stats, Outcome, RunOpts, RunResult, Size};
use ldcf_net::{NeighborTable, NodeId, Topology};
use ldcf_sim::{EngineKind, Injection, NullObserver, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Wake period (duty 1/100).
const PERIOD: u32 = 100;
/// Connection radius at unit density.
const RADIUS: f64 = 2.2;

/// Nodes and the slot gap between the two packets.
fn shape(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (100_000, 1_000_000),
        Size::Smoke => (2_000, 20_000),
    }
}

/// The network seed of the run: the first of `derive(seed, 10) + k`
/// whose source lies within `side / 50` of the centre and whose
/// network is connected.
fn network_seed(opts: &RunOpts, n: usize, side: f64) -> Result<u64, String> {
    let base = derive(opts.seed, 10);
    for candidate in base..base + 100_000 {
        // `random_geometric` draws node 0's x and y first.
        let mut rng = StdRng::seed_from_u64(candidate);
        let (x, y) = (rng.random_range(0.0..side), rng.random_range(0.0..side));
        if (x - side / 2.0).hypot(y - side / 2.0) > side / 50.0 {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(candidate);
        let topo = Topology::random_geometric(n, side, RADIUS, 0.95, 0.6, &mut rng);
        let p = topo
            .positions()
            .expect("random geometric topologies have positions")[0];
        if (p.x, p.y) != (x, y) {
            return Err("random_geometric no longer draws node 0's position first".into());
        }
        if topo.is_connected() {
            return Ok(candidate);
        }
    }
    Err(format!(
        "no connected network among 100 000 seeds from {base}"
    ))
}

/// Run `rgg-100k`.
pub fn run(opts: &RunOpts) -> Result<RunResult, String> {
    let (n, gap) = shape(opts.size);
    let side = (n as f64).sqrt();
    let seed = network_seed(opts, n, side)?;
    let mut parts = (Vec::new(), Vec::new());
    let ((topo, schedules), setup_s) = repeated_setup(|| {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Instant::now();
        let topo = Topology::random_geometric(n, side, RADIUS, 0.95, 0.6, &mut rng);
        let t1 = Instant::now();
        let schedules = NeighborTable::random_single_slot(n, PERIOD, &mut rng);
        parts.0.push((t1 - t0).as_secs_f64());
        parts.1.push(t1.elapsed().as_secs_f64());
        (topo, schedules)
    });
    let plan: Vec<Injection> = (0..2)
        .map(|k| Injection {
            origin: NodeId(0),
            slot: k * gap,
        })
        .collect();
    let f = Flood {
        proto: Proto::Opt,
        cfg: SimConfig {
            period: PERIOD,
            active_per_period: 1,
            n_packets: 2,
            coverage: 1.0,
            max_slots: gap + gap / 10,
            seed: derive(opts.seed, 11),
            mistiming_prob: 0.0,
        },
        faults: None,
        plan: Some((schedules, plan)),
        kind: EngineKind::Event,
    };
    let measured = measure(opts, 1, setup_s, |_, t, prof, checks| {
        let o = flood::run(&topo, &f, NullObserver, prof, t);
        checks.check(o.report.all_covered(), || {
            format!(
                "rgg flood covered {} of 2 packets",
                o.report
                    .packets
                    .iter()
                    .filter(|p| p.covered_at.is_some())
                    .count()
            )
        });
        Outcome {
            slots: o.report.slots_elapsed,
            digests: vec![o.digest()],
        }
    });
    let mut result = measured.finish();
    if opts.traced {
        let median = |xs: &[f64]| stats::median(xs).expect("SETUPS >= 1");
        result.values.set("net.rgg_build_s", median(&parts.0));
        result.values.set("net.schedule_build_s", median(&parts.1));
        flood::encode_costs(&topo, &f, &mut result.values);
    }
    Ok(result)
}
