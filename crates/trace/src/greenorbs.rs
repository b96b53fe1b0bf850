//! GreenOrbs-style synthetic topology generation.
//!
//! Combines the clustered deployment, propagation model and long-term
//! PRR averaging into a [`Topology`] matching the paper's evaluation
//! substrate: 298 sensors + 1 source, mixed good/lossy links, multi-hop
//! diameter. Links whose long-term PRR falls below `min_prr` are pruned
//! (they would never carry a unicast in any of the three protocols), and
//! the generator retries with fresh randomness until the graph is
//! connected, mirroring how a real deployment is densified until the
//! sink reaches everyone.

use crate::deploy::{sample_positions, DeployConfig};
use crate::propagation::Propagation;
use crate::prr::PrrModel;
use ldcf_net::{LinkQuality, NodeId, Topology};
use rand::Rng;

/// Full configuration of the synthetic GreenOrbs trace.
#[derive(Clone, Debug, Default)]
pub struct GreenOrbsConfig {
    /// Node placement parameters.
    pub deploy: DeployConfig,
    /// Radio propagation parameters.
    pub propagation: Propagation,
    /// RSSI→PRR mapping.
    pub prr: PrrModel,
    /// Extra knobs.
    pub opts: GenOpts,
}

/// Generation options.
#[derive(Clone, Debug)]
pub struct GenOpts {
    /// Links with long-term PRR below this are dropped from the trace.
    pub min_prr: f64,
    /// Number of RSSI samples averaged per link ("six months").
    pub rssi_samples: u32,
    /// Maximum candidate link distance (metres); pairs farther apart are
    /// not even measured. Keeps generation O(n²) with a small constant.
    pub max_link_distance: f64,
    /// Maximum regeneration attempts to obtain a connected graph.
    pub max_attempts: u32,
}

impl Default for GenOpts {
    fn default() -> Self {
        Self {
            min_prr: 0.3,
            rssi_samples: 64,
            max_link_distance: 50.0,
            max_attempts: 20,
        }
    }
}

/// Generate a connected GreenOrbs-style topology.
///
/// Panics if no connected topology is found within
/// `opts.max_attempts` attempts — with the default parameters the first
/// attempt virtually always succeeds.
pub fn generate<R: Rng + ?Sized>(cfg: &GreenOrbsConfig, rng: &mut R) -> Topology {
    for _ in 0..cfg.opts.max_attempts {
        let topo = generate_once(cfg, rng);
        if topo.is_connected() {
            return topo;
        }
    }
    panic!(
        "could not generate a connected {}-node topology in {} attempts; \
         loosen min_prr or max_link_distance",
        cfg.deploy.n_nodes, cfg.opts.max_attempts
    );
}

fn generate_once<R: Rng + ?Sized>(cfg: &GreenOrbsConfig, rng: &mut R) -> Topology {
    let positions = sample_positions(&cfg.deploy, rng);
    let n = positions.len();
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let d = positions[a].distance(&positions[b]);
            if d > cfg.opts.max_link_distance {
                continue;
            }
            // Static per-pair shadowing is shared; per-direction fading
            // histories differ, giving mildly asymmetric PRR as observed
            // in real testbeds.
            let shadowed = cfg.propagation.shadowed_rssi(d, rng);
            let p_ab =
                cfg.prr
                    .long_term_prr(&cfg.propagation, shadowed, cfg.opts.rssi_samples, rng);
            let p_ba =
                cfg.prr
                    .long_term_prr(&cfg.propagation, shadowed, cfg.opts.rssi_samples, rng);
            if p_ab >= cfg.opts.min_prr && p_ba >= cfg.opts.min_prr {
                edges.push((
                    NodeId::from(a),
                    NodeId::from(b),
                    LinkQuality::new(p_ab.min(1.0)),
                    LinkQuality::new(p_ba.min(1.0)),
                ));
            }
        }
    }
    Topology::from_edges(n, edges).with_positions(positions)
}

/// Convenience: the paper's default 298-sensor trace from a seed.
pub fn default_trace(seed: u64) -> Topology {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    generate(&GreenOrbsConfig::default(), &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> GreenOrbsConfig {
        GreenOrbsConfig {
            deploy: DeployConfig {
                n_nodes: 60,
                width: 150.0,
                height: 120.0,
                n_clusters: 6,
                ..DeployConfig::default()
            },
            ..GreenOrbsConfig::default()
        }
    }

    #[test]
    fn small_trace_is_connected_and_lossy() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = generate(&small_cfg(), &mut rng);
        assert_eq!(t.n_nodes(), 60);
        assert!(t.is_connected());
        let mq = t.mean_link_quality().unwrap();
        assert!(mq > 0.2 && mq < 1.0, "mean quality {mq}");
        // Mixed link qualities: some good, some transitional.
        let mut good = 0;
        let mut lossy = 0;
        for l in t.links() {
            if l.quality.prr() > 0.9 {
                good += 1;
            } else if l.quality.prr() < 0.7 {
                lossy += 1;
            }
        }
        assert!(good > 0, "expected some high-quality links");
        assert!(lossy > 0, "expected some transitional links");
    }

    #[test]
    fn default_trace_matches_paper_scale() {
        let t = default_trace(7);
        assert_eq!(t.n_sensors(), 298);
        assert!(t.is_connected());
        let ecc = t.source_eccentricity();
        assert!(
            (4..=30).contains(&ecc),
            "source eccentricity {ecc} should be multi-hop"
        );
        // PRR floor respected.
        for l in t.links() {
            assert!(l.quality.prr() >= 0.3);
        }
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let a = default_trace(123);
        let b = default_trace(123);
        assert_eq!(a.n_edges(), b.n_edges());
        let la: Vec<_> = a.links().map(|l| (l.from, l.to)).collect();
        let lb: Vec<_> = b.links().map(|l| (l.from, l.to)).collect();
        assert_eq!(la, lb);
    }

    #[test]
    fn distant_pairs_are_not_linked() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = generate(&small_cfg(), &mut rng);
        let pos = t.positions().unwrap();
        for l in t.links() {
            let d = pos[l.from.index()].distance(&pos[l.to.index()]);
            assert!(d <= GenOpts::default().max_link_distance);
        }
    }
}
