//! Materialization: spec → topology, per-cell schedules, injection plan,
//! and the canonical digest that pins all of them in CI.
//!
//! Determinism contract: everything here is a pure function of the spec.
//! The topology (and its link post-pass) is built once per scenario from
//! `topology_seed` — shared by every cell, like the committed evaluation
//! trace — while schedules are drawn per `(duty, seed)` cell from a
//! seed mix that never touches global state. The digest walks topology
//! links, the injection plan, and every cell's schedules in a fixed
//! order, so any drift in a generator or in the RNG stream changes the
//! hex and trips the golden gate in `ci.sh`.

use crate::sha256::Sha256;
use crate::spec::{LinkModel, ScenarioSpec, ScheduleModel, TopologySpec, WorkloadKind};
use ldcf_net::{LinkQuality, NeighborTable, NodeId, Topology, WorkingSchedule, SOURCE};
use ldcf_sim::Injection;
use ldcf_trace::deploy::DeployConfig;
use ldcf_trace::GreenOrbsConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Attempts at a connected random-geometric draw before giving up.
const RG_MAX_ATTEMPTS: usize = 50;

/// A scenario with its cell-invariant parts materialized.
#[derive(Clone, Debug)]
pub struct BuiltScenario {
    /// The validated spec.
    pub spec: ScenarioSpec,
    /// Topology after the link-model post-pass, shared by all cells.
    pub topology: Topology,
    /// Per-packet injection plan (origin, slot), shared by all cells.
    pub injections: Vec<Injection>,
}

impl BuiltScenario {
    /// Materialize the cell-invariant parts of a spec.
    pub fn build(spec: ScenarioSpec) -> Result<Self, String> {
        let topology = build_topology(&spec)?;
        let injections = build_injections(&spec, &topology)?;
        Ok(Self {
            spec,
            topology,
            injections,
        })
    }

    /// The schedule table of one `(duty, seed)` cell, wake calendar
    /// included.
    pub fn schedules(&self, duty: f64, seed: u64) -> NeighborTable {
        NeighborTable::new(self.draw_schedules(duty, seed))
    }

    /// Draw the working schedules of one `(duty, seed)` cell, one per
    /// node, without building their wake calendar.
    pub fn draw_schedules(&self, duty: f64, seed: u64) -> Vec<WorkingSchedule> {
        let mut rng =
            StdRng::seed_from_u64(mix(mix(self.spec.topology_seed, seed), duty.to_bits()));
        let n = self.topology.n_nodes();
        match &self.spec.schedule {
            ScheduleModel::Homogeneous { period } => (0..n)
                .map(|_| draw_schedule(*period, duty, &mut rng))
                .collect(),
            ScheduleModel::Heterogeneous { periods } => (0..n)
                .map(|_| {
                    let period = periods[rng.random_range(0..periods.len())];
                    draw_schedule(period, duty, &mut rng)
                })
                .collect(),
        }
    }

    /// Canonical digest over topology links, the injection plan, and
    /// every `(duty, seed)` cell's schedules, as lowercase sha256 hex.
    /// This is what `crates/bench/baselines/scenarios.sha256` pins.
    pub fn digest(&self) -> String {
        let mut h = Sha256::new();
        let mut line = |s: String| {
            h.update(s.as_bytes());
            h.update(b"\n");
        };
        line(format!("scenario {}", self.spec.name));
        line(format!(
            "topology {} {}",
            self.topology.n_nodes(),
            self.topology.n_edges()
        ));
        for l in self.topology.links() {
            line(format!(
                "link {} {} {:016x}",
                l.from.0,
                l.to.0,
                l.quality.prr().to_bits()
            ));
        }
        for (p, inj) in self.injections.iter().enumerate() {
            line(format!("inject {p} {} {}", inj.origin.0, inj.slot));
        }
        for &duty in &self.spec.matrix.duties {
            for &seed in &self.spec.matrix.seeds {
                line(format!("cell {:016x} {seed}", duty.to_bits()));
                for (node, s) in self.draw_schedules(duty, seed).iter().enumerate() {
                    let slots: Vec<String> = s.active_slots().iter().map(u32::to_string).collect();
                    line(format!("sched {node} {} {}", s.period(), slots.join(",")));
                }
            }
        }
        let digest = h.finalize();
        let mut out = String::with_capacity(64);
        for byte in digest {
            out.push_str(&format!("{byte:02x}"));
        }
        out
    }
}

/// `max(1, round(duty × period))` active slots, offsets drawn uniformly.
fn draw_schedule(period: u32, duty: f64, rng: &mut StdRng) -> WorkingSchedule {
    let active = ((duty * period as f64).round() as u32).clamp(1, period);
    WorkingSchedule::multi_random(period, active, rng)
}

/// SplitMix64-style combiner for seed material. Deterministic, stateless.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn build_topology(spec: &ScenarioSpec) -> Result<Topology, String> {
    let mut topo = match spec.topology {
        TopologySpec::Grid { rows, cols, prr } => Topology::grid(rows, cols, LinkQuality::new(prr)),
        TopologySpec::Manhattan {
            rows,
            cols,
            reach,
            q_adjacent,
            q_at_reach,
        } => Topology::manhattan(rows, cols, reach, q_adjacent, q_at_reach),
        TopologySpec::RandomGeometric {
            nodes,
            side,
            radius,
            q_near,
            q_far,
        } => {
            let mut rng = StdRng::seed_from_u64(spec.topology_seed);
            let mut connected = None;
            for _ in 0..RG_MAX_ATTEMPTS {
                let t = Topology::random_geometric(nodes, side, radius, q_near, q_far, &mut rng);
                if t.is_connected() {
                    connected = Some(t);
                    break;
                }
            }
            connected.ok_or_else(|| {
                format!(
                    "random-geometric ({nodes} nodes, side {side}, radius {radius}) \
                     disconnected after {RG_MAX_ATTEMPTS} draws — densify the scenario"
                )
            })?
        }
        TopologySpec::ClusteredForest {
            nodes,
            clusters,
            width,
            height,
        } => {
            let cfg = GreenOrbsConfig {
                deploy: DeployConfig {
                    n_nodes: nodes,
                    n_clusters: clusters,
                    width,
                    height,
                    ..DeployConfig::default()
                },
                ..GreenOrbsConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(spec.topology_seed);
            ldcf_trace::greenorbs::generate(&cfg, &mut rng)
        }
        TopologySpec::Trace { trace_seed } => ldcf_trace::greenorbs::default_trace(trace_seed),
    };
    apply_link_model(spec, &mut topo)?;
    Ok(topo)
}

/// Rewrite directed link qualities in `links()` iteration order (node id,
/// then neighbor id — a fixed order, which the k-class sampler relies on).
fn apply_link_model(spec: &ScenarioSpec, topo: &mut Topology) -> Result<(), String> {
    match &spec.links {
        LinkModel::FromTopology => {}
        LinkModel::Uniform { prr } => {
            let q = LinkQuality::new(*prr);
            for l in topo.links().collect::<Vec<_>>() {
                topo.set_quality(l.from, l.to, q);
            }
        }
        LinkModel::DistanceDecay { q_near, q_far } => {
            let positions = topo
                .positions()
                .ok_or("links.distance-decay requires a topology with positions")?
                .to_vec();
            let links: Vec<_> = topo.links().collect();
            let d_max = links
                .iter()
                .map(|l| positions[l.from.index()].distance(&positions[l.to.index()]))
                .fold(0.0_f64, f64::max);
            for l in links {
                let d = positions[l.from.index()].distance(&positions[l.to.index()]);
                let frac = if d_max > 0.0 { d / d_max } else { 0.0 };
                let q = q_near + (q_far - q_near) * frac;
                topo.set_quality(l.from, l.to, LinkQuality::clamped(q, 0.05));
            }
        }
        LinkModel::KClass {
            classes,
            weights,
            seed,
        } => {
            let total: f64 = weights.iter().sum();
            let mut rng = StdRng::seed_from_u64(mix(spec.topology_seed, *seed));
            for l in topo.links().collect::<Vec<_>>() {
                let mut draw = rng.random::<f64>() * total;
                let mut idx = classes.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    if draw < w {
                        idx = i;
                        break;
                    }
                    draw -= w;
                }
                topo.set_quality(l.from, l.to, LinkQuality::new(classes[idx]));
            }
        }
    }
    Ok(())
}

fn build_injections(spec: &ScenarioSpec, topo: &Topology) -> Result<Vec<Injection>, String> {
    let m = spec.workload.packets;
    Ok(match spec.workload.kind {
        WorkloadKind::SingleFlood => (0..m).map(|_| Injection::at_source()).collect(),
        WorkloadKind::MultiSource { sources } => {
            let origins = multi_source_origins(topo, sources)?;
            (0..m)
                .map(|p| Injection {
                    origin: origins[p as usize % origins.len()],
                    slot: 0,
                })
                .collect()
        }
        WorkloadKind::Periodic { interval } => (0..m)
            .map(|p| Injection {
                origin: SOURCE,
                slot: p as u64 * interval,
            })
            .collect(),
    })
}

/// The default source plus the `sources - 1` hop-farthest nodes
/// (ties broken by lower id), so concurrent floods start maximally
/// separated and their fronts genuinely interleave.
fn multi_source_origins(topo: &Topology, sources: usize) -> Result<Vec<NodeId>, String> {
    if sources > topo.n_nodes() {
        return Err(format!(
            "workload.sources = {sources} exceeds the {}-node topology",
            topo.n_nodes()
        ));
    }
    let dist = topo.hop_distances(SOURCE);
    let mut far: Vec<NodeId> = (0..topo.n_nodes())
        .map(NodeId::from)
        .filter(|&n| n != SOURCE && dist[n.index()] != u32::MAX)
        .collect();
    far.sort_by_key(|n| (std::cmp::Reverse(dist[n.index()]), n.0));
    let mut origins = vec![SOURCE];
    origins.extend(far.into_iter().take(sources - 1));
    if origins.len() < sources {
        return Err("topology too disconnected for the requested source count".into());
    }
    Ok(origins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> ScenarioSpec {
        ScenarioSpec::from_toml_str(text).expect("valid spec")
    }

    fn demo(topology: &str, links: &str, workload: &str) -> String {
        format!(
            r#"
            [scenario]
            name = "t"
            [topology]
            {topology}
            {links}
            [schedule]
            model = "homogeneous"
            period = 10
            [workload]
            {workload}
            [matrix]
            protocols = ["of"]
            duties = [0.1, 0.2]
            seeds = [1, 2]
            "#
        )
    }

    #[test]
    fn grid_with_uniform_links() {
        let s = spec(&demo(
            "kind = \"grid\"\nrows = 3\ncols = 3\nprr = 1.0",
            "[links]\nmodel = \"uniform\"\nprr = 0.7",
            "kind = \"single-flood\"\npackets = 2",
        ));
        let b = BuiltScenario::build(s).unwrap();
        assert_eq!(b.topology.n_nodes(), 9);
        for l in b.topology.links() {
            assert_eq!(l.quality.prr(), 0.7);
        }
        assert_eq!(b.injections.len(), 2);
        assert!(b.injections.iter().all(|i| *i == Injection::at_source()));
    }

    #[test]
    fn k_class_links_hit_only_declared_classes() {
        let s = spec(&demo(
            "kind = \"grid\"\nrows = 4\ncols = 4",
            "[links]\nmodel = \"k-class\"\nclasses = [0.8, 0.5]\nweights = [1.0, 1.0]",
            "kind = \"single-flood\"",
        ));
        let b = BuiltScenario::build(s).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for l in b.topology.links() {
            seen.insert(l.quality.prr().to_bits());
        }
        assert!(seen.len() >= 2, "both classes should appear on 48 links");
        for bits in seen {
            let prr = f64::from_bits(bits);
            assert!(prr == 0.8 || prr == 0.5, "unexpected class {prr}");
        }
    }

    #[test]
    fn distance_decay_requires_and_uses_positions() {
        let s = spec(&demo(
            "kind = \"random-geometric\"\nnodes = 30\nside = 60.0\nradius = 25.0",
            "[links]\nmodel = \"distance-decay\"\nq_near = 0.95\nq_far = 0.4",
            "kind = \"single-flood\"",
        ));
        let b = BuiltScenario::build(s).unwrap();
        let positions = b.topology.positions().unwrap();
        let (mut shortest, mut longest) = (f64::MAX, 0.0_f64);
        let (mut q_shortest, mut q_longest) = (0.0, 0.0);
        for l in b.topology.links() {
            let d = positions[l.from.index()].distance(&positions[l.to.index()]);
            if d < shortest {
                shortest = d;
                q_shortest = l.quality.prr();
            }
            if d > longest {
                longest = d;
                q_longest = l.quality.prr();
            }
        }
        assert!(
            q_shortest >= q_longest,
            "decay must not invert: {q_shortest} vs {q_longest}"
        );
        assert!((q_longest - 0.4).abs() < 1e-9, "longest link sits at q_far");
    }

    #[test]
    fn multi_source_origins_are_source_plus_farthest() {
        let s = spec(&demo(
            "kind = \"grid\"\nrows = 3\ncols = 4",
            "",
            "kind = \"multi-source\"\nsources = 2\npackets = 4",
        ));
        let b = BuiltScenario::build(s).unwrap();
        // On a 3×4 grid rooted at node 0 the unique farthest corner is
        // the last node (hop distance 2 + 3 = 5).
        assert_eq!(b.injections[0].origin, SOURCE);
        assert_eq!(b.injections[1].origin, NodeId(11));
        assert_eq!(b.injections[2].origin, SOURCE, "round-robin");
        assert!(b.injections.iter().all(|i| i.slot == 0));
    }

    #[test]
    fn periodic_injections_space_by_interval() {
        let s = spec(&demo(
            "kind = \"grid\"\nrows = 3\ncols = 3",
            "",
            "kind = \"periodic\"\ninterval = 9\npackets = 3",
        ));
        let b = BuiltScenario::build(s).unwrap();
        let slots: Vec<u64> = b.injections.iter().map(|i| i.slot).collect();
        assert_eq!(slots, vec![0, 9, 18]);
        assert!(b.injections.iter().all(|i| i.origin == SOURCE));
    }

    #[test]
    fn schedules_are_cell_deterministic_and_duty_scaled() {
        let s = spec(&demo(
            "kind = \"grid\"\nrows = 3\ncols = 3",
            "",
            "kind = \"single-flood\"",
        ));
        let b = BuiltScenario::build(s).unwrap();
        let a1 = b.schedules(0.2, 1);
        let a2 = b.schedules(0.2, 1);
        for n in 0..a1.n_nodes() {
            let id = NodeId::from(n);
            assert_eq!(
                a1.schedule(id).active_slots(),
                a2.schedule(id).active_slots(),
                "same cell draws the same schedules"
            );
            assert_eq!(a1.schedule(id).active_per_period(), 2, "0.2 × 10 slots");
        }
        let other_seed = b.schedules(0.2, 2);
        assert!(
            (0..9usize).any(|n| {
                let id = NodeId::from(n);
                a1.schedule(id).active_slots() != other_seed.schedule(id).active_slots()
            }),
            "different seeds draw different schedules"
        );
    }

    #[test]
    fn heterogeneous_schedules_use_listed_periods() {
        let text = demo(
            "kind = \"grid\"\nrows = 4\ncols = 4",
            "",
            "kind = \"single-flood\"",
        )
        .replace(
            "model = \"homogeneous\"\n            period = 10",
            "model = \"heterogeneous\"\n            periods = [10, 40]",
        );
        let b = BuiltScenario::build(spec(&text)).unwrap();
        let table = b.schedules(0.1, 1);
        let mut periods = std::collections::BTreeSet::new();
        for n in 0..table.n_nodes() {
            periods.insert(table.schedule(NodeId::from(n)).period());
        }
        assert!(periods.iter().all(|p| [10, 40].contains(p)));
        assert!(periods.len() == 2, "16 draws should hit both periods");
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let base = demo(
            "kind = \"grid\"\nrows = 3\ncols = 3",
            "[links]\nmodel = \"uniform\"\nprr = 0.8",
            "kind = \"single-flood\"\npackets = 2",
        );
        let d1 = BuiltScenario::build(spec(&base)).unwrap().digest();
        let d2 = BuiltScenario::build(spec(&base)).unwrap().digest();
        assert_eq!(d1, d2, "digest is a pure function of the spec");
        assert_eq!(d1.len(), 64);

        let tweaked = base.replace("prr = 0.8", "prr = 0.7");
        let d3 = BuiltScenario::build(spec(&tweaked)).unwrap().digest();
        assert_ne!(d1, d3, "link model is covered");

        let reseeded = base.replace("seeds = [1, 2]", "seeds = [1, 3]");
        let d4 = BuiltScenario::build(spec(&reseeded)).unwrap().digest();
        assert_ne!(d1, d4, "cell schedules are covered");
    }

    #[test]
    fn clustered_forest_and_trace_build_connected() {
        let forest = spec(&demo(
            "kind = \"clustered-forest\"\nnodes = 60\nclusters = 5\nwidth = 120.0\nheight = 90.0",
            "",
            "kind = \"single-flood\"",
        ));
        let b = BuiltScenario::build(forest).unwrap();
        assert_eq!(b.topology.n_nodes(), 60);
        assert!(b.topology.is_connected());
    }
}
