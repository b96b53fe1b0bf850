//! End-to-end integration: trace generation → simulation → protocol
//! comparison, reproducing the paper's qualitative results on a small
//! instance of the full pipeline.

use ldcf::prelude::*;
use ldcf::trace::deploy::DeployConfig;
use ldcf::trace::{generate, GreenOrbsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_trace(seed: u64) -> Topology {
    let cfg = GreenOrbsConfig {
        deploy: DeployConfig {
            n_nodes: 60,
            width: 150.0,
            height: 120.0,
            n_clusters: 6,
            ..DeployConfig::default()
        },
        ..GreenOrbsConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&cfg, &mut rng)
}

fn flood(topo: &Topology, protocol: impl FloodingProtocol, seed: u64) -> SimReport {
    let cfg = SimConfig {
        n_packets: 10,
        coverage: 0.99,
        period: 20,
        active_per_period: 1,
        max_slots: 1_000_000,
        seed,
        mistiming_prob: 0.0,
    };
    let (report, _) = Engine::new(topo.clone(), cfg, protocol).run();
    report
}

#[test]
fn paper_protocol_ordering_holds() {
    // Fig. 9/10: OPT <= DBAO <= OF in mean flooding delay (averaged over
    // seeds to damp noise).
    let topo = small_trace(42);
    let seeds = [1u64, 2, 3];
    let mean = |which: &str| -> f64 {
        let total: f64 = seeds
            .iter()
            .map(|&s| {
                let r = match which {
                    "OPT" => flood(&topo, Opt::new(), s),
                    "DBAO" => flood(&topo, Dbao::new(), s),
                    _ => flood(&topo, OpportunisticFlooding::new(), s),
                };
                assert!(r.all_covered(), "{} did not cover", r.protocol);
                r.mean_flooding_delay().unwrap()
            })
            .sum();
        total / seeds.len() as f64
    };
    let opt = mean("OPT");
    let dbao = mean("DBAO");
    let of = mean("OF");
    assert!(opt <= dbao, "OPT ({opt}) must not lose to DBAO ({dbao})");
    assert!(dbao <= of, "DBAO ({dbao}) must not lose to OF ({of})");
}

#[test]
fn opt_never_collides_and_only_loses_to_links() {
    let topo = small_trace(43);
    let r = flood(&topo, Opt::new(), 5);
    assert!(r.all_covered());
    assert_eq!(r.collisions, 0);
    // All failures are link loss.
    assert_eq!(
        r.transmission_failures,
        r.packets.iter().map(|p| p.failures as u64).sum::<u64>()
    );
}

#[test]
fn theory_bound_sits_below_simulation() {
    // Fig. 10's "Predicted Lower Bound": the eigenvalue-based analytic
    // delay must lower-bound every protocol's simulated delay.
    let topo = small_trace(44);
    let n = topo.n_sensors() as u64;
    let q = topo.mean_link_quality().unwrap();
    let bound = ldcf::theory::link_loss::predicted_lower_bound(n, 0.05, q);
    for report in [
        flood(&topo, Opt::new(), 9),
        flood(&topo, Dbao::new(), 9),
        flood(&topo, OpportunisticFlooding::new(), 9),
    ] {
        let measured = report.mean_flooding_delay().unwrap();
        assert!(
            bound <= measured,
            "{}: bound {bound} exceeds measured {measured}",
            report.protocol
        );
    }
}

#[test]
fn delay_falls_as_duty_rises_all_protocols() {
    // Fig. 10's headline shape, on the small trace, per protocol.
    let topo = small_trace(45);
    // Mean delay over seeds 1 and 2 at duty 2 % and at duty 20 %.
    fn low_and_high<P: FloodingProtocol>(topo: &Topology, protocol: impl Fn() -> P) -> (f64, f64) {
        let run = |duty: f64, seed: u64| -> f64 {
            let cfg = SimConfig {
                n_packets: 5,
                coverage: 0.99,
                max_slots: 1_000_000,
                seed,
                ..SimConfig::default()
            }
            .with_duty_cycle(duty);
            let (r, _) = Engine::new(topo.clone(), cfg, protocol()).run();
            assert!(r.all_covered(), "{} at duty {duty}", r.protocol);
            r.mean_flooding_delay().unwrap()
        };
        (
            (run(0.02, 1) + run(0.02, 2)) / 2.0,
            (run(0.20, 1) + run(0.20, 2)) / 2.0,
        )
    }
    for (name, (lo, hi)) in [
        ("OF", low_and_high(&topo, OpportunisticFlooding::new)),
        ("DBAO", low_and_high(&topo, Dbao::new)),
        ("OPT", low_and_high(&topo, Opt::new)),
    ] {
        assert!(
            lo > hi,
            "{name}: delay at duty 2% ({lo}) must exceed delay at duty 20% ({hi})"
        );
    }
}

#[test]
fn failures_do_not_explode_with_duty() {
    // Fig. 11: the transmission-failure count stays in the same ballpark
    // across duty cycles (within ~3x here; the paper's band is ~20%).
    let topo = small_trace(46);
    let fails = |duty: f64| -> f64 {
        let cfg = SimConfig {
            n_packets: 10,
            coverage: 0.99,
            max_slots: 1_000_000,
            seed: 3,
            ..SimConfig::default()
        }
        .with_duty_cycle(duty);
        let (r, _) = Engine::new(topo.clone(), cfg, Opt::new()).run();
        r.transmission_failures as f64
    };
    let f2 = fails(0.02).max(1.0);
    let f20 = fails(0.20).max(1.0);
    let ratio = (f2 / f20).max(f20 / f2);
    assert!(ratio < 3.0, "failure counts diverged: {f2} vs {f20}");
}

#[test]
fn trace_roundtrip_preserves_simulation_results() {
    // Saving and reloading the trace must not change a deterministic run.
    let topo = small_trace(47);
    let tf = ldcf::trace::TraceFile::from_topology(&topo, "roundtrip", 47);
    let topo2 = ldcf::trace::TraceFile::from_json(&tf.to_json())
        .unwrap()
        .to_topology();
    let a = flood(&topo, Dbao::new(), 11);
    let b = flood(&topo2, Dbao::new(), 11);
    assert_eq!(a.slots_elapsed, b.slots_elapsed);
    assert_eq!(a.transmissions, b.transmissions);
    assert_eq!(a.transmission_failures, b.transmission_failures);
    assert_eq!(a.mean_flooding_delay(), b.mean_flooding_delay());
}
