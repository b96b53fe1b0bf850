//! Per-protocol flood cost on a common workload — the relative step
//! costs of OPT / DBAO / OF / NAIVE (the protocols differ in per-slot
//! decision complexity, not just in network behaviour).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldcf_bench::{ProtocolKind, RunRequest, Runner};
use ldcf_net::{LinkQuality, Topology};
use ldcf_sim::SimConfig;
use std::hint::black_box;

fn bench_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocols");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(3));

    let topo = Topology::grid(7, 7, LinkQuality::new(0.8));
    let cfg = SimConfig {
        period: 10,
        active_per_period: 1,
        n_packets: 3,
        coverage: 1.0,
        max_slots: 500_000,
        seed: 13,
        mistiming_prob: 0.0,
    };

    let runner = Runner::default();
    for kind in [
        ProtocolKind::Opt,
        ProtocolKind::Dbao,
        ProtocolKind::Of,
        ProtocolKind::Naive,
    ] {
        g.bench_with_input(
            BenchmarkId::new("flood_grid7x7_m3", kind.name()),
            &kind,
            |b, &kind| b.iter(|| black_box(runner.run(RunRequest::new(&topo, &cfg, kind)))),
        );
    }
    g.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
