//! Criterion coverage of the fig9 GreenOrbs workloads — the same six
//! cases the `experiments perf` subcommand times (OPT / DBAO / OF at
//! duty 5 %, clean and under the composed fault stack), so criterion's
//! statistics complement the median/MAD rep numbers in
//! `BENCH_<label>.json`.
//!
//! The workload mirrors `ldcf_bench::perf::perf` with the quick option
//! set; any drift between the two is a bug in whichever changed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldcf_bench::{ExpOptions, ProtocolKind, RunRequest, Runner};
use ldcf_sim::{FaultConfig, SimConfig};
use std::hint::black_box;

/// Duty cycle of the fig9 operating point (mirrors `perf::DUTY`).
const DUTY: f64 = 0.05;

/// Fault intensity of the faulted cases (mirrors `perf::FAULT_INTENSITY`).
const FAULT_INTENSITY: f64 = 0.5;

fn fig9_config(opts: &ExpOptions, seed: u64) -> SimConfig {
    let period = 100;
    SimConfig {
        period,
        active_per_period: ((DUTY * period as f64).round() as u32).max(1),
        n_packets: opts.m,
        coverage: opts.coverage,
        max_slots: opts.max_slots,
        seed,
        mistiming_prob: 0.0,
    }
}

fn bench_fig9_workloads(c: &mut Criterion) {
    let opts = ExpOptions::quick();
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let seed = *opts.seeds.first().expect("quick option set has a seed");
    let cfg = fig9_config(&opts, seed);

    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(3));

    let runner = Runner::default();
    for kind in [ProtocolKind::Opt, ProtocolKind::Dbao, ProtocolKind::Of] {
        g.bench_with_input(BenchmarkId::new("clean", kind.name()), &kind, |b, &kind| {
            b.iter(|| black_box(runner.run(RunRequest::new(&topo, &cfg, kind))))
        });
        let faults = FaultConfig::at_intensity(seed, FAULT_INTENSITY);
        g.bench_with_input(
            BenchmarkId::new("faulted", kind.name()),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    black_box(runner.run(RunRequest {
                        faults: Some(&faults),
                        tag: "bench",
                        ..RunRequest::new(&topo, &cfg, kind)
                    }))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_fig9_workloads);
criterion_main!(benches);
