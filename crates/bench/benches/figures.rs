//! One bench per paper artefact: times the regeneration of each table /
//! figure (analytical figures run in full; trace-driven figures run a
//! reduced configuration so `cargo bench` completes in minutes — the
//! `experiments` binary regenerates the full-size versions).

use criterion::{criterion_group, criterion_main, Criterion};
use ldcf_bench::{experiments, ExpOptions, Runner};
use std::hint::black_box;

fn tiny_opts() -> ExpOptions {
    ExpOptions {
        m: 10,
        seeds: vec![1],
        duties: vec![0.05, 0.20],
        ..ExpOptions::quick()
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(2));

    g.bench_function("table1", |b| {
        b.iter(|| black_box(experiments::table1(1024)))
    });
    g.bench_function("fig3", |b| b.iter(|| black_box(experiments::fig3())));
    g.bench_function("fig5", |b| b.iter(|| black_box(experiments::fig5())));
    g.bench_function("fig6", |b| b.iter(|| black_box(experiments::fig6())));
    g.bench_function("fig7", |b| b.iter(|| black_box(experiments::fig7(298))));
    g.bench_function("theorem1_check", |b| {
        b.iter(|| black_box(experiments::theorem1_check()))
    });
    g.bench_function("lifetime_gain", |b| {
        b.iter(|| black_box(experiments::lifetime_gain(298, 0.75)))
    });
    g.finish();

    // Trace-driven figures: run once per sample at reduced size.
    let mut g = c.benchmark_group("figures_sim");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.measurement_time(std::time::Duration::from_secs(5));
    let opts = tiny_opts();
    let runner = Runner::default();
    g.bench_function("fig9_reduced", |b| {
        b.iter(|| black_box(experiments::fig9(&runner, &opts)))
    });
    g.bench_function("fig10_fig11_reduced", |b| {
        b.iter(|| black_box(experiments::fig10_fig11(&runner, &opts)))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
