//! Test-size runs of every workload, outcome checks included, and the
//! agreement between the metrics the harness emits and the ones
//! `BENCHMARK.json` declares.

use ldcf_benchmark::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use ldcf_benchmark::{default_out, run, RunOpts, Size, Workload};
use serde::Value;
use std::path::Path;

fn smoke(workload: Workload, traced: bool) {
    let tag = format!(
        "{}-{}",
        workload.name(),
        if traced { "traced" } else { "plain" }
    );
    let opts = RunOpts {
        seed: 1,
        seconds: 0.05,
        traced,
        size: Size::Smoke,
        out: default_out().join(format!("test-{tag}")),
    };
    let result = run(workload, &opts).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert!(result.checks.attempted > 0, "{tag}: nothing checked");
    assert_eq!(
        result.checks.failed, 0,
        "{tag}: {:?}",
        result.checks.failures
    );
    let metrics = result.values.resolve(traced).unwrap();
    let declared = if traced {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    assert_eq!(metrics.len(), declared);
    if traced {
        assert!(
            !result.spans.is_empty(),
            "{tag}: a traced run records spans"
        );
        // The service's clients sleep between polls in harness time.
        let coverage = result.values.get("harness.span_coverage_frac").unwrap();
        assert!(
            workload == Workload::Service || coverage >= 0.9,
            "{tag}: layer spans cover {coverage} of the traced time"
        );
    } else {
        for (name, value, _) in metrics {
            assert!(value > 0.0, "{tag}: end-to-end {name} is {value}");
        }
    }
    std::fs::remove_dir_all(&opts.out).ok();
}

#[test]
fn fig9_smoke() {
    smoke(Workload::Fig9, false);
    smoke(Workload::Fig9, true);
}

#[test]
fn fig9_faulted_smoke() {
    smoke(Workload::Fig9Faulted, false);
    smoke(Workload::Fig9Faulted, true);
}

#[test]
fn fig9_traced_smoke() {
    smoke(Workload::Fig9Traced, false);
    smoke(Workload::Fig9Traced, true);
}

#[test]
fn rgg_smoke() {
    smoke(Workload::Rgg100k, false);
    smoke(Workload::Rgg100k, true);
}

#[test]
fn campaign_smoke() {
    smoke(Workload::Campaign, false);
    smoke(Workload::Campaign, true);
}

#[test]
fn service_smoke() {
    smoke(Workload::Service, false);
    smoke(Workload::Service, true);
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(a)) => a,
        other => panic!("BENCHMARK.json {key} is not an array: {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {v:?}"))
}

#[test]
fn emitted_metrics_equal_the_declared_ones() {
    let doc = benchmark_json();
    let end_to_end: Vec<(String, String, String, f64)> = array(&doc, "end_to_end")
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                str_of(m, "better").to_string(),
                m.get("bound").and_then(Value::as_f64).expect("bound"),
            )
        })
        .collect();
    let ours: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
        .collect();
    assert_eq!(end_to_end, ours);

    let per_layer: Vec<(String, String, String)> = array(&doc, "per_layer")
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                str_of(m, "unit").to_string(),
                str_of(m, "better").to_string(),
            )
        })
        .collect();
    let ours: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(per_layer, ours);

    let workloads: Vec<(String, String)> = array(&doc, "workloads")
        .iter()
        .map(|w| (str_of(w, "name").to_string(), str_of(w, "why").to_string()))
        .collect();
    let ours: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, ours);
    for (name, why) in &workloads {
        assert!(valid_name(name), "workload name {name}");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
    }
    for (name, unit, _) in &per_layer {
        assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
    }
}
