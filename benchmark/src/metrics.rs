//! The metric vocabulary — the same names, units, directions and
//! bounds `BENCHMARK.json` declares (a test keeps the two equal) — and
//! the result line the run prints last.
//!
//! Every workload reports every metric of its mode. A per-layer metric
//! of a layer the workload never calls reads 0 there.

use serde::Value;
use std::collections::BTreeMap;

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics (untraced runs).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "slots_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
];

/// A per-layer metric (traced runs): `(name, unit, better)`.
pub type Layer = (&'static str, &'static str, &'static str);

/// The per-layer metrics.
pub const PER_LAYER: &[Layer] = &[
    ("harness.trace_overhead_frac", "frac", "lower"),
    ("harness.span_coverage_frac", "frac", "higher"),
    ("net.self_frac", "frac", "lower"),
    ("sim.self_frac", "frac", "lower"),
    ("protocols.self_frac", "frac", "lower"),
    ("faults.self_frac", "frac", "lower"),
    ("obs.self_frac", "frac", "lower"),
    ("analysis.self_frac", "frac", "lower"),
    ("scenarios.self_frac", "frac", "lower"),
    ("bench.self_frac", "frac", "lower"),
    ("service.self_frac", "frac", "lower"),
    ("trace.greenorbs_s", "s", "lower"),
    ("net.rgg_build_s", "s", "lower"),
    ("net.schedule_build_s", "s", "lower"),
    ("net.topology_clone_s", "s", "lower"),
    ("sim.engine_build_s", "s", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.elapsed_slots", "count", "lower"),
    ("sim.dispatched_slots", "count", "lower"),
    ("sim.dispatch_frac", "frac", "lower"),
    ("sim.slot_ns_p50", "ns", "lower"),
    ("sim.slot_ns_p99", "ns", "lower"),
    ("sim.injection_ns_per_slot", "ns/slot", "lower"),
    ("sim.sync_ns_per_slot", "ns/slot", "lower"),
    ("sim.mac_ns_per_slot", "ns/slot", "lower"),
    ("sim.deliver_ns_per_slot", "ns/slot", "lower"),
    ("sim.prune_ns_per_slot", "ns/slot", "lower"),
    ("sim.energy_ns_per_slot", "ns/slot", "lower"),
    ("sim.idle_skip_ns_per_slot", "ns/slot", "lower"),
    ("protocols.propose_ns_per_slot", "ns/slot", "lower"),
    ("protocols.run_s.of", "s", "lower"),
    ("protocols.run_s.dbao", "s", "lower"),
    ("protocols.run_s.opt", "s", "lower"),
    ("faults.faults_ns_per_slot", "ns/slot", "lower"),
    ("obs.events_per_flood", "count", "lower"),
    ("obs.jsonl_encode_ns_per_event", "ns/event", "lower"),
    ("obs.bin_encode_ns_per_event", "ns/event", "lower"),
    ("obs.jsonl_bytes_per_event", "B/event", "lower"),
    ("obs.bin_bytes_per_event", "B/event", "lower"),
    ("analysis.forensics_jsonl_ns_per_event", "ns/event", "lower"),
    ("analysis.forensics_bin_ns_per_event", "ns/event", "lower"),
    ("analysis.stats_recompute_s", "s", "lower"),
    ("scenarios.parse_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.digest_s", "s", "lower"),
    ("scenarios.schedules_s", "s", "lower"),
    ("bench.campaign_s", "s", "lower"),
    ("bench.cell_sim_s", "s", "lower"),
    ("bench.campaign_overhead_s", "s", "lower"),
    ("bench.checkpoint_bytes", "B", "lower"),
    ("bench.files_written", "count", "lower"),
    ("service.jobs_per_s", "1/s", "higher"),
    ("service.latency_p90_ms", "ms", "lower"),
    ("service.submit_ms_p50", "ms", "lower"),
    ("service.queue_wait_ms_p50", "ms", "lower"),
    ("service.exec_ms_p50", "ms", "lower"),
    ("service.results_ms_p50", "ms", "lower"),
    ("service.polls_per_job", "count", "lower"),
    ("service.http_errors", "count", "lower"),
];

/// Each layer and the metric holding its share of the traced time.
pub const LAYER_SHARES: &[(&str, &str)] = &[
    ("net", "net.self_frac"),
    ("sim", "sim.self_frac"),
    ("protocols", "protocols.self_frac"),
    ("faults", "faults.self_frac"),
    ("obs", "obs.self_frac"),
    ("analysis", "analysis.self_frac"),
    ("scenarios", "scenarios.self_frac"),
    ("bench", "bench.self_frac"),
    ("service", "service.self_frac"),
];

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// `(name, unit)` of every metric a run in the given mode reports.
pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The values a run measured, by metric name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `name`; a second record of the same name replaces it.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The declared metrics of the mode, in declaration order, with
    /// their values. Layers the workload never called read 0; a name
    /// outside the declaration or a non-finite value is a harness bug.
    pub fn resolve(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let decl = declared(traced);
        if let Some(extra) = self.0.keys().find(|k| !decl.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not declared for this mode"));
        }
        decl.into_iter()
            .map(|(name, unit)| {
                let v = match self.get(name) {
                    Some(v) => v,
                    None if traced => 0.0,
                    None => return Err(format!("end-to-end metric {name} was not measured")),
                };
                if v.is_finite() {
                    Ok((name, v, unit))
                } else {
                    Err(format!("metric {name} is not finite: {v}"))
                }
            })
            .collect()
    }
}

/// `{"<name>": {"value": v, "unit": u}, ...}`.
pub fn metrics_value(metrics: &[(&'static str, f64, &'static str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let v = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics_value(metrics)),
    ]);
    serde_json::to_string(&v).expect("result line serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in declared(false).into_iter().chain(declared(true)) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
            assert!(
                m.bound <= setup.bound,
                "setup_s must have the largest bound"
            );
            assert!(matches!(m.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.iter().all(|l| matches!(l.2, "lower" | "higher")));
        assert!(PER_LAYER.len() <= 128);
        for (_, metric) in LAYER_SHARES {
            assert!(PER_LAYER.iter().any(|l| l.0 == *metric), "{metric}");
        }
    }

    #[test]
    fn name_charset() {
        assert!(valid_name("fig9-faulted"));
        assert!(valid_name("protocols.run_s.of"));
        assert!(valid_name("0day"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("ns/slot") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn resolve_fills_unused_layers_and_rejects_gaps() {
        let mut v = Values::default();
        v.set("sim.run_s", 1.5);
        let traced = v.resolve(true).unwrap();
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.iter().any(|&(n, x, _)| n == "sim.run_s" && x == 1.5));
        assert!(traced
            .iter()
            .any(|&(n, x, _)| n == "faults.self_frac" && x == 0.0));
        // Untraced runs must measure every end-to-end metric.
        assert!(Values::default().resolve(false).is_err());
        v.set("setup_s", f64::NAN);
        assert!(v.resolve(true).is_err(), "setup_s is not a layer metric");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[("setup_s", 0.8127, "s")]);
        let v: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("s"));
        assert!(line.contains("0.8127"), "{line}");
        assert!(!line.contains('\n'));
    }
}
