//! The `experiments resilience` artefact: degradation curves under
//! composed fault injection (`ldcf-faults`).
//!
//! Two campaigns over the GreenOrbs-style trace at duty 5 %:
//!
//! 1. **Intensity sweep** — every fault model (Gilbert–Elliott burst
//!    loss, k-class PRR degradation, clock drift, node churn) scaled by
//!    one `intensity` knob via [`FaultConfig::at_intensity`], swept over
//!    a grid for each paper protocol (OF/DBAO/OPT) and averaged over
//!    seeds. Reported per cell: coverage success rate, mean and p99
//!    flooding delay, per-node energy, crash/retry counts. The curves
//!    are the artefact's contract: coverage degrades (weakly) and delay
//!    grows (weakly) as intensity rises.
//! 2. **Fault isolation** — one protocol (DBAO) at fixed intensity
//!    with each model enabled alone, plus the forensics-safe burst+drift composition and the
//!    full stack, attributing the damage. The burst+drift row's event
//!    trace (`dbao-…-fbd.events.bin`) is the one faulted trace
//!    `tests/pins.rs` replays through flood forensics.

use crate::options::ExpOptions;
use crate::runner::{ProtocolKind, RunRequest, Runner};
use ldcf_analysis::{Series, Table};
use ldcf_net::Topology;
use ldcf_sim::energy::{EnergyLedger, EnergyModel};
use ldcf_sim::{FaultConfig, SimConfig, SimReport};
use rayon::prelude::*;
use std::fmt::Write as _;

/// Duty cycle of every resilience run (the paper's headline operating
/// point).
const DUTY: f64 = 0.05;

/// Per-run slot cap: tighter than the fault-free artefacts because a
/// harsh churn campaign can leave a tail packet uncoverable for a long
/// stretch; the coverage-success-rate metric absorbs truncated runs.
const MAX_SLOTS_CAP: u64 = 600_000;

/// Fixed intensity of the fault-isolation table.
const ISOLATION_INTENSITY: f64 = 0.75;

/// The intensity grid: coarse endpoints for `--quick`, five points for
/// the full campaign.
pub fn intensity_grid(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.0, 0.5, 1.0]
    } else {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    }
}

/// One `(protocol, intensity)` cell of the sweep, averaged over seeds.
#[derive(Clone, Debug)]
pub struct ResilienceCell {
    /// Protocol under test.
    pub kind: ProtocolKind,
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Mean fraction of packets that reached coverage.
    pub coverage_rate: f64,
    /// Mean flooding delay over covered packets (slots; NaN if none).
    pub mean_delay: f64,
    /// Mean p99 flooding delay over covered packets (slots; NaN if none).
    pub p99_delay: f64,
    /// Mean total energy per node (listen/tx/rx/sleep units).
    pub energy_per_node: f64,
    /// Mean injected node crashes per run.
    pub crashes: f64,
    /// Mean source-side retries per run.
    pub retries: f64,
    /// Mean mistimed (drift-missed) transmissions per run.
    pub mistimed: f64,
}

/// Simulation config of one resilience run (duty 5 %, coverage 0.90).
fn resilience_config(opts: &ExpOptions, seed: u64) -> SimConfig {
    let period = 100;
    SimConfig {
        period,
        active_per_period: ((DUTY * period as f64).round() as u32).max(1),
        n_packets: opts.m,
        // 0.90 rather than the paper's 0.99: under churn a crashed
        // holder sheds coverage, and the lower target keeps "reached
        // coverage" meaningful while ~10 % of sensors may be down.
        coverage: 0.90,
        max_slots: opts.max_slots.min(MAX_SLOTS_CAP),
        seed,
        mistiming_prob: 0.0,
    }
}

/// p99 of the covered packets' flooding delays (NaN if none covered).
fn p99_delay(report: &SimReport) -> f64 {
    let mut delays: Vec<u64> = report
        .packets
        .iter()
        .filter_map(|p| p.flooding_delay())
        .collect();
    if delays.is_empty() {
        return f64::NAN;
    }
    delays.sort_unstable();
    let idx = ((delays.len() - 1) as f64 * 0.99).ceil() as usize;
    delays[idx] as f64
}

/// Average the seeds' reports into one cell.
fn cell_of_runs(
    kind: ProtocolKind,
    intensity: f64,
    runs: &[(SimReport, EnergyLedger)],
) -> ResilienceCell {
    let model = EnergyModel::default();
    let k = runs.len() as f64;
    let mean = |f: &dyn Fn(&(SimReport, EnergyLedger)) -> f64| runs.iter().map(f).sum::<f64>() / k;
    ResilienceCell {
        kind,
        intensity,
        coverage_rate: mean(&|(r, _)| r.coverage_success_rate()),
        mean_delay: mean(&|(r, _)| r.mean_flooding_delay().unwrap_or(f64::NAN)),
        p99_delay: mean(&|(r, _)| p99_delay(r)),
        energy_per_node: mean(&|(r, e)| e.total(&model) / r.n_sensors.max(1) as f64),
        crashes: mean(&|(r, _)| r.node_crashes as f64),
        retries: mean(&|(r, _)| r.source_retries as f64),
        mistimed: mean(&|(r, _)| r.mistimed as f64),
    }
}

/// One faulted flood, its trace file tagged with `tag`.
fn faulted_run(
    runner: &Runner,
    topo: &Topology,
    cfg: &SimConfig,
    kind: ProtocolKind,
    faults: &FaultConfig,
    tag: &str,
) -> (SimReport, EnergyLedger) {
    let out = runner.run(RunRequest {
        faults: Some(faults),
        tag,
        ..RunRequest::new(topo, cfg, kind)
    });
    (out.report, out.energy)
}

/// Filename-safe tag of an intensity level (`0.5` → `"f050"`).
fn intensity_tag(intensity: f64) -> String {
    format!("f{:03.0}", intensity * 100.0)
}

/// The intensity sweep: `protocols × intensities`, seed-averaged.
/// Rows are ordered by protocol then intensity.
pub fn resilience_sweep(
    runner: &Runner,
    opts: &ExpOptions,
    protocols: &[ProtocolKind],
    intensities: &[f64],
) -> Vec<ResilienceCell> {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    protocols
        .par_iter()
        .map(|&kind| {
            intensities
                .par_iter()
                .map(|&x| {
                    let runs: Vec<(SimReport, EnergyLedger)> = opts
                        .seeds
                        .iter()
                        .map(|&seed| {
                            let cfg = resilience_config(opts, seed);
                            let faults = FaultConfig::at_intensity(seed, x);
                            faulted_run(runner, &topo, &cfg, kind, &faults, &intensity_tag(x))
                        })
                        .collect();
                    cell_of_runs(kind, x, &runs)
                })
                .collect::<Vec<ResilienceCell>>()
        })
        .collect::<Vec<Vec<ResilienceCell>>>()
        .into_iter()
        .flatten()
        .collect()
}

/// The isolation profiles: each fault model alone, the forensics-safe
/// burst+drift pair, and the full stack, all at `intensity`.
fn isolation_profiles(seed: u64, intensity: f64) -> Vec<(&'static str, &'static str, FaultConfig)> {
    let full = FaultConfig::at_intensity(seed, intensity);
    let only = |burst, degradation, drift, churn| FaultConfig {
        seed,
        burst: if burst { full.burst } else { None },
        degradation: if degradation { full.degradation } else { None },
        drift: if drift { full.drift } else { None },
        churn: if churn { full.churn } else { None },
    };
    vec![
        ("none", "fnone", FaultConfig::none(seed)),
        ("burst only", "fburst", only(true, false, false, false)),
        ("degradation only", "fdegr", only(false, true, false, false)),
        ("drift only", "fdrift", only(false, false, true, false)),
        ("burst+drift", "fbd", full.clone().burst_and_drift_only()),
        ("churn only", "fchurn", only(false, false, false, true)),
        ("all", "fall", full),
    ]
}

/// The fault-isolation table for DBAO at [`ISOLATION_INTENSITY`],
/// seed-averaged: `(profile name, cell)` per row.
pub fn isolation_table(runner: &Runner, opts: &ExpOptions) -> Vec<(String, ResilienceCell)> {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let kind = ProtocolKind::Dbao;
    // Profiles are seed-dependent (FaultConfig embeds the seed), so
    // fan out over profile *indices* and rebuild per seed.
    let n_profiles = isolation_profiles(0, ISOLATION_INTENSITY).len();
    (0..n_profiles)
        .collect::<Vec<usize>>()
        .par_iter()
        .map(|&i| {
            let mut name = String::new();
            let runs: Vec<(SimReport, EnergyLedger)> = opts
                .seeds
                .iter()
                .map(|&seed| {
                    let (label, tag, faults) =
                        isolation_profiles(seed, ISOLATION_INTENSITY).swap_remove(i);
                    name = label.to_string();
                    let cfg = resilience_config(opts, seed);
                    faulted_run(runner, &topo, &cfg, kind, &faults, tag)
                })
                .collect();
            (name, cell_of_runs(kind, ISOLATION_INTENSITY, &runs))
        })
        .collect()
}

fn cell_row(out: &mut String, label: &str, c: &ResilienceCell) {
    writeln!(
        out,
        "| {label} | {:.3} | {:.0} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} |",
        c.coverage_rate,
        c.mean_delay,
        c.p99_delay,
        c.energy_per_node,
        c.crashes,
        c.retries,
        c.mistimed,
    )
    .unwrap();
}

const CELL_HEADER: &str = "| | coverage | mean delay | p99 delay | energy/node | crashes | retries | drift misses |\n|---|---|---|---|---|---|---|---|";

/// The full artefact as markdown: intensity-sweep table + delay chart,
/// then the fault-isolation table.
pub fn resilience(runner: &Runner, opts: &ExpOptions, quick: bool) -> String {
    let intensities = intensity_grid(quick);
    let protocols = ProtocolKind::paper_set();
    let cells = resilience_sweep(runner, opts, &protocols, &intensities);

    let mut out = String::new();
    writeln!(
        out,
        "Degradation under composed faults (burst loss + PRR degradation \
         + clock drift + churn), duty {:.0} %, coverage target 0.90, \
         seed-averaged over {:?}.\n",
        DUTY * 100.0,
        opts.seeds
    )
    .unwrap();
    for &kind in &protocols {
        writeln!(out, "### {}\n", kind.name()).unwrap();
        writeln!(out, "{CELL_HEADER}").unwrap();
        for c in cells.iter().filter(|c| c.kind == kind) {
            cell_row(&mut out, &format!("intensity {:.2}", c.intensity), c);
        }
        writeln!(out).unwrap();
    }

    // Mean-delay degradation curves, charted like the other figures.
    let delay_table = Table::new(
        "intensity",
        protocols
            .iter()
            .map(|&kind| {
                let mut s = Series::new(format!("{} delay", kind.name()));
                for c in cells.iter().filter(|c| c.kind == kind) {
                    s.push(c.intensity, c.mean_delay);
                }
                s
            })
            .collect(),
    );
    writeln!(out, "```text\n{}```\n", delay_table.to_chart()).unwrap();

    writeln!(
        out,
        "### Fault isolation — DBAO at intensity {ISOLATION_INTENSITY}\n"
    )
    .unwrap();
    writeln!(out, "{CELL_HEADER}").unwrap();
    for (name, c) in isolation_table(runner, opts) {
        cell_row(&mut out, &name, &c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_tags_are_distinct_and_filename_safe() {
        let tags: Vec<String> = intensity_grid(false)
            .iter()
            .map(|&x| intensity_tag(x))
            .collect();
        assert_eq!(tags, vec!["f000", "f025", "f050", "f075", "f100"]);
        let quick: Vec<String> = intensity_grid(true)
            .iter()
            .map(|&x| intensity_tag(x))
            .collect();
        assert_eq!(quick, vec!["f000", "f050", "f100"]);
    }

    #[test]
    fn isolation_profiles_cover_each_model_alone() {
        let profiles = isolation_profiles(1, 0.75);
        let names: Vec<&str> = profiles.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            [
                "none",
                "burst only",
                "degradation only",
                "drift only",
                "burst+drift",
                "churn only",
                "all"
            ]
        );
        // Tags must be distinct (they key the trace filenames).
        let mut tags: Vec<&str> = profiles.iter().map(|(_, t, _)| *t).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), profiles.len());
        // Single-model rows enable exactly one model.
        let single = &profiles[1].2;
        assert!(single.burst.is_some());
        assert!(single.degradation.is_none() && single.drift.is_none() && single.churn.is_none());
        let bd = &profiles[4].2;
        assert!(bd.burst.is_some() && bd.drift.is_some());
        assert!(bd.degradation.is_none() && bd.churn.is_none());
    }

    #[test]
    fn p99_is_max_for_small_sets() {
        let mut r = SimReport::new("x", 10, 0.05, 3);
        for (p, (push, cover)) in [(0u64, 10u64), (0, 30), (0, 20)].iter().enumerate() {
            r.record_push(p as u32, *push);
            r.record_coverage(p as u32, *cover);
        }
        assert_eq!(p99_delay(&r), 30.0);
    }
}
