//! The deterministic campaign runner: expands a scenario's parameter
//! matrix into one simulation per (protocol × duty × seed) cell, runs
//! the cells in parallel, checkpoints each one, and folds the results
//! into streaming per-group statistics (`ldcf_analysis::campaign`).
//!
//! Determinism contract:
//!
//! * The matrix is partitioned into **fixed seed shards** — at most
//!   [`SHARDS`] per duty, a pure function of the seed count, never of
//!   the worker count. Each (duty, shard) work unit walks its seeds in
//!   matrix order, runs every protocol for a seed, folds the row into
//!   a shard-local [`CampaignStats`] partial, and drops the summaries.
//!   Partials are collected in input order (the vendored rayon shim
//!   preserves it) and merged in fixed unit order, so every byte of
//!   `campaign.md` / `campaign.json` / `campaign-stats.md` is
//!   independent of `rayon::set_thread_limit` and scheduling luck.
//! * Peak memory is O(shards × groups), independent of the seed count:
//!   no per-seed report vector exists anywhere. A thousand-seed cell
//!   costs the same resident set as a one-seed cell.
//! * Each cell is a pure function of the built scenario and its
//!   `(duty, seed)`: schedules come from [`BuiltScenario::schedules`],
//!   the injection plan from the workload, and the engine's MAC seed
//!   from the cell seed. Nothing reads the wall clock.
//! * Every finished cell is checkpointed to `<out>/cells/<stem>.json`
//!   keyed by the scenario's spec digest. A re-run (after a kill, or
//!   incrementally after adding matrix entries) reloads cells whose
//!   digest still matches and re-runs only the rest, producing the same
//!   aggregate bytes as an uninterrupted run. Stale checkpoints (spec
//!   changed → digest changed) are ignored and overwritten.
//!   [`recompute_stats`] replays the same fold over an existing
//!   checkpoint directory without simulating anything — byte-identical
//!   statistics, enforced by `tests/stats.rs`.

use crate::heartbeat::Heartbeat;
use crate::runner::{ProtocolKind, RunRequest, Runner};
use ldcf_analysis::campaign::{CampaignStats, CellSummary};
use ldcf_obs::{write_atomic, ProgressSink, RunManifest};
use ldcf_scenarios::{BuiltScenario, ScenarioSpec, ScheduleModel};
use ldcf_sim::SimConfig;
use rayon::prelude::*;
use serde::Value;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Schema version stamped into cell checkpoints and `campaign.json`.
/// v2: cells carry `energy_active`; `campaign.json` replaced the
/// per-seed `cells` array (O(seeds) memory) with the streaming
/// `statistics` block.
pub const CELL_SCHEMA_VERSION: u64 = 2;

/// Maximum seed shards per duty. Fixed — the shard partition depends
/// only on the seed count, so the partial-merge order (and therefore
/// every artefact byte) is identical whatever the worker count.
pub const SHARDS: usize = 32;

/// The error string [`run_campaign_with`] returns when its cancel token
/// fires. Checkpoints of every finished cell are on disk; a later run
/// resumes from them. Callers (the campaign service) match on this to
/// distinguish cancellation from failure.
pub const CANCELLED: &str = "campaign cancelled";

/// What a campaign run produced, for the caller to print/exit on.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Scenario name.
    pub name: String,
    /// Spec digest of the (possibly quickened) matrix that ran.
    pub digest: String,
    /// The rendered `campaign.md` body.
    pub markdown: String,
    /// The folded per-group statistics.
    pub stats: CampaignStats,
    /// Total cells in the matrix.
    pub cells_total: usize,
    /// Cells simulated in this invocation.
    pub cells_run: usize,
    /// Cells reloaded from valid checkpoints.
    pub cells_resumed: usize,
    /// Slots stepped by the cells this invocation simulated (resumed
    /// cells contribute nothing — their slots were spent in an earlier
    /// run).
    pub slots_run: u64,
    /// Whether the matrix was quickened.
    pub quick: bool,
    /// Display names of the matrix protocols, in matrix order.
    pub protocols: Vec<String>,
    /// The matrix seeds (after quickening), in matrix order.
    pub seeds: Vec<u64>,
}

impl CampaignOutcome {
    /// The provenance manifest of this run (`campaign.manifest.json`):
    /// the spec's protocols and seeds, the cells and slots this
    /// invocation simulated, and `wall_ms` of wall clock. Wall-clock
    /// telemetry, outside the byte-reproducibility contract.
    pub fn manifest(&self, wall_ms: u64) -> RunManifest {
        RunManifest::new(
            &format!("campaign-{}", self.name),
            self.protocols.clone(),
            Value::Object(vec![(
                "spec_digest".into(),
                Value::Str(self.digest.clone()),
            )]),
            self.seeds.clone(),
            self.quick,
            self.cells_run as u64,
            self.slots_run,
            wall_ms,
        )
    }
}

/// Write `manifest` as `<out>/campaign.manifest.json`, atomically.
pub fn write_manifest(out: &Path, manifest: &RunManifest) -> Result<(), String> {
    write_atomic(
        &out.join("campaign.manifest.json"),
        (manifest.to_json_pretty() + "\n").as_bytes(),
    )
    .map_err(|e| format!("write campaign.manifest.json: {e}"))
}

/// Shrink a spec's matrix for `--quick`. Delegates to
/// [`ScenarioSpec::quicken`] so that the campaign service — which
/// derives job ids at submit time without this crate — computes exactly
/// the digest this runner will run under.
pub fn quicken(spec: ScenarioSpec) -> ScenarioSpec {
    spec.quicken()
}

/// Resolve the matrix protocols to engine kinds with canonical
/// (lowercase) names; errors on unknown protocols.
fn resolve_protocols(spec: &ScenarioSpec) -> Result<Vec<(ProtocolKind, String)>, String> {
    spec.matrix
        .protocols
        .iter()
        .map(|name| {
            ProtocolKind::from_cli_name(name)
                .map(|kind| (kind, name.to_ascii_lowercase()))
                .ok_or_else(|| format!("unknown protocol {name:?} in matrix.protocols"))
        })
        .collect()
}

/// The fixed seed-shard partition: an even split of `n_seeds` into at
/// most [`SHARDS`] contiguous, non-empty ranges. A pure function of
/// the seed count — never of the worker count.
fn shard_ranges(n_seeds: usize) -> Vec<(usize, usize)> {
    let shards = SHARDS.min(n_seeds);
    (0..shards)
        .map(|s| (s * n_seeds / shards, (s + 1) * n_seeds / shards))
        .collect()
}

/// The engine config of one cell. The period is representative for
/// heterogeneous schedules (the engine wakes nodes from the externally
/// drawn schedule table, not from this value); `active_per_period`
/// mirrors the schedule model's `max(1, round(duty × T))`.
fn cell_config(spec: &ScenarioSpec, duty: f64, seed: u64) -> SimConfig {
    let period = match &spec.schedule {
        ScheduleModel::Homogeneous { period } => *period,
        ScheduleModel::Heterogeneous { periods } => {
            *periods.iter().max().expect("validated non-empty")
        }
    };
    SimConfig {
        period,
        active_per_period: ((duty * period as f64).round() as u32).clamp(1, period),
        n_packets: spec.workload.packets,
        coverage: spec.workload.coverage,
        max_slots: spec.workload.max_slots,
        seed,
        mistiming_prob: 0.0,
    }
}

fn cell_stem(protocol: &str, duty: f64, seed: u64) -> String {
    format!("{protocol}-d{duty:.4}-s{seed}")
}

fn run_cell(
    runner: &Runner,
    built: &BuiltScenario,
    kind: ProtocolKind,
    protocol: &str,
    duty: f64,
    seed: u64,
) -> CellSummary {
    let cfg = cell_config(&built.spec, duty, seed);
    let schedules = built.schedules(duty, seed);
    let out = runner.run(RunRequest {
        scenario: Some((schedules, &built.injections)),
        tag: &built.spec.name,
        ..RunRequest::new(&built.topology, &cfg, kind)
    });
    let (report, energy) = (out.report, out.energy);
    CellSummary {
        protocol: protocol.to_string(),
        duty,
        seed,
        n_sensors: report.n_sensors as u64,
        packets: cfg.n_packets,
        mean_fdl: report.mean_flooding_delay(),
        coverage_rate: report.coverage_success_rate(),
        transmissions: report.transmissions,
        energy_active: energy.active_slots + energy.tx_slots,
        slots_elapsed: report.slots_elapsed,
    }
}

fn cell_json(scenario: &str, digest: &str, summary: &CellSummary) -> String {
    use serde::Serialize as _;
    let v = Value::Object(vec![
        ("schema_version".into(), Value::UInt(CELL_SCHEMA_VERSION)),
        ("scenario".into(), Value::Str(scenario.to_string())),
        ("spec_digest".into(), Value::Str(digest.to_string())),
        ("cell".into(), summary.to_value()),
    ]);
    serde_json::to_string_pretty(&v).expect("serialize cell") + "\n"
}

/// Reload a checkpoint if it exists, parses, and was written by *this*
/// spec (same scenario name and digest) for *this* cell. Anything else
/// — missing, corrupt, stale, or mislabelled — means "re-run".
fn load_cell(
    dir: &Path,
    protocol: &str,
    duty: f64,
    seed: u64,
    scenario: &str,
    digest: &str,
) -> Option<CellSummary> {
    use serde::Deserialize as _;
    let text =
        std::fs::read_to_string(dir.join(format!("{}.json", cell_stem(protocol, duty, seed))))
            .ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    if v.get("schema_version")?.as_u64()? != CELL_SCHEMA_VERSION
        || v.get("scenario")?.as_str()? != scenario
        || v.get("spec_digest")?.as_str()? != digest
    {
        return None;
    }
    let summary = CellSummary::from_value(v.get("cell")?).ok()?;
    (summary.protocol == protocol
        && summary.duty.to_bits() == duty.to_bits()
        && summary.seed == seed)
        .then_some(summary)
}

/// Validate a `campaign.json` artefact; returns the number of
/// statistics groups.
pub fn validate_campaign_json(text: &str) -> Result<usize, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
    let schema = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if schema != CELL_SCHEMA_VERSION {
        return Err(format!("schema_version {schema} != {CELL_SCHEMA_VERSION}"));
    }
    v.get("scenario")
        .and_then(Value::as_str)
        .ok_or("missing scenario")?;
    let digest = v
        .get("spec_digest")
        .and_then(Value::as_str)
        .ok_or("missing spec_digest")?;
    if digest.len() != 64 || !digest.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("spec_digest is not sha256 hex: {digest:?}"));
    }
    let stats = v.get("statistics").ok_or("missing statistics block")?;
    let groups = match stats.get("groups") {
        Some(Value::Array(a)) => a,
        _ => return Err("statistics missing groups array".into()),
    };
    for (i, g) in groups.iter().enumerate() {
        for field in ["protocol", "duty", "cells", "fdl", "coverage", "theory"] {
            g.get(field)
                .ok_or_else(|| format!("statistics.groups[{i}] missing '{field}'"))?;
        }
    }
    match stats.get("paired") {
        Some(Value::Array(_)) => {}
        _ => return Err("statistics missing paired array".into()),
    }
    Ok(groups.len())
}

/// How to run a campaign beyond the spec itself.
#[derive(Clone, Default)]
pub struct CampaignOptions {
    /// Truncate the matrix via [`quicken`] first.
    pub quick: bool,
    /// Stream human progress lines to stderr.
    pub progress: bool,
    /// Optional in-memory progress observer (the campaign service
    /// installs one per job).
    pub sink: Option<Arc<dyn ProgressSink>>,
    /// Optional cooperative cancel token. When it flips to `true`,
    /// cells already simulating finish and checkpoint; cells not yet
    /// started are skipped; the run returns `Err(`[`CANCELLED`]`)`.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// One (duty, seed-shard) work unit's fold: walk the shard's seeds in
/// matrix order, fetch every protocol's cell for the seed, fold the
/// row into a fresh partial. `get_cell(p_idx, seed_idx)` supplies the
/// cells — by simulating (the runner) or by loading checkpoints
/// ([`recompute_stats`]); both paths run the *same* arithmetic in the
/// same order, which is what makes the recomputed statistics
/// byte-identical to the campaign-embedded block.
fn fold_unit(
    protocols: &[String],
    duties: &[f64],
    n_seeds: u64,
    d_idx: usize,
    seed_range: (usize, usize),
    mut get_cell: impl FnMut(usize, usize) -> Result<CellSummary, String>,
) -> Result<CampaignStats, String> {
    let mut partial = CampaignStats::new(protocols, duties, n_seeds);
    for s_idx in seed_range.0..seed_range.1 {
        let mut row: Vec<Option<CellSummary>> = Vec::with_capacity(protocols.len());
        for p_idx in 0..protocols.len() {
            row.push(Some(get_cell(p_idx, s_idx)?));
        }
        partial.record_row(d_idx, &row);
    }
    Ok(partial)
}

/// The rendered body of `campaign-stats.md`.
fn stats_doc(name: &str, digest: &str, quick: bool, stats: &CampaignStats) -> String {
    let mut md = String::new();
    md.push_str(&format!("# campaign stats: {name}\n\n"));
    md.push_str(&format!(
        "- spec digest: `{digest}`\n- quick: {quick}\n- matrix: {} protocol(s) × {} dut(ies) × {} seed(s)\n- estimator: mean ± t·SEM (95% CI, Student-t); quantiles from a log-bucketed streaming histogram; paired sign test exact two-sided\n\n",
        stats.protocols.len(),
        stats.duties.len(),
        stats.seeds,
    ));
    md.push_str(&stats.stats_markdown());
    md
}

/// Run (or resume) a campaign into `out`, writing per-cell checkpoints
/// under `out/cells/`, the aggregated `campaign.md`, the
/// machine-readable `campaign.json` (with its `statistics` block), and
/// the `campaign-stats.md` statistics tables. All artefacts are
/// byte-reproducible: same spec → same bytes, whatever the worker count
/// and whether or not checkpoints were reloaded. The final artefacts
/// are written atomically (write + rename), so a kill mid-campaign
/// never leaves a torn `campaign.json` — only absent-or-valid.
///
/// A [`Heartbeat`] additionally streams per-cell progress (completed
/// count, cell wall clock, aggregate slots/sec, ETA) to
/// `out/campaign-telemetry.jsonl`, to stderr when `opts.progress`, and
/// into `opts.sink` when set. The telemetry carries wall-clock data and
/// is excluded from the byte-reproducibility contract.
pub fn run_campaign_with(
    spec: ScenarioSpec,
    out: &Path,
    opts: CampaignOptions,
) -> Result<CampaignOutcome, String> {
    let spec = if opts.quick { quicken(spec) } else { spec };
    let kinds = resolve_protocols(&spec)?;
    let built = BuiltScenario::build(spec)?;
    let digest = built.digest();
    let name = built.spec.name.clone();
    let protocols: Vec<String> = kinds.iter().map(|(_, n)| n.clone()).collect();
    let duties = built.spec.matrix.duties.clone();
    let seeds = built.spec.matrix.seeds.clone();
    let cells_total = protocols.len() * duties.len() * seeds.len();
    // One runner per campaign: concurrent campaigns never share a tally.
    let runner = Runner::default();

    let cells_dir = out.join("cells");
    std::fs::create_dir_all(&cells_dir)
        .map_err(|e| format!("create {}: {e}", cells_dir.display()))?;

    // Resume pre-scan: count valid checkpoints without holding any of
    // them (read, validate, drop — O(1) memory whatever the matrix).
    let mut cells_resumed = 0usize;
    for (_, protocol) in &kinds {
        for &duty in &duties {
            for &seed in &seeds {
                if load_cell(&cells_dir, protocol, duty, seed, &name, &digest).is_some() {
                    cells_resumed += 1;
                }
            }
        }
    }

    let mut heartbeat = Heartbeat::new(cells_total, cells_resumed, Some(out), opts.progress);
    if let Some(sink) = &opts.sink {
        heartbeat = heartbeat.with_sink(Arc::clone(sink));
    }
    let cancelled = || {
        opts.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::SeqCst))
    };

    // The fixed (duty, seed-shard) work units, in merge order.
    let units: Vec<(usize, (usize, usize))> = (0..duties.len())
        .flat_map(|d_idx| {
            shard_ranges(seeds.len())
                .into_iter()
                .map(move |range| (d_idx, range))
        })
        .collect();

    struct ShardOutcome {
        partial: CampaignStats,
        cells_run: usize,
        slots_run: u64,
    }
    let outcomes: Vec<Result<ShardOutcome, String>> = units
        .par_iter()
        .map(|&(d_idx, range)| {
            let duty = duties[d_idx];
            let mut cells_run = 0usize;
            let mut slots_run = 0u64;
            let partial = fold_unit(
                &protocols,
                &duties,
                seeds.len() as u64,
                d_idx,
                range,
                |p_idx, s_idx| {
                    let (kind, protocol) = &kinds[p_idx];
                    let seed = seeds[s_idx];
                    if let Some(s) = load_cell(&cells_dir, protocol, duty, seed, &name, &digest) {
                        return Ok(s);
                    }
                    if cancelled() {
                        return Err(CANCELLED.to_string());
                    }
                    let t0 = std::time::Instant::now();
                    let summary = run_cell(&runner, &built, *kind, protocol, duty, seed);
                    heartbeat.cell_done(
                        &cell_stem(protocol, duty, seed),
                        t0.elapsed(),
                        summary.slots_elapsed,
                    );
                    let path = cells_dir.join(format!("{}.json", cell_stem(protocol, duty, seed)));
                    write_atomic(&path, cell_json(&name, &digest, &summary).as_bytes())
                        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
                    cells_run += 1;
                    slots_run += summary.slots_elapsed;
                    Ok(summary)
                },
            )?;
            Ok(ShardOutcome {
                partial,
                cells_run,
                slots_run,
            })
        })
        .collect();
    // Real failures outrank cancellation; a cancelled run reports
    // CANCELLED without emitting the (misleading) "done" telemetry.
    if let Some(err) = outcomes
        .iter()
        .find_map(|r| r.as_ref().err().filter(|e| e.as_str() != CANCELLED))
    {
        return Err(err.clone());
    }
    if outcomes.iter().any(|r| r.is_err()) {
        return Err(CANCELLED.to_string());
    }
    heartbeat.finish();

    // Merge the shard partials in fixed unit order — the only fold
    // order there is, whatever the worker count.
    let mut stats = CampaignStats::new(&protocols, &duties, seeds.len() as u64);
    let mut cells_run = 0usize;
    let mut slots_run = 0u64;
    for outcome in outcomes {
        let o = outcome.expect("errors handled above");
        stats.merge(&o.partial);
        cells_run += o.cells_run;
        slots_run += o.slots_run;
    }

    let mut md = String::new();
    md.push_str(&format!("# campaign: {name}\n\n"));
    if !built.spec.description.is_empty() {
        md.push_str(&format!("{}\n\n", built.spec.description));
    }
    md.push_str(&format!(
        "- spec digest: `{digest}`\n- topology: {} nodes, {} edges\n- workload: {} packet(s), coverage target {}, slot budget {}\n- matrix: {} protocol(s) × {} dut(ies) × {} seed(s) = {} cells\n\n",
        built.topology.n_nodes(),
        built.topology.n_edges(),
        built.spec.workload.packets,
        built.spec.workload.coverage,
        built.spec.workload.max_slots,
        protocols.len(),
        duties.len(),
        seeds.len(),
        cells_total,
    ));
    md.push_str(&stats.campaign_table());

    write_atomic(&out.join("campaign.md"), md.as_bytes())
        .map_err(|e| format!("write campaign.md: {e}"))?;
    write_atomic(
        &out.join("campaign-stats.md"),
        stats_doc(&name, &digest, opts.quick, &stats).as_bytes(),
    )
    .map_err(|e| format!("write campaign-stats.md: {e}"))?;
    let json = Value::Object(vec![
        ("schema_version".into(), Value::UInt(CELL_SCHEMA_VERSION)),
        ("scenario".into(), Value::Str(name.clone())),
        ("spec_digest".into(), Value::Str(digest.clone())),
        ("quick".into(), Value::Bool(opts.quick)),
        (
            "matrix".into(),
            Value::Object(vec![
                (
                    "protocols".into(),
                    Value::Array(protocols.iter().cloned().map(Value::Str).collect()),
                ),
                (
                    "duties".into(),
                    Value::Array(duties.iter().map(|&d| Value::Float(d)).collect()),
                ),
                ("seeds_per_cell".into(), Value::UInt(seeds.len() as u64)),
            ]),
        ),
        ("statistics".into(), stats.to_value()),
    ]);
    write_atomic(
        &out.join("campaign.json"),
        (serde_json::to_string_pretty(&json).expect("serialize campaign") + "\n").as_bytes(),
    )
    .map_err(|e| format!("write campaign.json: {e}"))?;

    Ok(CampaignOutcome {
        name,
        digest,
        markdown: md,
        stats,
        cells_total,
        cells_run,
        cells_resumed,
        slots_run,
        quick: opts.quick,
        protocols: kinds.iter().map(|(k, _)| k.name().to_string()).collect(),
        seeds,
    })
}

/// What [`recompute_stats`] produced.
#[derive(Clone, Debug)]
pub struct StatsOutcome {
    /// Scenario name.
    pub name: String,
    /// Spec digest of the (possibly quickened) matrix.
    pub digest: String,
    /// The folded per-group statistics.
    pub stats: CampaignStats,
    /// The rendered `campaign-stats.md` body.
    pub markdown: String,
}

impl StatsOutcome {
    /// The machine-readable `campaign-stats.json` rendering.
    pub fn to_json_pretty(&self) -> String {
        let v = Value::Object(vec![
            ("schema_version".into(), Value::UInt(CELL_SCHEMA_VERSION)),
            ("scenario".into(), Value::Str(self.name.clone())),
            ("spec_digest".into(), Value::Str(self.digest.clone())),
            ("statistics".into(), self.stats.to_value()),
        ]);
        serde_json::to_string_pretty(&v).expect("serialize stats") + "\n"
    }
}

/// Recompute a campaign's statistics from an existing checkpoint
/// directory (`<from>/cells/`), without simulating anything. Every
/// matrix cell must have a valid checkpoint for the spec's digest —
/// a missing or stale cell is an error naming the cell, not a silent
/// hole in the statistics.
///
/// The fold replays the runner's exact shard partition and merge
/// order, so the resulting `campaign-stats.md` bytes and `statistics`
/// block equal the campaign-embedded ones bit for bit
/// (`tests/stats.rs` compares them).
pub fn recompute_stats(
    spec: ScenarioSpec,
    quick: bool,
    from: &Path,
) -> Result<StatsOutcome, String> {
    let spec = if quick { quicken(spec) } else { spec };
    let kinds = resolve_protocols(&spec)?;
    let built = BuiltScenario::build(spec)?;
    let digest = built.digest();
    let name = built.spec.name.clone();
    let protocols: Vec<String> = kinds.iter().map(|(_, n)| n.clone()).collect();
    let duties = built.spec.matrix.duties.clone();
    let seeds = built.spec.matrix.seeds.clone();
    let cells_dir = from.join("cells");

    let mut stats = CampaignStats::new(&protocols, &duties, seeds.len() as u64);
    for d_idx in 0..duties.len() {
        for range in shard_ranges(seeds.len()) {
            let partial = fold_unit(
                &protocols,
                &duties,
                seeds.len() as u64,
                d_idx,
                range,
                |p_idx, s_idx| {
                    let (_, protocol) = &kinds[p_idx];
                    let duty = duties[d_idx];
                    let seed = seeds[s_idx];
                    load_cell(&cells_dir, protocol, duty, seed, &name, &digest).ok_or_else(|| {
                        format!(
                            "no valid checkpoint for cell {} under {} (missing, stale, or from \
                             another spec) — run `experiments campaign` first",
                            cell_stem(protocol, duty, seed),
                            cells_dir.display(),
                        )
                    })
                },
            )?;
            stats.merge(&partial);
        }
    }
    let markdown = stats_doc(&name, &digest, quick, &stats);
    Ok(StatsOutcome {
        name,
        digest,
        stats,
        markdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> &'static str {
        r#"
        [scenario]
        name = "tiny"

        [topology]
        kind = "grid"
        rows = 3
        cols = 3
        prr = 0.9

        [schedule]
        model = "homogeneous"
        period = 5

        [workload]
        kind = "single-flood"
        packets = 2

        [matrix]
        protocols = ["of", "opt"]
        duties = [0.2, 0.4, 0.5]
        seeds = [1, 2]
        "#
    }

    fn summary(protocol: &str, duty: f64, seed: u64) -> CellSummary {
        CellSummary {
            protocol: protocol.into(),
            duty,
            seed,
            n_sensors: 29,
            packets: 8,
            mean_fdl: Some(120.5),
            coverage_rate: 1.0,
            transmissions: 321,
            energy_active: 4321,
            slots_elapsed: 4000,
        }
    }

    #[test]
    fn quicken_truncates_duties_and_seeds_only() {
        let spec = ScenarioSpec::from_toml_str(tiny_spec()).unwrap();
        let q = quicken(spec.clone());
        assert_eq!(q.matrix.protocols, spec.matrix.protocols);
        assert_eq!(
            q.matrix.duties,
            spec.matrix.duties[..ldcf_scenarios::QUICK_DUTIES]
        );
        assert_eq!(
            q.matrix.seeds,
            spec.matrix.seeds[..ldcf_scenarios::QUICK_SEEDS]
        );
    }

    #[test]
    fn protocols_resolve_in_matrix_order_and_reject_unknown() {
        let spec = ScenarioSpec::from_toml_str(tiny_spec()).unwrap();
        let kinds = resolve_protocols(&spec).unwrap();
        assert_eq!(kinds.len(), 2);
        assert_eq!(kinds[0].1, "of");
        assert_eq!(kinds[1].1, "opt");

        let mut bad = spec;
        bad.matrix.protocols.push("gossip".into());
        assert!(resolve_protocols(&bad).unwrap_err().contains("gossip"));
    }

    #[test]
    fn shard_partition_is_fixed_total_and_ordered() {
        for n in [1usize, 2, 5, 31, 32, 33, 100, 1000] {
            let ranges = shard_ranges(n);
            assert!(ranges.len() <= SHARDS);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            assert!(ranges.iter().all(|(lo, hi)| lo < hi), "non-empty shards");
        }
        // Pure function of n — calling twice gives the same partition.
        assert_eq!(shard_ranges(1000), shard_ranges(1000));
    }

    #[test]
    fn cell_checkpoints_roundtrip_and_reject_stale_digests() {
        let s = summary("of", 0.05, 1);
        let dir = std::env::temp_dir().join("ldcf-campaign-cell-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let digest = "ab".repeat(32);
        std::fs::write(
            dir.join(format!("{}.json", cell_stem("of", 0.05, 1))),
            cell_json("demo", &digest, &s),
        )
        .unwrap();
        assert_eq!(
            load_cell(&dir, "of", 0.05, 1, "demo", &digest),
            Some(s.clone())
        );
        assert_eq!(
            load_cell(&dir, "of", 0.05, 1, "demo", &"cd".repeat(32)),
            None,
            "digest mismatch must force a re-run"
        );
        assert_eq!(load_cell(&dir, "of", 0.05, 1, "other", &digest), None);
        assert_eq!(load_cell(&dir, "of", 0.05, 2, "demo", &digest), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_json_validator_accepts_good_and_rejects_bad() {
        let stats = ldcf_analysis::campaign::stats_of_cells(&[
            summary("of", 0.05, 1),
            summary("of", 0.05, 2),
        ]);
        let good = Value::Object(vec![
            ("schema_version".into(), Value::UInt(CELL_SCHEMA_VERSION)),
            ("scenario".into(), Value::Str("demo".into())),
            ("spec_digest".into(), Value::Str("ab".repeat(32))),
            ("quick".into(), Value::Bool(true)),
            ("statistics".into(), stats.to_value()),
        ]);
        assert_eq!(
            validate_campaign_json(&serde_json::to_string_pretty(&good).unwrap()),
            Ok(1)
        );
        assert!(validate_campaign_json("{}").is_err());
        assert!(validate_campaign_json("not json").is_err());
        // The v1 layout (per-seed cells array, no statistics) is out.
        let v1 = Value::Object(vec![
            ("schema_version".into(), Value::UInt(1)),
            ("scenario".into(), Value::Str("demo".into())),
            ("spec_digest".into(), Value::Str("ab".repeat(32))),
            ("cells".into(), Value::Array(vec![])),
        ]);
        assert!(validate_campaign_json(&serde_json::to_string_pretty(&v1).unwrap()).is_err());
    }
}
