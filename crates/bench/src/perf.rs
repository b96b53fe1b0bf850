//! The `experiments perf` artefact: machine-readable simulation
//! throughput over the fig9 GreenOrbs workloads, with multi-repetition
//! robust statistics and an optional phase-profile artefact.
//!
//! Six cases — OPT/DBAO/OF at duty 5 % over the GreenOrbs-style trace,
//! clean and under the composed fault stack at intensity 0.5 — are run
//! sequentially (no rayon fan-out, so each case's wall clock measures
//! the engine alone). Each case is repeated (default 5×) and summarized
//! by median and MAD — one preempted repetition on a noisy runner moves
//! a mean, not a median — then written as `BENCH_<label>.json`:
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "label": "baseline",
//!   "git_rev": "abc1234",
//!   "quick": true,
//!   "config_digest": "9f…",
//!   "cases": [ { "name": "fig9-dbao", "protocol": "DBAO",
//!                "faulted": false, "sims": 1, "slots": 123, "reps": 5,
//!                "wall_ms": 45, "wall_ms_reps": [46, 45, 44, 45, 47],
//!                "slots_per_sec": 2733.3,
//!                "slots_per_sec_reps": [2674.0, …],
//!                "slots_per_sec_mad": 31.2,
//!                "slots_per_sec_ci95": [2650.1, 2799.7] }, … ],
//!   "total": { "sims": 6, "slots": …, "wall_ms": …, "slots_per_sec": … }
//! }
//! ```
//!
//! `config_digest` fingerprints the workload (trace seed, packet count,
//! seeds, coverage, slot cap, duty, fault intensity): two BENCH files
//! are comparable iff their digests match. The perf trajectory is
//! tracked by committing `BENCH_baseline.json` and gating later labels
//! against it with a **noise-aware** threshold: a case regresses when
//! its median falls below the baseline median by more than a few
//! robust standard deviations (see [`gate_vs_baseline`]) — meaningful
//! only because every optimisation is bound by the byte-identity
//! contract (same RNG draw count/order, same artefacts, only faster).
//!
//! `--profile` additionally runs each case once with an engine
//! [`PhaseProfiler`] attached and writes `PROFILE_<label>.json`: where
//! each slot's nanoseconds went (injection / faults / propose / sync /
//! mac / deliver / prune / energy), as exact totals plus log-bucketed
//! histograms. The timing repetitions stay unprofiled, so BENCH
//! numbers never carry profiling overhead.

use crate::options::ExpOptions;
use crate::runner::{ProtocolKind, RunOutput, RunRequest, Runner};
use ldcf_analysis::stats::{combined_rel_sigma, noise_tolerance, rel_sigma};
use ldcf_analysis::{mad, median, OnlineStats};
use ldcf_net::{NeighborTable, NodeId, Topology};
use ldcf_protocols::Opt;
use ldcf_sim::{Engine, EngineKind, FaultConfig, Injection, Phase, PhaseProfiler, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::time::Instant;

/// Duty cycle of every perf workload (the fig9 operating point).
const DUTY: f64 = 0.05;

/// Intensity of the faulted cases' composed fault stack.
const FAULT_INTENSITY: f64 = 0.5;

/// BENCH file schema version (bump on incompatible layout changes).
/// v2 added multi-repetition robust stats (`reps`, `wall_ms_reps`,
/// `slots_per_sec_reps`, `slots_per_sec_mad`); `slots_per_sec` became
/// the median over repetitions. v3 added `slots_per_sec_ci95` — the
/// Student-t 95% confidence interval over the repetitions, from the
/// same `ldcf_analysis::stats` machinery the campaign reducer uses
/// (`null` when reps < 2 leave the interval undefined).
pub const SCHEMA_VERSION: u64 = 3;

/// PROFILE file schema version. v2 added the `idle_skip` phase (the
/// event engine's batched settlement of jumped spans) to the per-case
/// phase vector.
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// Timing repetitions per case unless `--reps` overrides.
pub const DEFAULT_REPS: usize = 5;

/// One measured workload: a protocol over the fig9 trace, clean or
/// faulted, summed over the option set's seeds and repeated `reps`
/// times. `wall_ms` and `slots_per_sec` are medians over repetitions.
#[derive(Clone, Debug)]
pub struct PerfCase {
    /// Case name, e.g. `fig9-dbao` or `fig9-dbao-faulted`.
    pub name: String,
    /// Protocol display name.
    pub protocol: String,
    /// Whether the composed fault stack was injected.
    pub faulted: bool,
    /// Floods executed per repetition (one per seed).
    pub sims: u64,
    /// Slots stepped per repetition (identical across reps — the
    /// workload is deterministic).
    pub slots: u64,
    /// Timing repetitions.
    pub reps: u64,
    /// Median wall clock over repetitions, in milliseconds.
    pub wall_ms: u64,
    /// Per-repetition wall clocks, in run order.
    pub wall_ms_reps: Vec<u64>,
    /// Median throughput over repetitions: slots per wall-clock second.
    pub slots_per_sec: f64,
    /// Per-repetition throughputs, in run order.
    pub slots_per_sec_reps: Vec<f64>,
    /// Median absolute deviation of the per-repetition throughputs —
    /// the robust noise scale the regression gate adapts to.
    pub slots_per_sec_mad: f64,
}

impl PerfCase {
    /// Student-t 95% confidence interval of the mean throughput over
    /// this case's repetitions; `None` when fewer than two reps leave
    /// the interval undefined.
    pub fn slots_per_sec_ci95(&self) -> Option<(f64, f64)> {
        let mut stats = OnlineStats::new();
        for &x in &self.slots_per_sec_reps {
            stats.record(x);
        }
        stats.ci95()
    }
}

/// A full perf run: all cases plus totals and provenance.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Label the report is filed under (`BENCH_<label>.json`).
    pub label: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// Quick (reduced-size) option set?
    pub quick: bool,
    /// Workload fingerprint; equal digests ⇔ comparable reports.
    pub config_digest: String,
    /// The measured cases, in fixed order.
    pub cases: Vec<PerfCase>,
}

/// The fig9 workload config at duty 5 % (mirrors `experiments::fig9`).
fn perf_config(opts: &ExpOptions, seed: u64) -> SimConfig {
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

/// FNV-1a 64-bit over the canonical workload description.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Workload fingerprint: every knob that changes what is measured —
/// the fig9 knobs plus the scale workloads (the scale cases are
/// compiled in and differ between `--quick` and full mode, so any
/// change to them must break baseline comparability).
pub fn config_digest(opts: &ExpOptions, quick: bool) -> String {
    let mut desc = format!(
        "trace_seed={};m={};seeds={:?};coverage={};max_slots={};duty={};fault_intensity={};\
         scale_seed={};scale_period={};scale_radius={}",
        opts.trace_seed,
        opts.m,
        opts.seeds,
        opts.coverage,
        opts.max_slots,
        DUTY,
        FAULT_INTENSITY,
        SCALE_SEED,
        SCALE_PERIOD,
        SCALE_RADIUS,
    );
    for c in scale_cases(quick) {
        desc.push_str(&format!(
            ";{}:n={},packets={},gap={},max_slots={}",
            c.name, c.n, c.packets, c.gap, c.max_slots
        ));
    }
    format!("{:016x}", fnv1a64(&desc))
}

/// `git rev-parse --short HEAD`, or `"unknown"`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One perf flood through `runner`: the fig9 workload at `seed`, under
/// the composed fault stack when `faulted`.
fn run_perf_flood(
    runner: &Runner,
    topo: &Topology,
    opts: &ExpOptions,
    kind: ProtocolKind,
    faulted: bool,
    seed: u64,
) -> RunOutput {
    let cfg = perf_config(opts, seed);
    let faults = FaultConfig::at_intensity(seed, FAULT_INTENSITY);
    runner.run(RunRequest {
        faults: faulted.then_some(&faults),
        tag: "perf",
        ..RunRequest::new(topo, &cfg, kind)
    })
}

/// Run one case `reps` times: every seed of the option set,
/// sequentially, each repetition booking slots into a fresh runner's
/// ledger. The workload is deterministic, so sims/slots are identical
/// across repetitions; only the wall clock varies.
fn run_case(
    topo: &Topology,
    opts: &ExpOptions,
    kind: ProtocolKind,
    faulted: bool,
    reps: usize,
) -> PerfCase {
    let mut wall_ms_reps = Vec::with_capacity(reps);
    let mut sps_reps = Vec::with_capacity(reps);
    let mut sims = 0;
    let mut slots = 0;
    for _ in 0..reps {
        let runner = Runner::default();
        let t0 = Instant::now();
        for &seed in &opts.seeds {
            run_perf_flood(&runner, topo, opts, kind, faulted, seed);
        }
        let wall = t0.elapsed();
        let ledger = runner.ledger();
        sims = ledger.sims;
        slots = ledger.slots;
        wall_ms_reps.push(wall.as_millis() as u64);
        sps_reps.push(ledger.slots as f64 / wall.as_secs_f64().max(1e-9));
    }
    let wall_med = median(&wall_ms_reps.iter().map(|&w| w as f64).collect::<Vec<_>>())
        .expect("reps >= 1")
        .round() as u64;
    let suffix = if faulted { "-faulted" } else { "" };
    PerfCase {
        name: format!("fig9-{}{suffix}", kind.name().to_lowercase()),
        protocol: kind.name().to_string(),
        faulted,
        sims,
        slots,
        reps: reps as u64,
        wall_ms: wall_med,
        wall_ms_reps,
        slots_per_sec: median(&sps_reps).expect("reps >= 1"),
        slots_per_sec_mad: mad(&sps_reps).expect("reps >= 1"),
        slots_per_sec_reps: sps_reps,
    }
}

/// Run the full perf campaign: OPT/DBAO/OF, clean then faulted, over
/// the fig9 trace, `reps` timing repetitions each. Cases run one at a
/// time so wall clocks don't share cores.
pub fn perf(opts: &ExpOptions, quick: bool, label: &str, reps: usize) -> PerfReport {
    assert!(reps >= 1, "perf needs at least one repetition");
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let mut cases = Vec::new();
    for faulted in [false, true] {
        for kind in ProtocolKind::paper_set() {
            cases.push(run_case(&topo, opts, kind, faulted, reps));
        }
    }
    PerfReport {
        label: label.to_string(),
        git_rev: git_rev(),
        quick,
        config_digest: config_digest(opts, quick),
        cases,
    }
}

// ---------------------------------------------------------------------
// Scale cases (rgg-100k / rgg-1m): slot vs event engine side by side
// ---------------------------------------------------------------------

/// Wake period of the scale cases — duty 1/100, the regime the
/// event-driven engine exists for.
pub const SCALE_PERIOD: u32 = 100;
/// RGG connection radius at unit node density (side = √n), giving a
/// mean degree of π·r² ≈ 15 — safely above the ~ln n connectivity
/// threshold at both sizes (connectivity of the pinned seeds is
/// asserted by the flood completing under the full-coverage target).
pub const SCALE_RADIUS: f64 = 2.2;
/// Seed of the scale topology / schedule / simulation draws.
pub const SCALE_SEED: u64 = 9001;

/// One scale workload: an RGG size plus its injection cadence. The
/// protocol is OPT (the paper's collision-free oracle): its propose is
/// driven by the awake set, so per-slot cost measures the *engine's*
/// dispatch strategy rather than a baseline protocol's contention
/// pathology, and its floods complete — after each one the forwarding
/// work set drains and the inter-injection span is provably dead, the
/// exact shape a mostly-quiescent monitoring deployment (rare reports,
/// duty 1/100) presents.
pub struct ScaleCase {
    /// BENCH case stem (`<name>-slot` / `<name>-event`).
    pub name: &'static str,
    /// Node count of the unit-density RGG.
    pub n: usize,
    /// Packets injected at the source, `gap` slots apart.
    pub packets: u32,
    /// Slots between consecutive injections — the dead span the event
    /// engine exists to skip.
    pub gap: u64,
    /// Slot cap: last injection + a generous flood allowance.
    pub max_slots: u64,
    /// Per-size repetition cap (the CLI's `--reps` is clamped to it):
    /// these runs step six-to-eight-figure slot counts, and the median
    /// is stable well before 5 reps.
    pub reps_cap: usize,
}

/// The scale workloads. Quick keeps the 100k case with a CI-budget gap
/// (the regression gate needs only a stable ratio, not a spectacular
/// one); full sizes the 100k gap for a daily-report cadence — ~20M
/// slots of quiescence against two ~5k-slot floods, the regime where
/// the event engine's skip pays for itself many times over — and adds
/// the 1M-node case.
pub fn scale_cases(quick: bool) -> &'static [ScaleCase] {
    if quick {
        &[ScaleCase {
            name: "rgg-100k",
            n: 100_000,
            packets: 2,
            gap: 1_000_000,
            max_slots: 1_100_000,
            reps_cap: 2,
        }]
    } else {
        &[
            ScaleCase {
                name: "rgg-100k",
                n: 100_000,
                packets: 2,
                gap: 20_000_000,
                max_slots: 20_100_000,
                reps_cap: 2,
            },
            ScaleCase {
                name: "rgg-1m",
                n: 1_000_000,
                packets: 2,
                gap: 2_000_000,
                max_slots: 2_200_000,
                reps_cap: 1,
            },
        ]
    }
}

/// The scale-case simulation config (the topology seed is folded in so
/// engine-side draws never alias the topology draws). Coverage is 1.0:
/// the flood must saturate every neighborhood so the work set drains
/// and the injection gap becomes a provably-dead span.
fn scale_config(case: &ScaleCase) -> SimConfig {
    SimConfig {
        period: SCALE_PERIOD,
        active_per_period: 1,
        n_packets: case.packets,
        coverage: 1.0,
        max_slots: case.max_slots,
        seed: SCALE_SEED ^ 0x5ca1e,
        mistiming_prob: 0.0,
    }
}

/// One scale case: `reps` timed runs of the given engine kind over a
/// pre-built topology/schedule pair. Only the run loop is timed —
/// topology generation and engine construction (schedule tables, queue
/// and scratch allocation) are identical across kinds and excluded, so
/// the slot-vs-event ratio measures the dispatch strategy alone.
fn run_scale_case(
    name: &str,
    topo: &Topology,
    schedules: &NeighborTable,
    plan: &[Injection],
    cfg: &SimConfig,
    kind: EngineKind,
    reps: usize,
) -> PerfCase {
    let mut wall_ms_reps = Vec::with_capacity(reps);
    let mut sps_reps = Vec::with_capacity(reps);
    let mut slots = 0;
    for _ in 0..reps {
        let engine = Engine::with_injections(
            topo.clone(),
            cfg.clone(),
            schedules.clone(),
            plan,
            Opt::new(),
        )
        .with_engine_kind(kind);
        let t0 = Instant::now();
        let (report, _energy) = engine.run();
        let wall = t0.elapsed();
        slots = report.slots_elapsed;
        wall_ms_reps.push(wall.as_millis() as u64);
        sps_reps.push(report.slots_elapsed as f64 / wall.as_secs_f64().max(1e-9));
    }
    let wall_med = median(&wall_ms_reps.iter().map(|&w| w as f64).collect::<Vec<_>>())
        .expect("reps >= 1")
        .round() as u64;
    let engine_tag = match kind {
        EngineKind::Slot => "slot",
        EngineKind::Event => "event",
    };
    PerfCase {
        name: format!("{name}-{engine_tag}"),
        protocol: "OPT".to_string(),
        faulted: false,
        sims: 1,
        slots,
        reps: reps as u64,
        wall_ms: wall_med,
        wall_ms_reps,
        slots_per_sec: median(&sps_reps).expect("reps >= 1"),
        slots_per_sec_mad: mad(&sps_reps).expect("reps >= 1"),
        slots_per_sec_reps: sps_reps,
    }
}

/// The scale campaign: for each size, the same deterministic workload
/// under the slot-stepped and the event-driven engine — `rgg-100k-slot`
/// vs `rgg-100k-event` side by side in the BENCH file (and `rgg-1m-*`
/// outside `--quick`). The two engines are byte-identity twins, so
/// their `slots` totals are asserted equal here: a mismatch means the
/// skip logic dispatched a run differently, which must never reach a
/// BENCH artefact.
pub fn scale_perf(quick: bool, reps: usize) -> Vec<PerfCase> {
    assert!(reps >= 1, "perf needs at least one repetition");
    let mut cases = Vec::new();
    for case in scale_cases(quick) {
        let reps = reps.min(case.reps_cap);
        let side = (case.n as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(SCALE_SEED);
        let topo = Topology::random_geometric(case.n, side, SCALE_RADIUS, 0.95, 0.6, &mut rng);
        let schedules = NeighborTable::random_single_slot(case.n, SCALE_PERIOD, &mut rng);
        let plan: Vec<Injection> = (0..case.packets as u64)
            .map(|k| Injection {
                origin: NodeId(0),
                slot: k * case.gap,
            })
            .collect();
        let cfg = scale_config(case);
        let slot = run_scale_case(
            case.name,
            &topo,
            &schedules,
            &plan,
            &cfg,
            EngineKind::Slot,
            reps,
        );
        let event = run_scale_case(
            case.name,
            &topo,
            &schedules,
            &plan,
            &cfg,
            EngineKind::Event,
            reps,
        );
        assert_eq!(
            slot.slots, event.slots,
            "{}: slot and event engines disagree on slots elapsed",
            case.name
        );
        cases.push(slot);
        cases.push(event);
    }
    cases
}

impl PerfReport {
    /// Total work across the cases as `(sims, slots, wall_ms)` (one
    /// repetition's worth: medians, not sums over repetitions).
    fn totals(&self) -> (u64, u64, u64) {
        self.cases.iter().fold((0, 0, 0), |(s, sl, w), c| {
            (s + c.sims, sl + c.slots, w + c.wall_ms)
        })
    }

    /// The named case, if present (e.g. `fig9-dbao`).
    pub fn case(&self, name: &str) -> Option<&PerfCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// The on-disk `BENCH_<label>.json` rendering.
    pub fn to_json_pretty(&self) -> String {
        let case_value = |c: &PerfCase| {
            Value::Object(vec![
                ("name".into(), Value::Str(c.name.clone())),
                ("protocol".into(), Value::Str(c.protocol.clone())),
                ("faulted".into(), Value::Bool(c.faulted)),
                ("sims".into(), Value::UInt(c.sims)),
                ("slots".into(), Value::UInt(c.slots)),
                ("reps".into(), Value::UInt(c.reps)),
                ("wall_ms".into(), Value::UInt(c.wall_ms)),
                (
                    "wall_ms_reps".into(),
                    Value::Array(c.wall_ms_reps.iter().map(|&w| Value::UInt(w)).collect()),
                ),
                ("slots_per_sec".into(), Value::Float(c.slots_per_sec)),
                (
                    "slots_per_sec_reps".into(),
                    Value::Array(
                        c.slots_per_sec_reps
                            .iter()
                            .map(|&x| Value::Float(x))
                            .collect(),
                    ),
                ),
                (
                    "slots_per_sec_mad".into(),
                    Value::Float(c.slots_per_sec_mad),
                ),
                (
                    "slots_per_sec_ci95".into(),
                    match c.slots_per_sec_ci95() {
                        Some((lo, hi)) => Value::Array(vec![Value::Float(lo), Value::Float(hi)]),
                        None => Value::Null,
                    },
                ),
            ])
        };
        let (sims, slots, wall_ms) = self.totals();
        let total_sps = slots as f64 / (wall_ms as f64 / 1000.0).max(1e-9);
        let root = Value::Object(vec![
            ("schema_version".into(), Value::UInt(SCHEMA_VERSION)),
            ("label".into(), Value::Str(self.label.clone())),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("quick".into(), Value::Bool(self.quick)),
            (
                "config_digest".into(),
                Value::Str(self.config_digest.clone()),
            ),
            (
                "cases".into(),
                Value::Array(self.cases.iter().map(case_value).collect()),
            ),
            (
                "total".into(),
                Value::Object(vec![
                    ("sims".into(), Value::UInt(sims)),
                    ("slots".into(), Value::UInt(slots)),
                    ("wall_ms".into(), Value::UInt(wall_ms)),
                    ("slots_per_sec".into(), Value::Float(total_sps)),
                ]),
            ),
        ]);
        serde_json::to_string_pretty(&root).expect("perf report serializes")
    }

    /// Human summary table (stdout artefact body).
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "Engine throughput over the fig9 GreenOrbs workloads \
             (duty 5 %, label `{}`, rev {}, digest {}; medians over \
             per-case repetitions, ± MAD).\n",
            self.label, self.git_rev, self.config_digest
        )
        .unwrap();
        writeln!(
            out,
            "| case | sims | slots | reps | wall ms | slots/sec | ± MAD |"
        )
        .unwrap();
        writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
        for c in &self.cases {
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {:.0} | {:.0} |",
                c.name, c.sims, c.slots, c.reps, c.wall_ms, c.slots_per_sec, c.slots_per_sec_mad
            )
            .unwrap();
        }
        let (sims, slots, wall_ms) = self.totals();
        writeln!(
            out,
            "| **total** | {} | {} | | {} | {:.0} | |",
            sims,
            slots,
            wall_ms,
            slots as f64 / (wall_ms as f64 / 1000.0).max(1e-9)
        )
        .unwrap();
        out
    }
}

/// Validate a `BENCH_*.json` document: schema fields present, every
/// throughput strictly positive, and the repetition arrays consistent
/// with their summary stats. Returns the case names on success (CI uses
/// this via `experiments perf --validate`).
pub fn validate_bench_json(text: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SCHEMA_VERSION}"
        ));
    }
    for field in ["label", "git_rev", "config_digest"] {
        v.get(field)
            .and_then(Value::as_str)
            .ok_or(format!("missing string field '{field}'"))?;
    }
    let cases = match v.get("cases") {
        Some(Value::Array(cases)) if !cases.is_empty() => cases,
        _ => return Err("missing or empty 'cases' array".into()),
    };
    let mut names = Vec::new();
    for c in cases {
        let name = c
            .get("name")
            .and_then(Value::as_str)
            .ok_or("case missing 'name'")?;
        for field in ["sims", "slots", "wall_ms"] {
            c.get(field)
                .and_then(Value::as_u64)
                .ok_or(format!("case '{name}' missing integer '{field}'"))?;
        }
        let reps = c
            .get("reps")
            .and_then(Value::as_u64)
            .ok_or(format!("case '{name}' missing integer 'reps'"))?;
        if reps < 1 {
            return Err(format!("case '{name}' has zero reps"));
        }
        for field in ["wall_ms_reps", "slots_per_sec_reps"] {
            match c.get(field) {
                Some(Value::Array(a)) if a.len() == reps as usize => {}
                Some(Value::Array(a)) => {
                    return Err(format!(
                        "case '{name}' {field} has {} entries, reps says {reps}",
                        a.len()
                    ))
                }
                _ => return Err(format!("case '{name}' missing array '{field}'")),
            }
        }
        let sps = c
            .get("slots_per_sec")
            .and_then(Value::as_f64)
            .ok_or(format!("case '{name}' missing 'slots_per_sec'"))?;
        if !sps.is_finite() || sps <= 0.0 {
            return Err(format!("case '{name}' slots_per_sec {sps} not > 0"));
        }
        let sps_mad = c
            .get("slots_per_sec_mad")
            .and_then(Value::as_f64)
            .ok_or(format!("case '{name}' missing 'slots_per_sec_mad'"))?;
        if !sps_mad.is_finite() || sps_mad < 0.0 {
            return Err(format!("case '{name}' slots_per_sec_mad {sps_mad} < 0"));
        }
        match c.get("slots_per_sec_ci95") {
            Some(Value::Array(ci)) if ci.len() == 2 => {
                let lo = ci[0].as_f64().unwrap_or(f64::NAN);
                let hi = ci[1].as_f64().unwrap_or(f64::NAN);
                if !lo.is_finite() || !hi.is_finite() || lo > hi {
                    return Err(format!(
                        "case '{name}' slots_per_sec_ci95 [{lo}, {hi}] is not a finite lo <= hi interval"
                    ));
                }
            }
            Some(Value::Null) if reps < 2 => {}
            Some(Value::Null) => {
                return Err(format!(
                    "case '{name}' has {reps} reps but a null slots_per_sec_ci95"
                ))
            }
            _ => return Err(format!("case '{name}' missing 'slots_per_sec_ci95'")),
        }
        names.push(name.to_string());
    }
    let total_sps = v
        .get("total")
        .and_then(|t| t.get("slots_per_sec"))
        .and_then(Value::as_f64)
        .ok_or("missing total.slots_per_sec")?;
    if !total_sps.is_finite() || total_sps <= 0.0 {
        return Err(format!("total slots_per_sec {total_sps} not > 0"));
    }
    Ok(names)
}

// ---------------------------------------------------------------------
// Noise-aware regression gate
// ---------------------------------------------------------------------

/// How many robust standard deviations of measurement noise a median
/// may drop before the gate calls it a regression.
pub const NOISE_MULTIPLIER: f64 = 4.0;

/// Tolerance floor — the flat 25 % the old single-sample gate used.
/// Within-run MAD understates between-run drift (reps share cache and
/// thermal state; the committed baseline was measured on another day,
/// possibly another machine), so the gate never tightens below what
/// that drift was already observed to reach. The actual tightening
/// over the old gate comes from comparing medians of ≥ 5 reps instead
/// of single samples.
pub const MIN_TOLERANCE: f64 = 0.25;

/// Tolerance ceiling: whatever the measured noise claims, a case
/// running ≥ 40 % slower than baseline always fails the gate.
pub const MAX_TOLERANCE: f64 = 0.40;

/// One case's verdict from [`gate_vs_baseline`].
#[derive(Clone, Debug)]
pub struct GateVerdict {
    /// Case name (present in both baseline and current report).
    pub name: String,
    /// Current median throughput ÷ baseline median throughput.
    pub speedup: f64,
    /// The noise-adapted fractional slowdown tolerated for this case.
    pub tolerance: f64,
    /// Whether `speedup < 1 − tolerance`: a real regression.
    pub regressed: bool,
}

/// Noise-aware perf gate: compare `report` against a baseline
/// `BENCH_*.json` document, case by case.
///
/// For each case the tolerated slowdown adapts to *measured* noise:
/// with `r = 1.4826 · MAD ∕ median` the relative robust σ of each
/// side, `tolerance = clamp(NOISE_MULTIPLIER · √(r_base² + r_cur²),
/// MIN_TOLERANCE, MAX_TOLERANCE)`. A quiet machine keeps the gate at
/// the 25 % floor (the flat tolerance the old single-sample gate
/// used); a jittery shared runner loosens it, but never beyond 40 %.
/// `Err` if the baseline is malformed or its `config_digest` differs
/// (the workloads are not comparable).
pub fn gate_vs_baseline(
    baseline_json: &str,
    report: &PerfReport,
) -> Result<Vec<GateVerdict>, String> {
    validate_bench_json(baseline_json)?;
    let base: Value = serde_json::from_str(baseline_json).map_err(|e| e.to_string())?;
    let base_digest = base
        .get("config_digest")
        .and_then(Value::as_str)
        .unwrap_or("");
    if base_digest != report.config_digest {
        return Err(format!(
            "config digest mismatch: baseline {base_digest} vs current {}",
            report.config_digest
        ));
    }
    let Some(Value::Array(base_cases)) = base.get("cases") else {
        return Err("baseline has no cases".into());
    };
    let mut out = Vec::new();
    for c in &report.cases {
        let Some(b) = base_cases
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(c.name.as_str()))
        else {
            continue;
        };
        let (Some(base_med), Some(base_mad)) = (
            b.get("slots_per_sec").and_then(Value::as_f64),
            b.get("slots_per_sec_mad").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let r = combined_rel_sigma(
            rel_sigma(base_med, base_mad),
            rel_sigma(c.slots_per_sec, c.slots_per_sec_mad),
        );
        let tolerance = noise_tolerance(r, NOISE_MULTIPLIER, MIN_TOLERANCE, MAX_TOLERANCE);
        let speedup = c.slots_per_sec / base_med;
        out.push(GateVerdict {
            name: c.name.clone(),
            speedup,
            tolerance,
            regressed: speedup < 1.0 - tolerance,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Phase-profile artefact
// ---------------------------------------------------------------------

/// Fraction of a profiled case's measured wall clock that the engine's
/// per-phase times must account for. The phase chain telescopes inside
/// the slot loop, so the only unattributed time is outside it — trace
/// construction, topology cloning, report finalization — which must
/// stay under 5 %.
pub const MIN_PHASE_COVERAGE: f64 = 0.95;

/// One profiled case: the fig9 workload run once with an engine
/// [`PhaseProfiler`] attached.
#[derive(Clone, Debug)]
pub struct ProfiledCase {
    /// Case name, matching the BENCH vocabulary (e.g. `fig9-dbao`).
    pub name: String,
    /// Protocol display name.
    pub protocol: String,
    /// Whether the composed fault stack was injected.
    pub faulted: bool,
    /// Floods executed (one per seed).
    pub sims: u64,
    /// Slots elapsed across those floods (the profile counts only the
    /// dispatched ones; the event engine settles the rest in batch).
    pub slots: u64,
    /// Wall clock of the case's run loops, in nanoseconds, summed over
    /// seeds (engine construction excluded — the profiler's slot totals
    /// must cover ≥ [`MIN_PHASE_COVERAGE`] of this).
    pub wall_ns: u64,
    /// The merged phase profile of the case's floods.
    pub profile: PhaseProfiler,
}

/// A full profile run: every perf case, profiled.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Label the report is filed under (`PROFILE_<label>.json`).
    pub label: String,
    /// `git rev-parse --short HEAD`, or `unknown` outside a checkout.
    pub git_rev: String,
    /// Quick (reduced-size) option set?
    pub quick: bool,
    /// Workload fingerprint (same vocabulary as BENCH files).
    pub config_digest: String,
    /// The profiled cases, in BENCH case order.
    pub cases: Vec<ProfiledCase>,
}

/// Run every perf case once with a phase profiler attached. Kept apart
/// from [`perf`]'s timing repetitions so BENCH numbers never include
/// profiling overhead.
pub fn profile(opts: &ExpOptions, quick: bool, label: &str) -> ProfileReport {
    let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
    let mut cases = Vec::new();
    for faulted in [false, true] {
        for kind in ProtocolKind::paper_set() {
            let runner = Runner::default().with_profiling();
            let wall_ns = opts
                .seeds
                .iter()
                .map(|&seed| run_perf_flood(&runner, &topo, opts, kind, faulted, seed).run_ns)
                .sum();
            let ledger = runner.ledger();
            let suffix = if faulted { "-faulted" } else { "" };
            cases.push(ProfiledCase {
                name: format!("fig9-{}{suffix}", kind.name().to_lowercase()),
                protocol: kind.name().to_string(),
                faulted,
                sims: ledger.sims,
                slots: ledger.slots,
                wall_ns,
                profile: runner.profile(),
            });
        }
    }
    ProfileReport {
        label: label.to_string(),
        git_rev: git_rev(),
        quick,
        config_digest: config_digest(opts, quick),
        cases,
    }
}

impl ProfileReport {
    /// The on-disk `PROFILE_<label>.json` rendering. Each case carries
    /// its wall clock, the phase-coverage ratio, and the full profiler
    /// JSON (slot histogram plus per-phase totals/shares/histograms).
    pub fn to_json_pretty(&self) -> String {
        let case_value = |c: &ProfiledCase| {
            let coverage = c.profile.slot_total_ns() as f64 / (c.wall_ns as f64).max(1.0);
            Value::Object(vec![
                ("name".into(), Value::Str(c.name.clone())),
                ("protocol".into(), Value::Str(c.protocol.clone())),
                ("faulted".into(), Value::Bool(c.faulted)),
                ("sims".into(), Value::UInt(c.sims)),
                ("slots".into(), Value::UInt(c.slots)),
                ("wall_ns".into(), Value::UInt(c.wall_ns)),
                ("phase_coverage".into(), Value::Float(coverage)),
                ("profile".into(), c.profile.to_value()),
            ])
        };
        let root = Value::Object(vec![
            ("schema_version".into(), Value::UInt(PROFILE_SCHEMA_VERSION)),
            ("label".into(), Value::Str(self.label.clone())),
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("quick".into(), Value::Bool(self.quick)),
            (
                "config_digest".into(),
                Value::Str(self.config_digest.clone()),
            ),
            (
                "cases".into(),
                Value::Array(self.cases.iter().map(case_value).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&root).expect("profile report serializes")
    }

    /// Human summary: per case, slot-cost quantiles and the phase
    /// breakdown sorted by share.
    pub fn to_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "Engine phase profile over the fig9 GreenOrbs workloads \
             (label `{}`, rev {}, digest {}).\n",
            self.label, self.git_rev, self.config_digest
        )
        .unwrap();
        writeln!(
            out,
            "| case | slots | slot p50 ns | p95 | p99 | max | top phases |"
        )
        .unwrap();
        writeln!(out, "|---|---|---|---|---|---|---|").unwrap();
        for c in &self.cases {
            let h = c.profile.slot_hist();
            let mut shares: Vec<(Phase, u64)> = Phase::ALL
                .iter()
                .map(|&p| (p, c.profile.phase_total_ns(p)))
                .collect();
            shares.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
            let total = c.profile.slot_total_ns().max(1);
            let top: Vec<String> = shares
                .iter()
                .take(3)
                .map(|&(p, ns)| format!("{} {:.0}%", p.name(), 100.0 * ns as f64 / total as f64))
                .collect();
            writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} |",
                c.name,
                c.slots,
                h.p50().unwrap_or(0),
                h.p95().unwrap_or(0),
                h.p99().unwrap_or(0),
                h.max,
                top.join(", ")
            )
            .unwrap();
        }
        out
    }
}

/// Validate a `PROFILE_*.json` document: schema fields present, every
/// case's phase totals summing exactly to its slot total (the
/// telescoping invariant survives serialization), and phase coverage —
/// slot-loop time over measured case wall time — at least
/// [`MIN_PHASE_COVERAGE`]. Returns the case names on success.
pub fn validate_profile_json(text: &str) -> Result<Vec<String>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != PROFILE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {PROFILE_SCHEMA_VERSION}"
        ));
    }
    for field in ["label", "git_rev", "config_digest"] {
        v.get(field)
            .and_then(Value::as_str)
            .ok_or(format!("missing string field '{field}'"))?;
    }
    let cases = match v.get("cases") {
        Some(Value::Array(cases)) if !cases.is_empty() => cases,
        _ => return Err("missing or empty 'cases' array".into()),
    };
    let expected_phases: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    let mut names = Vec::new();
    for c in cases {
        let name = c
            .get("name")
            .and_then(Value::as_str)
            .ok_or("case missing 'name'")?;
        let wall_ns = c
            .get("wall_ns")
            .and_then(Value::as_u64)
            .ok_or(format!("case '{name}' missing 'wall_ns'"))?;
        if wall_ns == 0 {
            return Err(format!("case '{name}' wall_ns is 0"));
        }
        let profile = c
            .get("profile")
            .ok_or(format!("case '{name}' missing 'profile'"))?;
        let slots = profile
            .get("slots")
            .and_then(Value::as_u64)
            .ok_or(format!("case '{name}' profile missing 'slots'"))?;
        if slots == 0 {
            return Err(format!("case '{name}' profiled zero slots"));
        }
        let slot_total = profile
            .get("slot_total_ns")
            .and_then(Value::as_u64)
            .ok_or(format!("case '{name}' profile missing 'slot_total_ns'"))?;
        let Some(Value::Array(phases)) = profile.get("phases") else {
            return Err(format!("case '{name}' profile missing 'phases'"));
        };
        let got: Vec<&str> = phases
            .iter()
            .filter_map(|p| p.get("phase").and_then(Value::as_str))
            .collect();
        if got != expected_phases {
            return Err(format!(
                "case '{name}' phases {got:?} != expected {expected_phases:?}"
            ));
        }
        let phase_sum: u64 = phases
            .iter()
            .filter_map(|p| p.get("total_ns").and_then(Value::as_u64))
            .sum();
        if phase_sum != slot_total {
            return Err(format!(
                "case '{name}' phase totals {phase_sum} != slot total {slot_total} \
                 (the telescoping invariant is broken)"
            ));
        }
        let coverage = slot_total as f64 / wall_ns as f64;
        if coverage < MIN_PHASE_COVERAGE {
            return Err(format!(
                "case '{name}' phase coverage {coverage:.3} < {MIN_PHASE_COVERAGE} \
                 (too much unattributed time outside the slot loop)"
            ));
        }
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_protocols::{Dbao, OpportunisticFlooding};
    use ldcf_sim::FloodingProtocol;

    fn tiny_case(name: &str, sps: f64, mad: f64) -> PerfCase {
        PerfCase {
            name: name.into(),
            protocol: "DBAO".into(),
            faulted: false,
            sims: 1,
            slots: 1000,
            reps: 3,
            wall_ms: 10,
            wall_ms_reps: vec![10, 10, 11],
            slots_per_sec: sps,
            slots_per_sec_reps: vec![sps - mad, sps, sps + mad],
            slots_per_sec_mad: mad,
        }
    }

    fn tiny_report() -> PerfReport {
        PerfReport {
            label: "test".into(),
            git_rev: "deadbee".into(),
            quick: true,
            config_digest: config_digest(&ExpOptions::quick(), true),
            cases: vec![tiny_case("fig9-dbao", 100_000.0, 500.0)],
        }
    }

    #[test]
    fn bench_json_roundtrips_and_validates() {
        let json = tiny_report().to_json_pretty();
        let names = validate_bench_json(&json).expect("valid");
        assert_eq!(names, vec!["fig9-dbao"]);
    }

    #[test]
    fn validation_rejects_zero_throughput() {
        let mut r = tiny_report();
        r.cases[0].slots_per_sec = 0.0;
        let err = validate_bench_json(&r.to_json_pretty()).unwrap_err();
        assert!(err.contains("not > 0"), "got: {err}");
    }

    #[test]
    fn validation_rejects_rep_array_mismatch() {
        let mut r = tiny_report();
        r.cases[0].wall_ms_reps.pop();
        let err = validate_bench_json(&r.to_json_pretty()).unwrap_err();
        assert!(err.contains("reps says"), "got: {err}");
    }

    #[test]
    fn reports_carry_a_ci95_and_validation_checks_it() {
        let r = tiny_report();
        let (lo, hi) = r.cases[0].slots_per_sec_ci95().expect("3 reps give a CI");
        assert!(lo < r.cases[0].slots_per_sec && r.cases[0].slots_per_sec < hi);
        let json = r.to_json_pretty();
        assert!(json.contains("slots_per_sec_ci95"), "got: {json}");

        // A single-rep case has no interval: ci95 is null and valid…
        let mut single = tiny_report();
        single.cases[0].reps = 1;
        single.cases[0].wall_ms_reps = vec![10];
        single.cases[0].slots_per_sec_reps = vec![100_000.0];
        assert!(single.cases[0].slots_per_sec_ci95().is_none());
        validate_bench_json(&single.to_json_pretty()).expect("null ci95 valid at 1 rep");

        // …but a multi-rep case with a null interval is rejected.
        let broken = tiny_report()
            .to_json_pretty()
            .replace(&format!("[\n        {lo},\n        {hi}\n      ]"), "null");
        let err = validate_bench_json(&broken).unwrap_err();
        assert!(err.contains("null slots_per_sec_ci95"), "got: {err}");
    }

    #[test]
    fn validation_rejects_garbage() {
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("not json").is_err());
    }

    #[test]
    fn validation_rejects_old_schema() {
        let err = validate_bench_json(r#"{"schema_version": 1}"#).unwrap_err();
        assert!(err.contains("schema_version 1"), "got: {err}");
    }

    #[test]
    fn digest_tracks_workload_knobs() {
        let quick = config_digest(&ExpOptions::quick(), true);
        let full = config_digest(&ExpOptions::full(), false);
        assert_ne!(quick, full);
        assert_eq!(quick, config_digest(&ExpOptions::quick(), true));
        assert_eq!(quick.len(), 16);
        // The quick and full scale workloads differ (gap sizing), so the
        // digest must split even over identical fig9 options.
        assert_ne!(
            config_digest(&ExpOptions::quick(), true),
            config_digest(&ExpOptions::quick(), false)
        );
    }

    #[test]
    fn gate_compares_matching_cases_only() {
        let base = tiny_report();
        let mut faster = tiny_report();
        faster.cases[0].slots_per_sec *= 3.0;
        faster.cases.push(tiny_case("fig9-of", 1000.0, 5.0));
        let verdicts = gate_vs_baseline(&base.to_json_pretty(), &faster).unwrap();
        assert_eq!(verdicts.len(), 1, "fig9-of is absent from the baseline");
        assert_eq!(verdicts[0].name, "fig9-dbao");
        assert!((verdicts[0].speedup - 3.0).abs() < 1e-9);
        assert!(!verdicts[0].regressed);

        let mut other = faster.clone();
        other.config_digest = "0".repeat(16);
        assert!(gate_vs_baseline(&base.to_json_pretty(), &other)
            .unwrap_err()
            .contains("digest mismatch"));
    }

    #[test]
    fn gate_tolerance_adapts_to_noise_within_bounds() {
        // Quiet measurements (tiny MAD): tolerance clamps to the floor,
        // so a 28 % drop regresses while a 20 % drop is forgiven.
        let quiet_base = tiny_report();
        let mut quiet_cur = tiny_report();
        quiet_cur.cases[0].slots_per_sec *= 0.72;
        let v = &gate_vs_baseline(&quiet_base.to_json_pretty(), &quiet_cur).unwrap()[0];
        assert!((v.tolerance - MIN_TOLERANCE).abs() < 1e-9);
        assert!(v.regressed, "28% drop on a quiet machine regresses");
        let mut quiet_ok = tiny_report();
        quiet_ok.cases[0].slots_per_sec *= 0.80;
        let v = &gate_vs_baseline(&quiet_base.to_json_pretty(), &quiet_ok).unwrap()[0];
        assert!(!v.regressed, "20% drop stays within the floor");

        // Noisy measurements (MAD = 3% of median): tolerance widens and
        // the same 28 % drop is forgiven…
        let mut noisy_base = tiny_report();
        noisy_base.cases[0].slots_per_sec_mad = 3_000.0;
        let mut noisy_cur = noisy_base.clone();
        noisy_cur.cases[0].slots_per_sec *= 0.72;
        let v = &gate_vs_baseline(&noisy_base.to_json_pretty(), &noisy_cur).unwrap()[0];
        assert!(v.tolerance > MIN_TOLERANCE);
        assert!(!v.regressed, "28% drop within noise is forgiven");

        // …but however noisy, tolerance never exceeds the ceiling.
        let mut wild_base = tiny_report();
        wild_base.cases[0].slots_per_sec_mad = 50_000.0;
        let mut wild_cur = wild_base.clone();
        wild_cur.cases[0].slots_per_sec *= 0.5;
        let v = &gate_vs_baseline(&wild_base.to_json_pretty(), &wild_cur).unwrap()[0];
        assert!((v.tolerance - MAX_TOLERANCE).abs() < 1e-9);
        assert!(v.regressed, "a 2x slowdown always fails the gate");
    }

    #[test]
    fn perf_campaign_runs_on_a_small_workload() {
        // A miniature option set so the test stays fast: the real trace
        // with 2 packets covers quickly under every protocol.
        let opts = ExpOptions {
            m: 2,
            seeds: vec![1],
            max_slots: 200_000,
            ..ExpOptions::quick()
        };
        let report = perf(&opts, true, "unit", 2);
        assert_eq!(report.cases.len(), 6);
        let dbao = report.case("fig9-dbao").expect("dbao case");
        assert_eq!(dbao.reps, 2);
        assert_eq!(dbao.wall_ms_reps.len(), 2);
        assert_eq!(dbao.slots_per_sec_reps.len(), 2);
        assert!(report.case("fig9-dbao-faulted").is_some());
        let json = report.to_json_pretty();
        validate_bench_json(&json).expect("self-produced report validates");
    }

    #[test]
    fn scale_case_times_both_engines_identically() {
        // A miniature RGG stands in for the 100k one so the test stays
        // debug-fast; the machinery (topology/schedule reuse across
        // kinds, engine-loop-only timing, equal-slots assertion) is the
        // same as the real scale campaign's.
        let n = 400;
        let side = (n as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(SCALE_SEED);
        let topo = Topology::random_geometric(n, side, SCALE_RADIUS, 0.95, 0.6, &mut rng);
        let schedules = NeighborTable::random_single_slot(n, 25, &mut rng);
        let plan = [
            Injection {
                origin: NodeId(0),
                slot: 0,
            },
            Injection {
                origin: NodeId(0),
                slot: 1_500,
            },
        ];
        let cfg = SimConfig {
            period: 25,
            active_per_period: 1,
            n_packets: 2,
            coverage: 0.95,
            max_slots: 4_000,
            seed: SCALE_SEED ^ 0x5ca1e,
            mistiming_prob: 0.0,
        };
        let slot = run_scale_case("mini", &topo, &schedules, &plan, &cfg, EngineKind::Slot, 2);
        let event = run_scale_case("mini", &topo, &schedules, &plan, &cfg, EngineKind::Event, 2);
        assert_eq!(slot.name, "mini-slot");
        assert_eq!(event.name, "mini-event");
        assert_eq!(slot.slots, event.slots, "byte-identity twins");
        assert!(slot.slots > 1_500, "the second injection must be reached");
        assert_eq!(slot.reps, 2);
        // Scale cases slot into the BENCH schema unchanged.
        let mut report = tiny_report();
        report.cases.push(slot);
        report.cases.push(event);
        validate_bench_json(&report.to_json_pretty()).expect("scale cases validate");
    }

    /// Slots one perf flood dispatches, profiled on an engine built
    /// outside the runner.
    fn dispatched_slots(
        topo: &Topology,
        cfg: &SimConfig,
        kind: ProtocolKind,
        faults: Option<&FaultConfig>,
    ) -> u64 {
        fn count<P: FloodingProtocol>(engine: Engine<P>, faults: Option<&FaultConfig>) -> u64 {
            let mut prof = PhaseProfiler::new();
            match faults {
                Some(f) => engine.with_faults(f.build()).with_profiler(&mut prof).run(),
                None => engine.with_profiler(&mut prof).run(),
            };
            prof.slots()
        }
        let (topo, cfg) = (topo.clone(), cfg.clone());
        match kind {
            ProtocolKind::Of => count(Engine::new(topo, cfg, OpportunisticFlooding::new()), faults),
            ProtocolKind::Dbao => count(Engine::new(topo, cfg, Dbao::new()), faults),
            ProtocolKind::Opt => count(Engine::new(topo, cfg, Opt::new()), faults),
            other => unreachable!("{} is not a perf protocol", other.name()),
        }
    }

    #[test]
    fn profile_report_validates_and_telescopes() {
        let opts = ExpOptions {
            m: 2,
            seeds: vec![1],
            max_slots: 200_000,
            ..ExpOptions::quick()
        };
        let report = profile(&opts, true, "unit");
        assert_eq!(report.cases.len(), 6);
        let topo = ldcf_trace::greenorbs::default_trace(opts.trace_seed);
        for c in &report.cases {
            let kind = ProtocolKind::paper_set()
                .into_iter()
                .find(|k| k.name() == c.protocol)
                .expect("paper protocol");
            let faults = FaultConfig::at_intensity(1, FAULT_INTENSITY);
            let dispatched = dispatched_slots(
                &topo,
                &perf_config(&opts, 1),
                kind,
                c.faulted.then_some(&faults),
            );
            assert_eq!(
                c.profile.slots(),
                dispatched,
                "{}: every dispatched slot profiled",
                c.name
            );
            assert!(
                dispatched <= c.slots,
                "{}: skipped slots settle unprofiled",
                c.name
            );
            assert_eq!(
                c.profile.phases_total_ns(),
                c.profile.slot_total_ns(),
                "{}: phase times telescope",
                c.name
            );
        }
        let json = report.to_json_pretty();
        let names = validate_profile_json(&json).expect("self-produced profile validates");
        assert_eq!(names.len(), 6);
        let md = report.to_markdown();
        assert!(md.contains("top phases"));
    }

    #[test]
    fn profile_validation_rejects_broken_telescoping() {
        let opts = ExpOptions {
            m: 1,
            seeds: vec![1],
            max_slots: 200_000,
            ..ExpOptions::quick()
        };
        let report = profile(&opts, true, "unit");
        let json = report.to_json_pretty();
        // Corrupt one phase total; the validator must notice the sum no
        // longer matches slot_total_ns.
        let broken = json.replacen("\"total_ns\": ", "\"total_ns\": 9", 1);
        assert_ne!(json, broken, "corruption must apply");
        let err = validate_profile_json(&broken).unwrap_err();
        assert!(err.contains("telescoping"), "got: {err}");
    }
}
