//! `campaign`: the shape of `scenarios/campaign-nightly.toml` — a
//! 150-node random geometric disk with distance-decay links,
//! heterogeneous periods 10/20/40, periodic injection of 12 packets,
//! OF, DBAO and OPT at four duties — over six seeds, so 72 cells, from
//! spec to `campaign.json` through `run_campaign_with` on every core.
//! Each call runs into a fresh directory (a reused one would resume
//! every cell and simulate nothing).
//!
//! The cells are not tiny on purpose: every cell writes a checkpoint,
//! and on a journal-less ext4 a file created within half a minute of
//! a removal costs ten times more, so a campaign of 1 000 tiny cells
//! measured the disk's recent history (40 ms or 660 ms) rather than
//! the runner.
//!
//! `--seed` picks the matrix seeds; the topology is seed 7, as in the
//! nightly spec.
//!
//! The runner's inner layers are invisible from outside, so a traced
//! run replays them once, serially: scenario build and digest, each
//! cell's schedule draw and engine run, and `recompute_stats` over the
//! finished checkpoints. Their totals are attributed to each traced
//! `bench.campaign` span; what remains is the runner's own overhead
//! (checkpoints, resume scan, heartbeat, fold, render). A traced run
//! runs every campaign on one worker, so the parts add up.

use crate::flood::{self, EngineProfile, Flood, Proto};
use crate::spans::Tracer;
use crate::{derive, measure, repeated_setup, Checks, Measured, Outcome, RunOpts, RunResult, Size};
use ldcf_bench::campaign::{recompute_stats, validate_campaign_json};
use ldcf_bench::{run_campaign_with, CampaignOptions};
use ldcf_scenarios::{BuiltScenario, ScenarioSpec, ScheduleModel};
use ldcf_sim::{EngineKind, NullObserver, Phase, SimConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Matrix seeds.
fn seeds(size: Size) -> u64 {
    match size {
        Size::Full => 6,
        Size::Smoke => 1,
    }
}

/// The spec text of the run.
pub fn spec_text(opts: &RunOpts) -> String {
    let first = derive(opts.seed, 20);
    let list: Vec<String> = (first..first + seeds(opts.size))
        .map(|s| s.to_string())
        .collect();
    format!(
        "[scenario]\n\
         name = \"bench-campaign\"\n\
         description = \"campaign-nightly shape over {n} seeds.\"\n\n\
         [topology]\nkind = \"random-geometric\"\nseed = 7\nnodes = 150\nside = 400.0\n\
         radius = 75.0\nq_near = 0.95\nq_far = 0.55\n\n\
         [links]\nmodel = \"distance-decay\"\nq_near = 0.95\nq_far = 0.5\n\n\
         [schedule]\nmodel = \"heterogeneous\"\nperiods = [10, 20, 40]\n\n\
         [workload]\nkind = \"periodic\"\ninterval = 40\npackets = 12\ncoverage = 0.95\n\
         max_slots = 150000\n\n\
         [matrix]\nprotocols = [\"of\", \"dbao\", \"opt\"]\nduties = [0.02, 0.05, 0.1, 0.2]\n\
         seeds = [{list}]\n",
        n = seeds(opts.size),
        list = list.join(", "),
    )
}

/// Parse, build and digest `text`: the set-up every campaign (and every
/// service submit) pays. Returns the spec and each step's time.
pub(crate) fn prepare(text: &str) -> Result<(ScenarioSpec, [Duration; 3]), String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_toml_str(text).map_err(|e| format!("spec: {e}"))?;
    let t1 = Instant::now();
    let built = BuiltScenario::build(spec.clone())?;
    let t2 = Instant::now();
    std::hint::black_box(built.digest());
    let t3 = Instant::now();
    Ok((spec, [t1 - t0, t2 - t1, t3 - t2]))
}

/// Run `campaign`.
pub fn run(opts: &RunOpts, scratch: &Path) -> Result<RunResult, String> {
    let text = spec_text(opts);
    let (prepared, setup_s) = repeated_setup(|| prepare(&text));
    let (spec, steps) = prepared?;
    let mut dirs = (0..).map(|k| scratch.join(format!("call-{k}")));
    let mut measured = measure(opts, 1, setup_s, |_, t, _, checks| {
        let dir = dirs.next().expect("unbounded");
        let json = campaign(&spec, &dir, opts.traced, t, checks);
        Outcome {
            slots: json.as_ref().map_or(0, |(slots, _)| *slots),
            digests: vec![crate::fnv1a(json.as_ref().map_or(&[][..], |(_, b)| b))],
        }
    });
    if opts.traced {
        let slots = measured.warmup[0].slots;
        replay(&spec, &scratch.join("call-0"), steps, slots, &mut measured)?;
    }
    Ok(measured.finish())
}

/// One campaign into the fresh directory `dir`, on one worker when
/// `serial`: its slots and `campaign.json` bytes, checked for
/// completeness and validity.
fn campaign(
    spec: &ScenarioSpec,
    dir: &Path,
    serial: bool,
    t: &mut Tracer,
    checks: &mut Checks,
) -> Option<(u64, Vec<u8>)> {
    if serial {
        rayon::set_thread_limit(Some(1));
    }
    let outcome = t.span("bench.campaign", || {
        run_campaign_with(spec.clone(), dir, CampaignOptions::default())
    });
    if serial {
        rayon::set_thread_limit(None);
    }
    let result = outcome.and_then(|o| {
        let bytes = std::fs::read(dir.join("campaign.json")).map_err(|e| e.to_string())?;
        validate_campaign_json(&String::from_utf8_lossy(&bytes))?;
        if o.cells_run != o.cells_total {
            return Err(format!("{} of {} cells ran", o.cells_run, o.cells_total));
        }
        Ok((o.slots_run, bytes))
    });
    checks.check(result.is_ok(), || {
        format!("campaign: {:?}", result.as_ref().err())
    });
    result.ok()
}

/// The engine config of one campaign cell, as the runner derives it:
/// the longest period, and `max(1, round(duty × period))` active slots.
pub(crate) fn cell_config(spec: &ScenarioSpec, duty: f64, seed: u64) -> SimConfig {
    let period = match &spec.schedule {
        ScheduleModel::Homogeneous { period } => *period,
        ScheduleModel::Heterogeneous { periods } => *periods.iter().max().expect("validated"),
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

/// The protocol of a spec's protocol name.
pub(crate) fn proto_of(name: &str) -> Result<Proto, String> {
    match name {
        "of" => Ok(Proto::Of),
        "dbao" => Ok(Proto::Dbao),
        "opt" => Ok(Proto::Opt),
        other => Err(format!("the benchmark does not replay protocol {other:?}")),
    }
}

/// What replaying a spec's cells from outside measured.
pub(crate) struct CellReplay {
    /// Engine tallies over every cell (empty unless profiled).
    pub profile: EngineProfile,
    /// Time drawing schedules.
    pub schedules_ns: u64,
    /// Time cloning inputs, building engines and running them.
    pub sim_ns: u64,
    /// Slots simulated.
    pub slots: u64,
}

/// Every cell of `spec` (schedules from the built scenario, run with
/// `Engine::with_injections`), serially; with a phase profiler attached
/// when `profiled`, which makes the runs slower.
pub(crate) fn replay_cells(spec: &ScenarioSpec, profiled: bool) -> Result<CellReplay, String> {
    let built = BuiltScenario::build(spec.clone())?;
    let mut r = CellReplay {
        profile: EngineProfile::default(),
        schedules_ns: 0,
        sim_ns: 0,
        slots: 0,
    };
    let mut off = Tracer::new(false);
    for name in &spec.matrix.protocols {
        let proto = proto_of(name)?;
        for &duty in &spec.matrix.duties {
            for &seed in &spec.matrix.seeds {
                let t0 = Instant::now();
                let schedules = built.schedules(duty, seed);
                r.schedules_ns += t0.elapsed().as_nanos() as u64;
                let f = Flood {
                    proto,
                    cfg: cell_config(spec, duty, seed),
                    faults: None,
                    plan: Some((schedules, built.injections.clone())),
                    kind: EngineKind::Slot,
                };
                let profile = profiled.then_some(&mut r.profile);
                let t0 = Instant::now();
                let o = flood::run(&built.topology, &f, NullObserver, profile, &mut off);
                r.sim_ns += t0.elapsed().as_nanos() as u64;
                r.slots += o.report.slots_elapsed;
            }
        }
    }
    Ok(r)
}

/// Replay the inner layers of the campaign finished in `dir` serially
/// from outside, attribute them to every traced `bench.campaign` span,
/// and record the `scenarios`, `bench`, `analysis` and engine metrics.
/// The replayed cells must simulate the campaign's `campaign_slots`.
fn replay(
    spec: &ScenarioSpec,
    dir: &Path,
    steps: [Duration; 3],
    campaign_slots: u64,
    m: &mut Measured,
) -> Result<(), String> {
    let cells = replay_cells(spec, false)?;
    let profile = replay_cells(spec, true)?.profile;
    m.checks.check(cells.slots == campaign_slots, || {
        format!(
            "replayed cells simulate {} slots, the campaign {campaign_slots}",
            cells.slots
        )
    });
    let t0 = Instant::now();
    let stats = recompute_stats(spec.clone(), false, dir);
    let recompute_ns = t0.elapsed().as_nanos() as u64;
    m.checks.check(stats.is_ok(), || {
        format!("recompute_stats: {:?}", stats.err())
    });

    let files = crate::sys::files_under(dir);
    let checkpoint_bytes: u64 = files
        .iter()
        .filter(|f| f.parent().is_some_and(|p| p.ends_with("cells")))
        .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
        .sum();

    // Per campaign: scenario build + digest, schedules, engine. The
    // profiled replay splits the unprofiled engine time in proportion.
    let build_ns = (steps[1] + steps[2]).as_nanos() as u64;
    let sim_ns = cells.sim_ns;
    let profiled_ns = (profile.clone_ns + profile.build_ns + profile.run_ns).max(1);
    let share = |ns: u64| (ns as f64 / profiled_ns as f64 * sim_ns as f64) as u64;
    let run_ns = share(profile.run_ns);
    let propose_ns = (profile.phases.phase_total_ns(Phase::Propose) as f64
        / profile.run_ns.max(1) as f64
        * run_ns as f64) as u64;
    let campaigns = m.tracer.named("bench.campaign");
    for &span in &campaigns {
        m.tracer.attribute(span, "scenarios.build", build_ns);
        m.tracer
            .attribute(span, "scenarios.schedules", cells.schedules_ns);
        m.tracer
            .attribute(span, "net.topology_clone", share(profile.clone_ns));
        m.tracer
            .attribute(span, "sim.engine_build", share(profile.build_ns));
        let run = m.tracer.attribute(span, "sim.run", run_ns);
        m.tracer.attribute(run, "protocols.propose", propose_ns);
    }
    let campaign_ns =
        crate::spans::total_ns(m.tracer.spans(), "bench.campaign") / campaigns.len().max(1) as u64;
    let s = |ns: u64| ns as f64 / 1e9;
    let v = &mut m.values;
    profile.report(v, 1);
    v.set("scenarios.parse_s", steps[0].as_secs_f64());
    v.set("scenarios.build_s", steps[1].as_secs_f64());
    v.set("scenarios.digest_s", steps[2].as_secs_f64());
    v.set("scenarios.schedules_s", s(cells.schedules_ns));
    v.set("bench.campaign_s", s(campaign_ns));
    v.set("bench.cell_sim_s", s(sim_ns));
    v.set(
        "bench.campaign_overhead_s",
        s(campaign_ns.saturating_sub(build_ns + cells.schedules_ns + sim_ns)),
    );
    v.set("bench.checkpoint_bytes", checkpoint_bytes as f64);
    v.set("bench.files_written", files.len() as f64);
    v.set("analysis.stats_recompute_s", s(recompute_ns));
    Ok(())
}
