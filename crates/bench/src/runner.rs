//! Protocol dispatch for the trace-driven experiments: every flood
//! runs through one call, [`Runner::run`], on a caller-owned
//! [`Runner`] that holds the flood's observability settings and a
//! tally of the work booked through it:
//!
//! * a **work ledger** — simulation runs, slots simulated, and the
//!   protocols/seeds involved, folded into each artefact's
//!   `RunManifest`;
//! * optional **event tracing** (`--trace-events DIR`) — every flood
//!   writes its slot-level event stream as one columnar binary file
//!   (`<stem>.events.bin`, `ldcf_obs::binlog`), with the sink's
//!   event/byte totals folded into the ledger. JSONL is an export view
//!   of that file (`experiments trace export`), byte-identical to what
//!   a [`JsonlSink`](ldcf_sim::JsonlSink) observing the same run writes;
//! * optional **self-profiling** (`--profile`) — every flood runs with
//!   an engine phase profiler attached, merged into the runner's
//!   [`PhaseProfiler`].
//!
//! The CLI builds one runner per artefact and the campaign runner one
//! per campaign, so concurrent service jobs and parallel tests never
//! share a tally. Floods run on the engine's default, event-driven
//! path; when tracing is off they run with the engine's `NullObserver`
//! and pay nothing, likewise for profiling and the engine's
//! `NullProfiler`.

use ldcf_net::{NeighborTable, Topology};
use ldcf_protocols::{Dbao, DbaoConfig, NaiveFlood, OfConfig, OpportunisticFlooding, Opt};
use ldcf_sim::energy::EnergyLedger;
use ldcf_sim::{
    BinSink, Engine, FaultConfig, FaultPlan, FloodingProtocol, Injection, NullObserver,
    PhaseProfiler, SimConfig, SimObserver, SimReport,
};
use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The protocols under evaluation (§V-A) plus ablation variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Oracle-optimal flooding.
    Opt,
    /// Deterministic back-off assignment + overhearing.
    Dbao,
    /// DBAO with overhearing disabled (ablation).
    DbaoNoOverhear,
    /// Opportunistic Flooding.
    Of,
    /// OF restricted to pure tree forwarding (ablation).
    OfPureTree,
    /// Naive forward-to-everyone baseline.
    Naive,
}

impl ProtocolKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Opt => "OPT",
            ProtocolKind::Dbao => "DBAO",
            ProtocolKind::DbaoNoOverhear => "DBAO-no-overhear",
            ProtocolKind::Of => "OF",
            ProtocolKind::OfPureTree => "OF-pure-tree",
            ProtocolKind::Naive => "NAIVE",
        }
    }

    /// The three protocols of the paper's evaluation.
    pub fn paper_set() -> [ProtocolKind; 3] {
        [ProtocolKind::Of, ProtocolKind::Dbao, ProtocolKind::Opt]
    }

    /// Resolve the scenario-file vocabulary (`"opt"`, `"dbao"`,
    /// `"dbao-no-overhear"`, `"of"`, `"of-pure-tree"`, `"naive"`,
    /// case-insensitive) to a kind.
    pub fn from_cli_name(name: &str) -> Option<ProtocolKind> {
        match name.to_ascii_lowercase().as_str() {
            "opt" => Some(ProtocolKind::Opt),
            "dbao" => Some(ProtocolKind::Dbao),
            "dbao-no-overhear" => Some(ProtocolKind::DbaoNoOverhear),
            "of" => Some(ProtocolKind::Of),
            "of-pure-tree" => Some(ProtocolKind::OfPureTree),
            "naive" => Some(ProtocolKind::Naive),
            _ => None,
        }
    }
}

/// Instantiate the protocol a [`ProtocolKind`] names and hand it to the
/// given closure-like expression. One place owns the kind → constructor
/// mapping, so a new ablation variant is added exactly once.
macro_rules! dispatch_protocol {
    ($kind:expr, |$p:ident| $body:expr) => {
        match $kind {
            ProtocolKind::Opt => {
                let $p = Opt::new();
                $body
            }
            ProtocolKind::Dbao => {
                let $p = Dbao::new();
                $body
            }
            ProtocolKind::DbaoNoOverhear => {
                let $p = Dbao::with_config(DbaoConfig { overhearing: false });
                $body
            }
            ProtocolKind::Of => {
                let $p = OpportunisticFlooding::new();
                $body
            }
            ProtocolKind::OfPureTree => {
                let $p = OpportunisticFlooding::with_config(OfConfig {
                    opportunistic: false,
                    ..OfConfig::default()
                });
                $body
            }
            ProtocolKind::Naive => {
                let $p = NaiveFlood::new();
                $body
            }
        }
    };
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// The simulation work booked through one [`Runner`] — the provenance
/// half of a `RunManifest`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkLedger {
    /// Individual floods executed.
    pub sims: u64,
    /// Total slots elapsed across those floods.
    pub slots: u64,
    /// Distinct protocol names run.
    pub protocols: BTreeSet<&'static str>,
    /// Distinct RNG seeds used.
    pub seeds: BTreeSet<u64>,
    /// Events written across every trace sink (0 when tracing is off).
    pub trace_events: u64,
    /// Bytes written across every trace sink (0 when tracing is off).
    pub trace_bytes: u64,
    /// The first trace file that could not be created or written, as
    /// `path: error`; its run went on untraced.
    pub trace_error: Option<String>,
}

/// One flood to run: the network, the config and the protocol, plus
/// optional fault injection and scenario-drawn schedules.
///
/// Build it with [`RunRequest::new`] and struct-update the optional
/// parts: `RunRequest { faults: Some(&f), tag: "f050", ..RunRequest::new(&topo, &cfg, kind) }`.
pub struct RunRequest<'a> {
    /// The network graph.
    pub topo: &'a Topology,
    /// The run configuration (its `seed` drives the engine RNG).
    pub cfg: &'a SimConfig,
    /// The protocol to flood with.
    pub kind: ProtocolKind,
    /// A fault plan to inject, if any.
    pub faults: Option<&'a FaultConfig>,
    /// Externally drawn schedules and an explicit injection plan — the
    /// campaign runner's case, where the scenario owns both instead of
    /// the engine drawing them from `cfg.seed`.
    pub scenario: Option<(NeighborTable, &'a [Injection])>,
    /// A short filename-safe label appended to the run's trace file
    /// stem, so faulted or scenario runs never overwrite the trace of a
    /// run that shares their config shape (empty by default).
    pub tag: &'a str,
}

impl<'a> RunRequest<'a> {
    /// A fault-free flood over engine-drawn schedules, untagged.
    pub fn new(topo: &'a Topology, cfg: &'a SimConfig, kind: ProtocolKind) -> Self {
        Self {
            topo,
            cfg,
            kind,
            faults: None,
            scenario: None,
            tag: "",
        }
    }
}

/// What one [`Runner::run`] produced.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The simulation report.
    pub report: SimReport,
    /// The energy ledger.
    pub energy: EnergyLedger,
    /// This run's phase profile (profiling runners only).
    pub profile: Option<PhaseProfiler>,
    /// Events this run's trace sink wrote (0 when tracing is off).
    pub trace_events: u64,
    /// Bytes this run's trace sink wrote (0 when tracing is off).
    pub trace_bytes: u64,
    /// Wall clock of the engine's run loop in nanoseconds (engine
    /// construction excluded — the span a profile's phases cover).
    pub run_ns: u64,
}

/// Runs floods and tallies them. Cheap to build; build one per unit of
/// work whose ledger should stand alone (an artefact, a campaign, a
/// test). `Sync`, so rayon fan-outs share one by reference.
#[derive(Debug, Default)]
pub struct Runner {
    trace: Option<PathBuf>,
    profiling: bool,
    tally: Mutex<(WorkLedger, Option<PhaseProfiler>)>,
}

impl Runner {
    /// Route every flood's event stream to the binary trace
    /// `dir/<protocol>-p<period>-a<active>-m<M>-s<seed>.events.bin`.
    /// Creates `dir`.
    pub fn with_event_tracing(mut self, dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        self.trace = Some(dir.to_path_buf());
        Ok(self)
    }

    /// Attach a phase profiler to every flood, merging each run's phase
    /// timings into the runner's [`Runner::profile`]. Profiling reads
    /// wall clocks only — simulation outcomes and artefacts stay
    /// byte-identical (`tests/pins.rs` runs fig9 and resilience with
    /// `--profile` against the pinned baselines).
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// The work booked through this runner so far.
    pub fn ledger(&self) -> WorkLedger {
        self.tally
            .lock()
            .expect("runner tally poisoned by a panicked run")
            .0
            .clone()
    }

    /// The phase timings merged across this runner's floods (empty when
    /// profiling is off or nothing ran).
    pub fn profile(&self) -> PhaseProfiler {
        self.tally
            .lock()
            .expect("runner tally")
            .1
            .clone()
            .unwrap_or_default()
    }

    /// Run one flood to completion and book it into the ledger; when
    /// configured, write its event trace and profile it.
    pub fn run(&self, req: RunRequest<'_>) -> RunOutput {
        let (kind, seed) = (req.kind, req.cfg.seed);
        let out = dispatch_protocol!(kind, |p| self.run_protocol(req, p));
        let mut tally = self
            .tally
            .lock()
            .expect("runner tally poisoned by a panicked run");
        let (ledger, profile) = &mut *tally;
        ledger.sims += 1;
        ledger.slots += out.report.slots_elapsed;
        ledger.protocols.insert(kind.name());
        ledger.seeds.insert(seed);
        ledger.trace_events += out.trace_events;
        ledger.trace_bytes += out.trace_bytes;
        if let Some(p) = &out.profile {
            profile.get_or_insert_with(PhaseProfiler::new).merge(p);
        }
        out
    }

    fn run_protocol<P: FloodingProtocol>(&self, mut req: RunRequest<'_>, protocol: P) -> RunOutput {
        let (topo, cfg) = (req.topo.clone(), req.cfg.clone());
        let engine = match req.scenario.take() {
            Some((schedules, plan)) => {
                Engine::with_injections(topo, cfg, schedules, plan, protocol)
            }
            None => Engine::new(topo, cfg, protocol),
        };
        match req.faults {
            Some(faults) => self.observe(engine.with_faults(faults.build()), &req),
            None => self.observe(engine, &req),
        }
    }

    /// Attach the run's binary trace sink as the engine observer when
    /// tracing is on. The sink's `on_finish` seals the index and
    /// trailer, so the byte count read after the run is the file size.
    fn observe<P: FloodingProtocol, F: FaultPlan>(
        &self,
        engine: Engine<P, NullObserver, F>,
        req: &RunRequest<'_>,
    ) -> RunOutput {
        let Some(dir) = &self.trace else {
            return self.finish(engine).0;
        };
        let path = dir.join(format!(
            "{}.events.bin",
            run_stem(req.kind.name(), req.cfg, req.tag)
        ));
        let file = match File::create(&path) {
            Ok(file) => file,
            Err(e) => {
                self.trace_failed(&path, e);
                return self.finish(engine).0;
            }
        };
        let (mut out, sink) = self.finish(engine.with_observer(BinSink::new(file)));
        (out.trace_events, out.trace_bytes) = (sink.events(), sink.bytes());
        if let Err(e) = sink.into_result() {
            self.trace_failed(&path, e);
        }
        out
    }

    /// Book the first trace file that failed into the ledger.
    fn trace_failed(&self, path: &Path, e: std::io::Error) {
        let mut tally = self.tally.lock().expect("runner tally");
        tally
            .0
            .trace_error
            .get_or_insert_with(|| format!("{}: {e}", path.display()));
    }

    /// Run the engine, with a profiler lent to it when profiling is on.
    fn finish<P: FloodingProtocol, O: SimObserver, F: FaultPlan>(
        &self,
        engine: Engine<P, O, F>,
    ) -> (RunOutput, O) {
        let mut profile = self.profiling.then(PhaseProfiler::new);
        let t0 = Instant::now();
        let (report, energy, obs) = match &mut profile {
            Some(prof) => engine.with_profiler(prof).run_traced(),
            None => engine.run_traced(),
        };
        let out = RunOutput {
            report,
            energy,
            profile,
            trace_events: 0,
            trace_bytes: 0,
            run_ns: t0.elapsed().as_nanos() as u64,
        };
        (out, obs)
    }
}

// ---------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------

/// Deterministic per-run file stem: the same `(protocol, config,
/// fault tag)` triple always maps to the same files, so re-running an
/// artefact overwrites traces with byte-identical content instead of
/// accumulating. `fault_tag` is empty for fault-free runs; faulted runs
/// pass a short filename-safe label (e.g. `"f100"`, `"fburst"`) so
/// their traces never collide with the clean ones.
fn run_stem(protocol: &str, cfg: &SimConfig, fault_tag: &str) -> String {
    let mut stem = format!(
        "{}-p{}-a{}-m{}-s{}",
        protocol.to_lowercase(),
        cfg.period,
        cfg.active_per_period,
        cfg.n_packets,
        cfg.seed
    );
    if cfg.mistiming_prob > 0.0 {
        // Encode e.g. 0.05 as "e5000": stable, filename-safe.
        stem.push_str(&format!("-e{:.0}", cfg.mistiming_prob * 100_000.0));
    }
    if !fault_tag.is_empty() {
        stem.push('-');
        stem.push_str(fault_tag);
    }
    stem
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::LinkQuality;

    #[test]
    fn all_kinds_run_and_cover_a_grid() {
        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 2,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 2,
            mistiming_prob: 0.0,
        };
        for kind in [
            ProtocolKind::Opt,
            ProtocolKind::Dbao,
            ProtocolKind::DbaoNoOverhear,
            ProtocolKind::Of,
            ProtocolKind::OfPureTree,
            ProtocolKind::Naive,
        ] {
            let out = Runner::default().run(RunRequest::new(&topo, &cfg, kind));
            assert!(out.report.all_covered(), "{} failed to cover", kind.name());
        }
    }

    #[test]
    fn ledger_books_every_run() {
        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 1,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 11,
            mistiming_prob: 0.0,
        };
        let runner = Runner::default();
        let r1 = runner
            .run(RunRequest::new(&topo, &cfg, ProtocolKind::Dbao))
            .report;
        let cfg12 = SimConfig {
            seed: 12,
            ..cfg.clone()
        };
        let r2 = runner
            .run(RunRequest::new(&topo, &cfg12, ProtocolKind::Of))
            .report;
        let ledger = runner.ledger();
        assert_eq!(ledger.sims, 2);
        assert_eq!(ledger.slots, r1.slots_elapsed + r2.slots_elapsed);
        assert_eq!(ledger.protocols, BTreeSet::from(["DBAO", "OF"]));
        assert_eq!(ledger.seeds, BTreeSet::from([11, 12]));
        assert_eq!((ledger.trace_events, ledger.trace_bytes), (0, 0));
        assert_eq!(runner.profile().slots(), 0, "profiling is off");
    }

    #[test]
    fn concurrent_runners_keep_their_own_tallies() {
        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = |seed| SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 1,
            coverage: 1.0,
            max_slots: 100_000,
            seed,
            mistiming_prob: 0.0,
        };
        // Two threads, two runners, each flood started in lock-step
        // with the other thread's: each tally holds its own floods and
        // nothing of the other's.
        let (a, b) = (Runner::default(), Runner::default().with_profiling());
        let barrier = std::sync::Barrier::new(2);
        let floods = |runner: &Runner, kind, seeds: [u64; 3]| -> u64 {
            seeds
                .iter()
                .map(|&seed| {
                    barrier.wait();
                    let out = runner.run(RunRequest::new(&topo, &cfg(seed), kind));
                    out.report.slots_elapsed
                })
                .sum()
        };
        let (slots_a, slots_b) = std::thread::scope(|s| {
            let ta = s.spawn(|| floods(&a, ProtocolKind::Dbao, [1, 2, 3]));
            let tb = s.spawn(|| floods(&b, ProtocolKind::Of, [7, 8, 9]));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        let (la, lb) = (a.ledger(), b.ledger());
        assert_eq!((la.sims, la.slots), (3, slots_a));
        assert_eq!(la.protocols, BTreeSet::from(["DBAO"]));
        assert_eq!(la.seeds, BTreeSet::from([1, 2, 3]));
        assert_eq!((lb.sims, lb.slots), (3, slots_b));
        assert_eq!(lb.protocols, BTreeSet::from(["OF"]));
        assert_eq!(lb.seeds, BTreeSet::from([7, 8, 9]));
        assert_eq!(a.profile().slots(), 0, "only b profiles");
        assert!(b.profile().slots() > 0);
    }

    #[test]
    fn run_stem_is_deterministic_and_filename_safe() {
        let cfg = SimConfig {
            period: 100,
            active_per_period: 5,
            n_packets: 30,
            coverage: 0.99,
            max_slots: 1_000,
            seed: 1,
            mistiming_prob: 0.0,
        };
        assert_eq!(run_stem("DBAO", &cfg, ""), "dbao-p100-a5-m30-s1");
        let noisy = SimConfig {
            mistiming_prob: 0.05,
            ..cfg.clone()
        };
        assert_eq!(run_stem("OF", &noisy, ""), "of-p100-a5-m30-s1-e5000");
        assert_eq!(run_stem("OF", &cfg, "f100"), "of-p100-a5-m30-s1-f100");
    }

    #[test]
    fn cli_names_resolve_and_unknowns_do_not() {
        assert_eq!(ProtocolKind::from_cli_name("opt"), Some(ProtocolKind::Opt));
        assert_eq!(
            ProtocolKind::from_cli_name("DBAO"),
            Some(ProtocolKind::Dbao)
        );
        assert_eq!(
            ProtocolKind::from_cli_name("of-pure-tree"),
            Some(ProtocolKind::OfPureTree)
        );
        assert_eq!(ProtocolKind::from_cli_name("flood"), None);
    }

    #[test]
    fn scenario_entry_point_matches_with_schedules_semantics() {
        use ldcf_net::NeighborTable;
        use rand::{rngs::StdRng, SeedableRng};

        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 5,
            active_per_period: 1,
            n_packets: 2,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 4,
            mistiming_prob: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(99);
        let schedules = NeighborTable::random_single_slot(topo.n_nodes(), 5, &mut rng);
        let plan: Vec<Injection> = (0..2).map(|_| Injection::at_source()).collect();
        let runner = Runner::default();
        let scenario = |schedules| RunRequest {
            scenario: Some((schedules, &plan[..])),
            ..RunRequest::new(&topo, &cfg, ProtocolKind::Of)
        };
        let r1 = runner.run(scenario(schedules.clone())).report;
        let r2 = runner.run(scenario(schedules)).report;
        assert!(r1.all_covered());
        assert_eq!(r1.slots_elapsed, r2.slots_elapsed, "same inputs, same run");
        assert_eq!(r1.transmissions, r2.transmissions);
    }

    #[test]
    fn traced_run_writes_one_binary_trace_that_exports_to_direct_jsonl() {
        use ldcf_sim::JsonlSink;

        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 2,
            coverage: 1.0,
            max_slots: 100_000,
            seed: 5,
            mistiming_prob: 0.0,
        };
        let faults = FaultConfig::at_intensity(5, 0.5).burst_and_drift_only();
        let dir = std::env::temp_dir().join(format!("ldcf-runner-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let runner = Runner::default().with_event_tracing(&dir).unwrap();
        let out = runner.run(RunRequest {
            faults: Some(&faults),
            tag: "fbd",
            ..RunRequest::new(&topo, &cfg, ProtocolKind::Dbao)
        });

        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["dbao-p4-a1-m2-s5-fbd.events.bin"]);
        let bin = dir.join(&files[0]);

        // The ledger books exactly what the binary sink wrote.
        let ledger = runner.ledger();
        let events = ldcf_obs::BinReader::open_path(&bin).unwrap().n_events();
        let bytes = std::fs::metadata(&bin).unwrap().len();
        assert!(events > 0);
        assert_eq!((out.trace_events, out.trace_bytes), (events, bytes));
        assert_eq!((ledger.trace_events, ledger.trace_bytes), (events, bytes));

        // JSONL is an export view: byte-identical to a JSONL sink
        // observing the same request.
        let jsonl = dir.join("export.jsonl");
        assert_eq!(crate::trace_cmd::export(&bin, &jsonl).unwrap().0, events);
        let (report, _, sink) = Engine::new(topo.clone(), cfg.clone(), Dbao::new())
            .with_faults(faults.build())
            .with_observer(JsonlSink::new(Vec::new()))
            .run_traced();
        assert_eq!(report.slots_elapsed, out.report.slots_elapsed);
        assert_eq!(std::fs::read(&jsonl).unwrap(), sink.into_result().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulted_run_flood_covers_and_books() {
        let topo = Topology::grid(3, 3, LinkQuality::new(0.9));
        let cfg = SimConfig {
            period: 4,
            active_per_period: 1,
            n_packets: 2,
            coverage: 0.9,
            max_slots: 200_000,
            seed: 3,
            mistiming_prob: 0.0,
        };
        let faults = FaultConfig::at_intensity(3, 0.5).burst_and_drift_only();
        let runner = Runner::default();
        let out = runner.run(RunRequest {
            faults: Some(&faults),
            tag: "f50bd",
            ..RunRequest::new(&topo, &cfg, ProtocolKind::Of)
        });
        let (r, energy) = (out.report, out.energy);
        assert!(r.all_covered(), "OF under mild faults must still cover");
        assert_eq!(energy.tx_slots, r.transmissions);
        let ledger = runner.ledger();
        assert_eq!((ledger.sims, ledger.slots), (1, r.slots_elapsed));
        assert_eq!(ledger.protocols, BTreeSet::from(["OF"]));
        assert_eq!(ledger.seeds, BTreeSet::from([3]));
    }
}
