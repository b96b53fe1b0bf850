//! One flood through the engine, the way every simulation workload runs
//! it: clone the inputs (`net`), build the engine (`sim`), run it
//! (`sim`, with `protocols` and `faults` inside). In a traced run a
//! fresh `PhaseProfiler` rides along and its propose and faults totals
//! become attributed children of the `sim.run` span.

use crate::metrics::Values;
use crate::spans::Tracer;
use ldcf_net::{NeighborTable, Topology};
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::energy::EnergyLedger;
use ldcf_sim::{
    BinSink, Engine, EngineKind, FaultConfig, FaultPlan, FloodingProtocol, Injection, JsonlSink,
    Phase, PhaseProfiler, SimConfig, SimObserver, SimReport, VecObserver,
};
use std::io;
use std::time::Instant;

/// The protocols the workloads run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Opportunistic Flooding.
    Of,
    /// Deterministic back-off assignment + overhearing.
    Dbao,
    /// The collision-free oracle.
    Opt,
}

impl Proto {
    /// Index into per-protocol tallies.
    fn index(self) -> usize {
        self as usize
    }

    /// Lowercase name, as in `protocols.run_s.<name>`.
    pub fn name(self) -> &'static str {
        match self {
            Proto::Of => "of",
            Proto::Dbao => "dbao",
            Proto::Opt => "opt",
        }
    }
}

/// The inputs of one flood.
#[derive(Clone, Debug)]
pub struct Flood {
    /// Protocol.
    pub proto: Proto,
    /// Engine configuration (its seed drives schedules and MAC draws).
    pub cfg: SimConfig,
    /// Fault stack, if any.
    pub faults: Option<FaultConfig>,
    /// Explicit schedules and injection plan; `None` lets the engine
    /// draw schedules from the seed and inject every packet at slot 0.
    pub plan: Option<(NeighborTable, Vec<Injection>)>,
    /// Slot stepping or event skipping.
    pub kind: EngineKind,
}

/// What a flood produced.
pub struct FloodOutcome<O> {
    /// The engine's report.
    pub report: SimReport,
    /// The energy ledger.
    pub energy: EnergyLedger,
    /// The observer, returned for flushing.
    pub obs: O,
}

impl<O> FloodOutcome<O> {
    /// FNV digest of what the flood did: every count of the report,
    /// each packet's record and the energy ledger. Fields are named one
    /// by one so that a report gaining a field leaves the digest alone.
    pub fn digest(&self) -> u64 {
        let r = &self.report;
        let mut text = format!(
            "{} {} {} {} {} {} {} {} {} {} {}",
            r.slots_elapsed,
            r.transmissions,
            r.transmission_failures,
            r.collisions,
            r.overhears,
            r.deferrals,
            r.mistimed,
            r.node_crashes,
            r.node_recoveries,
            r.source_retries,
            r.packets.len(),
        );
        for p in &r.packets {
            text += &format!(
                "|{} {} {:?} {:?} {} {} {} {}",
                p.packet,
                p.injected_at,
                p.pushed_at,
                p.covered_at,
                p.final_holders,
                p.deliveries,
                p.overhears,
                p.failures
            );
        }
        let e = &self.energy;
        text += &format!(
            "|{} {} {} {} {}",
            e.active_slots, e.sleep_slots, e.tx_slots, e.rx_slots, e.failed_tx_slots
        );
        crate::fnv1a(text.as_bytes())
    }
}

/// Engine-side tallies of a traced run's floods.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Merged phase profile.
    pub phases: PhaseProfiler,
    /// Slots elapsed (dispatched or skipped).
    pub elapsed_slots: u64,
    /// Input clone time.
    pub clone_ns: u64,
    /// Engine construction time.
    pub build_ns: u64,
    /// Run time (profiler attached).
    pub run_ns: u64,
    /// Run time by protocol, indexed by `Proto`.
    pub run_ns_by_proto: [u64; 3],
}

impl EngineProfile {
    /// Record the `sim`, `net` (clone), `protocols` and `faults` metrics,
    /// with totals divided by `calls`.
    pub fn report(&self, v: &mut Values, calls: usize) {
        let per_call = |x: u64| x as f64 / calls.max(1) as f64;
        let dispatched = self.phases.slots();
        let per_slot = |p: Phase| self.phases.phase_total_ns(p) as f64 / dispatched.max(1) as f64;
        v.set("net.topology_clone_s", per_call(self.clone_ns) / 1e9);
        v.set("sim.engine_build_s", per_call(self.build_ns) / 1e9);
        v.set("sim.run_s", per_call(self.run_ns) / 1e9);
        v.set("sim.elapsed_slots", per_call(self.elapsed_slots));
        v.set("sim.dispatched_slots", per_call(dispatched));
        v.set(
            "sim.dispatch_frac",
            dispatched as f64 / self.elapsed_slots.max(1) as f64,
        );
        let hist = self.phases.slot_hist();
        v.set("sim.slot_ns_p50", hist.p50().unwrap_or(0) as f64);
        v.set("sim.slot_ns_p99", hist.p99().unwrap_or(0) as f64);
        v.set("sim.injection_ns_per_slot", per_slot(Phase::Injection));
        v.set("sim.sync_ns_per_slot", per_slot(Phase::Sync));
        v.set("sim.mac_ns_per_slot", per_slot(Phase::Mac));
        v.set("sim.deliver_ns_per_slot", per_slot(Phase::Deliver));
        v.set("sim.prune_ns_per_slot", per_slot(Phase::Prune));
        v.set("sim.energy_ns_per_slot", per_slot(Phase::Energy));
        v.set("sim.idle_skip_ns_per_slot", per_slot(Phase::IdleSkip));
        v.set("protocols.propose_ns_per_slot", per_slot(Phase::Propose));
        v.set("faults.faults_ns_per_slot", per_slot(Phase::Faults));
        for p in [Proto::Of, Proto::Dbao, Proto::Opt] {
            let name = match p {
                Proto::Of => "protocols.run_s.of",
                Proto::Dbao => "protocols.run_s.dbao",
                Proto::Opt => "protocols.run_s.opt",
            };
            v.set(name, per_call(self.run_ns_by_proto[p.index()]) / 1e9);
        }
    }
}

/// Capture one flood's events, then time replaying them into each sink
/// over `io::sink()`, so that only encoding is timed. Records the `obs`
/// metrics and returns the JSONL and binary ns per event.
pub fn encode_costs(topo: &Topology, flood: &Flood, v: &mut Values) -> (f64, f64) {
    let mut off = Tracer::new(false);
    let capture = run(topo, flood, VecObserver::default(), None, &mut off).obs;
    let events = capture.events.len().max(1) as f64;
    let t0 = Instant::now();
    let mut jsonl = JsonlSink::new(io::sink());
    for e in &capture.events {
        jsonl.on_event(e);
    }
    jsonl.on_finish();
    let jsonl_ns = t0.elapsed().as_nanos() as f64 / events;
    let t0 = Instant::now();
    let mut bin = BinSink::new(io::sink());
    for e in &capture.events {
        bin.on_event(e);
    }
    bin.on_finish();
    let bin_ns = t0.elapsed().as_nanos() as f64 / events;
    v.set("obs.events_per_flood", events);
    v.set("obs.jsonl_encode_ns_per_event", jsonl_ns);
    v.set("obs.bin_encode_ns_per_event", bin_ns);
    v.set("obs.jsonl_bytes_per_event", jsonl.bytes() as f64 / events);
    v.set("obs.bin_bytes_per_event", bin.bytes() as f64 / events);
    (jsonl_ns, bin_ns)
}

/// Run one flood over `topo` with observer `obs`. With `profile`, a
/// phase profiler is attached and the flood's costs are added to it.
pub fn run<O: SimObserver>(
    topo: &Topology,
    flood: &Flood,
    obs: O,
    profile: Option<&mut EngineProfile>,
    t: &mut Tracer,
) -> FloodOutcome<O> {
    match flood.proto {
        Proto::Of => with_protocol(topo, flood, OpportunisticFlooding::new(), obs, profile, t),
        Proto::Dbao => with_protocol(topo, flood, Dbao::new(), obs, profile, t),
        Proto::Opt => with_protocol(topo, flood, Opt::new(), obs, profile, t),
    }
}

fn with_protocol<P: FloodingProtocol, O: SimObserver>(
    topo: &Topology,
    flood: &Flood,
    protocol: P,
    obs: O,
    profile: Option<&mut EngineProfile>,
    t: &mut Tracer,
) -> FloodOutcome<O> {
    let t0 = Instant::now();
    let clone = t.enter("net.topology_clone");
    let topo = topo.clone();
    let plan = flood.plan.clone();
    t.exit(clone);
    let t1 = Instant::now();
    let build = t.enter("sim.engine_build");
    let engine = match plan {
        Some((schedules, injections)) => {
            Engine::with_injections(topo, flood.cfg.clone(), schedules, &injections, protocol)
        }
        None => Engine::new(topo, flood.cfg.clone(), protocol),
    }
    .with_engine_kind(flood.kind)
    .with_observer(obs);
    t.exit(build);
    let t2 = Instant::now();
    let out = match &flood.faults {
        Some(faults) => finish(engine.with_faults(faults.build()), profile.is_some(), t),
        None => finish(engine, profile.is_some(), t),
    };
    let (outcome, phases, run_ns) = out;
    if let Some(p) = profile {
        p.clone_ns += (t1 - t0).as_nanos() as u64;
        p.build_ns += (t2 - t1).as_nanos() as u64;
        p.run_ns += run_ns;
        p.run_ns_by_proto[flood.proto.index()] += run_ns;
        p.elapsed_slots += outcome.report.slots_elapsed;
        p.phases.merge(&phases);
    }
    outcome
}

/// Run the engine to the end, profiled when `profiled`; the outcome,
/// the flood's phase profile and its run time.
fn finish<P: FloodingProtocol, O: SimObserver, F: FaultPlan>(
    engine: Engine<P, O, F>,
    profiled: bool,
    t: &mut Tracer,
) -> (FloodOutcome<O>, PhaseProfiler, u64) {
    let mut phases = PhaseProfiler::new();
    let span = t.enter("sim.run");
    let t0 = Instant::now();
    let (report, energy, obs) = if profiled {
        engine.with_profiler(&mut phases).run_traced()
    } else {
        engine.run_traced()
    };
    let run_ns = t0.elapsed().as_nanos() as u64;
    t.exit(span);
    t.attribute(
        span,
        "protocols.propose",
        phases.phase_total_ns(Phase::Propose),
    );
    t.attribute(span, "faults.faults", phases.phase_total_ns(Phase::Faults));
    (
        FloodOutcome {
            report,
            energy,
            obs,
        },
        phases,
        run_ns,
    )
}
