//! # ldcf-benchmark — one benchmark for the whole chain
//!
//! Six workloads, each run in its own process, measured from outside
//! the program: the harness calls the layers' public functions and
//! times them with `std::time::Instant`. An untraced run reports the
//! end-to-end metrics; a traced run records spans around every call
//! into a layer (plus the engine's own `PhaseProfiler`) and reports the
//! per-layer metrics. See `README.md` for the workloads, the metrics
//! and how to compare two commits.

pub mod campaign;
pub mod fig9;
pub mod flood;
pub mod metrics;
pub mod rgg;
pub mod service;
pub mod spans;
pub mod stats;
pub mod sys;

use flood::EngineProfile;
use metrics::Values;
use serde::Value;
use spans::{Span, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's operating point on the GreenOrbs-style trace.
    Fig9,
    /// `Fig9` under the composed fault stack.
    Fig9Faulted,
    /// OPT and DBAO floods traced to JSONL and binary, then forensics.
    Fig9Traced,
    /// One 100k-node random geometric network on the event engine.
    Rgg100k,
    /// The nightly campaign shape, from spec to `campaign.json`.
    Campaign,
    /// Closed-loop submit → results against the in-process job server.
    Service,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 6] = [
        Workload::Fig9,
        Workload::Fig9Faulted,
        Workload::Fig9Traced,
        Workload::Rgg100k,
        Workload::Campaign,
        Workload::Service,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9 => "fig9",
            Workload::Fig9Faulted => "fig9-faulted",
            Workload::Fig9Traced => "fig9-traced",
            Workload::Rgg100k => "rgg-100k",
            Workload::Campaign => "campaign",
            Workload::Service => "service",
        }
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig9 => {
                "paper operating point on GreenOrbs: every slot dispatched, no I/O, OF propose dominates"
            }
            Workload::Fig9Faulted => {
                "same floods under burst loss, drift and churn: the only load on the faults layer"
            }
            Workload::Fig9Traced => {
                "floods traced to JSONL and bin, then forensics: obs encoding and analysis decoding"
            }
            Workload::Rgg100k => {
                "100k-node network at duty 1/100 on the event engine: about 1% of slots dispatched"
            }
            Workload::Campaign => {
                "nightly campaign spec to campaign.json: scenario build, parallel cells, checkpoints, fold"
            }
            Workload::Service => {
                "closed-loop HTTP submit to results: parsing, job store, queue and runner"
            }
        }
    }

    /// Resolve a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the measured workload, or a seconds-long version for
/// the harness's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark as specified.
    Full,
    /// Same code paths, inputs small enough for `cargo test`.
    Smoke,
}

/// Seed used when `--seed` is not given; `expected.json` pins the
/// outcome digests at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// How to run one workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Input size.
    pub size: Size,
    /// Where results and span files go; scratch artefacts always go to
    /// [`default_out`], inside the package.
    pub out: PathBuf,
}

/// Default results directory: `out/` next to this package's manifest.
pub fn default_out() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A 32-bit base seed for input stream `stream` of workload seed
/// `seed` (SplitMix64 finaliser). Inputs add small offsets to it, so
/// they stay distinct within a run and far from other seeds' inputs.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 32
}

/// Outcome checks: every attempted operation, and the ones that failed.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked operation; `msg` describes it if it failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(msg());
            }
        }
    }

    /// Add another set of checks to these.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// What one workload run measured.
pub struct RunResult {
    /// Outcome checks.
    pub checks: Checks,
    /// Measured metric values.
    pub values: Values,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<Span>,
    /// Outcome digest of the warm-up (compared to `expected.json`).
    pub digest: String,
    /// Seconds the reported metrics summarise: per item, its median
    /// over the timed calls (service: per job, its latency).
    pub samples: Vec<f64>,
}

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// A cheap set-up repeats until this many seconds have passed (at most
/// [`MAX_SETUPS`] times), so that the median of a millisecond-long
/// set-up is as steady as that of a long one.
const SETUP_MIN_S: f64 = 0.2;
/// Upper bound on set-up repetitions.
const MAX_SETUPS: usize = 200;

/// Run `setup` at least [`SETUPS`] times, and until [`SETUP_MIN_S`]
/// have passed; the last result and the median seconds. Every other
/// result is dropped after its timing and before the next set-up.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t0 = Instant::now();
        let last = setup();
        secs.push(t0.elapsed().as_secs_f64());
        let enough = start.elapsed().as_secs_f64() >= SETUP_MIN_S || secs.len() >= MAX_SETUPS;
        if secs.len() >= SETUPS && enough {
            let median = stats::median(&secs).expect("at least one set-up");
            return (last, median);
        }
    }
}

/// What one call of a workload item produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Slots simulated.
    pub slots: u64,
    /// One digest per checked outcome; every timed call must repeat
    /// the warm-up's.
    pub digests: Vec<u64>,
}

/// Call `f` on items `0..items` in passes until `seconds` have passed
/// and every item ran at least once; each call's wall seconds, per item.
fn timed(seconds: f64, items: usize, mut f: impl FnMut(usize)) -> Vec<Vec<f64>> {
    let start = Instant::now();
    let mut secs = vec![Vec::new(); items];
    loop {
        for (i, s) in secs.iter_mut().enumerate() {
            let t0 = Instant::now();
            f(i);
            s.push(t0.elapsed().as_secs_f64());
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return secs;
        }
    }
}

/// Each item's median call time.
fn item_medians(secs: &[Vec<f64>]) -> Vec<f64> {
    secs.iter()
        .map(|s| stats::median(s).expect("every item ran"))
        .collect()
}

/// An iterated workload's measurement, before its per-layer extras.
pub struct Measured {
    /// Outcome checks so far.
    pub checks: Checks,
    /// Metrics so far.
    pub values: Values,
    /// Spans of the traced calls.
    pub tracer: Tracer,
    /// Engine tallies of the traced calls.
    pub profile: EngineProfile,
    /// Traced calls made.
    pub traced_calls: usize,
    /// Per item, the median of its reported calls.
    pub samples: Vec<f64>,
    /// Outcome digest of the warm-up.
    pub digest: String,
    /// The warm-up's outcomes, one per item.
    pub warmup: Vec<Outcome>,
}

/// FNV digest of a sequence of outcome digests, as hex.
pub fn digest_hex<'a>(digests: impl IntoIterator<Item = &'a u64>) -> String {
    let bytes: Vec<u8> = digests.into_iter().flat_map(|d| d.to_le_bytes()).collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// Measure a workload made of `items` independent calls. One untimed
/// warm-up pass fixes each item's reference digests. Untraced: pass
/// over the items for `opts.seconds` and report `setup_s`,
/// `slots_per_s` (warm-up slots over the summed item medians) and
/// `latency_p50_ms` (median item median). Traced: untraced passes for
/// half the window, then traced ones — each call under a
/// `harness.iteration` span, floods profiled — for the other half; the
/// ratio of the summed medians is the tracing overhead.
pub fn measure(
    opts: &RunOpts,
    items: usize,
    setup_s: f64,
    mut call: impl FnMut(usize, &mut Tracer, Option<&mut EngineProfile>, &mut Checks) -> Outcome,
) -> Measured {
    let mut checks = Checks::default();
    let mut off = Tracer::new(false);
    let warmup: Vec<Outcome> = (0..items)
        .map(|i| call(i, &mut off, None, &mut checks))
        .collect();
    let digest = digest_hex(warmup.iter().flat_map(|o| &o.digests));
    let compare = |i: usize, out: &Outcome, checks: &mut Checks| {
        let want = &warmup[i].digests;
        checks.check(&out.digests == want, || {
            format!(
                "item {i}: outcome digests {:x?} differ from the warm-up's {want:x?}",
                out.digests
            )
        });
    };

    let window = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = item_medians(&timed(window, items, |i| {
        let out = call(i, &mut off, None, &mut checks);
        compare(i, &out, &mut checks);
    }));
    let mut values = Values::default();
    let mut tracer = Tracer::new(opts.traced);
    let mut profile = EngineProfile::default();
    let mut traced_calls = 0;
    let samples = if opts.traced {
        let traced = item_medians(&timed(window, items, |i| {
            let root = tracer.enter("harness.iteration");
            let out = call(i, &mut tracer, Some(&mut profile), &mut checks);
            tracer.exit(root);
            traced_calls += 1;
            compare(i, &out, &mut checks);
        }));
        values.set(
            "harness.trace_overhead_frac",
            traced.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0,
        );
        traced
    } else {
        let slots: u64 = warmup.iter().map(|o| o.slots).sum();
        values.set("setup_s", setup_s);
        values.set("slots_per_s", slots as f64 / untraced.iter().sum::<f64>());
        values.set(
            "latency_p50_ms",
            stats::median(&untraced).expect("items >= 1") * 1e3,
        );
        untraced
    };
    Measured {
        checks,
        values,
        tracer,
        profile,
        traced_calls,
        samples,
        digest,
        warmup,
    }
}

/// The per-layer share metrics: each layer's self time over the summed
/// duration of the root spans, and the share of that covered by some
/// layer span.
pub fn layer_shares(spans: &[Span], values: &mut Values) {
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let total = total.max(1) as f64;
    let by_layer = spans::layer_self_ns(spans);
    for &(layer, metric) in metrics::LAYER_SHARES {
        values.set(
            metric,
            by_layer.get(layer).copied().unwrap_or(0) as f64 / total,
        );
    }
    let harness = by_layer.get("harness").copied().unwrap_or(0) as f64;
    values.set("harness.span_coverage_frac", 1.0 - harness / total);
}

impl Measured {
    /// The run's result, spans taken from the tracer. Traced: layer
    /// shares and, if the traced calls profiled floods, the engine
    /// tallies per call, folded into the metrics.
    pub fn finish(mut self) -> RunResult {
        let traced = self.tracer.enabled();
        let spans = self.tracer.take();
        if traced {
            if self.profile.phases.slots() > 0 {
                self.profile.report(&mut self.values, self.traced_calls);
            }
            layer_shares(&spans, &mut self.values);
        }
        RunResult {
            checks: self.checks,
            values: self.values,
            spans,
            digest: self.digest,
            samples: self.samples,
        }
    }
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest `expected.json` pins for `workload` at the default seed.
pub fn expected_digest(workload: Workload) -> Option<String> {
    let text = include_str!("../expected.json");
    let v: Value = serde_json::from_str(text).expect("expected.json is valid JSON");
    v.get(workload.name())
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Run one workload in this process.
pub fn run(workload: Workload, opts: &RunOpts) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let scratch = sys::Scratch::new(&default_out(), workload.name())
        .map_err(|e| format!("scratch dir under {}: {e}", default_out().display()))?;
    let mut result = match workload {
        Workload::Fig9 | Workload::Fig9Faulted | Workload::Fig9Traced => {
            fig9::run(workload, opts, scratch.path())
        }
        Workload::Rgg100k => rgg::run(opts),
        Workload::Campaign => campaign::run(opts, scratch.path()),
        Workload::Service => service::run(opts, scratch.path()),
    }?;
    if opts.seed == DEFAULT_SEED && opts.size == Size::Full {
        let want = expected_digest(workload);
        let got = result.digest.clone();
        result.checks.check(want.as_ref() == Some(&got), || {
            format!("outcome digest {got} != expected.json's {want:?}")
        });
    }
    if !opts.traced {
        result.values.set("peak_heap_mb", sys::peak_heap_mb());
    }
    Ok(result)
}

/// The results file of one run: header, checks, every metric, and the
/// outcome digest.
pub fn results_value(
    workload: Workload,
    opts: &RunOpts,
    result: &RunResult,
    metrics: &[(&'static str, f64, &'static str)],
) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::UInt(opts.seed)),
        ("seconds".into(), Value::Float(opts.seconds)),
        ("traced".into(), Value::Bool(opts.traced)),
        ("header".into(), sys::header()),
        (
            "samples_s".into(),
            Value::Array(result.samples.iter().map(|&s| Value::Float(s)).collect()),
        ),
        ("attempted".into(), Value::UInt(result.checks.attempted)),
        ("failed".into(), Value::UInt(result.checks.failed)),
        (
            "failures".into(),
            Value::Array(
                result
                    .checks
                    .failures
                    .iter()
                    .cloned()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("digest".into(), Value::Str(result.digest.clone())),
        ("metrics".into(), metrics::metrics_value(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_seed_and_stream_and_fit_32_bits() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in [0, 1, 2, u64::MAX] {
            for stream in 0..4 {
                let d = derive(seed, stream);
                assert!(d < 1 << 32);
                assert!(seen.insert(d), "derive({seed}, {stream}) collides");
            }
        }
    }

    #[test]
    fn timed_passes_cover_every_item_equally() {
        let mut calls = vec![0; 3];
        let secs = timed(0.0, 3, |i| calls[i] += 1);
        assert_eq!(calls, [1, 1, 1]);
        assert!(secs.iter().all(|s| s.len() == 1));
    }
}
