//! Runtime telemetry: engine phase timers, streaming histograms, and a
//! counting allocator — the simulator profiling itself.
//!
//! PRs 1–2 made the *simulated network* observable; this module makes
//! the *simulator* observable. Three pieces:
//!
//! * [`SimProfiler`] — the engine-facing phase-timer trait, designed
//!   exactly like [`SimObserver`](crate::SimObserver): an associated
//!   `const ENABLED` lets the default [`NullProfiler`] compile every
//!   timestamp out of the hot path, so an unprofiled engine pays
//!   nothing and stays byte-identical to one that never heard of
//!   profiling.
//! * [`StreamingHistogram`] — a fixed-memory log-bucketed histogram
//!   (HDR-style: exact below 16, then 8 sub-buckets per power of two,
//!   ≤ 12.5 % relative error) with p50/p95/p99/max readouts and a
//!   commutative [`merge`](StreamingHistogram::merge), so per-worker
//!   histograms fold into one deterministic aggregate whatever the
//!   rayon thread count.
//! * [`CountingAlloc`] — a `GlobalAlloc` wrapper that counts each
//!   thread's heap allocations, turning the "allocation-free hot path"
//!   claim into an enforced test gate instead of a changelog sentence.
//!
//! The [`PhaseProfiler`] ties the first two together: one streaming
//! histogram per engine [`Phase`] plus one for whole-slot cost. The
//! engine records phases along a single contiguous timestamp chain, so
//! per-slot phase times telescope — their sum equals the recorded slot
//! total *exactly*, by construction, not approximately.

use serde::Value;

// ---------------------------------------------------------------------
// Phase taxonomy
// ---------------------------------------------------------------------

/// The per-slot phases of the engine's `step()`, in execution order.
///
/// Each slot the engine walks these phases once (a phase whose guard is
/// off — e.g. [`Phase::Faults`] without a fault plan — records
/// nothing): where a slot's wall time goes, it goes to one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Slot-0 setup and deferred packet injections entering queues.
    Injection = 0,
    /// Fault dynamics: churn transitions, the churn repair pass, and
    /// due source retries (zero-cost without an enabled fault plan).
    Faults = 1,
    /// Protocol `propose`: wake-calendar probes, nodes-with-work
    /// iteration, and intent construction.
    Propose = 2,
    /// Rendezvous filtering of proposed intents: residual mis-sync
    /// (`mistiming_prob`) and injected clock-drift misses.
    Sync = 3,
    /// MAC resolution (`mac::resolve_slot_into`): carrier sense,
    /// collisions, loss draws.
    Mac = 4,
    /// Applying MAC outcomes: deliveries, possession/queue updates,
    /// coverage accounting, event emission.
    Deliver = 5,
    /// Queue pruning of exhausted entries plus protocol `on_events`.
    Prune = 6,
    /// Duty-cycle energy accounting and slot-end bookkeeping.
    Energy = 7,
    /// Event-engine idle-span settlement: the next-rendezvous query plus
    /// the batched energy/metrics booking of every skipped slot. Records
    /// one segment per skip (never on the slot-stepped path), outside
    /// any slot, so the telescoping invariant — per-slot phase segments
    /// sum to the slot total — is preserved: skips add to phase totals
    /// and to the run's wall clock alike.
    IdleSkip = 8,
}

/// Number of phases in the taxonomy.
pub const N_PHASES: usize = 9;

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Injection,
        Phase::Faults,
        Phase::Propose,
        Phase::Sync,
        Phase::Mac,
        Phase::Deliver,
        Phase::Prune,
        Phase::Energy,
        Phase::IdleSkip,
    ];

    /// Stable snake_case name (JSON artefact vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Injection => "injection",
            Phase::Faults => "faults",
            Phase::Propose => "propose",
            Phase::Sync => "sync",
            Phase::Mac => "mac",
            Phase::Deliver => "deliver",
            Phase::Prune => "prune",
            Phase::Energy => "energy",
            Phase::IdleSkip => "idle_skip",
        }
    }
}

// ---------------------------------------------------------------------
// Streaming histogram
// ---------------------------------------------------------------------

/// Buckets: values 0..16 exact, then 8 log sub-buckets per power of two
/// up to `u64::MAX` — 16 + 60 × 8 = 496 fixed counters (~4 KiB).
const EXACT: u64 = 16;
const SUBS: u32 = 8;
const N_BUCKETS: usize = EXACT as usize + ((64 - 4) * SUBS as usize);

/// A fixed-memory log-bucketed streaming histogram over `u64` samples
/// (the profiler feeds it nanoseconds; any unit works).
///
/// Values below 16 are exact; above, each power of two is split into 8
/// sub-buckets, bounding relative error at 12.5 %. Memory is constant
/// whatever the sample count, and [`merge`](Self::merge) is plain
/// counter addition — commutative and associative — so merging
/// per-worker histograms in input order yields bit-identical state
/// regardless of how many threads produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamingHistogram {
    counts: Box<[u64; N_BUCKETS]>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // ≥ 4
    let sub = ((v >> (msb - 3)) & 7) as usize;
    EXACT as usize + (msb - 4) as usize * SUBS as usize + sub
}

/// Lower bound of bucket `i` (inverse of [`bucket_index`]).
fn bucket_lo(i: usize) -> u64 {
    if i < EXACT as usize {
        return i as u64;
    }
    let off = i - EXACT as usize;
    let msb = (off / SUBS as usize) as u32 + 4;
    let sub = (off % SUBS as usize) as u64;
    (1u64 << msb) + (sub << (msb - 3))
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; N_BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (counter addition: commutative, so any
    /// merge order over the same inputs yields identical state).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Quantile `q ∈ [0, 1]` by nearest rank, reported as the holding
    /// bucket's midpoint (exact below 16; ≤ 12.5 % error above).
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i < EXACT as usize {
                    return Some(i as u64);
                }
                let lo = bucket_lo(i);
                let hi = if i + 1 < N_BUCKETS {
                    bucket_lo(i + 1)
                } else {
                    u64::MAX
                };
                return Some((lo + (hi - lo) / 2).min(self.max));
            }
        }
        unreachable!("rank ≤ count implies a bucket is found")
    }

    /// Median (p50).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// JSON rendering: summary stats plus the *sparse* bucket list
    /// (`[index, count]` pairs for non-empty buckets only, ascending),
    /// so artefacts stay small and merges stay byte-comparable.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("max".into(), Value::UInt(self.max)),
            ("p50".into(), Value::UInt(self.p50().unwrap_or(0))),
            ("p95".into(), Value::UInt(self.p95().unwrap_or(0))),
            ("p99".into(), Value::UInt(self.p99().unwrap_or(0))),
            (
                "buckets".into(),
                Value::Array(
                    self.counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(i, &c)| Value::Array(vec![Value::UInt(i as u64), Value::UInt(c)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild a histogram from its [`to_value`](Self::to_value)
    /// rendering. The quantile fields are recomputed from the bucket
    /// counters, not trusted; the summary counters must be internally
    /// consistent (bucket counts summing to `count`) or the document is
    /// rejected.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("histogram missing integer '{name}'"))
        };
        let mut h = Self::new();
        h.count = field("count")?;
        h.sum = field("sum")?;
        h.max = field("max")?;
        let Some(Value::Array(buckets)) = v.get("buckets") else {
            return Err("histogram missing 'buckets' array".into());
        };
        let mut total = 0u64;
        for (n, pair) in buckets.iter().enumerate() {
            let Value::Array(pair) = pair else {
                return Err(format!("buckets[{n}] is not an [index, count] pair"));
            };
            let (Some(i), Some(c)) = (
                pair.first().and_then(Value::as_u64),
                pair.get(1).and_then(Value::as_u64),
            ) else {
                return Err(format!("buckets[{n}] is not an [index, count] pair"));
            };
            if (i as usize) >= N_BUCKETS {
                return Err(format!("buckets[{n}] index {i} out of range"));
            }
            h.counts[i as usize] += c;
            total += c;
        }
        if total != h.count {
            return Err(format!(
                "bucket counts sum to {total} but count says {}",
                h.count
            ));
        }
        Ok(h)
    }
}

// ---------------------------------------------------------------------
// Profiler trait
// ---------------------------------------------------------------------

/// Receives the engine's per-slot phase timings.
///
/// Mirrors [`SimObserver`](crate::SimObserver): the engine is generic
/// over its profiler and consults `Self::ENABLED` (a `const`) before
/// taking any timestamp, so under the default [`NullProfiler`] every
/// timing site monomorphizes to dead code — zero instructions, zero
/// clock reads, no RNG or behaviour change either way.
pub trait SimProfiler {
    /// Whether the engine should read clocks and report at all.
    const ENABLED: bool = true;

    /// One phase segment of the current slot took `elapsed_ns`. A phase
    /// whose guard is off this slot is simply never reported.
    fn record(&mut self, phase: Phase, elapsed_ns: u64);

    /// The whole slot took `elapsed_ns` (measured on the same timestamp
    /// chain as the phases, so the phase segments sum to it exactly).
    fn slot_end(&mut self, elapsed_ns: u64);
}

/// The default do-nothing profiler; `ENABLED = false` compiles all
/// timing out of the engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullProfiler;

impl SimProfiler for NullProfiler {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _phase: Phase, _elapsed_ns: u64) {}

    #[inline(always)]
    fn slot_end(&mut self, _elapsed_ns: u64) {}
}

/// `&mut P` profiles too, so a profiler can be lent to an engine and
/// inspected after the run without being consumed.
impl<P: SimProfiler> SimProfiler for &mut P {
    const ENABLED: bool = P::ENABLED;

    #[inline]
    fn record(&mut self, phase: Phase, elapsed_ns: u64) {
        (**self).record(phase, elapsed_ns);
    }

    #[inline]
    fn slot_end(&mut self, elapsed_ns: u64) {
        (**self).slot_end(elapsed_ns);
    }
}

// ---------------------------------------------------------------------
// PhaseProfiler
// ---------------------------------------------------------------------

/// The standard [`SimProfiler`]: one [`StreamingHistogram`] per
/// [`Phase`] (segment cost in ns) plus one for whole-slot cost, with
/// exact per-phase totals on the side.
///
/// Merging profilers from many runs (or many rayon workers) is
/// counter addition throughout, so the folded result is deterministic
/// whatever the parallelism.
#[derive(Clone, Debug, Default)]
pub struct PhaseProfiler {
    /// Per-phase segment-cost histograms, indexed by `Phase as usize`.
    phases: [StreamingHistogram; N_PHASES],
    /// Per-phase total nanoseconds (exact, not bucketed).
    totals: [u64; N_PHASES],
    /// Whole-slot cost histogram.
    slot: StreamingHistogram,
    /// Total nanoseconds across all recorded slots (exact).
    slot_total_ns: u64,
}

impl PhaseProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The segment-cost histogram of `phase`.
    pub fn phase_hist(&self, phase: Phase) -> &StreamingHistogram {
        &self.phases[phase as usize]
    }

    /// Exact total nanoseconds spent in `phase`.
    pub fn phase_total_ns(&self, phase: Phase) -> u64 {
        self.totals[phase as usize]
    }

    /// Sum of all phase totals.
    pub fn phases_total_ns(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// The whole-slot cost histogram.
    pub fn slot_hist(&self) -> &StreamingHistogram {
        &self.slot
    }

    /// Exact total nanoseconds across all recorded slots.
    pub fn slot_total_ns(&self) -> u64 {
        self.slot_total_ns
    }

    /// Slots recorded.
    pub fn slots(&self) -> u64 {
        self.slot.count
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.phases.iter_mut().zip(&other.phases) {
            a.merge(b);
        }
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += *b;
        }
        self.slot.merge(&other.slot);
        self.slot_total_ns += other.slot_total_ns;
    }

    /// JSON rendering: the slot histogram plus one entry per phase
    /// (name, exact total, share of the slot total, histogram).
    pub fn to_value(&self) -> Value {
        let slot_total = self.slot_total_ns.max(1);
        Value::Object(vec![
            ("slots".into(), Value::UInt(self.slots())),
            ("slot_total_ns".into(), Value::UInt(self.slot_total_ns)),
            ("slot_ns".into(), self.slot.to_value()),
            (
                "phases".into(),
                Value::Array(
                    Phase::ALL
                        .iter()
                        .map(|&p| {
                            let total = self.phase_total_ns(p);
                            Value::Object(vec![
                                ("phase".into(), Value::Str(p.name().into())),
                                ("total_ns".into(), Value::UInt(total)),
                                (
                                    "share".into(),
                                    Value::Float(total as f64 / slot_total as f64),
                                ),
                                ("segment_ns".into(), self.phase_hist(p).to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl SimProfiler for PhaseProfiler {
    #[inline]
    fn record(&mut self, phase: Phase, elapsed_ns: u64) {
        self.phases[phase as usize].record(elapsed_ns);
        self.totals[phase as usize] += elapsed_ns;
    }

    #[inline]
    fn slot_end(&mut self, elapsed_ns: u64) {
        self.slot.record(elapsed_ns);
        self.slot_total_ns += elapsed_ns;
    }
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator cannot re-enter itself, and it stays
    // usable while a thread is being torn down.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

/// A [`GlobalAlloc`] wrapper around [`System`] that counts every
/// allocation and reallocation per thread — the measurement half of the
/// allocation gate (`crates/bench/tests/alloc_gate.rs`), which asserts
/// the engine's hot path performs **zero** heap allocations per slot
/// after warmup.
///
/// Install it in a test binary:
///
/// ```ignore
/// #[global_allocator]
/// static A: ldcf_obs::telemetry::CountingAlloc = ldcf_obs::telemetry::CountingAlloc;
/// ```
///
/// Deallocations are deliberately not counted: the gate cares about
/// acquisition cost and allocator traffic, and frees always pair with
/// a counted alloc.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Allocations (+ reallocations) the calling thread has made since
    /// it started. Sample before and after a region; the difference is
    /// the region's count, whatever other threads allocate meanwhile.
    pub fn allocations() -> u64 {
        ALLOC_CALLS.with(Cell::get)
    }
}

// SAFETY: delegates verbatim to `System`, only bumping a thread-local
// counter on the allocating entry points.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverse_of_lo() {
        let mut prev = 0;
        for i in 0..N_BUCKETS {
            let lo = bucket_lo(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i} maps back");
            if i > 0 {
                assert!(lo > prev, "bucket lows ascend at {i}");
            }
            prev = lo;
        }
        // Spot checks: exact region, boundaries, large values.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        for v in [17u64, 100, 1_000, 123_456_789, 1 << 40] {
            let i = bucket_index(v);
            assert!(bucket_lo(i) <= v);
            if i + 1 < N_BUCKETS {
                assert!(v < bucket_lo(i + 1));
            }
        }
    }

    #[test]
    fn quantiles_exact_below_sixteen() {
        let mut h = StreamingHistogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.quantile(1.0), Some(10));
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.max, 10);
        assert_eq!(h.mean(), Some(5.5));
    }

    #[test]
    fn quantiles_bounded_error_above_sixteen() {
        let mut h = StreamingHistogram::new();
        for v in 0..10_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q).unwrap() as f64;
            let err = (got - expect).abs() / expect;
            assert!(err < 0.13, "q{q}: got {got}, want ~{expect} (err {err})");
        }
        assert_eq!(h.count, 10_000);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = StreamingHistogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max, 0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let values: Vec<u64> = (0..1000).map(|i| i * 37 % 5000).collect();
        let mut whole = StreamingHistogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = StreamingHistogram::new();
        let mut right = StreamingHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged = StreamingHistogram::new();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, whole, "merge is exact and order-independent");
    }

    #[test]
    fn histogram_roundtrips_through_value() {
        let mut h = StreamingHistogram::new();
        for v in [0u64, 1, 15, 16, 17, 100, 1_000_000, u64::MAX / 2] {
            h.record(v);
        }
        let back = StreamingHistogram::from_value(&h.to_value()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.p95(), h.p95());

        let empty = StreamingHistogram::new();
        assert_eq!(
            StreamingHistogram::from_value(&empty.to_value()).unwrap(),
            empty
        );
    }

    #[test]
    fn histogram_from_value_rejects_inconsistent_documents() {
        let mut h = StreamingHistogram::new();
        h.record(42);
        // Tamper: claim two samples while the buckets hold one.
        let Value::Object(mut fields) = h.to_value() else {
            unreachable!()
        };
        for (k, v) in &mut fields {
            if k == "count" {
                *v = Value::UInt(2);
            }
        }
        let err = StreamingHistogram::from_value(&Value::Object(fields)).unwrap_err();
        assert!(err.contains("sum to 1"), "err: {err}");
        assert!(StreamingHistogram::from_value(&Value::Null).is_err());
        // Out-of-range bucket index.
        let bad = Value::Object(vec![
            ("count".into(), Value::UInt(1)),
            ("sum".into(), Value::UInt(1)),
            ("max".into(), Value::UInt(1)),
            (
                "buckets".into(),
                Value::Array(vec![Value::Array(vec![
                    Value::UInt(10_000),
                    Value::UInt(1),
                ])]),
            ),
        ]);
        assert!(StreamingHistogram::from_value(&bad)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_profiler_is_disabled() {
        assert!(!NullProfiler::ENABLED);
        assert!(PhaseProfiler::ENABLED);
        assert!(<&mut PhaseProfiler as SimProfiler>::ENABLED);
    }

    #[test]
    fn phase_profiler_telescopes_and_merges() {
        let mut a = PhaseProfiler::new();
        a.record(Phase::Propose, 30);
        a.record(Phase::Mac, 50);
        a.record(Phase::Energy, 20);
        a.slot_end(100);
        let mut b = PhaseProfiler::new();
        b.record(Phase::Propose, 10);
        b.slot_end(10);
        a.merge(&b);
        assert_eq!(a.slots(), 2);
        assert_eq!(a.slot_total_ns(), 110);
        assert_eq!(a.phases_total_ns(), 110);
        assert_eq!(a.phase_total_ns(Phase::Propose), 40);
        assert_eq!(a.phase_hist(Phase::Propose).count, 2);
        let json = serde_json::to_string_pretty(&a.to_value()).unwrap();
        assert!(json.contains("\"propose\""));
        assert!(json.contains("slot_total_ns"));
    }

    #[test]
    fn counting_alloc_counter_is_monotone() {
        // The wrapper is not installed as the global allocator in unit
        // tests; assert the counter API shape only.
        let before = CountingAlloc::allocations();
        assert!(CountingAlloc::allocations() >= before);
    }
}
