//! Telemetry merge determinism: histograms and profilers built by
//! parallel workers and merged in input order must come out equal,
//! counter for counter, whatever the worker count.
//!
//! The campaign runner merges per-cell [`PhaseProfiler`]s into one
//! aggregate; if that merge (or the histogram arithmetic under it)
//! depended on scheduling in any way, the merged profile would stop
//! being reproducible. Jobs here fan out over the vendored rayon pool with
//! deterministic synthetic samples (a seeded LCG per job — no wall
//! clock), are reduced in input order, and the merged structs are
//! compared across thread limits. Lives in its own integration binary
//! because the rayon thread limit is process-global.

use ldcf_sim::{Phase, PhaseProfiler, SimProfiler, StreamingHistogram};
use rayon::prelude::*;

/// Deterministic per-job samples: a seeded LCG spanning several orders
/// of magnitude, so bucket boundaries and the running `sum`/`max` all
/// get exercised.
fn samples(seed: u64, n: usize) -> impl Iterator<Item = u64> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % 1_000_000 + 1
    })
}

/// One worker's profiler: every phase plus the slot total, fed from the
/// job's own sample stream.
fn job_profiler(seed: u64) -> PhaseProfiler {
    let mut prof = PhaseProfiler::new();
    let mut vals = samples(seed, 64 * Phase::ALL.len());
    for _ in 0..64 {
        let mut slot_total = 0;
        for phase in Phase::ALL {
            let v = vals.next().expect("enough samples");
            prof.record(phase, v);
            slot_total += v;
        }
        prof.slot_end(slot_total);
    }
    prof
}

fn merged(limit: Option<usize>) -> (StreamingHistogram, PhaseProfiler) {
    rayon::set_thread_limit(limit);
    let jobs: Vec<u64> = (1..=24).collect();

    let hists: Vec<StreamingHistogram> = jobs
        .par_iter()
        .map(|&seed| {
            let mut h = StreamingHistogram::new();
            for v in samples(seed, 500) {
                h.record(v);
            }
            h
        })
        .collect();
    let mut hist = StreamingHistogram::new();
    for h in &hists {
        hist.merge(h);
    }

    let profs: Vec<PhaseProfiler> = jobs.par_iter().map(|&seed| job_profiler(seed)).collect();
    let mut prof = PhaseProfiler::new();
    for p in &profs {
        prof.merge(p);
    }

    (hist, prof)
}

#[test]
fn merged_telemetry_is_bit_identical_across_worker_counts() {
    let baseline = merged(Some(1));
    assert_eq!(baseline.0.count, 24 * 500);
    assert_eq!(baseline.1.slots(), 24 * 64);
    for limit in [Some(2), None] {
        let run = merged(limit);
        assert!(
            baseline == run,
            "merged telemetry differs at thread limit {limit:?}"
        );
    }
    rayon::set_thread_limit(None);
}
