//! Telemetry merge determinism: histograms and profilers built by
//! parallel workers and merged in input order must serialize to the
//! same bytes whatever the worker count.
//!
//! The campaign runner merges per-cell [`PhaseProfiler`]s into one
//! aggregate; if that merge (or the histogram arithmetic under it)
//! depended on scheduling in any way, the merged profile would stop
//! being reproducible. Jobs here fan out over the vendored rayon pool with
//! deterministic synthetic samples (a seeded LCG per job — no wall
//! clock), are reduced in input order, and the merged JSON is compared
//! to the bit across thread limits. Lives in its own integration binary
//! because the rayon thread limit is process-global (same idiom as
//! `sweep_determinism.rs`).

use ldcf_analysis::sweep::parallel_sweep;
use ldcf_sim::{Phase, PhaseProfiler, SimProfiler, StreamingHistogram};

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

fn merged_json(limit: Option<usize>) -> (String, String) {
    rayon::set_thread_limit(limit);
    let jobs: Vec<u64> = (1..=24).collect();

    let hists = parallel_sweep(&jobs, |&seed| {
        let mut h = StreamingHistogram::new();
        for v in samples(seed, 500) {
            h.record(v);
        }
        h
    });
    let mut hist = StreamingHistogram::new();
    for h in &hists {
        hist.merge(h);
    }

    let profs = parallel_sweep(&jobs, |&seed| job_profiler(seed));
    let mut prof = PhaseProfiler::new();
    for p in &profs {
        prof.merge(p);
    }

    (
        serde_json::to_string(&hist.to_value()).expect("histogram JSON"),
        serde_json::to_string(&prof.to_value()).expect("profiler JSON"),
    )
}

#[test]
fn merged_telemetry_is_bit_identical_across_worker_counts() {
    let baseline = merged_json(Some(1));
    assert!(
        baseline.0.contains("\"count\""),
        "histogram JSON looks wrong: {}",
        baseline.0
    );
    assert!(
        baseline.1.contains("\"phases\""),
        "profiler JSON looks wrong: {}",
        baseline.1
    );
    for limit in [Some(2), None] {
        let run = merged_json(limit);
        assert_eq!(
            baseline, run,
            "merged telemetry JSON differs at thread limit {limit:?}"
        );
    }
    rayon::set_thread_limit(None);
}
