//! Determinism and resume contract of the campaign runner, on the
//! committed demo spec: same spec → byte-identical `campaign.md` /
//! `campaign.json` / `campaign-stats.md`, whatever the rayon worker
//! count, and a resumed run over existing checkpoints reproduces the
//! same bytes while simulating only the missing cells.

use ldcf_bench::{run_campaign_with, CampaignOptions};
use ldcf_scenarios::ScenarioSpec;
use std::path::{Path, PathBuf};

fn demo_spec() -> ScenarioSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/demo-quick.toml"
    );
    let text = std::fs::read_to_string(path).expect("committed demo spec exists");
    ScenarioSpec::from_toml_str(&text).expect("committed demo spec parses")
}

fn quick() -> CampaignOptions {
    CampaignOptions {
        quick: true,
        ..CampaignOptions::default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldcf-campaign-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn artefacts(dir: &Path) -> (String, String, String) {
    (
        std::fs::read_to_string(dir.join("campaign.md")).unwrap(),
        std::fs::read_to_string(dir.join("campaign.json")).unwrap(),
        std::fs::read_to_string(dir.join("campaign-stats.md")).unwrap(),
    )
}

#[test]
fn two_runs_and_both_thread_counts_are_byte_identical() {
    let d1 = fresh_dir("run1");
    let d2 = fresh_dir("run2");
    let d3 = fresh_dir("run3");

    // The second run streams the heartbeat to stderr: progress output
    // must not reach the artefacts.
    let o1 = run_campaign_with(demo_spec(), &d1, quick()).unwrap();
    let progress = CampaignOptions {
        progress: true,
        ..quick()
    };
    let o2 = run_campaign_with(demo_spec(), &d2, progress).unwrap();
    assert_eq!(o1.digest, o2.digest);
    assert_eq!(o1.cells_run, 6);
    assert_eq!(artefacts(&d1), artefacts(&d2), "two runs, same bytes");

    // One worker thread vs the default: the aggregate must not depend
    // on execution order.
    rayon::set_thread_limit(Some(1));
    let o3 = run_campaign_with(demo_spec(), &d3, quick());
    rayon::set_thread_limit(None);
    let o3 = o3.unwrap();
    assert_eq!(o3.digest, o1.digest);
    assert_eq!(
        artefacts(&d1),
        artefacts(&d3),
        "single-threaded run, same bytes"
    );

    for d in [d1, d2, d3] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn resume_after_partial_loss_reruns_only_missing_cells_same_bytes() {
    let dir = fresh_dir("resume");
    let first = run_campaign_with(demo_spec(), &dir, quick()).unwrap();
    assert_eq!(first.cells_total, 6);
    assert_eq!(first.cells_run, 6);
    let baseline = artefacts(&dir);

    // The heartbeat streamed telemetry beside the artefacts: one start
    // record, one per simulated cell, one summary. (Its contents are
    // wall-clock data, deliberately outside the byte-identity checks.)
    let telemetry = std::fs::read_to_string(dir.join("campaign-telemetry.jsonl")).unwrap();
    assert_eq!(
        telemetry.lines().count(),
        first.cells_run + 2,
        "start + one line per cell + done"
    );
    assert!(telemetry.lines().all(|l| l.starts_with('{')));

    // A second run over complete checkpoints simulates nothing.
    let again = run_campaign_with(demo_spec(), &dir, quick()).unwrap();
    assert_eq!((again.cells_run, again.cells_resumed), (0, 6));
    assert_eq!(artefacts(&dir), baseline, "fully resumed run, same bytes");

    // Simulate a killed run: two checkpoints and the aggregates gone.
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 6);
    std::fs::remove_file(&cells[0]).unwrap();
    std::fs::remove_file(&cells[3]).unwrap();
    std::fs::remove_file(dir.join("campaign.md")).unwrap();
    std::fs::remove_file(dir.join("campaign.json")).unwrap();
    std::fs::remove_file(dir.join("campaign-stats.md")).unwrap();

    let second = run_campaign_with(demo_spec(), &dir, quick()).unwrap();
    assert_eq!(second.cells_resumed, 4, "four checkpoints survived");
    assert_eq!(second.cells_run, 2, "only the lost cells re-simulate");
    assert_eq!(artefacts(&dir), baseline, "resumed run, same bytes");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn stale_checkpoints_from_another_spec_are_ignored() {
    let dir = fresh_dir("stale");
    run_campaign_with(demo_spec(), &dir, quick()).unwrap();

    // A different topology seed changes the spec digest but leaves
    // every cell filename identical — the old checkpoints must be
    // re-run, not silently reused.
    let mut spec = demo_spec();
    spec.topology_seed = 1234;
    let outcome = run_campaign_with(spec, &dir, quick()).unwrap();
    assert_eq!(outcome.cells_resumed, 0, "stale digests never resume");
    assert_eq!(outcome.cells_run, 6);

    let _ = std::fs::remove_dir_all(dir);
}
