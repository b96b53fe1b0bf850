//! The statistics layer's end-to-end contract: the `statistics` block
//! a campaign embeds in `campaign.json`, the `campaign-stats.md` it
//! writes, and what `experiments stats` recomputes from the checkpoint
//! directory are all the *same fold* — byte-identical, whatever the
//! rayon worker count, and whether the campaign runs once or twice.
//! Uses the committed seed-heavy spec `scenarios/stats-quick.toml`, the
//! shape the streaming reducer exists for.

use ldcf_bench::campaign::{recompute_stats, validate_campaign_json};
use ldcf_bench::{run_campaign_with, CampaignOptions};
use ldcf_scenarios::ScenarioSpec;
use serde::Value;
use std::path::PathBuf;

/// The committed thousand-seed smoke spec: 2 protocols × 1 duty × 500
/// seeds, enough to span every shard of the fixed partition.
fn seedy_spec() -> ScenarioSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/stats-quick.toml"
    );
    let text = std::fs::read_to_string(path).expect("committed stats spec exists");
    ScenarioSpec::from_toml_str(&text).expect("committed stats spec parses")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldcf-stats-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recomputed_stats_equal_the_campaign_embedded_block() {
    let dir = fresh_dir("recompute");
    let outcome = run_campaign_with(seedy_spec(), &dir, CampaignOptions::default()).unwrap();
    assert_eq!(outcome.cells_total, 1000);

    // The embedded statistics block validates and matches the fold the
    // runner returned.
    let json = std::fs::read_to_string(dir.join("campaign.json")).unwrap();
    assert_eq!(validate_campaign_json(&json), Ok(2), "two groups");
    let doc: Value = serde_json::from_str(&json).unwrap();
    let embedded = serde_json::to_string_pretty(doc.get("statistics").unwrap()).unwrap();
    let returned = serde_json::to_string_pretty(&outcome.stats.to_value()).unwrap();
    assert_eq!(embedded, returned);

    // Replaying the checkpoints through `recompute_stats` reproduces
    // the identical statistics — same value bytes, same markdown bytes.
    let re = recompute_stats(seedy_spec(), false, &dir).unwrap();
    assert_eq!(re.digest, outcome.digest);
    assert_eq!(
        serde_json::to_string_pretty(&re.stats.to_value()).unwrap(),
        embedded
    );
    assert_eq!(
        re.markdown,
        std::fs::read_to_string(dir.join("campaign-stats.md")).unwrap()
    );

    // A missing checkpoint is a named error, not a silent hole.
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    cells.sort();
    std::fs::remove_file(&cells[7]).unwrap();
    let err = recompute_stats(seedy_spec(), false, &dir).unwrap_err();
    assert!(err.contains("no valid checkpoint"), "got: {err}");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn statistics_bytes_are_worker_count_invariant() {
    let d1 = fresh_dir("threads-default");
    let d2 = fresh_dir("threads-one");

    let o1 = run_campaign_with(seedy_spec(), &d1, CampaignOptions::default()).unwrap();
    rayon::set_thread_limit(Some(1));
    let o2 = run_campaign_with(seedy_spec(), &d2, CampaignOptions::default());
    rayon::set_thread_limit(None);
    let o2 = o2.unwrap();

    assert_eq!(o1.digest, o2.digest);
    for name in ["campaign.md", "campaign.json", "campaign-stats.md"] {
        assert_eq!(
            std::fs::read_to_string(d1.join(name)).unwrap(),
            std::fs::read_to_string(d2.join(name)).unwrap(),
            "{name} must not depend on the worker count"
        );
    }
    // The folded accumulators themselves agree bit-for-bit, not just
    // their renderings.
    assert_eq!(o1.stats, o2.stats);

    for d in [d1, d2] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn paired_comparison_and_conformance_surface_in_the_artefacts() {
    let dir = fresh_dir("surface");
    let outcome = run_campaign_with(seedy_spec(), &dir, CampaignOptions::default()).unwrap();

    // Two protocols over common seeds → exactly one paired comparison,
    // fed by every seed both sides covered.
    assert_eq!(outcome.stats.pairs.len(), 1);
    let pair = &outcome.stats.pairs[0];
    assert_eq!(
        (pair.protocol_a.as_str(), pair.protocol_b.as_str()),
        ("opt", "of")
    );
    assert!(pair.diff.count > 0 && pair.diff.count <= 500);
    assert!(pair.sign_p().is_some());

    // The markdown carries all three sections.
    let md = std::fs::read_to_string(dir.join("campaign-stats.md")).unwrap();
    for section in [
        "## Per-group statistics",
        "## Per-group resources",
        "## Paired protocol comparisons",
    ] {
        assert!(md.contains(section), "missing {section:?} in:\n{md}");
    }

    // Every group saw all 500 seeds and captured energy.
    for g in &outcome.stats.groups {
        assert_eq!(g.cells, 500);
        assert!(g.energy.count > 0 && g.energy.mean > 0.0);
    }
    let _ = std::fs::remove_dir_all(dir);
}
