//! Dry-parse of the committed GitHub Actions workflows and the staged
//! ci.sh they delegate to. There is no YAML parser in the tree, so the
//! workflow checks are a structural lint: the files must exist,
//! contain no tab indentation (YAML rejects tabs), keep even two-space
//! indentation, and carry the load-bearing stanzas the CI story
//! depends on (lock-keyed caching, parallel stage jobs, the nightly
//! trigger and conformance gate, the artefact upload). The ci.sh
//! checks pin the gate commands themselves: since every workflow job is
//! a thin `./ci.sh <stage>…` wrapper, the script is where a gutted
//! check would hide.

use std::path::PathBuf;

fn repo_file(rel: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "../..", rel].iter().collect();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{} must exist: {e}", path.display()))
}

fn workflow(name: &str) -> String {
    repo_file(&format!(".github/workflows/{name}"))
}

/// The structural subset of YAML both workflows must satisfy.
fn lint_yaml(name: &str, text: &str) {
    assert!(!text.is_empty(), "{name}: empty workflow");
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        assert!(
            !line.contains('\t'),
            "{name}:{n}: tab character — YAML indentation must be spaces"
        );
        if line.trim().is_empty() {
            continue;
        }
        let indent = line.len() - line.trim_start().len();
        assert_eq!(
            indent % 2,
            0,
            "{name}:{n}: odd indentation ({indent} spaces): {line:?}"
        );
    }
    for key in ["name:", "on:", "jobs:", "runs-on: ubuntu-latest", "steps:"] {
        assert!(text.contains(key), "{name}: missing `{key}` stanza");
    }
}

#[test]
fn ci_workflow_parses_and_fans_out_over_the_stages() {
    let text = workflow("ci.yml");
    lint_yaml("ci.yml", &text);
    // Main CI stays fast through cargo caching keyed on Cargo.lock —
    // in every rust job, under a job-specific key.
    assert!(text.contains("actions/cache@v4"));
    assert!(text.contains("hashFiles('**/Cargo.lock')"));
    assert!(text.contains("restore-keys:"));
    for key in ["lint-", "test-", "artefacts-", "campaign-", "benchmark-"] {
        assert!(
            text.contains(&format!("key: {key}")),
            "ci.yml: cache key prefix `{key}` missing"
        );
    }
    // The parallel jobs each own their ci.sh stages; nothing bypasses
    // the script.
    for invocation in [
        "./ci.sh fmt clippy",
        "./ci.sh shellcheck",
        "./ci.sh build test examples alloc-gate",
        "./ci.sh build artefacts forensics digests",
        "./ci.sh build campaign stats service",
        "./ci.sh benchmark",
    ] {
        assert!(
            text.contains(invocation),
            "ci.yml: stage invocation `{invocation}` missing"
        );
    }
}

#[test]
fn ci_script_carries_the_load_bearing_gates() {
    let text = repo_file("ci.sh");
    // Stage interface: list + one function per advertised stage.
    assert!(text.contains("STAGES=("), "ci.sh: stage registry missing");
    for stage in [
        "fmt",
        "clippy",
        "shellcheck",
        "build",
        "test",
        "examples",
        "alloc-gate",
        "artefacts",
        "forensics",
        "digests",
        "campaign",
        "stats",
        "service",
        "benchmark",
    ] {
        let fn_name = format!("stage_{}()", stage.replace('-', "_"));
        assert!(text.contains(&fn_name), "ci.sh: {fn_name} missing");
    }
    // Per-stage durations reach the Actions job summary.
    assert!(text.contains("GITHUB_STEP_SUMMARY"));
    // The gate commands themselves (every workflow job is a thin
    // `./ci.sh <stage>` wrapper, so a gutted check would hide here).
    assert!(text.contains("baselines/scenarios.sha256"));
    assert!(text.contains("campaign --spec scenarios/demo-quick.toml"));
    // The mixed-period spec's quick tables are pinned and diffed.
    assert!(text.contains("campaign --spec scenarios/campaign-nightly.toml"));
    assert!(text.contains("baselines/quick/campaign-nightly/"));
    assert!(text.contains("0/6 cells run, 6 resumed"));
    assert!(text.contains("fig9 --quick --profile"));
    // OF's pure-tree mode and DBAO without overhearing run only in the
    // ablations: their tables are pinned too.
    assert!(text.contains("ablation-opportunistic --quick"));
    assert!(text.contains("ablation-overhearing --quick"));
    assert!(text.contains("for table in ablation-opportunistic ablation-overhearing"));
    // fig10/fig11 hold all three protocols across four duties.
    for fig in ["fig10", "fig11"] {
        assert!(text.contains(&format!("experiments {fig} --quick --out \"$ART_DIR\"")));
        assert!(text.contains(&format!(
            "diff -u crates/bench/baselines/quick/{fig}.md \"$ART_DIR/{fig}.md\""
        )));
    }
    // Traced runs write binary only: every trace is exported to JSONL
    // and checked against the pinned hashes...
    assert!(text.contains("trace export --trace \"$bin\""));
    assert!(text.contains("sha256sum --check --quiet"));
    assert!(text.contains("baselines/quick/traces.sha256"));
    // ...and forensics over each gated binary trace and over its
    // exported JSONL twin must write identical JSON reports.
    assert!(text.contains("forensics --trace \"${bin%.bin}.jsonl\""));
    assert!(text.contains("diff -r \"$ART_DIR/forensics-bin\" \"$ART_DIR/forensics-jsonl\""));
    assert!(text.contains("trace info --trace \"$bin\" --min-ratio 4"));
    assert!(
        !text.contains("bintrace"),
        "ci.sh: the bintrace stage folded into artefacts and forensics"
    );
    assert!(text.contains("--test alloc_gate"));
    // Every example runs, not only compiles.
    assert!(text.contains("for src in examples/*.rs; do"));
    assert!(text.contains("\"./target/release/examples/$ex\" \"${args[@]}\""));
    assert!(text.contains("cargo test -q --manifest-path benchmark/Cargo.toml"));
    // benchmark/ sits outside the workspace: fmt and clippy must name it.
    assert!(text.contains("cargo fmt --manifest-path benchmark/Cargo.toml -- --check"));
    assert!(text.contains(
        "cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings"
    ));
    assert!(text.contains("--no-progress"));
    assert!(text.contains("campaign-telemetry.jsonl"));
    // The statistics stage: thousand-seed rerun + checkpoint recompute
    // byte-identity over campaign-stats.md / campaign.json.
    assert!(text.contains("--spec scenarios/stats-quick.toml"));
    assert!(text.contains("campaign-stats.md"));
    assert!(
        text.contains("stats --spec scenarios/stats-quick.toml"),
        "ci.sh: checkpoint-recompute path missing"
    );
    // Service cleanup is owned by the EXIT trap — a failed diff must
    // not leak the server process.
    assert!(text.contains("trap cleanup EXIT"));
    assert!(text.contains("kill -0 \"$SRV_PID\""));
    // A SIGTERM that never wakes the server fails the stage at a
    // deadline instead of hanging the job.
    assert!(text.contains("kill -KILL \"$SRV_PID\""));
}

#[test]
fn nightly_workflow_parses_and_covers_the_long_campaigns() {
    let text = workflow("nightly.yml");
    lint_yaml("nightly.yml", &text);
    assert!(text.contains("schedule:"));
    assert!(text.contains("cron:"));
    assert!(
        text.contains("workflow_dispatch:"),
        "manual trigger missing"
    );
    assert!(text.contains("timeout-minutes:"), "nightly must be bounded");
    assert!(text.contains("experiments fig9"), "full fig9 sweep");
    assert!(
        text.contains("experiments resilience"),
        "resilience campaign"
    );
    assert!(
        text.contains("--spec scenarios/campaign-nightly.toml"),
        "mid-size scenario campaign"
    );
    // The thousand-seed conformance cell: campaign + recompute with
    // --gate, failing the build on theory violations.
    assert!(
        text.contains("--spec scenarios/stats-nightly.toml"),
        "thousand-seed statistics campaign"
    );
    assert!(text.contains("--gate"), "theory-conformance gate missing");
    assert!(
        !text.contains("--quick"),
        "nightly artefacts run the full matrices"
    );
    // The benchmark's six workloads, written where the upload step
    // collects them.
    assert!(
        text.contains("cargo run --release --offline --manifest-path benchmark/Cargo.toml"),
        "nightly benchmark step missing"
    );
    assert!(text.contains("--out nightly-artefacts/benchmark"));
    assert!(text.contains("actions/upload-artifact@v4"));
    assert!(text.contains("retention-days:"));
}
