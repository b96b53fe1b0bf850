//! Dry-parse of the committed GitHub Actions workflows and the staged
//! ci.sh they delegate to. There is no YAML parser in the tree, so the
//! workflow checks are a structural lint: the files must exist,
//! contain no tab indentation (YAML rejects tabs), keep even two-space
//! indentation, and carry the load-bearing stanzas the CI story
//! depends on (lock-keyed caching, parallel stage jobs, the nightly
//! trigger and conformance gate, the artefact upload). The ci.sh check
//! pins its stage list and the commands of the stages that are not
//! `cargo test` itself: formatting and lints of `benchmark/`, the
//! example runs and the benchmark's own tests.

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
    for key in ["lint-", "test-", "benchmark-"] {
        assert!(
            text.contains(&format!("key: {key}")),
            "ci.yml: cache key prefix `{key}` missing"
        );
    }
    // The parallel jobs each own their ci.sh stages; nothing bypasses
    // the script, and every stage runs in some job.
    for invocation in [
        "./ci.sh fmt clippy",
        "./ci.sh shellcheck",
        "./ci.sh build test examples",
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
    // The stage registry, as `./ci.sh list` prints it. The pinned
    // bytes are checked by `cargo test` (tests/pins.rs), so the
    // script keeps no stage of its own for them.
    let script: PathBuf = [env!("CARGO_MANIFEST_DIR"), "../..", "ci.sh"]
        .iter()
        .collect();
    let out = std::process::Command::new("bash")
        .arg(&script)
        .arg("list")
        .output()
        .expect("run bash ci.sh list");
    assert!(out.status.success(), "ci.sh list: {}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .split_whitespace()
            .collect::<Vec<_>>(),
        [
            "fmt",
            "clippy",
            "shellcheck",
            "build",
            "test",
            "examples",
            "benchmark"
        ]
    );
    let text = repo_file("ci.sh");
    // Per-stage durations reach the Actions job summary.
    assert!(text.contains("GITHUB_STEP_SUMMARY"));
    // The test stage is the whole workspace, pins included.
    assert!(text.contains("cargo test -q --workspace"));
    // Every example runs, not only compiles.
    assert!(text.contains("for src in examples/*.rs; do"));
    assert!(text.contains("\"./target/release/examples/$ex\" \"${args[@]}\""));
    assert!(text.contains("cargo test -q --manifest-path benchmark/Cargo.toml"));
    // benchmark/ sits outside the workspace: fmt and clippy must name it.
    assert!(text.contains("cargo fmt --manifest-path benchmark/Cargo.toml -- --check"));
    assert!(text.contains(
        "cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings"
    ));
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
