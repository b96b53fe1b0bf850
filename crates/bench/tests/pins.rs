//! The byte contract: every pinned file under `crates/bench/baselines/`
//! is regenerated here and compared with the committed bytes.
//!
//! * the `--quick` tables of fig9, fig10, fig11, resilience and the two
//!   OF/DBAO ablations, written by the `experiments` binary; fig9 and
//!   resilience run with `--profile` on, so instrumented runs must
//!   reproduce the pinned bytes too;
//! * the 19 trace hashes: every `.events.bin` those two runs write,
//!   exported to JSONL and hashed;
//! * forensics over the gated traces (the three fig9 floods and the
//!   isolation table's burst+drift run): clean, the same report from the
//!   binary file and from its JSONL export, and a ratio of at least 4;
//! * the generator digest of every `scenarios/*.toml`;
//! * the `campaign-nightly --quick` tables.
//!
//! A mismatch names the committed file, its first differing line and
//! the command that regenerates it. This file is its own test binary,
//! so no other test's `rayon::set_thread_limit` reaches these runs.

use ldcf_analysis::{EventSource, ForensicsReport};
use ldcf_bench::{run_campaign_with, CampaignOptions};
use ldcf_scenarios::{BuiltScenario, ScenarioSpec, Sha256};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;

const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
const SCENARIOS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");

/// The pinned `--quick` artefacts, and whether each run is traced and
/// profiled.
const TABLES: &[(&str, bool)] = &[
    ("fig9", true),
    ("resilience", true),
    ("fig10", false),
    ("fig11", false),
    ("ablation-opportunistic", false),
    ("ablation-overhearing", false),
];

/// Panic unless `got` is the committed file `rel` (under the baselines
/// directory), naming the file, the first line that differs and the
/// command that regenerates it.
fn assert_pinned(rel: &str, got: &str, regenerate: &str) {
    let want = read(&Path::new(BASELINES).join(rel));
    if want == got {
        return;
    }
    let (mut w, mut g) = (want.lines(), got.lines());
    let mut line = 1;
    let (w, g) = loop {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => break (a, b),
        }
    };
    let show = |l: Option<&str>| l.map_or("<end of file>".to_string(), |l| format!("{l:?}"));
    panic!(
        "crates/bench/baselines/{rel} differs from this build at line {line}:\n\
         - {}\n+ {}\nregenerate: {regenerate}",
        show(w),
        show(g)
    );
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The files in `dir` with extension `ext`, sorted by name.
fn files(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    files.sort();
    files
}

/// The output of every [`TABLES`] run: `<name>.md` files, and under
/// `traces/` each `.events.bin` with its `.events.jsonl` export. The
/// runs happen once per test binary, for whichever test asks first.
fn artefacts() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pins-artefacts");
        let _ = std::fs::remove_dir_all(&dir);
        let traces = dir.join("traces");
        let runs: Vec<_> = TABLES
            .iter()
            .map(|&(name, traced)| {
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
                cmd.args([name, "--quick", "--out"]).arg(&dir);
                if traced {
                    cmd.args(["--profile", "--trace-events"]).arg(&traces);
                }
                let child = cmd
                    .stdout(Stdio::null())
                    .stderr(Stdio::piped())
                    .spawn()
                    .expect("spawn experiments binary");
                (name, child)
            })
            .collect();
        for (name, child) in runs {
            let out = child.wait_with_output().expect("wait for experiments");
            assert!(
                out.status.success(),
                "experiments {name} --quick: {}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
        for bin in files(&traces, "bin") {
            let jsonl = ldcf_bench::trace_cmd::default_export_path(&bin);
            ldcf_bench::trace_cmd::export(&bin, &jsonl).unwrap();
        }
        dir
    })
}

#[test]
fn quick_tables_match_the_baselines() {
    let dir = artefacts();
    for &(name, _) in TABLES {
        assert_pinned(
            &format!("quick/{name}.md"),
            &read(&dir.join(format!("{name}.md"))),
            &format!("experiments {name} --quick --out DIR, then copy DIR/{name}.md"),
        );
    }
}

#[test]
fn trace_hashes_match_the_baselines() {
    let mut got = String::new();
    for path in files(&artefacts().join("traces"), "jsonl") {
        let mut h = Sha256::new();
        h.update(read(&path).as_bytes());
        h.finalize().iter().for_each(|b| got += &format!("{b:02x}"));
        got += &format!("  {}\n", path.file_name().unwrap().to_string_lossy());
    }
    assert_pinned(
        "quick/traces.sha256",
        &got,
        "experiments fig9|resilience --quick --trace-events DIR --out DIR, \
         experiments trace export --trace F for each DIR/*.events.bin, \
         then sha256sum *.events.jsonl in DIR",
    );
}

#[test]
fn gated_traces_pass_forensics_from_either_format() {
    // The fig9 floods, and the burst+drift run: its schedules stay
    // static, while churn rewrites them mid-run, which the
    // reconstruction rejects.
    let traces = artefacts().join("traces");
    for stem in [
        "dbao-p100-a5-m30-s1",
        "of-p100-a5-m30-s1",
        "opt-p100-a5-m30-s1",
        "dbao-p100-a5-m30-s1-fbd",
    ] {
        let bin = traces.join(format!("{stem}.events.bin"));
        let jsonl = traces.join(format!("{stem}.events.jsonl"));
        let report = |path: &Path| {
            let source = EventSource::open(path).unwrap_or_else(|e| panic!("{stem}: {e}"));
            ForensicsReport::from_source(source).unwrap_or_else(|e| panic!("{stem}: {e}"))
        };
        let from_bin = report(&bin);
        assert!(
            from_bin.is_clean(),
            "{stem}: theory violations: {:?}",
            from_bin.violations
        );
        assert_eq!(
            from_bin.to_json_pretty(),
            report(&jsonl).to_json_pretty(),
            "{stem}: the binary trace and its JSONL export must give one report"
        );
        let size = |p: &Path| std::fs::metadata(p).unwrap().len() as f64;
        let ratio = size(&jsonl) / size(&bin);
        assert!(
            ratio >= 4.0,
            "{stem}: compression ratio {ratio:.2}x below 4x"
        );
    }
}

#[test]
fn scenario_digests_match_the_baselines() {
    let mut got = String::new();
    for path in files(Path::new(SCENARIOS), "toml") {
        let spec = ScenarioSpec::from_toml_str(&read(&path))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let built =
            BuiltScenario::build(spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        got += &format!("{}  {}\n", built.digest(), built.spec.name);
    }
    assert_pinned(
        "scenarios.sha256",
        &got,
        &format!(
            "experiments campaign --spec scenarios/NAME.toml --out DIR records the \
             full-matrix digest as spec_digest in DIR/campaign.json; this build's file is\n{got}"
        ),
    );
}

#[test]
fn campaign_nightly_quick_tables_match_the_baselines() {
    let text = read(&Path::new(SCENARIOS).join("campaign-nightly.toml"));
    let spec = ScenarioSpec::from_toml_str(&text).unwrap();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pins-campaign-nightly");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = CampaignOptions {
        quick: true,
        ..CampaignOptions::default()
    };
    run_campaign_with(spec, &dir, opts).unwrap();
    for name in ["campaign.md", "campaign.json"] {
        assert_pinned(
            &format!("quick/campaign-nightly/{name}"),
            &read(&dir.join(name)),
            &format!(
                "experiments campaign --spec scenarios/campaign-nightly.toml --quick \
                 --no-progress --out DIR, then copy DIR/{name}"
            ),
        );
    }
}
