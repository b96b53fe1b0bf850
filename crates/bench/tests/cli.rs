//! Flag-validation contract of the `experiments` binary: unknown or
//! misplaced flags exit non-zero with usage instead of being silently
//! swallowed (regression: a leading unknown flag used to be parsed as
//! the artefact name, and flags of one subcommand were accepted — and
//! ignored — by every other).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = run(&["fig3", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--bogus'"), "stderr: {err}");
    assert!(err.contains("usage:"), "stderr: {err}");
}

#[test]
fn leading_unknown_flag_is_not_parsed_as_the_artefact() {
    let out = run(&["--bogus", "fig3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag '--bogus'"));
}

#[test]
fn foreign_flags_are_rejected_per_subcommand() {
    // --trace belongs to forensics, not to an artefact run.
    let out = run(&["fig3", "--trace", "some.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--trace' is not valid for 'fig3'"));

    // --quick belongs to artefact/campaign runs, not forensics.
    let out = run(&["forensics", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--quick' is not valid for 'forensics'"));

    // --digest belongs to campaign only.
    let out = run(&["fig9", "--digest"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--digest' is not valid for 'fig9'"));

    // --no-progress belongs to campaign and serve only.
    let out = run(&["fig9", "--no-progress"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--no-progress' is not valid for 'fig9'"));

    // --profile drives artefact runs, not forensics.
    let out = run(&["forensics", "--profile"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--profile' is not valid for 'forensics'"));
}

#[test]
fn trace_format_is_an_unknown_flag() {
    // Traced runs write binary only; JSONL comes from `trace export`.
    for args in [
        &["fig3", "--trace-format", "bin"][..],
        &[
            "fig3",
            "--trace-events",
            "/tmp/t",
            "--trace-format",
            "jsonl",
        ],
        &["forensics", "--trace-format", "bin"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains("unknown flag '--trace-format'"),
            "stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn metrics_is_an_unknown_flag() {
    // A run's only record is its trace; nothing is written to the
    // directory, since parsing stops at the flag.
    let dir = std::env::temp_dir().join(format!("ldcf-cli-metrics-{}", std::process::id()));
    let out = run(&["fig3", "--metrics", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--metrics'"), "stderr: {err}");
    assert!(!dir.exists());
}

#[test]
fn trace_subcommand_validates_action_and_flags() {
    // An action is required...
    let out = run(&["trace"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("trace needs an action"));

    // ...and must be one of info/export/query.
    let out = run(&["trace", "compress", "--trace", "x.bin"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown trace action 'compress'"));

    // info needs --trace FILE.
    let out = run(&["trace", "info"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("trace needs --trace FILE"));

    // query needs a slot range, well-formed.
    let out = run(&["trace", "query", "--trace", "x.bin"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("trace query needs --slot"));
    let out = run(&["trace", "query", "--trace", "x.bin", "--slot", "9..3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--slot range"));

    // --min-ratio must be a positive number.
    let out = run(&["trace", "info", "--trace", "x.bin", "--min-ratio", "-1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--min-ratio wants a positive number"));

    // Each action takes only its own flags.
    let out = run(&["trace", "export", "--trace", "x.bin", "--min-ratio", "100"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("flag '--min-ratio' is not valid for 'trace export'"));
    let out = run(&["trace", "info", "--trace", "x.bin", "--slot", "0..3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("flag '--slot' is not valid for 'trace info'"));
    let out = run(&["trace", "info", "--trace", "x.bin", "--node", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("flag '--node' is not valid for 'trace info'"));

    // Query filters are trace-only flags.
    let out = run(&["fig3", "--slot", "0..9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--slot' is not valid for 'fig3'"));
    let out = run(&["forensics", "--node", "3"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--node' is not valid for 'forensics'"));
}

#[test]
fn perf_is_an_unknown_artefact_and_its_flags_are_unknown() {
    let out = run(&["perf"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown artefact 'perf'"));
    for flag in ["--label", "--reps", "--validate", "--baseline"] {
        let out = run(&["fig3", flag, "x"]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        assert!(
            stderr(&out).contains(&format!("unknown flag '{flag}'")),
            "stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn retired_artefacts_are_unknown() {
    for name in ["sync-error", "cross-layer"] {
        let out = run(&[name]);
        assert_eq!(out.status.code(), Some(2), "{name} must be rejected");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("unknown artefact '{name}'")),
            "stderr: {err}"
        );
        // The usage text no longer lists it, so `all` cannot run it.
        assert!(!err.contains(&format!(" {name} ")), "stderr: {err}");
    }
}

/// A scratch directory holding a regular file, and an `--out` path
/// under that file: creating the directory or writing into it fails.
fn unwritable_out(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ldcf-cli-out-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let file = dir.join("file");
    std::fs::write(&file, b"").expect("write blocker file");
    (dir, file.join("sub"))
}

fn assert_out_error(out: &Output, path: &Path) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains(&format!("--out {}", path.display())),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn unwritable_out_exits_2_naming_the_path() {
    let (dir, out_path) = unwritable_out("fig3");
    let out = run(&["fig3", "--out", out_path.to_str().unwrap()]);
    assert_out_error(&out, &out_path);
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn forensics_to_an_unwritable_out_exits_2_naming_the_path() {
    use ldcf_net::{LinkQuality, Topology};
    use ldcf_protocols::Dbao;
    use ldcf_sim::{BinSink, Engine, SimConfig};

    let (dir, out_path) = unwritable_out("forensics");
    let cfg = SimConfig {
        period: 10,
        active_per_period: 1,
        n_packets: 2,
        coverage: 1.0,
        max_slots: 100_000,
        seed: 1,
        mistiming_prob: 0.0,
    };
    let engine = Engine::new(
        Topology::grid(3, 3, LinkQuality::new(0.8)),
        cfg,
        Dbao::new(),
    )
    .with_observer(BinSink::new(Vec::new()));
    let (_, _, sink) = engine.run_traced();
    let trace = dir.join("grid.events.bin");
    std::fs::write(&trace, sink.into_result().expect("in-memory sink")).expect("write trace");

    let out = run(&[
        "forensics",
        "--trace",
        trace.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_out_error(&out, &out_path);
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn forensics_on_a_jsonl_line_with_permuted_keys_exits_2_naming_line_and_byte() {
    // The reader takes only the layout `trace export` writes; the
    // second line here has `period` before `node`.
    let dir = std::env::temp_dir().join(format!("ldcf-cli-permuted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace = dir.join("permuted.events.jsonl");
    std::fs::write(
        &trace,
        "{\"t\":\"schedule_slot\",\"slot\":0,\"node\":0,\"period\":10,\"offset\":3}\n\
         {\"t\":\"schedule_slot\",\"slot\":0,\"period\":10,\"node\":1,\"offset\":4}\n",
    )
    .expect("write trace");
    let out = run(&["forensics", "--trace", trace.to_str().unwrap()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert!(
        err.contains("line 2: expected `,\"node\":` at byte 29"),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn campaign_to_an_unwritable_out_exits_2_naming_the_path() {
    let (dir, out_path) = unwritable_out("campaign");
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/demo-quick.toml"
    );
    let out = run(&[
        "campaign",
        "--spec",
        spec,
        "--quick",
        "--no-progress",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_out_error(&out, &out_path);
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn fetch_to_an_unwritable_out_exits_2_naming_the_path() {
    // The directory is checked before the server is asked: nothing
    // listens on port 9, which would be a transport error (exit 1).
    let (dir, out_path) = unwritable_out("fetch");
    let out = run(&[
        "fetch",
        "--server",
        "127.0.0.1:9",
        "--id",
        "0",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert_out_error(&out, &out_path);
    std::fs::remove_dir_all(dir).expect("remove scratch dir");
}

#[test]
fn missing_flag_values_and_artefacts_exit_2() {
    let out = run(&["fig3", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--out needs"));

    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("missing artefact name"));

    let out = run(&["campaign"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("campaign needs --spec"));
}

#[test]
fn help_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn second_positional_argument_is_rejected() {
    let out = run(&["fig3", "fig5"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unexpected argument 'fig5'"));
}

#[test]
fn service_subcommands_validate_their_flags() {
    // serve requires a data directory.
    let out = run(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("serve needs --data"));

    // --jobs must be a positive integer.
    let out = run(&["serve", "--data", "/tmp/x", "--jobs", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--jobs wants a positive integer"));

    // The thin clients require a server (and fetch/cancel a job id).
    let out = run(&["submit", "--spec", "x.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("submit needs --server"));
    let out = run(&["submit", "--server", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("submit needs --spec"));
    let out = run(&["fetch", "--server", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("fetch needs --id"));
    let out = run(&["cancel", "--server", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cancel needs --id"));

    // Service flags stay scoped to service subcommands...
    let out = run(&["fig3", "--server", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--server' is not valid for 'fig3'"));
    let out = run(&["campaign", "--spec", "x.toml", "--wait"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--wait' is not valid for 'campaign'"));
    let out = run(&["serve", "--data", "/tmp/x", "--spec", "x.toml"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--spec' is not valid for 'serve'"));

    // ...and artefact flags don't leak into the clients.
    let out = run(&["status", "--server", "127.0.0.1:1", "--profile"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--profile' is not valid for 'status'"));
}

#[test]
fn client_subcommands_fail_cleanly_without_a_server() {
    // Nothing listens on this port: transport errors exit 1 (not 2 —
    // the flags were fine) with a connect diagnostic.
    let out = run(&["status", "--server", "127.0.0.1:9"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("connect"), "stderr: {}", stderr(&out));
}

#[test]
fn stats_subcommand_validates_its_flags() {
    // --from and --gate belong to stats only.
    let out = run(&["campaign", "--from", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--from' is not valid for 'campaign'"));
    let out = run(&["fig9", "--gate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--gate' is not valid for 'fig9'"));

    // stats requires both --spec and --from.
    let out = run(&["stats"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("stats needs --spec"));
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/stats-quick.toml"
    );
    let out = run(&["stats", "--spec", spec]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("stats needs --from"));

    // Foreign flags are rejected on stats too.
    let out = run(&["stats", "--spec", spec, "--from", "/tmp/x", "--digest"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("'--digest' is not valid for 'stats'"));

    // An empty checkpoint directory is a runtime error (exit 1) that
    // names the missing cell.
    let out = run(&["stats", "--spec", spec, "--from", "/tmp/ldcf-no-such-dir"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("no valid checkpoint"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn campaign_digest_prints_sha256_and_name() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/demo-quick.toml"
    );
    let out = run(&["campaign", "--spec", spec, "--digest"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    let (digest, name) = line.split_once("  ").expect("'<digest>  <name>' format");
    assert_eq!(digest.len(), 64);
    assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
    assert_eq!(name, "demo-quick");
}

#[test]
fn closed_stdout_ends_quietly() {
    use std::process::Stdio;
    // `experiments table1 | head -0`: the reader is gone before the
    // first line is written.
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(!err.contains("Broken pipe"), "stderr: {err}");
    assert_eq!(out.status.code(), Some(0), "stderr: {err}");
}
