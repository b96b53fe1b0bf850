//! End-to-end tests of the campaign service: the acceptance contract
//! is that a campaign submitted over HTTP yields a `campaign.json`
//! byte-identical to a direct `experiments campaign` run of the same
//! spec, and that a killed server restarts into a byte-identical
//! result by resuming from the digest-keyed cell checkpoints.

use ldcf_bench::BenchExec;
use ldcf_service::{Client, ServiceConfig};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEC_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/demo-quick.toml"
);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldcf-service-e2e-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec_text() -> String {
    std::fs::read_to_string(SPEC_PATH).expect("read demo spec")
}

/// Poll a job until it reaches `want` (or fail after `timeout`).
fn poll_state(client: &Client, id: &str, want: &str, timeout: Duration) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let status = client.status(id).expect("status");
        let state = status.get("state").and_then(Value::as_str).unwrap_or("?");
        if state == want {
            return status;
        }
        assert!(
            !matches!(state, "failed" | "cancelled"),
            "job {id} reached terminal state {state} while waiting for {want}: {status:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {state}, wanted {want}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Run a spec directly through the runner (the reference bytes).
fn direct_run(text: &str, out: &Path, quick: bool) -> Vec<u8> {
    let spec = ldcf_scenarios::ScenarioSpec::from_toml_str(text).unwrap();
    ldcf_bench::run_campaign_with(
        spec,
        out,
        ldcf_bench::CampaignOptions {
            quick,
            ..Default::default()
        },
    )
    .expect("direct campaign");
    std::fs::read(out.join("campaign.json")).unwrap()
}

fn start_server(data: &Path, jobs: usize) -> ldcf_service::ServerHandle {
    let mut cfg = ServiceConfig::new(data);
    cfg.jobs = jobs;
    ldcf_service::start(cfg, Arc::new(BenchExec { progress: false })).expect("start server")
}

/// Fetch a quick job's manifest and check its service provenance and
/// that it names the protocols and (quickened) seeds of `text`, the
/// spec the job ran.
fn job_manifest(client: &Client, id: &str, text: &str) -> Value {
    let manifest = client.artefact(id, "campaign.manifest.json").unwrap();
    let manifest: Value = serde_json::from_str(&String::from_utf8(manifest).unwrap()).unwrap();
    assert_eq!(
        manifest.get("submitted_via").and_then(Value::as_str),
        Some("service")
    );
    assert_eq!(
        manifest.get("service_job_id").and_then(Value::as_str),
        Some(id)
    );
    let spec = ldcf_scenarios::ScenarioSpec::from_toml_str(text)
        .unwrap()
        .quicken();
    let protocols = spec.matrix.protocols.iter().map(|p| p.to_ascii_uppercase());
    let listed = |field: &str| match manifest.get(field) {
        Some(Value::Array(items)) => items.clone(),
        other => panic!("manifest {field} is not an array: {other:?}"),
    };
    assert_eq!(
        listed("protocols"),
        protocols.map(Value::Str).collect::<Vec<_>>(),
        "job {id}"
    );
    let seeds: Vec<u64> = listed("seeds").iter().filter_map(Value::as_u64).collect();
    assert_eq!(seeds, spec.matrix.seeds, "job {id}");
    manifest
}

#[test]
fn http_submitted_campaign_is_byte_identical_to_direct_run() {
    let direct_dir = tmpdir("byteid-direct");
    let reference = direct_run(&spec_text(), &direct_dir, true);

    let data = tmpdir("byteid-data");
    let handle = start_server(&data, 1);
    let client = Client::new(&handle.addr().to_string());

    let submitted = client.submit(&spec_text(), true).unwrap();
    let id = submitted
        .get("id")
        .and_then(Value::as_str)
        .expect("job id")
        .to_string();
    assert_eq!(submitted.get("deduped"), Some(&Value::Bool(false)));
    let done = poll_state(&client, &id, "done", Duration::from_secs(120));

    // The acceptance gate: byte identity with the direct CLI run.
    assert_eq!(
        client.results(&id).unwrap(),
        reference,
        "service campaign.json must be byte-identical to a direct run"
    );
    assert_eq!(
        client.artefact(&id, "campaign.md").unwrap(),
        std::fs::read(direct_dir.join("campaign.md")).unwrap(),
        "campaign.md too"
    );

    // The job's final progress snapshot covered the whole matrix.
    let progress = done.get("progress").expect("progress block");
    assert_eq!(progress.get("done"), Some(&Value::Bool(true)));
    assert_eq!(
        progress.get("completed").and_then(Value::as_u64),
        done.get("cells_total").and_then(Value::as_u64)
    );

    // The manifest records the service provenance and what ran: the
    // spec's protocols and (quickened) seeds, the cells and slots
    // simulated.
    let manifest = job_manifest(&client, &id, &spec_text());
    assert!(manifest
        .get("queue_wait_ms")
        .and_then(Value::as_u64)
        .is_some());
    assert_eq!(
        manifest.get("sims").and_then(Value::as_u64),
        done.get("cells_total").and_then(Value::as_u64)
    );
    assert!(manifest.get("slots").and_then(Value::as_u64).unwrap() > 0);

    // Re-submitting the identical spec dedupes onto the finished job
    // instead of re-running it.
    let again = client.submit(&spec_text(), true).unwrap();
    assert_eq!(again.get("deduped"), Some(&Value::Bool(true)));
    assert_eq!(again.get("id").and_then(Value::as_str), Some(id.as_str()));
    assert_eq!(again.get("state").and_then(Value::as_str), Some("done"));

    handle.stop();
    let _ = std::fs::remove_dir_all(&direct_dir);
    let _ = std::fs::remove_dir_all(&data);
}

/// Three distinct specs submitted at once to a two-worker server: each
/// job's artefacts are the bytes of a direct run of its own spec, and
/// each manifest names its own job id, protocols and seeds — nothing
/// leaks between concurrent jobs.
#[test]
fn concurrent_jobs_each_match_a_direct_run_of_their_own_spec() {
    let protocols = r#"protocols = ["of", "dbao", "opt"]"#;
    let seeds = "seeds = [1, 2]";
    let texts = [
        spec_text(),
        spec_text()
            .replace(protocols, r#"protocols = ["dbao"]"#)
            .replace(seeds, "seeds = [3, 4]"),
        spec_text()
            .replace(protocols, r#"protocols = ["opt", "of"]"#)
            .replace(seeds, "seeds = [5]"),
    ];
    assert!(
        texts[1..].iter().all(|t| *t != spec_text()),
        "edits must land"
    );

    let data = tmpdir("concurrent-data");
    let handle = start_server(&data, 2);
    let addr = handle.addr().to_string();
    let ids: Vec<String> = std::thread::scope(|scope| {
        let submits: Vec<_> = texts
            .iter()
            .map(|text| {
                let addr = &addr;
                scope.spawn(move || {
                    let submitted = Client::new(addr).submit(text, true).unwrap();
                    assert_eq!(submitted.get("deduped"), Some(&Value::Bool(false)));
                    let id = submitted.get("id").and_then(Value::as_str).expect("job id");
                    id.to_string()
                })
            })
            .collect();
        submits.into_iter().map(|s| s.join().unwrap()).collect()
    });

    let client = Client::new(&addr);
    for (i, (text, id)) in texts.iter().zip(&ids).enumerate() {
        poll_state(&client, id, "done", Duration::from_secs(120));
        let direct = tmpdir(&format!("concurrent-direct-{i}"));
        direct_run(text, &direct, true);
        for name in ["campaign.json", "campaign.md"] {
            assert_eq!(
                client.artefact(id, name).unwrap(),
                std::fs::read(direct.join(name)).unwrap(),
                "spec {i}: {name} must equal a direct run's"
            );
        }
        job_manifest(&client, id, text);
        let _ = std::fs::remove_dir_all(direct);
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn invalid_specs_get_http_400_with_parser_location() {
    let data = tmpdir("badspec");
    let handle = start_server(&data, 1);
    let client = Client::new(&handle.addr().to_string());

    let (status, body) = client
        .request("POST", "/campaigns", Some(b"seeds = [1, bad]"))
        .unwrap();
    assert_eq!(status, 400);
    let body: Value = serde_json::from_str(&String::from_utf8(body).unwrap()).unwrap();
    let msg = body.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("line 1"), "{msg}");
    assert_eq!(body.get("line").and_then(Value::as_u64), Some(1));
    assert_eq!(body.get("col").and_then(Value::as_u64), Some(13));

    handle.stop();
    let _ = std::fs::remove_dir_all(&data);
}

/// A spec whose schedule periods would size the wake calendar (and the
/// schedule draw) beyond the cap is refused at submit with a 400 naming
/// the field, before anything is built; the server keeps serving.
#[test]
fn oversized_schedule_periods_get_http_400() {
    let data = tmpdir("bigperiod");
    let handle = start_server(&data, 1);
    let client = Client::new(&handle.addr().to_string());

    let hetero = "model = \"heterogeneous\"\nperiods = [20, 4294967298]";
    for (from, to, field) in [
        ("period = 20", "period = 4294967298", "schedule.period"),
        ("period = 20", "period = 10001", "schedule.period"),
        (
            "model = \"homogeneous\"\nperiod = 20",
            hetero,
            "schedule.periods",
        ),
    ] {
        let text = spec_text().replace(from, to);
        assert_ne!(text, spec_text(), "{to}: the edit must land");
        let (status, body) = client
            .request("POST", "/campaigns?quick=1", Some(text.as_bytes()))
            .unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 400, "{to}: {body}");
        assert!(body.contains(field), "{to}: {body}");
    }

    let submitted = client.submit(&spec_text(), true).unwrap();
    let id = submitted.get("id").and_then(Value::as_str).expect("job id");
    poll_state(&client, id, "done", Duration::from_secs(120));

    handle.stop();
    let _ = std::fs::remove_dir_all(&data);
}

/// A packet count past `u32` is refused at submit with a 400 naming
/// the field; 2^32 + 8 must not pass as the demo's own 8 packets (and
/// so as the demo's job id).
#[test]
fn oversized_workload_packets_get_http_400() {
    let data = tmpdir("bigpackets");
    let handle = start_server(&data, 1);
    let client = Client::new(&handle.addr().to_string());

    let text = spec_text().replace("packets = 8", "packets = 4294967304");
    assert_ne!(text, spec_text(), "the edit must land");
    for _ in 0..2 {
        let (status, body) = client
            .request("POST", "/campaigns?quick=1", Some(text.as_bytes()))
            .unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("workload.packets"), "{body}");
    }

    handle.stop();
    let _ = std::fs::remove_dir_all(&data);
}

/// The spawned-binary path: `experiments serve` must shut down
/// gracefully on SIGTERM (exit 0, no torn artefacts, interrupted job
/// persisted as queued) and a restarted server must resume the job to
/// a result byte-identical to a direct run. The thin clients drive the
/// restarted server: `submit --wait`, `fetch --out` (byte-identical to
/// a direct run) and a re-submit that dedupes.
#[cfg(unix)]
#[test]
fn sigterm_mid_campaign_restarts_and_resumes_byte_identically() {
    use std::process::{Child, Command, Stdio};

    struct KillOnDrop(Option<Child>);
    impl Drop for KillOnDrop {
        fn drop(&mut self) {
            if let Some(mut child) = self.0.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    fn spawn_serve(data: &Path) -> Child {
        Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args([
                "serve",
                "--data",
                data.to_str().unwrap(),
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                "1",
                "--no-progress",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn experiments serve")
    }

    fn wait_endpoint(data: &Path) -> String {
        let path = data.join(ldcf_bench::service_cli::ENDPOINT_FILE);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&path) {
                if !addr.trim().is_empty() {
                    return addr.trim().to_string();
                }
            }
            assert!(Instant::now() < deadline, "server never wrote {path:?}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn sigterm(child: &Child) {
        let ok = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    let direct_dir = tmpdir("sigterm-direct");
    let reference = direct_run(&spec_text(), &direct_dir, false); // full 12-cell matrix

    let data = tmpdir("sigterm-data");
    let mut guard = KillOnDrop(Some(spawn_serve(&data)));
    let client = Client::new(&wait_endpoint(&data));

    let id = client
        .submit(&spec_text(), false)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .expect("job id")
        .to_string();

    // Let the campaign actually start before pulling the plug (if the
    // box is fast enough to finish first, the test still checks the
    // restart path — it just resumes all cells from checkpoints).
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(&id).unwrap();
        let state = status.get("state").and_then(Value::as_str).unwrap_or("?");
        let completed = status
            .get("progress")
            .and_then(|p| p.get("completed"))
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if state == "done" || (state == "running" && completed >= 1) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never progressed: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Graceful shutdown: SIGTERM → flush checkpoints → exit 0.
    let mut child = guard.0.take().expect("child running");
    sigterm(&child);
    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(0), "SIGTERM must exit 0, got {status}");

    // On disk the interrupted job is queued (or done if it won the
    // race), and job.json is valid JSON either way — never torn.
    let job_meta = std::fs::read_to_string(data.join(&id).join("job.json")).unwrap();
    let job_meta: Value = serde_json::from_str(&job_meta).expect("job.json parses");
    let state = job_meta.get("state").and_then(Value::as_str).unwrap();
    assert!(
        state == "queued" || state == "done",
        "unexpected persisted state {state}"
    );

    // Restart: the rescan requeues the job and runs it to completion.
    // (Drop the first server's endpoint file so we wait for the new
    // server's port, not the stale one.)
    std::fs::remove_file(data.join(ldcf_bench::service_cli::ENDPOINT_FILE)).unwrap();
    guard.0 = Some(spawn_serve(&data));
    let client = Client::new(&wait_endpoint(&data));
    poll_state(&client, &id, "done", Duration::from_secs(120));
    assert_eq!(
        client.results(&id).unwrap(),
        reference,
        "resumed campaign.json must be byte-identical to a direct run"
    );

    // The thin clients against the live server.
    let quick_dir = tmpdir("sigterm-direct-quick");
    let quick_reference = direct_run(&spec_text(), &quick_dir, true);
    let server = wait_endpoint(&data);
    let experiments = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments client");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{args:?}: {stderr}");
        (String::from_utf8(out.stdout).unwrap(), stderr)
    };
    let submit = [
        "submit", "--server", &server, "--spec", SPEC_PATH, "--quick",
    ];
    let (quick_id, _) = experiments(&[&submit[..], &["--wait"]].concat());
    let quick_id = quick_id.trim();
    let fetched = tmpdir("sigterm-fetched");
    let fetched_arg = fetched.to_str().unwrap();
    experiments(&[
        "fetch",
        "--server",
        &server,
        "--id",
        quick_id,
        "--out",
        fetched_arg,
    ]);
    assert_eq!(
        std::fs::read(fetched.join("campaign.json")).unwrap(),
        quick_reference,
        "fetch --out must write the direct run's campaign.json"
    );
    let (again, stderr) = experiments(&submit);
    assert_eq!(again.trim(), quick_id);
    assert!(stderr.contains("deduplicated"), "stderr: {stderr}");

    // The second server drains just as gracefully.
    let mut child = guard.0.take().expect("second server running");
    sigterm(&child);
    assert_eq!(child.wait().expect("wait").code(), Some(0));

    for dir in [direct_dir, quick_dir, fetched, data] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
