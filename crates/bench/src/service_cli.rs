//! The campaign service, wired to the real runner: [`BenchExec`]
//! implements `ldcf_service::CampaignExec` over
//! [`run_campaign_with`](crate::campaign::run_campaign_with), and the
//! `serve` / `submit` / `status` / `fetch` / `cancel` helpers back the
//! `experiments` subcommands of the same names.
//!
//! The split matters for determinism: the service only schedules;
//! artefact bytes come from the same runner entry point the one-shot
//! `experiments campaign` uses, with the same digest-keyed checkpoints.
//! An HTTP-submitted campaign therefore produces a `campaign.json`
//! byte-identical to a direct CLI run of the same spec.

use crate::campaign::{self, CampaignOptions};
use ldcf_obs::write_atomic;
use ldcf_scenarios::ScenarioSpec;
use ldcf_service::{Client, ExecError, ExecOutcome, ExecRequest, ServiceConfig};
use serde::Value;
use std::path::Path;
use std::sync::Arc;

/// `ldcf_service::CampaignExec` over the deterministic campaign runner.
pub struct BenchExec {
    /// Stream per-cell progress lines to stderr (off for tests).
    pub progress: bool,
}

impl ldcf_service::CampaignExec for BenchExec {
    fn run(&self, req: ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        let spec = ScenarioSpec::from_toml_str(req.spec_text).map_err(ExecError::Failed)?;
        let t0 = std::time::Instant::now();
        let outcome = campaign::run_campaign_with(
            spec,
            req.out,
            CampaignOptions {
                quick: req.quick,
                progress: self.progress,
                sink: Some(Arc::clone(&req.progress)),
                cancel: Some(Arc::clone(&req.cancel)),
            },
        )
        .map_err(|e| {
            if e == campaign::CANCELLED {
                ExecError::Cancelled
            } else {
                ExecError::Failed(e)
            }
        })?;

        // Same provenance manifest a CLI run writes, plus the service
        // fields (job id, queue wait).
        let manifest = outcome
            .manifest(t0.elapsed().as_millis() as u64)
            .with_service_job(req.job_id, req.queue_wait_ms);
        campaign::write_manifest(req.out, &manifest).map_err(ExecError::Failed)?;

        Ok(ExecOutcome {
            cells_total: outcome.cells_total,
            cells_run: outcome.cells_run,
            cells_resumed: outcome.cells_resumed,
        })
    }
}

/// Name of the file `serve` drops into the data directory with the
/// bound `host:port` — how scripts discover an ephemeral port.
pub const ENDPOINT_FILE: &str = "endpoint";

/// Run the server until a shutdown signal (or remote shutdown when
/// enabled). Returns an error message suitable for `exit(1)`.
pub fn serve(
    data: &Path,
    addr: &str,
    jobs: usize,
    allow_remote_shutdown: bool,
    progress: bool,
) -> Result<(), String> {
    ldcf_service::install_handlers();
    let mut cfg = ServiceConfig::new(data);
    cfg.addr = addr.to_string();
    cfg.jobs = jobs;
    cfg.allow_remote_shutdown = allow_remote_shutdown;
    cfg.watch_signals = true;
    let handle = ldcf_service::start(cfg, Arc::new(BenchExec { progress }))?;
    let bound = handle.addr();
    write_atomic(&data.join(ENDPOINT_FILE), format!("{bound}\n").as_bytes())
        .map_err(|e| format!("write {}: {e}", data.join(ENDPOINT_FILE).display()))?;
    eprintln!("[serve] listening on {bound}, data dir {}", data.display());
    handle.wait();
    eprintln!("[serve] drained — in-flight campaigns checkpointed and requeued");
    Ok(())
}

/// Submit a spec file; prints the job id on stdout. With `wait`, poll
/// until the job is terminal and mirror the server's verdict into the
/// exit status.
pub fn submit(server: &str, spec_path: &Path, quick: bool, wait: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("--spec {}: {e}", spec_path.display()))?;
    let client = Client::new(server);
    let submitted = client.submit(&text, quick)?;
    let id = submitted
        .get("id")
        .and_then(Value::as_str)
        .ok_or("server response without job id")?
        .to_string();
    let deduped = matches!(submitted.get("deduped"), Some(Value::Bool(true)));
    println!("{id}");
    eprintln!(
        "[submit] job {id} {}",
        if deduped {
            "already known (deduplicated)"
        } else {
            "enqueued"
        }
    );
    if !wait {
        return Ok(());
    }
    loop {
        let status = client.status(&id)?;
        let state = status
            .get("state")
            .and_then(Value::as_str)
            .ok_or("status without state")?;
        match state {
            "done" => {
                eprintln!("[submit] job {id} done");
                return Ok(());
            }
            "failed" => {
                let err = status.get("error").and_then(Value::as_str).unwrap_or("");
                return Err(format!("job {id} failed: {err}"));
            }
            "cancelled" => return Err(format!("job {id} was cancelled")),
            _ => std::thread::sleep(std::time::Duration::from_millis(200)),
        }
    }
}

/// Print one job's status (with `id`) or the whole job list as JSON.
pub fn status(server: &str, id: Option<&str>) -> Result<(), String> {
    let client = Client::new(server);
    let v = match id {
        Some(id) => client.status(id)?,
        None => client.list()?,
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&v).expect("render status")
    );
    Ok(())
}

/// Fetch a finished campaign's results (or a named artefact) and write
/// it into the existing directory `out` (keeping the artefact's file
/// name) or to stdout.
pub fn fetch(
    server: &str,
    id: &str,
    artefact: Option<&str>,
    out: Option<&Path>,
) -> Result<(), String> {
    let client = Client::new(server);
    let (name, bytes) = match artefact {
        Some(name) => (name.to_string(), client.artefact(id, name)?),
        None => ("campaign.json".to_string(), client.results(id)?),
    };
    match out {
        Some(dir) => {
            let path = dir.join(name.rsplit('/').next().expect("non-empty name"));
            write_atomic(&path, &bytes).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("[fetch] wrote {} ({} bytes)", path.display(), bytes.len());
        }
        None => {
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&bytes)
                .map_err(|e| format!("stdout: {e}"))?;
        }
    }
    Ok(())
}

/// Cancel a job; prints the resulting job state.
pub fn cancel(server: &str, id: &str) -> Result<(), String> {
    let v = Client::new(server).cancel(id)?;
    let state = v.get("state").and_then(Value::as_str).unwrap_or("?");
    eprintln!("[cancel] job {id} is now {state}");
    Ok(())
}
