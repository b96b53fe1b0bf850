//! `service`: the submit → results path of the campaign job server,
//! in-process (`ldcf_service::start` with `serve`'s defaults: two job
//! workers) and driven over HTTP by `ldcf_service::Client`.
//!
//! Closed loop, two clients (one per core): each submits a distinct
//! campaign of six cells, polls its status every 2 ms until it is
//! done, fetches the results, then fetches the job's manifest (for its
//! slot count) and submits the next. Latency runs from submit to
//! results received. Jobs have few, heavier cells because the job
//! store writes every cell to disk (see the campaign workload on why
//! file count matters). `--seed` offsets every job's seed range.
//!
//! Set-up is starting the server (job store scan, bind, thread pools)
//! on the same empty data directory each time. Its first answer is
//! checked once, untimed: it comes at once or after the accept loop's
//! 5 ms poll, depending on which thread wins a race, so timing it made
//! `setup_s` jump between 1 and 6 ms from run to run.

use crate::campaign::{prepare, replay_cells};
use crate::metrics::Values;
use crate::spans::{self, Span, Tracer};
use crate::{derive, repeated_setup, stats, Checks, RunOpts, RunResult, Size};
use ldcf_bench::campaign::validate_campaign_json;
use ldcf_bench::{run_campaign_with, BenchExec, CampaignOptions};
use ldcf_service::{Client, ServerHandle, ServiceConfig};
use serde::Value;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent clients.
pub const CLIENTS: usize = 2;
/// Status poll interval.
const POLL: Duration = Duration::from_millis(2);

/// Seeds per protocol of one job.
fn seeds(size: Size) -> u64 {
    match size {
        Size::Full => 3,
        Size::Smoke => 1,
    }
}

/// The spec of job `job` of `client`: a 12×12 grid, OPT and OF, one
/// duty, a seed range of its own.
pub fn job_spec(opts: &RunOpts, client: usize, job: u64) -> String {
    let n = seeds(opts.size);
    let first = derive(opts.seed, 30 + client as u64) * 1_000_000 + job * n;
    let seeds: Vec<String> = (first..first + n).map(|s| s.to_string()).collect();
    format!(
        "[scenario]\n\
         name = \"bench-job\"\n\n\
         [topology]\nkind = \"grid\"\nrows = 12\ncols = 12\nprr = 0.9\n\n\
         [schedule]\nmodel = \"homogeneous\"\nperiod = 20\n\n\
         [workload]\nkind = \"single-flood\"\npackets = 20\n\n\
         [matrix]\nprotocols = [\"opt\", \"of\"]\nduties = [0.05]\nseeds = [{}]\n",
        seeds.join(", ")
    )
}

/// One job as a client saw it.
#[derive(Clone, Debug, Default)]
struct Job {
    latency_s: f64,
    submit_s: f64,
    results_s: f64,
    polls: u64,
    queue_wait_ms: f64,
    exec_ms: f64,
    slots: u64,
}

/// What one client's loop produced.
#[derive(Default)]
struct ClientOut {
    jobs: Vec<Job>,
    checks: Checks,
    http_errors: u64,
    /// Spec and results of the loop's first job.
    first: Option<(String, Vec<u8>)>,
    spans: Vec<Span>,
}

/// Submit jobs until `deadline` (at least one), starting at job number
/// `next`.
fn client_loop(
    addr: &str,
    opts: &RunOpts,
    client: usize,
    next: u64,
    deadline: Instant,
    mut t: Tracer,
) -> ClientOut {
    let http = Client::new(addr);
    let mut out = ClientOut::default();
    let mut job = next;
    while out.jobs.is_empty() || Instant::now() < deadline {
        let spec = job_spec(opts, client, job);
        job += 1;
        match one_job(&http, &spec, &mut t) {
            Ok((j, results)) => {
                let valid = validate_campaign_json(&String::from_utf8_lossy(&results));
                out.checks.check(valid.is_ok(), || {
                    format!("client {client} job {job}: results invalid: {valid:?}")
                });
                out.first.get_or_insert((spec, results));
                out.jobs.push(j);
            }
            Err((http_error, msg)) => {
                out.http_errors += u64::from(http_error);
                out.checks
                    .check(false, || format!("client {client} job {job}: {msg}"));
            }
        }
    }
    out.spans = t.take();
    out
}

/// Submit → poll → results, timed as the job's latency, then the
/// manifest. `Err((http_error, message))`.
fn one_job(http: &Client, spec: &str, t: &mut Tracer) -> Result<(Job, Vec<u8>), (bool, String)> {
    let root = t.enter("harness.job");
    let t0 = Instant::now();
    let outcome = submit_to_results(http, spec, t);
    let latency_s = t0.elapsed().as_secs_f64();
    t.exit(root);
    let (mut job, id, results) = outcome?;
    job.latency_s = latency_s;
    let manifest = http
        .artefact(&id, "campaign.manifest.json")
        .map_err(|e| (true, e))?;
    let manifest: Value = serde_json::from_str(&String::from_utf8_lossy(&manifest))
        .map_err(|e| (false, format!("job {id} manifest: {e}")))?;
    job.exec_ms = num(&manifest, "wall_ms");
    job.slots = num(&manifest, "slots") as u64;
    Ok((job, results))
}

/// A numeric field of a JSON object, 0 when absent.
fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The timed part of a job: its id, results and request timings.
fn submit_to_results(
    http: &Client,
    spec: &str,
    t: &mut Tracer,
) -> Result<(Job, String, Vec<u8>), (bool, String)> {
    let http_err = |e: String| (true, e);
    let t0 = Instant::now();
    let submitted = t.span("service.submit", || http.submit(spec, false));
    let submit_s = t0.elapsed().as_secs_f64();
    let submitted = submitted.map_err(http_err)?;
    let id = submitted
        .get("id")
        .and_then(Value::as_str)
        .ok_or((false, "submit response has no id".to_string()))?
        .to_string();
    if !matches!(submitted.get("deduped"), Some(Value::Bool(false))) {
        return Err((
            false,
            format!("job {id} was deduplicated: specs must be distinct"),
        ));
    }
    let mut polls = 0;
    let status = loop {
        std::thread::sleep(POLL);
        polls += 1;
        let s = t
            .span("service.status", || http.status(&id))
            .map_err(http_err)?;
        match s.get("state").and_then(Value::as_str) {
            Some("done") => break s,
            Some("queued" | "running") => {}
            other => return Err((false, format!("job {id} ended {other:?}: {s:?}"))),
        }
    };
    let t1 = Instant::now();
    let results = t
        .span("service.results", || http.results(&id))
        .map_err(http_err)?;
    let job = Job {
        submit_s,
        results_s: t1.elapsed().as_secs_f64(),
        polls,
        queue_wait_ms: num(&status, "queue_wait_ms"),
        ..Job::default()
    };
    Ok((job, id, results))
}

/// What all clients did in one phase.
struct Phase {
    jobs: Vec<Job>,
    wall_s: f64,
    checks: Checks,
    http_errors: u64,
    firsts: Vec<(String, Vec<u8>)>,
    spans: Vec<Span>,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.latency_s).collect()
    }

    fn median(&self, f: impl Fn(&Job) -> f64) -> f64 {
        stats::median(&self.jobs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    }
}

/// All clients for `seconds`; job numbers start at `next`.
fn phase(addr: &str, opts: &RunOpts, next: u64, seconds: f64, traced: bool) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let t = Tracer::with_origin(traced, start);
                s.spawn(move || client_loop(addr, opts, c, next, deadline, t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut p = Phase {
        jobs: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
        checks: Checks::default(),
        http_errors: 0,
        firsts: Vec::new(),
        spans: Vec::new(),
    };
    for o in outs {
        p.jobs.extend(o.jobs);
        p.checks.absorb(o.checks);
        p.http_errors += o.http_errors;
        p.firsts.extend(o.first);
        spans::append(&mut p.spans, o.spans);
    }
    p
}

/// A running server, stopped when dropped. [`repeated_setup`] drops
/// each set-up's result after timing it, so a stop, which waits for
/// the accept loop's next 5 ms poll, stays out of `setup_s`.
struct Running(Option<ServerHandle>);

impl Running {
    fn addr(&self) -> String {
        self.0
            .as_ref()
            .expect("running until dropped")
            .addr()
            .to_string()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.stop();
        }
    }
}

/// Start a server on `data`.
fn start(data: &Path) -> Result<Running, String> {
    let server = ldcf_service::start(
        ServiceConfig::new(data),
        Arc::new(BenchExec { progress: false }),
    )?;
    Ok(Running(Some(server)))
}

/// Run `service`.
pub fn run(opts: &RunOpts, scratch: &Path) -> Result<RunResult, String> {
    let (server, setup_s) = repeated_setup(|| start(&scratch.join("data")));
    let server = server?;
    Client::new(&server.addr()).list()?;
    measure_service(&server.addr(), opts, scratch, setup_s)
}

fn measure_service(
    addr: &str,
    opts: &RunOpts,
    scratch: &Path,
    setup_s: f64,
) -> Result<RunResult, String> {
    let mut checks = Checks::default();
    let mut values = Values::default();
    let mut http_errors = 0;
    // Warm-up: one job per client, untimed.
    let warm = phase(addr, opts, 0, 0.0, false);
    http_errors += warm.http_errors;
    checks.absorb(warm.checks);
    let window = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let main = phase(addr, opts, 1_000, window, false);
    http_errors += main.http_errors;
    let lat = main.latencies();
    let median_main = stats::median(&lat).unwrap_or(0.0);
    let mut spans = Vec::new();
    let samples = if opts.traced {
        let traced = phase(addr, opts, 1_000_000, window, true);
        http_errors += traced.http_errors;
        let median_traced = stats::median(&traced.latencies()).unwrap_or(0.0);
        let v = &mut values;
        v.set(
            "harness.trace_overhead_frac",
            median_traced / median_main - 1.0,
        );
        v.set("service.jobs_per_s", main.jobs.len() as f64 / main.wall_s);
        v.set(
            "service.latency_p90_ms",
            stats::tail_quantile(&lat, 0.9).unwrap_or(0.0) * 1e3,
        );
        v.set("service.submit_ms_p50", traced.median(|j| j.submit_s) * 1e3);
        v.set(
            "service.queue_wait_ms_p50",
            traced.median(|j| j.queue_wait_ms),
        );
        v.set("service.exec_ms_p50", traced.median(|j| j.exec_ms));
        v.set(
            "service.results_ms_p50",
            traced.median(|j| j.results_s) * 1e3,
        );
        v.set(
            "service.polls_per_job",
            traced.jobs.iter().map(|j| j.polls).sum::<u64>() as f64
                / traced.jobs.len().max(1) as f64,
        );
        crate::layer_shares(&traced.spans, v);
        if let Some((spec, _)) = traced.firsts.first() {
            job_layers(spec, v)?;
        }
        let samples = traced.latencies();
        checks.absorb(traced.checks);
        spans = traced.spans;
        samples
    } else {
        let slots: u64 = main.jobs.iter().map(|j| j.slots).sum();
        values.set("setup_s", setup_s);
        values.set("slots_per_s", slots as f64 / main.wall_s);
        values.set("latency_p50_ms", median_main * 1e3);
        lat
    };
    if opts.traced {
        values.set("service.http_errors", http_errors as f64);
    }
    // Each client's first timed job must match a direct run of its spec.
    for (k, (spec, results)) in main.firsts.iter().enumerate() {
        let dir = scratch.join(format!("direct-{k}"));
        let direct = ldcf_scenarios::ScenarioSpec::from_toml_str(spec)
            .map_err(|e| e.to_string())
            .and_then(|s| run_campaign_with(s, &dir, CampaignOptions::default()))
            .and_then(|_| std::fs::read(dir.join("campaign.json")).map_err(|e| e.to_string()));
        checks.check(direct.as_ref().is_ok_and(|d| d == results), || {
            format!(
                "first job of client {k}: results differ from a direct run ({:?})",
                direct.err()
            )
        });
    }
    checks.absorb(main.checks);
    let digest = crate::digest_hex(
        &warm
            .firsts
            .iter()
            .map(|(_, r)| crate::fnv1a(r))
            .collect::<Vec<_>>(),
    );
    Ok(RunResult {
        checks,
        values,
        spans,
        digest,
        samples,
    })
}

/// What the server does per job, measured from outside on one job's
/// spec: parse, build and digest (every submit), then each cell's
/// schedule draw and profiled engine run.
fn job_layers(spec_text: &str, v: &mut Values) -> Result<(), String> {
    let (spec, steps) = prepare(spec_text)?;
    v.set("scenarios.parse_s", steps[0].as_secs_f64());
    v.set("scenarios.build_s", steps[1].as_secs_f64());
    v.set("scenarios.digest_s", steps[2].as_secs_f64());
    let cells = replay_cells(&spec, true)?;
    cells.profile.report(v, 1);
    v.set("scenarios.schedules_s", cells.schedules_ns as f64 / 1e9);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_specs_are_distinct_across_clients_jobs_and_seeds() {
        let opts = |seed| RunOpts {
            seed,
            seconds: 0.0,
            traced: false,
            size: Size::Full,
            out: crate::default_out(),
        };
        let a = job_spec(&opts(1), 0, 0);
        assert_ne!(a, job_spec(&opts(1), 1, 0));
        assert_ne!(a, job_spec(&opts(1), 0, 1));
        assert_ne!(a, job_spec(&opts(2), 0, 0));
        assert!(ldcf_scenarios::ScenarioSpec::from_toml_str(&a).is_ok());
    }
}
