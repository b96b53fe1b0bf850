//! The HTTP front end: accept loop, connection workers, job
//! scheduler, and routing.
//!
//! Thread layout (all owned by [`ServerHandle`]):
//!
//! * one accept thread blocked in `accept`. Shutdown
//!   ([`ServerHandle::stop`], `POST /shutdown`, or with
//!   `watch_signals` a signal) sets the stop flag and wakes it with a
//!   connection to its own address;
//! * with `watch_signals`, one watcher thread polling the signal flag
//!   (std's `accept` retries on `EINTR`, so a signal alone does not
//!   return from it);
//! * a small pool of connection workers draining an `mpsc` channel —
//!   each connection is one request/response exchange;
//! * `jobs` scheduler workers leasing from the [`JobStore`] and driving
//!   the injected [`CampaignExec`].
//!
//! Graceful shutdown: stop accepting, close the job store (which fires
//! every running job's cancel token so the runner flushes in-flight
//! cell checkpoints), join all threads, return. The process exits 0;
//! interrupted jobs are persisted as `queued` and resume on the next
//! start.

use crate::exec::{CampaignExec, ExecRequest};
use crate::http::{read_request, write_response, Request, Response};
use crate::jobs::{JobStore, SubmitError};
use crate::signal;
use serde::Value;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Data directory: one job directory per campaign digest.
    pub data_dir: PathBuf,
    /// Concurrent campaigns (scheduler workers). Each campaign already
    /// parallelizes over cells via rayon, so a small bound keeps the
    /// box responsive.
    pub jobs: usize,
    /// Connection handler threads.
    pub conn_threads: usize,
    /// Enable `POST /shutdown` (tests and CI; off by default so a
    /// stray request cannot stop a production server).
    pub allow_remote_shutdown: bool,
    /// Watch the process-wide SIGINT/SIGTERM flag (the `serve` CLI
    /// turns this on; in-process test servers leave it off so one
    /// test's signal cannot stop another test's server).
    pub watch_signals: bool,
}

impl ServiceConfig {
    /// Defaults for a data directory: loopback ephemeral port, two
    /// campaign workers, four connection threads.
    pub fn new(data_dir: &std::path::Path) -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            data_dir: data_dir.to_path_buf(),
            jobs: 2,
            conn_threads: 4,
            allow_remote_shutdown: false,
            watch_signals: false,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`stop`](Self::stop) or [`wait`](Self::wait).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<Stop>,
    store: Arc<JobStore>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The job store (for tests and the embedding CLI).
    pub fn store(&self) -> &Arc<JobStore> {
        &self.store
    }

    /// Request shutdown and block until every thread has drained:
    /// in-flight cells checkpoint, interrupted jobs persist as queued.
    pub fn stop(self) {
        self.stop.request();
        self.join();
    }

    /// Block until the server shuts down for any reason (signal,
    /// `POST /shutdown`, or a concurrent [`stop`](Self::stop)).
    pub fn wait(self) {
        self.join();
    }

    fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// The shutdown flag, and how to wake the accept thread blocked on the
/// listener so it sees the flag.
struct Stop {
    requested: AtomicBool,
    /// Where a self-connect reaches the listener.
    wake_addr: SocketAddr,
}

impl Stop {
    fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Set the flag, then connect to the listener: the accept thread
    /// returns from `accept`, sees the flag and winds down. A failed
    /// connect means the listener is already gone.
    fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }
}

/// Start a server: bind, rescan the data directory (resuming
/// interrupted jobs), and spawn the thread pools.
pub fn start(cfg: ServiceConfig, exec: Arc<dyn CampaignExec>) -> Result<ServerHandle, String> {
    let store = Arc::new(JobStore::open(&cfg.data_dir)?);
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // A wildcard bind is reached over loopback of the same family.
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let stop = Arc::new(Stop {
        requested: AtomicBool::new(false),
        wake_addr,
    });
    let mut threads = Vec::new();

    // Connection workers.
    let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let ctx = Arc::new(RouteCtx {
        store: Arc::clone(&store),
        stop: Arc::clone(&stop),
        allow_remote_shutdown: cfg.allow_remote_shutdown,
    });
    for i in 0..cfg.conn_threads.max(1) {
        let rx = Arc::clone(&conn_rx);
        let ctx = Arc::clone(&ctx);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ldcf-conn-{i}"))
                .spawn(move || {
                    loop {
                        let stream = match rx.lock().expect("conn queue lock").recv() {
                            Ok(s) => s,
                            Err(_) => return, // accept loop gone
                        };
                        handle_connection(stream, &ctx);
                    }
                })
                .expect("spawn connection worker"),
        );
    }

    // Scheduler workers.
    for i in 0..cfg.jobs.max(1) {
        let store = Arc::clone(&store);
        let exec = Arc::clone(&exec);
        threads.push(
            std::thread::Builder::new()
                .name(format!("ldcf-sched-{i}"))
                .spawn(move || {
                    while let Some(lease) = store.next_job() {
                        let result = exec.run(ExecRequest {
                            job_id: &lease.id,
                            spec_text: &lease.spec_text,
                            quick: lease.quick,
                            out: &lease.dir,
                            queue_wait_ms: lease.queue_wait_ms,
                            cancel: Arc::clone(&lease.cancel),
                            progress: lease.progress.clone(),
                        });
                        store.finish(&lease.id, result);
                    }
                })
                .expect("spawn scheduler worker"),
        );
    }

    // Signal watcher: turns SIGINT/SIGTERM into a stop request.
    if cfg.watch_signals {
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name("ldcf-signals".to_string())
                .spawn(move || {
                    while !stop.is_requested() {
                        if signal::shutdown_requested() {
                            stop.request();
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                })
                .expect("spawn signal watcher"),
        );
    }

    // Accept loop: owns the listener and orchestrates shutdown.
    {
        let stop = Arc::clone(&stop);
        let store = Arc::clone(&store);
        threads.push(
            std::thread::Builder::new()
                .name("ldcf-accept".to_string())
                .spawn(move || {
                    loop {
                        let accepted = listener.accept();
                        // The wake-up connection, or any that raced it.
                        if stop.is_requested() {
                            break;
                        }
                        match accepted {
                            Ok((stream, _)) => {
                                let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                                let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
                                if conn_tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            // Out of descriptors and the like: back off
                            // instead of spinning.
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                    // Stop leasing jobs and cancel the running ones so
                    // their executors flush checkpoints and return.
                    store.close();
                    // Closing the channel drains the connection pool.
                    drop(conn_tx);
                })
                .expect("spawn accept loop"),
        );
    }

    Ok(ServerHandle {
        addr,
        stop,
        store,
        threads,
    })
}

struct RouteCtx {
    store: Arc<JobStore>,
    stop: Arc<Stop>,
    allow_remote_shutdown: bool,
}

fn handle_connection(mut stream: TcpStream, ctx: &RouteCtx) {
    let response = match read_request(&mut stream) {
        Ok(req) => route(&req, ctx),
        Err(e) => Response::error(400, &format!("malformed request: {e}"), vec![]),
    };
    let _ = write_response(&mut stream, &response);
}

/// Dispatch one request. Unknown paths get 404, known paths with the
/// wrong method 405 — both with JSON error bodies.
fn route(req: &Request, ctx: &RouteCtx) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => submit(req, ctx),
        ("GET", ["campaigns"]) => {
            let jobs: Vec<Value> = ctx.store.list().iter().map(|v| v.to_value()).collect();
            Response::json(
                200,
                &Value::Object(vec![("campaigns".into(), Value::Array(jobs))]),
            )
        }
        ("GET", ["campaigns", id]) => match ctx.store.get(id) {
            Some(view) => Response::json(200, &view.to_value()),
            None => Response::error(404, &format!("no campaign {id}"), vec![]),
        },
        ("GET", ["campaigns", id, "results"]) => results(id, ctx),
        ("GET", ["campaigns", id, "artefacts", rest @ ..]) => artefact(id, rest, ctx),
        ("POST", ["campaigns", id, "cancel"]) => match ctx.store.cancel(id) {
            Some(view) => Response::json(200, &view.to_value()),
            None => Response::error(404, &format!("no campaign {id}"), vec![]),
        },
        ("POST", ["shutdown"]) if ctx.allow_remote_shutdown => {
            ctx.stop.request();
            Response::json(
                200,
                &Value::Object(vec![(
                    "shutdown".into(),
                    Value::Str("draining".to_string()),
                )]),
            )
        }
        // Known resources addressed with the wrong verb.
        (_, ["campaigns"])
        | (_, ["campaigns", _])
        | (_, ["campaigns", _, "results"])
        | (_, ["campaigns", _, "artefacts", ..])
        | (_, ["campaigns", _, "cancel"]) => Response::error(
            405,
            &format!("method {} not allowed here", req.method),
            vec![],
        ),
        _ => Response::error(404, &format!("no route for {}", req.path), vec![]),
    }
}

fn submit(req: &Request, ctx: &RouteCtx) -> Response {
    let spec_text = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "spec body is not UTF-8", vec![]),
    };
    if spec_text.trim().is_empty() {
        return Response::error(400, "empty spec body", vec![]);
    }
    match ctx.store.submit(spec_text, req.query_flag("quick")) {
        Ok((view, deduped)) => {
            let mut fields = match view.to_value() {
                Value::Object(f) => f,
                _ => unreachable!("job views are objects"),
            };
            fields.push(("deduped".into(), Value::Bool(deduped)));
            Response::json(if deduped { 200 } else { 201 }, &Value::Object(fields))
        }
        Err(SubmitError::Invalid { msg, line, col }) => {
            let mut extra = Vec::new();
            if let Some(line) = line {
                extra.push(("line".to_string(), Value::UInt(line as u64)));
            }
            if let Some(col) = col {
                extra.push(("col".to_string(), Value::UInt(col as u64)));
            }
            Response::error(400, &msg, extra)
        }
        Err(SubmitError::ShuttingDown) => Response::error(503, "server is shutting down", vec![]),
        Err(SubmitError::Io(msg)) => Response::error(500, &msg, vec![]),
    }
}

fn results(id: &str, ctx: &RouteCtx) -> Response {
    let Some(view) = ctx.store.get(id) else {
        return Response::error(404, &format!("no campaign {id}"), vec![]);
    };
    if view.state != crate::jobs::JobState::Done {
        return Response::error(
            409,
            &format!("campaign is {}, results need done", view.state.label()),
            vec![("state".to_string(), Value::Str(view.state.label().into()))],
        );
    }
    serve_file(id, "campaign.json", ctx)
}

/// Serve one whitelisted artefact from the job directory. `rest` is
/// the path after `/artefacts/` — either a top-level artefact name or
/// `cells/<checkpoint>.json`.
fn artefact(id: &str, rest: &[&str], ctx: &RouteCtx) -> Response {
    if ctx.store.get(id).is_none() {
        return Response::error(404, &format!("no campaign {id}"), vec![]);
    }
    let name = match rest {
        [name] if TOP_ARTEFACTS.contains(name) => (*name).to_string(),
        [cells, name]
            if *cells == "cells" && name.ends_with(".json") && is_safe_file_name(name) =>
        {
            format!("cells/{name}")
        }
        _ => {
            return Response::error(
                404,
                &format!("unknown artefact {:?}", rest.join("/")),
                vec![],
            )
        }
    };
    serve_file(id, &name, ctx)
}

/// Artefacts servable from a job directory's top level.
const TOP_ARTEFACTS: &[&str] = &[
    "campaign.json",
    "campaign.md",
    "campaign.manifest.json",
    "campaign-telemetry.jsonl",
    "spec.toml",
    "job.json",
];

fn is_safe_file_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        && !name.contains("..")
}

fn serve_file(id: &str, name: &str, ctx: &RouteCtx) -> Response {
    let path = ctx.store.job_dir(id).join(name);
    match std::fs::read(&path) {
        Ok(body) => Response::file(content_type(name), body),
        Err(_) => Response::error(404, &format!("artefact {name} not produced yet"), vec![]),
    }
}

fn content_type(name: &str) -> &'static str {
    if name.ends_with(".jsonl") {
        "application/x-ndjson"
    } else if name.ends_with(".json") {
        "application/json"
    } else if name.ends_with(".md") {
        "text/markdown"
    } else if name.ends_with(".toml") {
        "text/plain"
    } else {
        "application/octet-stream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecError, ExecOutcome};
    use crate::Client;

    /// An executor that "runs" a campaign by writing a marker artefact,
    /// honouring cancellation.
    struct FakeExec {
        delay_ms: u64,
    }

    impl CampaignExec for FakeExec {
        fn run(&self, req: ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
            let deadline = std::time::Instant::now() + Duration::from_millis(self.delay_ms);
            while std::time::Instant::now() < deadline {
                if req.cancel.load(Ordering::SeqCst) {
                    return Err(ExecError::Cancelled);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            crate::jobs::write_atomic(&req.out.join("campaign.json"), b"{\"fake\": true}\n")
                .map_err(|e| ExecError::Failed(e.to_string()))?;
            Ok(ExecOutcome {
                cells_total: 1,
                cells_run: 1,
                cells_resumed: 0,
            })
        }
    }

    const SPEC: &str = r#"
        [scenario]
        name = "server-test"

        [topology]
        kind = "grid"
        rows = 3
        cols = 3
        prr = 0.9

        [schedule]
        model = "homogeneous"
        period = 5

        [workload]
        kind = "single-flood"
        packets = 1

        [matrix]
        protocols = ["of"]
        duties = [0.2]
        seeds = [1]
        "#;

    fn start_server(tag: &str, delay_ms: u64) -> (ServerHandle, Client, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("ldcf-server-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServiceConfig::new(&dir);
        cfg.allow_remote_shutdown = true;
        let handle = start(cfg, Arc::new(FakeExec { delay_ms })).unwrap();
        let client = Client::new(&handle.addr().to_string());
        (handle, client, dir)
    }

    fn poll_state(client: &Client, id: &str, want: &str) {
        for _ in 0..500 {
            let status = client.status(id).unwrap();
            if status.get("state").unwrap().as_str() == Some(want) {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("job {id} never reached state {want}");
    }

    #[test]
    fn submit_poll_fetch_roundtrip() {
        let (handle, client, dir) = start_server("roundtrip", 0);
        let submitted = client.submit(SPEC, false).unwrap();
        let id = submitted.get("id").unwrap().as_str().unwrap().to_string();
        assert_eq!(
            submitted.get("deduped"),
            Some(&Value::Bool(false)),
            "first submit is fresh"
        );
        poll_state(&client, &id, "done");
        assert_eq!(client.results(&id).unwrap(), b"{\"fake\": true}\n");
        assert_eq!(
            client.artefact(&id, "campaign.json").unwrap(),
            b"{\"fake\": true}\n"
        );
        let spec_back = client.artefact(&id, "spec.toml").unwrap();
        assert_eq!(spec_back, SPEC.as_bytes(), "spec served verbatim");

        // Duplicate submit dedupes onto the finished job.
        let again = client.submit(SPEC, false).unwrap();
        assert_eq!(again.get("deduped"), Some(&Value::Bool(true)));
        assert_eq!(again.get("state").unwrap().as_str(), Some("done"));

        let list = client.list().unwrap();
        match list.get("campaigns").unwrap() {
            Value::Array(jobs) => assert_eq!(jobs.len(), 1),
            other => panic!("expected array, got {other:?}"),
        }
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn http_errors_are_json_with_diagnostics() {
        let (handle, client, dir) = start_server("errors", 0);

        // 400 with the TOML parser's line/col diagnostics.
        let err = client.submit("broken ~ spec", false).unwrap_err();
        assert!(err.contains("400"), "{err}");
        assert!(err.contains("line"), "{err}");

        // Raw request checks: 404 unknown route, 405 wrong method.
        let (status, body) = client.request("GET", "/nonsense", None).unwrap();
        assert_eq!(status, 404);
        assert!(String::from_utf8_lossy(&body).contains("\"error\""));
        let (status, body) = client.request("DELETE", "/campaigns", None).unwrap();
        assert_eq!(status, 405);
        assert!(String::from_utf8_lossy(&body).contains("\"error\""));

        // Unknown id and premature results.
        let (status, _) = client.request("GET", "/campaigns/deadbeef", None).unwrap();
        assert_eq!(status, 404);
        let slow = client.submit(SPEC, false); // delay 0: may finish fast
        assert!(slow.is_ok());

        // Artefact traversal is rejected.
        let id = slow
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let (status, _) = client
            .request(
                "GET",
                &format!("/campaigns/{id}/artefacts/../../etc/passwd"),
                None,
            )
            .unwrap();
        assert_eq!(status, 404);

        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_and_remote_shutdown() {
        let (handle, client, dir) = start_server("cancel", 60_000);
        let id = client
            .submit(SPEC, false)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        poll_state(&client, &id, "running");
        client.cancel(&id).unwrap();
        poll_state(&client, &id, "cancelled");

        client.shutdown().unwrap();
        handle.wait(); // returns because POST /shutdown tripped the flag
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_requeues_running_jobs_and_restart_resumes() {
        let (handle, client, dir) = start_server("requeue", 60_000);
        let id = client
            .submit(SPEC, false)
            .unwrap()
            .get("id")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        poll_state(&client, &id, "running");
        handle.stop();

        // On disk the interrupted job is queued, and a restarted
        // server picks it straight back up.
        let meta = std::fs::read_to_string(dir.join(&id).join("job.json")).unwrap();
        let meta: Value = serde_json::from_str(&meta).unwrap();
        assert_eq!(meta.get("state").unwrap().as_str(), Some("queued"));

        let mut cfg = ServiceConfig::new(&dir);
        cfg.allow_remote_shutdown = true;
        let handle = start(cfg, Arc::new(FakeExec { delay_ms: 0 })).unwrap();
        let client = Client::new(&handle.addr().to_string());
        poll_state(&client, &id, "done");
        assert_eq!(client.results(&id).unwrap(), b"{\"fake\": true}\n");
        handle.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
