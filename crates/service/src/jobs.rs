//! The durable job store.
//!
//! A job *is* a campaign output directory: `<data>/<digest>/` holds the
//! submitted `spec.toml`, a small `job.json` state record, and —
//! courtesy of the campaign runner — the digest-keyed per-cell
//! checkpoints under `cells/` plus the final artefacts. Because the
//! checkpoints already make campaigns resumable byte-identically, the
//! store needs no write-ahead log: a restarted server rescans the data
//! directory, trusts `job.json` for terminal states, and requeues
//! everything that was queued or running — the runner then reloads
//! finished cells and re-runs only the rest.
//!
//! The job id is the sha256 digest of the built (possibly quickened)
//! scenario, so identical submissions collapse onto one job: a
//! re-submitted spec that already ran returns the finished job instead
//! of burning CPU on a byte-identical re-run.

use crate::exec::{ExecError, ExecOutcome};
use ldcf_obs::{CampaignProgress, LatestProgress};
use ldcf_scenarios::{error_location, BuiltScenario, ScenarioSpec};
use serde::Value;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Schema version of `job.json`.
pub const JOB_SCHEMA_VERSION: u64 = 1;

/// Job lifecycle. Terminal states are `Done`, `Failed`, `Cancelled`;
/// `Queued` and `Running` survive a server restart as "resume me".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a scheduler worker.
    Queued,
    /// A worker is simulating cells right now.
    Running,
    /// Finished; `campaign.json` exists and is served by `/results`.
    Done,
    /// The runner reported an error (recorded in the job view).
    Failed,
    /// Cancelled by the user; checkpoints are kept for a resubmit.
    Cancelled,
}

impl JobState {
    /// Wire / on-disk label.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// One job as the store tracks it.
struct JobRecord {
    id: String,
    name: String,
    quick: bool,
    state: JobState,
    error: String,
    cells_total: usize,
    cells_run: usize,
    cells_resumed: usize,
    queue_wait_ms: u64,
    /// The submitted spec while the job is queued; its lease takes it
    /// (a job leased once is never leased again by this process, and
    /// `spec.toml` keeps it for the next start).
    spec_text: String,
    progress: Arc<LatestProgress>,
    cancel: Arc<AtomicBool>,
    /// Cancellation was requested by a user (vs. a server shutdown,
    /// which requeues instead of cancelling).
    user_cancel: bool,
    enqueued_at: Option<Instant>,
}

/// Read-only snapshot of a job for API responses.
#[derive(Clone, Debug)]
pub struct JobView {
    /// Job id (spec digest).
    pub id: String,
    /// Scenario name.
    pub name: String,
    /// Quick (truncated-matrix) job?
    pub quick: bool,
    /// Current state.
    pub state: JobState,
    /// Failure message when `state == Failed`.
    pub error: String,
    /// Cells in the matrix.
    pub cells_total: usize,
    /// Cells simulated by the finishing run (0 until terminal).
    pub cells_run: usize,
    /// Cells reloaded from checkpoints by the finishing run.
    pub cells_resumed: usize,
    /// Milliseconds spent queued before the last run started.
    pub queue_wait_ms: u64,
    /// Latest heartbeat snapshot (all-zero before the first cell).
    pub progress: CampaignProgress,
}

impl JobView {
    /// JSON rendering for the HTTP API.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("name".into(), Value::Str(self.name.clone())),
            ("state".into(), Value::Str(self.state.label().into())),
            ("quick".into(), Value::Bool(self.quick)),
            ("error".into(), Value::Str(self.error.clone())),
            ("cells_total".into(), Value::UInt(self.cells_total as u64)),
            ("cells_run".into(), Value::UInt(self.cells_run as u64)),
            (
                "cells_resumed".into(),
                Value::UInt(self.cells_resumed as u64),
            ),
            ("queue_wait_ms".into(), Value::UInt(self.queue_wait_ms)),
            (
                "progress".into(),
                Value::Object(vec![
                    ("completed".into(), Value::UInt(self.progress.completed)),
                    ("total".into(), Value::UInt(self.progress.total)),
                    ("resumed".into(), Value::UInt(self.progress.resumed)),
                    (
                        "slots_per_sec".into(),
                        Value::Float(self.progress.slots_per_sec),
                    ),
                    ("eta_s".into(), Value::Float(self.progress.eta_s)),
                    ("done".into(), Value::Bool(self.progress.done)),
                ]),
            ),
        ])
    }
}

/// Why a submission was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The spec does not parse or validate. `line`/`col` carry the
    /// TOML parser's diagnostics when the error has a location.
    Invalid {
        /// Human-readable diagnostic.
        msg: String,
        /// 1-based line of the offending token, if located.
        line: Option<u32>,
        /// 1-based column of the offending token, if located.
        col: Option<u32>,
    },
    /// The server is shutting down and accepts no new jobs.
    ShuttingDown,
    /// The job directory could not be created/written.
    Io(String),
}

impl SubmitError {
    fn invalid(msg: String) -> Self {
        let loc = error_location(&msg);
        SubmitError::Invalid {
            msg,
            line: loc.map(|(l, _)| l),
            col: loc.map(|(_, c)| c),
        }
    }
}

/// A job leased to a scheduler worker by [`JobStore::next_job`].
pub struct RunningJob {
    /// Job id (spec digest).
    pub id: String,
    /// Submitted spec text, verbatim.
    pub spec_text: String,
    /// Quick job?
    pub quick: bool,
    /// Milliseconds the job waited queued before this lease.
    pub queue_wait_ms: u64,
    /// Cancellation token shared with the store.
    pub cancel: Arc<AtomicBool>,
    /// Progress sink shared with the store.
    pub progress: Arc<LatestProgress>,
    /// Job output directory.
    pub dir: PathBuf,
}

struct Inner {
    jobs: Vec<JobRecord>,
    queue: VecDeque<String>,
}

/// Thread-safe job table + FIFO queue, persisted under `data_dir`.
pub struct JobStore {
    data_dir: PathBuf,
    inner: Mutex<Inner>,
    ready: Condvar,
    closed: AtomicBool,
}

impl JobStore {
    /// Open (or create) a store, rescanning existing job directories:
    /// terminal jobs are listed as-is, interrupted ones are requeued
    /// to resume from their cell checkpoints.
    pub fn open(data_dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(data_dir)
            .map_err(|e| format!("create {}: {e}", data_dir.display()))?;
        let store = Self {
            data_dir: data_dir.to_path_buf(),
            inner: Mutex::new(Inner {
                jobs: Vec::new(),
                queue: VecDeque::new(),
            }),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        };
        store.rescan()?;
        Ok(store)
    }

    /// The output directory of a job.
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join(id)
    }

    fn rescan(&self) -> Result<(), String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.data_dir)
            .map_err(|e| format!("read {}: {e}", self.data_dir.display()))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                entry.file_type().ok()?.is_dir().then_some(())?;
                entry.file_name().into_string().ok()
            })
            .collect();
        // Deterministic recovery order (submit order is not persisted).
        names.sort();

        let mut inner = self.inner.lock().expect("job store lock");
        for name in names {
            let dir = self.data_dir.join(&name);
            match recover_job(&dir, &name) {
                Ok(Some(record)) => {
                    if record.state == JobState::Queued {
                        inner.queue.push_back(record.id.clone());
                    }
                    inner.jobs.push(record);
                }
                Ok(None) => {}
                Err(e) => eprintln!("[serve] skipping {}: {e}", dir.display()),
            }
        }
        // Requeued jobs must persist their queued state so a crash
        // between rescan and first lease still recovers them.
        for job in &inner.jobs {
            if job.state == JobState::Queued {
                persist_job(&self.data_dir, job)?;
            }
        }
        Ok(())
    }

    /// Validate and enqueue a spec. Returns the job view plus whether
    /// the submission deduplicated onto an existing live/finished job.
    pub fn submit(&self, spec_text: &str, quick: bool) -> Result<(JobView, bool), SubmitError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown);
        }
        let spec = ScenarioSpec::from_toml_str(spec_text).map_err(SubmitError::invalid)?;
        let spec = if quick { spec.quicken() } else { spec };
        let built = BuiltScenario::build(spec).map_err(SubmitError::invalid)?;
        let id = built.digest();
        let name = built.spec.name.clone();
        let cells_total = built.spec.n_cells();

        let mut inner = self.inner.lock().expect("job store lock");
        if let Some(job) = inner.jobs.iter_mut().find(|j| j.id == id) {
            match job.state {
                // Live or finished: the existing job already covers the
                // submission.
                JobState::Queued | JobState::Running | JobState::Done => {
                    return Ok((view_of(job), true));
                }
                // Failed/cancelled: a resubmit means "try again" — the
                // checkpoints written so far make the retry cheap.
                JobState::Failed | JobState::Cancelled => {
                    if job.spec_text.is_empty() {
                        // Its first lease took the text; `spec.toml`
                        // holds the one the id was derived from.
                        job.spec_text =
                            std::fs::read_to_string(self.data_dir.join(&id).join("spec.toml"))
                                .map_err(|e| SubmitError::Io(format!("read spec.toml: {e}")))?;
                    }
                    job.state = JobState::Queued;
                    job.error.clear();
                    job.user_cancel = false;
                    job.cancel = Arc::new(AtomicBool::new(false));
                    job.progress = Arc::new(LatestProgress::new());
                    job.enqueued_at = Some(Instant::now());
                    persist_job(&self.data_dir, job).map_err(SubmitError::Io)?;
                    let view = view_of(job);
                    inner.queue.push_back(id);
                    self.ready.notify_all();
                    return Ok((view, false));
                }
            }
        }

        let dir = self.data_dir.join(&id);
        std::fs::create_dir_all(&dir)
            .map_err(|e| SubmitError::Io(format!("create {}: {e}", dir.display())))?;
        write_atomic(&dir.join("spec.toml"), spec_text.as_bytes())
            .map_err(|e| SubmitError::Io(format!("write spec.toml: {e}")))?;
        let record = JobRecord {
            id: id.clone(),
            name,
            quick,
            state: JobState::Queued,
            error: String::new(),
            cells_total,
            cells_run: 0,
            cells_resumed: 0,
            queue_wait_ms: 0,
            spec_text: spec_text.to_string(),
            progress: Arc::new(LatestProgress::new()),
            cancel: Arc::new(AtomicBool::new(false)),
            user_cancel: false,
            enqueued_at: Some(Instant::now()),
        };
        persist_job(&self.data_dir, &record).map_err(SubmitError::Io)?;
        let view = view_of(&record);
        inner.jobs.push(record);
        inner.queue.push_back(id);
        self.ready.notify_all();
        Ok((view, false))
    }

    /// Block until a job is available (or the store closes). The lease
    /// marks the job running and records its queue wait.
    pub fn next_job(&self) -> Option<RunningJob> {
        let mut inner = self.inner.lock().expect("job store lock");
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                let data_dir = self.data_dir.clone();
                let job = inner
                    .jobs
                    .iter_mut()
                    .find(|j| j.id == id)
                    .expect("queued id is tracked");
                job.state = JobState::Running;
                job.queue_wait_ms = job
                    .enqueued_at
                    .map(|t| t.elapsed().as_millis() as u64)
                    .unwrap_or(0);
                let _ = persist_job(&data_dir, job);
                return Some(RunningJob {
                    id: job.id.clone(),
                    spec_text: std::mem::take(&mut job.spec_text),
                    quick: job.quick,
                    queue_wait_ms: job.queue_wait_ms,
                    cancel: Arc::clone(&job.cancel),
                    progress: Arc::clone(&job.progress),
                    dir: data_dir.join(&job.id),
                });
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, std::time::Duration::from_millis(50))
                .expect("job store lock");
            inner = guard;
        }
    }

    /// Record the outcome of a leased job. Shutdown-interrupted jobs
    /// (cancel fired without a user cancel) return to `Queued` so the
    /// next server start resumes them.
    pub fn finish(&self, id: &str, result: Result<ExecOutcome, ExecError>) {
        let mut inner = self.inner.lock().expect("job store lock");
        let data_dir = self.data_dir.clone();
        let Some(job) = inner.jobs.iter_mut().find(|j| j.id == id) else {
            return;
        };
        match result {
            Ok(outcome) => {
                job.state = JobState::Done;
                job.error.clear();
                job.cells_total = outcome.cells_total;
                job.cells_run = outcome.cells_run;
                job.cells_resumed = outcome.cells_resumed;
            }
            Err(ExecError::Cancelled) => {
                job.state = if job.user_cancel {
                    JobState::Cancelled
                } else {
                    JobState::Queued
                };
            }
            Err(ExecError::Failed(msg)) => {
                job.state = JobState::Failed;
                job.error = msg;
            }
        }
        let _ = persist_job(&data_dir, job);
    }

    /// Cancel a job: dequeues it if still queued, fires the cancel
    /// token if running, no-op if already terminal. `None` for an
    /// unknown id.
    pub fn cancel(&self, id: &str) -> Option<JobView> {
        let mut inner = self.inner.lock().expect("job store lock");
        let data_dir = self.data_dir.clone();
        let in_queue = inner.queue.iter().any(|q| q == id);
        if in_queue {
            inner.queue.retain(|q| q != id);
        }
        let job = inner.jobs.iter_mut().find(|j| j.id == id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.user_cancel = true;
                let _ = persist_job(&data_dir, job);
            }
            JobState::Running => {
                job.user_cancel = true;
                job.cancel.store(true, Ordering::SeqCst);
            }
            JobState::Done | JobState::Failed | JobState::Cancelled => {}
        }
        Some(view_of(job))
    }

    /// Snapshot one job.
    pub fn get(&self, id: &str) -> Option<JobView> {
        let inner = self.inner.lock().expect("job store lock");
        inner.jobs.iter().find(|j| j.id == id).map(view_of)
    }

    /// Snapshot every job, in recovery/submit order.
    pub fn list(&self) -> Vec<JobView> {
        let inner = self.inner.lock().expect("job store lock");
        inner.jobs.iter().map(view_of).collect()
    }

    /// Begin shutdown: refuse new submissions, stop leasing queued
    /// jobs, and fire the cancel token of every running job so its
    /// executor flushes checkpoints and returns.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let inner = self.inner.lock().expect("job store lock");
        for job in &inner.jobs {
            if job.state == JobState::Running {
                job.cancel.store(true, Ordering::SeqCst);
            }
        }
        self.ready.notify_all();
    }
}

fn view_of(job: &JobRecord) -> JobView {
    JobView {
        id: job.id.clone(),
        name: job.name.clone(),
        quick: job.quick,
        state: job.state,
        error: job.error.clone(),
        cells_total: job.cells_total,
        cells_run: job.cells_run,
        cells_resumed: job.cells_resumed,
        queue_wait_ms: job.queue_wait_ms,
        progress: job.progress.snapshot(),
    }
}

/// Serialize a job's durable state (runtime-only fields — progress,
/// cancel token, queue instant — are deliberately not persisted).
fn persist_job(data_dir: &Path, job: &JobRecord) -> Result<(), String> {
    let v = Value::Object(vec![
        ("schema_version".into(), Value::UInt(JOB_SCHEMA_VERSION)),
        ("id".into(), Value::Str(job.id.clone())),
        ("name".into(), Value::Str(job.name.clone())),
        ("quick".into(), Value::Bool(job.quick)),
        ("state".into(), Value::Str(job.state.label().into())),
        ("error".into(), Value::Str(job.error.clone())),
        ("cells_total".into(), Value::UInt(job.cells_total as u64)),
        ("cells_run".into(), Value::UInt(job.cells_run as u64)),
        (
            "cells_resumed".into(),
            Value::UInt(job.cells_resumed as u64),
        ),
        ("queue_wait_ms".into(), Value::UInt(job.queue_wait_ms)),
    ]);
    let path = data_dir.join(&job.id).join("job.json");
    let text = serde_json::to_string_pretty(&v).expect("job serializes") + "\n";
    write_atomic(&path, text.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
}

pub use ldcf_obs::write_atomic;

/// Rebuild one job record from its directory. `Ok(None)` skips entries
/// that are not job directories (no `spec.toml`).
fn recover_job(dir: &Path, dirname: &str) -> Result<Option<JobRecord>, String> {
    let spec_path = dir.join("spec.toml");
    if !spec_path.exists() {
        return Ok(None);
    }
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("read spec.toml: {e}"))?;
    let meta =
        std::fs::read_to_string(dir.join("job.json")).map_err(|e| format!("read job.json: {e}"))?;
    let meta: Value = serde_json::from_str(&meta).map_err(|e| format!("parse job.json: {e}"))?;
    if meta.get("schema_version").and_then(Value::as_u64) != Some(JOB_SCHEMA_VERSION) {
        return Err("job.json schema mismatch".into());
    }
    let quick = matches!(meta.get("quick"), Some(Value::Bool(true)));
    let state = meta
        .get("state")
        .and_then(Value::as_str)
        .and_then(JobState::from_label)
        .ok_or("job.json has no valid state")?;

    // Re-derive the digest: a job directory whose spec no longer
    // hashes to its name is corrupt and must not be served under a
    // digest it does not match.
    let spec = ScenarioSpec::from_toml_str(&spec_text).map_err(|e| format!("stale spec: {e}"))?;
    let spec = if quick { spec.quicken() } else { spec };
    let built = BuiltScenario::build(spec).map_err(|e| format!("stale spec: {e}"))?;
    if built.digest() != dirname {
        return Err(format!(
            "spec digest {} does not match directory name",
            built.digest()
        ));
    }

    let mut state = state;
    match state {
        // `done` is only trusted if the artefact is actually there.
        JobState::Done if !dir.join("campaign.json").exists() => state = JobState::Queued,
        // An interrupted run resumes from its checkpoints.
        JobState::Running => state = JobState::Queued,
        _ => {}
    }
    let get_usize = |key: &str| {
        meta.get(key)
            .and_then(Value::as_u64)
            .map(|v| v as usize)
            .unwrap_or(0)
    };
    Ok(Some(JobRecord {
        id: dirname.to_string(),
        name: built.spec.name.clone(),
        quick,
        state,
        error: meta
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        cells_total: built.spec.n_cells(),
        cells_run: get_usize("cells_run"),
        cells_resumed: get_usize("cells_resumed"),
        queue_wait_ms: meta
            .get("queue_wait_ms")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        spec_text,
        progress: Arc::new(LatestProgress::new()),
        cancel: Arc::new(AtomicBool::new(false)),
        user_cancel: false,
        enqueued_at: if state == JobState::Queued {
            Some(Instant::now())
        } else {
            None
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        [scenario]
        name = "store-test"

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
        duties = [0.2, 0.4]
        seeds = [1, 2]
        "#;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldcf-jobstore-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submit_enqueues_and_dedupes() {
        let dir = tmpdir("dedupe");
        let store = JobStore::open(&dir).unwrap();
        let (view, deduped) = store.submit(SPEC, false).unwrap();
        assert!(!deduped);
        assert_eq!(view.state, JobState::Queued);
        assert_eq!(view.cells_total, 4);
        assert_eq!(view.id.len(), 64);

        let (again, deduped) = store.submit(SPEC, false).unwrap();
        assert!(deduped, "identical spec must dedupe");
        assert_eq!(again.id, view.id);
        assert_eq!(store.list().len(), 1);

        // Quick truncation changes the matrix, hence the digest.
        let (quick, deduped) = store.submit(SPEC, true).unwrap();
        assert!(!deduped);
        assert_ne!(quick.id, view.id);
        assert_eq!(quick.cells_total, 2, "2 duties x 2 seeds quickened to 2x1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected_with_location() {
        let dir = tmpdir("invalid");
        let store = JobStore::open(&dir).unwrap();
        match store.submit("broken ~ spec", false) {
            Err(SubmitError::Invalid { msg, line, col }) => {
                assert!(msg.contains("line 1"), "{msg}");
                assert_eq!(line, Some(1));
                assert_eq!(col, Some(1));
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        // Semantic errors have no location but still reject.
        match store.submit("[scenario]\nname = \"x!\"", false) {
            Err(SubmitError::Invalid { line, .. }) => assert_eq!(line, None),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(store.list().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lease_finish_and_cancel_lifecycle() {
        let dir = tmpdir("lifecycle");
        let store = JobStore::open(&dir).unwrap();
        let (view, _) = store.submit(SPEC, false).unwrap();

        let lease = store.next_job().expect("queued job leases");
        assert_eq!(lease.id, view.id);
        assert_eq!(lease.spec_text, SPEC);
        assert_eq!(store.get(&view.id).unwrap().state, JobState::Running);

        // User cancel while running fires the token; the state flips
        // when the executor acknowledges with Cancelled.
        store.cancel(&view.id).unwrap();
        assert!(lease.cancel.load(Ordering::SeqCst));
        store.finish(&view.id, Err(ExecError::Cancelled));
        assert_eq!(store.get(&view.id).unwrap().state, JobState::Cancelled);

        // Resubmitting a cancelled job requeues it.
        let (view, deduped) = store.submit(SPEC, false).unwrap();
        assert!(!deduped);
        assert_eq!(view.state, JobState::Queued);
        let lease = store.next_job().unwrap();
        assert_eq!(lease.spec_text, SPEC, "the retry leases the submitted spec");
        store.finish(
            &lease.id,
            Ok(ExecOutcome {
                cells_total: 4,
                cells_run: 4,
                cells_resumed: 0,
            }),
        );
        let done = store.get(&view.id).unwrap();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.cells_run, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_interrupt_requeues_instead_of_cancelling() {
        let dir = tmpdir("interrupt");
        let store = JobStore::open(&dir).unwrap();
        let (view, _) = store.submit(SPEC, false).unwrap();
        let lease = store.next_job().unwrap();
        store.close();
        assert!(lease.cancel.load(Ordering::SeqCst), "close fires cancel");
        assert!(store.next_job().is_none(), "closed store leases nothing");
        assert!(matches!(
            store.submit(SPEC, true),
            Err(SubmitError::ShuttingDown)
        ));
        store.finish(&view.id, Err(ExecError::Cancelled));
        assert_eq!(
            store.get(&view.id).unwrap().state,
            JobState::Queued,
            "shutdown interruption must persist as queued, not cancelled"
        );

        // A fresh store over the same directory resumes it.
        drop(store);
        let store = JobStore::open(&dir).unwrap();
        let view = store.get(&view.id).unwrap();
        assert_eq!(view.state, JobState::Queued);
        assert!(store.next_job().is_some(), "requeued job leases again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rescan_trusts_done_only_with_artefact() {
        let dir = tmpdir("rescan");
        let store = JobStore::open(&dir).unwrap();
        let (view, _) = store.submit(SPEC, false).unwrap();
        let lease = store.next_job().unwrap();
        std::fs::write(lease.dir.join("campaign.json"), "{}").unwrap();
        store.finish(
            &lease.id,
            Ok(ExecOutcome {
                cells_total: 4,
                cells_run: 4,
                cells_resumed: 0,
            }),
        );
        drop(store);

        // done + artefact present → still done after a restart.
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.get(&view.id).unwrap().state, JobState::Done);
        drop(store);

        // job.json says done but campaign.json vanished → requeue.
        std::fs::remove_file(dir.join(&view.id).join("campaign.json")).unwrap();
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.get(&view.id).unwrap().state, JobState::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
