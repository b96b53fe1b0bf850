//! `ldcf-service` — a long-lived campaign job service over the
//! deterministic campaign runner.
//!
//! The crate turns `experiments campaign` from a one-shot CLI into a
//! server: specs are submitted over a hand-rolled HTTP/1.1 API
//! ([`http`]), keyed by their scenario digest and persisted as job
//! directories ([`jobs`]), scheduled onto a bounded pool of campaign
//! workers ([`server`]), and executed through the [`exec::CampaignExec`]
//! seam that `ldcf-bench` implements. Because the runner's per-cell
//! checkpoints are digest-keyed and byte-deterministic, the service
//! gets dedupe (same spec → same job) and crash-resume (restart →
//! rescan → re-lease) without a database or a write-ahead log.
//!
//! Like the rest of the workspace, the crate takes no third-party
//! dependencies: sockets are `std::net`, threads are `std::thread`,
//! signals are a two-line `extern "C"` shim ([`signal`]).

pub mod client;
pub mod exec;
pub mod http;
pub mod jobs;
pub mod server;
pub mod signal;

pub use client::Client;
pub use exec::{CampaignExec, ExecError, ExecOutcome, ExecRequest};
pub use jobs::{JobState, JobStore, JobView, RunningJob, SubmitError, JOB_SCHEMA_VERSION};
pub use server::{start, ServerHandle, ServiceConfig};
pub use signal::{install_handlers, shutdown_requested};
