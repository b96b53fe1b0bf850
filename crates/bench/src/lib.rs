//! # ldcf-bench — experiment implementations
//!
//! One function per table/figure of the paper; the `experiments` binary
//! dispatches to these and prints the resulting markdown tables. Each
//! function documents the paper artefact it regenerates and the expected
//! shape (EXPERIMENTS.md records paper-vs-measured).

#![warn(missing_docs)]

pub mod campaign;
pub mod experiments;
pub mod heartbeat;
pub mod options;
pub mod resilience;
pub mod runner;
pub mod service_cli;
pub mod trace_cmd;

pub use campaign::{run_campaign_with, CampaignOptions, CampaignOutcome};
pub use experiments::*;
pub use heartbeat::Heartbeat;
pub use options::ExpOptions;
pub use runner::{ProtocolKind, RunOutput, RunRequest, Runner, WorkLedger};
pub use service_cli::BenchExec;
