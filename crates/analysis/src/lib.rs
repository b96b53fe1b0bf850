//! # ldcf-analysis — statistics, series and parallel sweeps
//!
//! Support crate for the experiment harness: summary statistics
//! ([`stats`]), labelled numeric series with markdown/CSV rendering
//! ([`series`]), ASCII line charts for terminal output ([`plot`]),
//! rayon-powered parameter sweeps with Monte-Carlo
//! averaging ([`sweep`]) — the figures of §V average over seeds and
//! sweep duty cycles, which is embarrassingly parallel — and replay of
//! slot-level event traces back into delay distributions ([`events`]).
//! Traces arrive through [`source`]: a format-sniffing [`EventSource`]
//! iterator that streams JSONL and binary (`ldcf-obs` binlog) traces
//! identically, so every report below is format-agnostic.
//!
//! Flood forensics lives in [`forensics`]: dissemination-tree
//! reconstruction and per-node delay attribution ([`attribution`])
//! from the same JSONL traces, with hard checks against the paper's
//! theory (exact attribution sums, spanning trees, Corollary 1
//! blocking bounds).

#![warn(missing_docs)]

pub mod attribution;
pub mod campaign;
pub mod events;
pub mod forensics;
pub mod plot;
pub mod series;
pub mod source;
pub mod stats;
pub mod sweep;

pub use attribution::{attribute_hop, Cause, DelayAttribution};
pub use campaign::{
    campaign_table, predicted_fdl, CampaignStats, CellSummary, GroupStats, PairedStats,
};
pub use events::{PacketReplay, ReplayBuilder, ReplayReport};
pub use forensics::{ForensicsError, ForensicsReport, PacketForensics, Via, Violation};
pub use plot::{ascii_chart, PlotOptions};
pub use series::{Series, Table};
pub use source::{EventSource, SourceError};
pub use stats::{sign_test_two_sided, OnlineStats, Summary};
pub use sweep::{monte_carlo_mean, parallel_sweep};
