//! # ldcf-analysis — statistics, series, campaign folds and trace replay
//!
//! Support crate for the experiment harness: streaming statistics,
//! confidence intervals and the paired sign test ([`stats`]), the
//! campaign fold over them ([`campaign`]), labelled numeric series with
//! markdown rendering ([`series`]), ASCII line charts for terminal
//! output ([`plot`]), and replay of slot-level event traces back into
//! delay distributions ([`events`]).
//! Traces arrive through [`source`]: a format-sniffing [`EventSource`]
//! iterator that streams JSONL and binary (`ldcf-obs` binlog) traces
//! identically, so every report below is format-agnostic.
//!
//! Flood forensics lives in [`forensics`]: dissemination-tree
//! reconstruction and per-node delay attribution ([`attribution`])
//! from the same traces, with hard checks against the paper's
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

pub use attribution::{attribute_hop, Cause, DelayAttribution};
pub use campaign::{predicted_fdl, CampaignStats, CellSummary, GroupStats, PairedStats};
pub use events::{PacketReplay, ReplayBuilder, ReplayReport};
pub use forensics::{ForensicsError, ForensicsReport, PacketForensics, Via, Violation};
pub use plot::{ascii_chart, PlotOptions};
pub use series::{Series, Table};
pub use source::{EventSource, SourceError};
pub use stats::{sign_test_two_sided, OnlineStats};
