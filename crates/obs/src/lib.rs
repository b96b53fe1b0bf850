//! # ldcf-obs — observability for the LDCF simulator
//!
//! Slot-level structured events, binary and JSONL event sinks, and run
//! manifests. The design goal is **zero cost when disabled**:
//! the simulation engine is generic over a [`SimObserver`] whose
//! associated `const ENABLED: bool` lets every emission site compile
//! away under the default [`NullObserver`] — the hot path pays nothing
//! unless a run explicitly opts into tracing.
//!
//! The pieces:
//!
//! * [`SimEvent`] — one enum covering everything that can happen in a
//!   slot: transmission attempts, deliveries, overhears, failures,
//!   mistimed rendezvous, deferrals, coverage milestones, and per-slot
//!   aggregates.
//! * [`SimObserver`] — the engine-facing trait; observers compose as
//!   tuples (`(a, b)` feeds both).
//! * [`JsonlSink`] / [`JsonlReader`] — one JSON object per event, one
//!   event per line, through the direct codec
//!   [`SimEvent::write_jsonl`] / [`SimEvent::parse_jsonl`]; the export
//!   view of a binary trace. The reader takes only the layout the
//!   writer writes.
//! * [`binlog`] — the binary columnar trace format, the one traced
//!   `experiments` runs write: [`BinSink`] writes CRC-guarded
//!   varint+delta frames with a trailing slot index, [`BinReader`]
//!   streams them back lazily or seeks by slot range.
//! * [`RunManifest`] — provenance (protocols, config, seeds, wall clock,
//!   slots/sec) written next to every generated artefact; runs submitted
//!   through the campaign service additionally record their job id and
//!   queue wait.
//! * [`progress`] — transport-agnostic campaign progress: the heartbeat
//!   pushes per-cell [`CampaignProgress`] snapshots into an optional
//!   [`ProgressSink`] so a job server can poll them in memory.
//! * [`telemetry`] — the simulator profiling *itself*: zero-cost engine
//!   phase timers ([`SimProfiler`]), fixed-memory mergeable
//!   [`StreamingHistogram`]s, and the [`CountingAlloc`] allocation
//!   gate.

#![warn(missing_docs)]

pub mod binlog;
pub mod event;
pub mod fsutil;
mod jsonl;
pub mod manifest;
pub mod observer;
pub mod progress;
pub mod sink;
pub mod telemetry;

pub use binlog::{BinError, BinReader, BinSink};
pub use event::SimEvent;
pub use fsutil::write_atomic;
pub use manifest::RunManifest;
pub use observer::{NullObserver, SimObserver, VecObserver};
pub use progress::{CampaignProgress, LatestProgress, ProgressSink};
pub use sink::{JsonlReader, JsonlSink};
pub use telemetry::{
    CountingAlloc, NullProfiler, Phase, PhaseProfiler, SimProfiler, StreamingHistogram,
};
