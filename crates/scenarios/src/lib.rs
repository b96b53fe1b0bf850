//! # ldcf-scenarios — declarative experiment scenarios
//!
//! A scenario is a TOML file (subset; see [`toml`]) composing four
//! orthogonal models plus a parameter matrix:
//!
//! * **topology** — grid, Manhattan street-grid, random geometric disk,
//!   clustered-forest (GreenOrbs-style), or the committed trace;
//! * **links** — keep generator qualities, uniform PRR, distance decay,
//!   or sampled k-classes (paper §IV-B);
//! * **schedule** — homogeneous period `T` or per-node heterogeneous
//!   periods, active-slot counts scaled by the cell's duty ratio;
//! * **workload** — one flood, multi-source concurrent floods, or
//!   periodic injection (the Corollary 1 pipelining regime);
//! * **matrix** — protocols × duty ratios × seeds, expanded by the
//!   campaign runner in `ldcf-bench` into one job per cell.
//!
//! Everything materialized here is a pure function of the spec
//! ([`build::BuiltScenario`]), and [`build::BuiltScenario::digest`]
//! folds topology, injection plan and all cell schedules into a sha256
//! pinned under `crates/bench/baselines/scenarios.sha256` — the CI
//! golden gate against silent generator drift.

#![warn(missing_docs)]

pub mod build;
pub mod sha256;
pub mod spec;
pub mod toml;

pub use build::BuiltScenario;
pub use sha256::Sha256;
pub use spec::{
    LinkModel, MatrixSpec, ScenarioSpec, ScheduleModel, TopologySpec, Workload, WorkloadKind,
    QUICK_DUTIES, QUICK_SEEDS,
};
pub use toml::error_location;
