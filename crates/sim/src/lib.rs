//! # ldcf-sim — slotted simulator for low-duty-cycle WSN flooding
//!
//! A discrete, slotted simulator implementing the paper's system model
//! (§III): slotted time, periodic working schedules, semi-duplex radios,
//! lossy unicasts, FCFS packet queues, and a CSMA MAC with
//! hidden-terminal collisions and optional overhearing.
//!
//! The [`engine::Engine`] advances slot by slot. Each slot it
//!
//! 1. injects due packets at the source,
//! 2. asks the installed [`protocol::FloodingProtocol`] for transmission
//!    intents,
//! 3. resolves them through the MAC model ([`mac`]) — carrier-sense
//!    deferral among mutually audible senders, collisions at receivers
//!    reached by several hidden senders, Bernoulli loss draws per link,
//! 4. delivers successful receptions, updates FCFS queues, energy
//!    ledgers and per-packet coverage statistics ([`stats`]).
//!
//! Protocols (OPT / DBAO / OF, in `ldcf-protocols`) are strategy objects
//! that see the [`engine::SimState`] and return [`mac::TxIntent`]s; the
//! oracle protocol sets `bypass_mac` to model the paper's collision-free
//! OPT scheme.

#![warn(missing_docs)]

pub mod config;
pub mod energy;
pub mod engine;
pub mod mac;
pub mod protocol;
pub mod queue;
pub mod stats;

pub use config::SimConfig;
pub use engine::{Engine, EngineKind, Injection, SimState};
pub use mac::{DeliveryEvent, TxIntent};
pub use protocol::FloodingProtocol;
pub use stats::{PacketStats, SimReport};

// Observability is defined in `ldcf-obs`; re-exported here so callers
// attaching observers to an [`Engine`] need only this crate.
pub use ldcf_obs::{BinSink, JsonlSink, NullObserver, SimEvent, SimObserver, VecObserver};

// Self-profiling (engine phase timers) is likewise defined in
// `ldcf-obs`; re-exported so callers attaching profilers need only
// this crate.
pub use ldcf_obs::{NullProfiler, Phase, PhaseProfiler, SimProfiler, StreamingHistogram};

// Fault injection is defined in `ldcf-faults`; re-exported here so
// callers attaching fault plans to an [`Engine`] need only this crate.
pub use ldcf_faults::{ChurnAction, FaultConfig, FaultInjector, FaultPlan, NullFaultPlan};
