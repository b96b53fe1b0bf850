//! # ldcf-net — network substrate for low-duty-cycle WSN flooding
//!
//! This crate implements the network model of *"Understanding the Flooding
//! in Low-Duty-Cycle Wireless Sensor Networks"* (ICPP 2011, §III):
//!
//! * **Slotted time** — the time axis is divided into equal-length slots,
//!   each long enough for one packet transmission ([`schedule`]).
//! * **Periodic working schedules** — every sensor repeats a `T`-slot
//!   schedule, active in a small subset of slots (duty ratio `a/T`, low
//!   duty cycle means ≤ 5 %) ([`schedule::WorkingSchedule`]).
//! * **Local synchronization** — a sender knows the working schedules of
//!   its neighbors and can wake itself to transmit into a neighbor's
//!   active slot ([`sync::NeighborTable`]); clock drift and the residual
//!   error of periodic re-synchronisation are modelled in [`clock`].
//! * **Semi-duplex radios** — a node can transmit *or* receive in a slot,
//!   never both. The MAC in `ldcf-sim` enforces this.
//! * **Unreliable links** — each directed link has a packet-reception
//!   ratio (PRR); flooding is achieved through lossy unicasts
//!   ([`link::LinkQuality`]).
//! * **Topologies** — adjacency graphs with per-link quality, plus
//!   generators (line, grid, random-geometric, clustered) and graph
//!   queries (connectivity, hop distance, ETX shortest paths)
//!   ([`topology::Topology`]).
//!
//! The node with [`NodeId`] 0 is always the flooding **source**; nodes
//! `1..=N` are the *nominal sensors* (paper §III-A).

#![warn(missing_docs)]

pub mod bitset;
pub mod clock;
pub mod link;
pub mod node;
pub mod packet;
pub mod schedule;
pub mod sync;
pub mod topology;

pub use clock::{DriftClock, SyncModel};
pub use link::LinkQuality;
pub use node::NodeId;
pub use packet::PacketId;
pub use schedule::WorkingSchedule;
pub use sync::NeighborTable;
pub use topology::Topology;

/// The conventional node id of the flooding source (paper §III-A: "A unique
/// ID numbered from 1 to N is assigned to each sensor and the source node
/// has ID 0").
pub const SOURCE: NodeId = NodeId(0);
