//! # ldcf — flooding in low-duty-cycle wireless sensor networks
//!
//! Umbrella crate reproducing *"Understanding the Flooding in
//! Low-Duty-Cycle Wireless Sensor Networks"* (Li, Li, Liu, Tang —
//! ICPP 2011). It re-exports the workspace crates:
//!
//! * [`theory`] (`ldcf-core`) — the paper's analytical contribution:
//!   flooding delay limits, Galton–Watson analysis, Algorithm 1, the
//!   link-loss eigen-analysis and the duty-cycle trade-off advisor.
//! * [`net`] (`ldcf-net`) — network substrate: schedules, links,
//!   topologies, local synchronization and clock drift.
//! * [`trace`] (`ldcf-trace`) — synthetic GreenOrbs-style traces.
//! * [`sim`] (`ldcf-sim`) — the slotted simulator.
//! * [`protocols`] (`ldcf-protocols`) — OPT / DBAO / OF / baselines.
//! * [`analysis`] (`ldcf-analysis`) — series, tables, campaign
//!   statistics, trace replay and flood forensics.
//!
//! ## Quickstart
//!
//! ```
//! use ldcf::prelude::*;
//!
//! // A small lossy grid, duty cycle 10%, 3 packets.
//! let topo = Topology::grid(4, 4, LinkQuality::new(0.8));
//! let cfg = SimConfig {
//!     period: 10,
//!     active_per_period: 1,
//!     n_packets: 3,
//!     coverage: 1.0,
//!     max_slots: 100_000,
//!     seed: 1,
//!     mistiming_prob: 0.0,
//! };
//! let (report, _energy) = Engine::new(topo, cfg, Dbao::new()).run();
//! assert!(report.all_covered());
//! println!("mean flooding delay: {:?}", report.mean_flooding_delay());
//! ```

pub use ldcf_analysis as analysis;
pub use ldcf_core as theory;
pub use ldcf_net as net;
pub use ldcf_protocols as protocols;
pub use ldcf_sim as sim;
pub use ldcf_trace as trace;

/// Convenient glob-import of the most used types.
pub mod prelude {
    pub use ldcf_net::{
        LinkQuality, NeighborTable, NodeId, PacketId, Topology, WorkingSchedule, SOURCE,
    };
    pub use ldcf_protocols::{Dbao, NaiveFlood, OpportunisticFlooding, Opt};
    pub use ldcf_sim::{Engine, FloodingProtocol, SimConfig, SimReport, TxIntent};
    pub use ldcf_trace::{GreenOrbsConfig, TraceFile};
}
