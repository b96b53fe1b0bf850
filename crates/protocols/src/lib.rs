//! # ldcf-protocols — flooding protocols for low-duty-cycle WSNs
//!
//! The three schemes compared in the paper's evaluation (§V-A), plus a
//! naive baseline:
//!
//! * [`opt::Opt`] — the **theoretically optimal** scheme with global
//!   (oracle) information: every sensor receives the packet from the
//!   neighbor with the best link quality, and no collisions occur.
//! * [`dbao::Dbao`] — **Deterministic Back-off Assignment +
//!   Overhearing** (the authors' WASA'11 protocol): the practical scheme
//!   with "maximum possible local optimization". Deterministic back-off
//!   ranks serialise mutually-audible contenders, and a single licensed
//!   rank serves each receiver from outside its clique, so under this
//!   MAC no two DBAO senders ever target one receiver in a slot (no
//!   collisions; DESIGN.md, "Why DBAO never collides under this MAC").
//!   Overhearing lets bystanders capture unicasts for free. The gap to
//!   OPT is OPT's oracle choice of the best sender for each receiver.
//! * [`of::OpportunisticFlooding`] — **Opportunistic Flooding** (Guo et
//!   al., MobiCom'09): forwarding along an energy-optimal (min-ETX) tree
//!   plus probabilistic opportunistic forwards on good non-tree links.
//!   A copy counts as "early" while the receiver's tree parent neither
//!   holds it nor has other work for the receiver; that possession test
//!   stands in for the delay distribution along the tree that real OF
//!   computes.
//! * [`naive::NaiveFlood`] — forward-to-every-neighbor baseline, for
//!   ablations.
//!
//! All protocols implement [`ldcf_sim::FloodingProtocol`] and are pure
//! strategy objects: the MAC and radio semantics live in `ldcf-sim`.

#![warn(missing_docs)]

pub mod common;
pub mod dbao;
pub mod naive;
pub mod of;
pub mod opt;
pub mod tree;

pub use dbao::{Dbao, DbaoConfig};
pub use naive::NaiveFlood;
pub use of::{OfConfig, OpportunisticFlooding};
pub use opt::Opt;
pub use tree::EnergyTree;
