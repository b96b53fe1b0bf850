//! Flooding packets (paper §III-C).
//!
//! The source sequentially injects `M` packets, indexed `0..M`. Nodes
//! relay them hop by hop under a FCFS policy. Only the sequence number
//! matters to the analysis; payload is opaque.

/// Sequence number of a flooding packet (`p` in the paper, `0..M`).
pub type PacketId = u32;
