//! Slot-level structured simulation events.

use ldcf_net::{NodeId, PacketId};

/// Everything observable in one simulated slot.
///
/// Events are emitted in slot order by the engine; within a slot the
/// order is: `Mistimed*`, `TxAttempt*`, `Deferred*`, reception events
/// (`Delivered` / `Overheard` / `LinkLoss` / `Collision` /
/// `ReceiverBusy`, with `CoverageReached` interleaved at the reception
/// that triggered it), then one `SlotEnd`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimEvent {
    /// A committed transmission (survived carrier sense).
    TxAttempt {
        /// Slot of the attempt.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Intended receiver.
        receiver: NodeId,
        /// Packet on the air.
        packet: PacketId,
        /// Oracle transmission (skips carrier sense / collisions).
        bypass_mac: bool,
    },
    /// A dedicated reception succeeded.
    Delivered {
        /// Slot of the reception.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Receiving node.
        receiver: NodeId,
        /// Packet received.
        packet: PacketId,
        /// First copy at this receiver (duplicates cost energy only).
        fresh: bool,
    },
    /// An un-addressed active node captured the packet.
    Overheard {
        /// Slot of the capture.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Overhearing node.
        receiver: NodeId,
        /// Packet captured.
        packet: PacketId,
        /// First copy at this receiver.
        fresh: bool,
    },
    /// A sole transmission was dropped by the link (Bernoulli loss).
    LinkLoss {
        /// Slot of the loss.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Intended receiver.
        receiver: NodeId,
        /// Packet lost.
        packet: PacketId,
    },
    /// Two or more hidden senders interfered at the receiver.
    Collision {
        /// Slot of the collision.
        slot: u64,
        /// One of the colliding senders (one event per sender).
        sender: NodeId,
        /// Receiver that heard garble.
        receiver: NodeId,
        /// Packet this sender was carrying.
        packet: PacketId,
    },
    /// The intended receiver was itself transmitting (semi-duplex).
    ReceiverBusy {
        /// Slot of the failure.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Busy receiver.
        receiver: NodeId,
        /// Packet involved.
        packet: PacketId,
    },
    /// A transmission missed its rendezvous (residual sync error); the
    /// energy is spent but nothing reaches the MAC.
    Mistimed {
        /// Slot of the mistimed attempt.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Receiver the sender believed was awake.
        receiver: NodeId,
        /// Packet involved.
        packet: PacketId,
    },
    /// Carrier sense silenced a would-be sender for this slot.
    Deferred {
        /// Slot of the deferral.
        slot: u64,
        /// The silenced sender.
        sender: NodeId,
        /// Receiver the silenced intent was aimed at.
        receiver: NodeId,
        /// Packet the silenced intent carried.
        packet: PacketId,
    },
    /// A packet reached its coverage target.
    CoverageReached {
        /// Slot coverage was reached.
        slot: u64,
        /// The covered packet.
        packet: PacketId,
        /// Sensors holding the packet at that moment.
        holders: u32,
    },
    /// Per-slot aggregate snapshot, emitted once per simulated slot.
    SlotEnd {
        /// The slot that just finished.
        slot: u64,
        /// Total queued packet entries across all nodes.
        queued: u64,
        /// Nodes whose working schedule had them awake this slot.
        active_nodes: u32,
    },
    /// A sole transmission was dropped while its link sat in the bad
    /// state of an injected Gilbert–Elliott burst. Supplementary to the
    /// `LinkLoss` already emitted for the same drop — trace consumers
    /// count the loss once and use this tag to attribute it to a burst.
    BurstLoss {
        /// Slot of the loss.
        slot: u64,
        /// Transmitting node.
        sender: NodeId,
        /// Intended receiver.
        receiver: NodeId,
        /// Packet lost.
        packet: PacketId,
    },
    /// A node crashed (fault injection): RAM wiped, off the air until
    /// it recovers.
    NodeCrashed {
        /// Slot of the crash.
        slot: u64,
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node rebooted with a fresh random working schedule.
    NodeRecovered {
        /// Slot of the reboot.
        slot: u64,
        /// The recovered node.
        node: NodeId,
    },
    /// The source re-queued a packet that node crashes had orphaned.
    SourceRetry {
        /// Slot of the retry.
        slot: u64,
        /// The re-queued packet.
        packet: PacketId,
    },
    /// One active slot of a node's periodic working schedule, emitted
    /// once per `(node, offset)` at the start of the run (slot 0). The
    /// full set lets trace consumers reconstruct every node's duty
    /// cycle — e.g. to tell sleep-waiting apart from queue blocking.
    ScheduleSlot {
        /// Always 0 (schedules are fixed for the whole run).
        slot: u64,
        /// The node whose schedule this describes.
        node: NodeId,
        /// The schedule period `T` in slots.
        period: u32,
        /// One active offset within `[0, period)`.
        offset: u32,
    },
    /// A packet entered the network at a node other than the default
    /// (source, slot 0) — a secondary flood origin, or a periodic
    /// workload's deferred injection at the source. Emitted before the
    /// slot's transmissions, so consumers learn a packet's origin before
    /// its first `TxAttempt`. Default single-source floods emit none of
    /// these (their traces are unchanged).
    PacketInjected {
        /// Slot of the injection.
        slot: u64,
        /// The origin node the packet was injected at.
        node: NodeId,
        /// The injected packet.
        packet: PacketId,
    },
}

/// The type of one event field after `slot`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FieldType {
    /// A node id or a count that fits 32 bits.
    U32,
    /// A 64-bit count.
    U64,
    /// A flag.
    Bool,
}

/// Most fields after `slot` any kind has.
pub(crate) const MAX_FIELDS: usize = 4;

const SENDER: (&str, FieldType) = ("sender", FieldType::U32);
const RECEIVER: (&str, FieldType) = ("receiver", FieldType::U32);
const PACKET: (&str, FieldType) = ("packet", FieldType::U32);
const NODE: (&str, FieldType) = ("node", FieldType::U32);
const LINK: &[(&str, FieldType)] = &[SENDER, RECEIVER, PACKET];

/// The trace schema, one entry per [`SimEvent`] variant in declaration
/// order (the index is the kind id): its JSONL tag and its fields after
/// `slot`, named by their JSONL keys, in the order both trace formats
/// store them.
pub(crate) const KINDS: [(&str, &[(&str, FieldType)]); 16] = [
    (
        "tx_attempt",
        &[SENDER, RECEIVER, PACKET, ("bypass_mac", FieldType::Bool)],
    ),
    (
        "delivered",
        &[SENDER, RECEIVER, PACKET, ("fresh", FieldType::Bool)],
    ),
    (
        "overheard",
        &[SENDER, RECEIVER, PACKET, ("fresh", FieldType::Bool)],
    ),
    ("link_loss", LINK),
    ("collision", LINK),
    ("receiver_busy", LINK),
    ("mistimed", LINK),
    ("deferred", LINK),
    ("coverage_reached", &[PACKET, ("holders", FieldType::U32)]),
    (
        "slot_end",
        &[("queued", FieldType::U64), ("active_nodes", FieldType::U32)],
    ),
    ("burst_loss", LINK),
    ("node_crashed", &[NODE]),
    ("node_recovered", &[NODE]),
    ("source_retry", &[PACKET]),
    (
        "schedule_slot",
        &[NODE, ("period", FieldType::U32), ("offset", FieldType::U32)],
    ),
    ("packet_injected", &[NODE, PACKET]),
];

impl SimEvent {
    /// The slot this event belongs to.
    pub fn slot(&self) -> u64 {
        match *self {
            SimEvent::TxAttempt { slot, .. }
            | SimEvent::Delivered { slot, .. }
            | SimEvent::Overheard { slot, .. }
            | SimEvent::LinkLoss { slot, .. }
            | SimEvent::Collision { slot, .. }
            | SimEvent::ReceiverBusy { slot, .. }
            | SimEvent::Mistimed { slot, .. }
            | SimEvent::Deferred { slot, .. }
            | SimEvent::CoverageReached { slot, .. }
            | SimEvent::SlotEnd { slot, .. }
            | SimEvent::BurstLoss { slot, .. }
            | SimEvent::NodeCrashed { slot, .. }
            | SimEvent::NodeRecovered { slot, .. }
            | SimEvent::SourceRetry { slot, .. }
            | SimEvent::ScheduleSlot { slot, .. }
            | SimEvent::PacketInjected { slot, .. } => slot,
        }
    }

    /// The JSONL type tag for this event.
    pub fn kind(&self) -> &'static str {
        KINDS[self.kind_id()].0
    }

    /// This event's kind id: its variant's index in [`KINDS`].
    pub(crate) fn kind_id(&self) -> usize {
        match self {
            SimEvent::TxAttempt { .. } => 0,
            SimEvent::Delivered { .. } => 1,
            SimEvent::Overheard { .. } => 2,
            SimEvent::LinkLoss { .. } => 3,
            SimEvent::Collision { .. } => 4,
            SimEvent::ReceiverBusy { .. } => 5,
            SimEvent::Mistimed { .. } => 6,
            SimEvent::Deferred { .. } => 7,
            SimEvent::CoverageReached { .. } => 8,
            SimEvent::SlotEnd { .. } => 9,
            SimEvent::BurstLoss { .. } => 10,
            SimEvent::NodeCrashed { .. } => 11,
            SimEvent::NodeRecovered { .. } => 12,
            SimEvent::SourceRetry { .. } => 13,
            SimEvent::ScheduleSlot { .. } => 14,
            SimEvent::PacketInjected { .. } => 15,
        }
    }

    /// This event's fields after `slot` as `u64`s (bools as 0/1), in
    /// the order [`KINDS`] lists them; the entries past the kind's
    /// field count are 0.
    pub(crate) fn fields(&self) -> [u64; MAX_FIELDS] {
        let id = |n: NodeId| u64::from(n.0);
        match *self {
            SimEvent::TxAttempt {
                sender,
                receiver,
                packet,
                bypass_mac: flag,
                ..
            }
            | SimEvent::Delivered {
                sender,
                receiver,
                packet,
                fresh: flag,
                ..
            }
            | SimEvent::Overheard {
                sender,
                receiver,
                packet,
                fresh: flag,
                ..
            } => [id(sender), id(receiver), packet.into(), flag.into()],
            SimEvent::LinkLoss {
                sender,
                receiver,
                packet,
                ..
            }
            | SimEvent::Collision {
                sender,
                receiver,
                packet,
                ..
            }
            | SimEvent::ReceiverBusy {
                sender,
                receiver,
                packet,
                ..
            }
            | SimEvent::Mistimed {
                sender,
                receiver,
                packet,
                ..
            }
            | SimEvent::Deferred {
                sender,
                receiver,
                packet,
                ..
            }
            | SimEvent::BurstLoss {
                sender,
                receiver,
                packet,
                ..
            } => [id(sender), id(receiver), packet.into(), 0],
            SimEvent::CoverageReached {
                packet, holders, ..
            } => [packet.into(), holders.into(), 0, 0],
            SimEvent::SlotEnd {
                queued,
                active_nodes,
                ..
            } => [queued, active_nodes.into(), 0, 0],
            SimEvent::NodeCrashed { node, .. } | SimEvent::NodeRecovered { node, .. } => {
                [id(node), 0, 0, 0]
            }
            SimEvent::SourceRetry { packet, .. } => [packet.into(), 0, 0, 0],
            SimEvent::ScheduleSlot {
                node,
                period,
                offset,
                ..
            } => [id(node), period.into(), offset.into(), 0],
            SimEvent::PacketInjected { node, packet, .. } => [id(node), packet.into(), 0, 0],
        }
    }

    /// Rebuild an event from its kind id (`< KINDS.len()`), slot and
    /// fields as [`SimEvent::fields`] lays them out; a bool is any
    /// non-zero value. `Err(i)` if field `i` is a `u32` field holding
    /// more than `u32::MAX`.
    pub(crate) fn from_fields(
        kind: usize,
        slot: u64,
        f: &[u64; MAX_FIELDS],
    ) -> Result<Self, usize> {
        let (_, spec) = KINDS[kind];
        if let Some(i) =
            (0..spec.len()).find(|&i| spec[i].1 == FieldType::U32 && f[i] > u64::from(u32::MAX))
        {
            return Err(i);
        }
        let (a, b, c) = (f[0] as u32, f[1] as u32, f[2] as u32);
        Ok(match kind {
            0 => SimEvent::TxAttempt {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
                bypass_mac: f[3] != 0,
            },
            1 => SimEvent::Delivered {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
                fresh: f[3] != 0,
            },
            2 => SimEvent::Overheard {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
                fresh: f[3] != 0,
            },
            3 => SimEvent::LinkLoss {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            4 => SimEvent::Collision {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            5 => SimEvent::ReceiverBusy {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            6 => SimEvent::Mistimed {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            7 => SimEvent::Deferred {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            8 => SimEvent::CoverageReached {
                slot,
                packet: a,
                holders: b,
            },
            9 => SimEvent::SlotEnd {
                slot,
                queued: f[0],
                active_nodes: b,
            },
            10 => SimEvent::BurstLoss {
                slot,
                sender: NodeId(a),
                receiver: NodeId(b),
                packet: c,
            },
            11 => SimEvent::NodeCrashed {
                slot,
                node: NodeId(a),
            },
            12 => SimEvent::NodeRecovered {
                slot,
                node: NodeId(a),
            },
            13 => SimEvent::SourceRetry { slot, packet: a },
            14 => SimEvent::ScheduleSlot {
                slot,
                node: NodeId(a),
                period: b,
                offset: c,
            },
            _ => SimEvent::PacketInjected {
                slot,
                node: NodeId(a),
                packet: b,
            },
        })
    }

    /// The packet this event concerns, if it concerns one (per-slot
    /// aggregates, schedules, and crash/recovery events carry none).
    pub fn packet_id(&self) -> Option<PacketId> {
        match *self {
            SimEvent::TxAttempt { packet, .. }
            | SimEvent::Delivered { packet, .. }
            | SimEvent::Overheard { packet, .. }
            | SimEvent::LinkLoss { packet, .. }
            | SimEvent::Collision { packet, .. }
            | SimEvent::ReceiverBusy { packet, .. }
            | SimEvent::Mistimed { packet, .. }
            | SimEvent::Deferred { packet, .. }
            | SimEvent::CoverageReached { packet, .. }
            | SimEvent::BurstLoss { packet, .. }
            | SimEvent::SourceRetry { packet, .. }
            | SimEvent::PacketInjected { packet, .. } => Some(packet),
            SimEvent::SlotEnd { .. }
            | SimEvent::NodeCrashed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::ScheduleSlot { .. } => None,
        }
    }

    /// Whether `node` participates in this event as sender, receiver,
    /// or subject (coverage milestones and slot aggregates involve no
    /// particular node and return `false`).
    pub fn involves(&self, node: NodeId) -> bool {
        match *self {
            SimEvent::TxAttempt {
                sender, receiver, ..
            }
            | SimEvent::Delivered {
                sender, receiver, ..
            }
            | SimEvent::Overheard {
                sender, receiver, ..
            }
            | SimEvent::LinkLoss {
                sender, receiver, ..
            }
            | SimEvent::Collision {
                sender, receiver, ..
            }
            | SimEvent::ReceiverBusy {
                sender, receiver, ..
            }
            | SimEvent::Mistimed {
                sender, receiver, ..
            }
            | SimEvent::Deferred {
                sender, receiver, ..
            }
            | SimEvent::BurstLoss {
                sender, receiver, ..
            } => sender == node || receiver == node,
            SimEvent::NodeCrashed { node: n, .. }
            | SimEvent::NodeRecovered { node: n, .. }
            | SimEvent::ScheduleSlot { node: n, .. }
            | SimEvent::PacketInjected { node: n, .. } => n == node,
            SimEvent::CoverageReached { .. }
            | SimEvent::SlotEnd { .. }
            | SimEvent::SourceRetry { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: SimEvent) {
        let (kind, f) = (ev.kind_id(), ev.fields());
        assert!(f[KINDS[kind].1.len()..].iter().all(|&v| v == 0), "{ev:?}");
        assert_eq!(SimEvent::from_fields(kind, ev.slot(), &f), Ok(ev));
        let mut line = Vec::new();
        ev.write_jsonl(&mut line);
        let back = SimEvent::parse_jsonl(&line).unwrap();
        assert_eq!(
            back,
            ev,
            "JSONL roundtrip for {}",
            String::from_utf8_lossy(&line)
        );
    }

    #[test]
    fn all_variants_roundtrip() {
        let s = NodeId(3);
        let r = NodeId(7);
        roundtrip(SimEvent::TxAttempt {
            slot: 10,
            sender: s,
            receiver: r,
            packet: 2,
            bypass_mac: true,
        });
        roundtrip(SimEvent::Delivered {
            slot: 10,
            sender: s,
            receiver: r,
            packet: 2,
            fresh: true,
        });
        roundtrip(SimEvent::Overheard {
            slot: 11,
            sender: s,
            receiver: r,
            packet: 0,
            fresh: false,
        });
        roundtrip(SimEvent::LinkLoss {
            slot: 12,
            sender: s,
            receiver: r,
            packet: 1,
        });
        roundtrip(SimEvent::Collision {
            slot: 13,
            sender: s,
            receiver: r,
            packet: 1,
        });
        roundtrip(SimEvent::ReceiverBusy {
            slot: 14,
            sender: s,
            receiver: r,
            packet: 1,
        });
        roundtrip(SimEvent::Mistimed {
            slot: 15,
            sender: s,
            receiver: r,
            packet: 3,
        });
        roundtrip(SimEvent::Deferred {
            slot: 16,
            sender: s,
            receiver: r,
            packet: 2,
        });
        roundtrip(SimEvent::CoverageReached {
            slot: 17,
            packet: 3,
            holders: 99,
        });
        roundtrip(SimEvent::SlotEnd {
            slot: 18,
            queued: 42,
            active_nodes: 5,
        });
        roundtrip(SimEvent::BurstLoss {
            slot: 19,
            sender: s,
            receiver: r,
            packet: 1,
        });
        roundtrip(SimEvent::NodeCrashed { slot: 20, node: r });
        roundtrip(SimEvent::NodeRecovered { slot: 21, node: r });
        roundtrip(SimEvent::SourceRetry {
            slot: 22,
            packet: 0,
        });
        roundtrip(SimEvent::ScheduleSlot {
            slot: 0,
            node: s,
            period: 100,
            offset: 37,
        });
        roundtrip(SimEvent::PacketInjected {
            slot: 23,
            node: s,
            packet: 4,
        });
    }

    #[test]
    fn kind_tags_are_stable() {
        let ev = SimEvent::Deferred {
            slot: 0,
            sender: NodeId(0),
            receiver: NodeId(1),
            packet: 0,
        };
        assert_eq!(ev.kind(), "deferred");
        assert_eq!(ev.slot(), 0);
        let mut line = Vec::new();
        ev.write_jsonl(&mut line);
        let json = String::from_utf8(line).unwrap();
        assert!(json.contains("\"t\":\"deferred\""), "{json}");
    }
}
