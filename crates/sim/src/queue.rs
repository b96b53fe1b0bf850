//! FCFS packet queues (paper §III-C).
//!
//! "A packet may be queued ... waiting for prior packets delivered before
//! its own transmission, i.e. the FCFS policy. ... At each intermediate
//! relay node, packet q follows the FCFS policy as well."
//!
//! A [`FcfsQueue`] records packets in order of local arrival. Protocols
//! serve the *earliest-arrived packet that still has work* — a packet
//! whose every awake neighbor already holds it does not block younger
//! packets behind it (otherwise lossy links would deadlock the flood),
//! matching how the paper's protocols interleave many unicasts.
//!
//! The queue keeps order only. Which packets a node has queued is a
//! bitset row in `SimState` (`queued_words`), kept exact by the engine
//! at every push, removal and crash wipe (each packet is queued at most
//! once per node), so membership and "does this queue hold a packet
//! that neighbor misses" are word tests instead of scans of the
//! entries.

use ldcf_net::PacketId;

/// One queued packet at a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueEntry {
    /// Packet sequence number.
    pub packet: PacketId,
    /// Slot at which this node obtained the packet.
    pub arrived_at: u64,
}

/// A first-come-first-served forwarding queue.
#[derive(Clone, Debug, Default)]
pub struct FcfsQueue {
    entries: Vec<QueueEntry>,
}

impl FcfsQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue with room for `cap` entries. A node can queue each
    /// packet at most once, so reserving the packet count up front makes
    /// every later [`push`](Self::push) allocation-free — the engine
    /// builds queues this way to keep its slot loop off the heap.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Append a packet on arrival (keeps arrival order).
    pub fn push(&mut self, packet: PacketId, arrived_at: u64) {
        self.entries.push(QueueEntry { packet, arrived_at });
    }

    /// Remove a packet (when the protocol decides the node is done
    /// forwarding it, e.g. every neighbor confirmed or it expired).
    pub fn remove(&mut self, packet: PacketId) {
        self.entries.retain(|e| e.packet != packet);
    }

    /// Entries in FCFS (arrival) order.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// The earliest-arrived entry matching `has_work`, i.e. the FCFS
    /// head after skipping packets with nothing to do this slot.
    pub fn first_with_work(
        &self,
        mut has_work: impl FnMut(PacketId) -> bool,
    ) -> Option<QueueEntry> {
        self.entries.iter().copied().find(|e| has_work(e.packet))
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every entry (a node crash wipes its RAM).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_arrival_order() {
        let mut q = FcfsQueue::new();
        q.push(5, 10);
        q.push(2, 11);
        q.push(9, 12);
        let order: Vec<PacketId> = q.iter().map(|e| e.packet).collect();
        assert_eq!(order, vec![5, 2, 9]);
    }

    #[test]
    fn first_with_work_skips_blocked_head() {
        let mut q = FcfsQueue::new();
        q.push(1, 0);
        q.push(2, 1);
        q.push(3, 2);
        // Head (1) has no work; FCFS service must skip to 2.
        let e = q.first_with_work(|p| p != 1).unwrap();
        assert_eq!(e.packet, 2);
    }

    #[test]
    fn remove_keeps_the_order_of_the_rest() {
        let mut q = FcfsQueue::new();
        q.push(7, 0);
        q.push(4, 1);
        q.remove(7);
        assert_eq!(q.iter().map(|e| e.packet).collect::<Vec<_>>(), vec![4]);
        q.remove(4);
        assert!(q.is_empty());
        assert!(q.first_with_work(|_| true).is_none());
    }
}
