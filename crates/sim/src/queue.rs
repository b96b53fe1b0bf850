//! FCFS packet queues (paper §III-C).
//!
//! "A packet may be queued ... waiting for prior packets delivered before
//! its own transmission, i.e. the FCFS policy. ... At each intermediate
//! relay node, packet q follows the FCFS policy as well."
//!
//! Each node's queue records packets in order of local arrival.
//! Protocols serve the *earliest-arrived packet that still has work* —
//! a packet whose every awake neighbor already holds it does not block
//! younger packets behind it (otherwise lossy links would deadlock the
//! flood), matching how the paper's protocols interleave many unicasts.
//!
//! Every node's queue lives in one [`FcfsQueues`]. A node queues each
//! packet at most once, so its queue fits a row of `m` packet ids (`m`
//! the packet count) in one `n × m` slab, and a bitset row of the
//! packets it queues answers membership and "does this queue hold a
//! packet that neighbor misses" with word tests instead of scans. The
//! popcount of that bitset row is the queue's length, so the slab keeps
//! no lengths of its own.

use ldcf_net::{bitset, NodeId, PacketId};

/// The FCFS forwarding queues of every node of a network.
#[derive(Debug)]
pub struct FcfsQueues {
    /// Entries per node row of `slab`: the packet count.
    stride: usize,
    /// Node `u`'s queue, in arrival order, is the first `len(u)` entries
    /// of `slab[u * stride..][..stride]`; the rest of the row is stale.
    slab: Vec<PacketId>,
    /// Words per node row of `queued`.
    words: usize,
    /// Bit `p` of node `u`'s row is set iff `p` is in `u`'s queue.
    queued: Vec<u64>,
    /// Bit `u` is set iff `u`'s queue is non-empty.
    nonempty: Vec<u64>,
    /// Entries over all queues.
    total: u64,
}

impl FcfsQueues {
    /// Empty queues for `n_nodes` nodes and `n_packets` packets: one
    /// allocation per table, after which no operation allocates.
    pub fn new(n_nodes: usize, n_packets: usize) -> Self {
        let words = bitset::words_for(n_packets);
        Self {
            stride: n_packets,
            slab: vec![0; n_nodes * n_packets],
            words,
            queued: vec![0; n_nodes * words],
            nonempty: vec![0; bitset::words_for(n_nodes)],
            total: 0,
        }
    }

    /// `node`'s queue in FCFS (arrival) order.
    #[inline]
    pub fn get(&self, node: NodeId) -> &[PacketId] {
        &self.slab[node.index() * self.stride..][..self.len(node)]
    }

    /// Number of packets `node` queues.
    #[inline]
    pub fn len(&self, node: NodeId) -> usize {
        self.queued_words(node)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Packed row of packets in `node`'s queue, bit `p` set iff it
    /// queues `p`.
    #[inline]
    pub fn queued_words(&self, node: NodeId) -> &[u64] {
        &self.queued[node.index() * self.words..][..self.words]
    }

    /// Whether `packet` is in `node`'s queue.
    #[inline]
    pub fn contains(&self, node: NodeId, packet: PacketId) -> bool {
        bitset::test_bit(self.queued_words(node), packet as usize)
    }

    /// Packed bitset of nodes whose queue is non-empty.
    #[inline]
    pub fn nonempty_words(&self) -> &[u64] {
        &self.nonempty
    }

    /// Packets queued over all nodes.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Append `packet` to `node`'s queue on arrival. Panics if `node`
    /// queues it already.
    pub fn push(&mut self, node: NodeId, packet: PacketId) {
        let len = self.len(node);
        let fresh = bitset::set_bit(
            &mut self.queued[node.index() * self.words..],
            packet as usize,
        );
        assert!(fresh, "packet {packet} queued twice at {node}");
        self.slab[node.index() * self.stride + len] = packet;
        bitset::set_bit(&mut self.nonempty, node.index());
        self.total += 1;
    }

    /// Remove `packet` from `node`'s queue, keeping the order of the
    /// rest (the protocol is done forwarding it). Returns whether it was
    /// queued.
    pub fn remove(&mut self, node: NodeId, packet: PacketId) -> bool {
        if !self.contains(node, packet) {
            return false;
        }
        let len = self.len(node);
        let row = &mut self.slab[node.index() * self.stride..][..len];
        let at = row
            .iter()
            .position(|&p| p == packet)
            .expect("a queued packet is in its row");
        row.copy_within(at + 1.., at);
        bitset::clear_bit(
            &mut self.queued[node.index() * self.words..],
            packet as usize,
        );
        if len == 1 {
            bitset::clear_bit(&mut self.nonempty, node.index());
        }
        self.total -= 1;
        true
    }

    /// Drop `node`'s whole queue (a node crash wipes its RAM).
    pub fn clear(&mut self, node: NodeId) {
        self.total -= self.len(node) as u64;
        self.queued[node.index() * self.words..][..self.words].fill(0);
        bitset::clear_bit(&mut self.nonempty, node.index());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: NodeId = NodeId(1);

    #[test]
    fn preserves_arrival_order() {
        let mut q = FcfsQueues::new(2, 10);
        q.push(U, 5);
        q.push(U, 2);
        q.push(U, 9);
        assert_eq!(q.get(U), &[5, 2, 9]);
        assert!(q.get(NodeId(0)).is_empty());
        assert_eq!(q.total(), 3);
    }

    #[test]
    fn first_with_work_skips_blocked_head() {
        let mut q = FcfsQueues::new(2, 4);
        q.push(U, 1);
        q.push(U, 2);
        q.push(U, 3);
        // Head (1) has no work; FCFS service must skip to 2.
        assert_eq!(q.get(U).iter().find(|&&p| p != 1), Some(&2));
    }

    #[test]
    fn remove_keeps_the_order_of_the_rest() {
        let mut q = FcfsQueues::new(2, 8);
        q.push(U, 7);
        q.push(U, 4);
        assert!(q.remove(U, 7));
        assert!(!q.remove(U, 7));
        assert_eq!(q.get(U), &[4]);
        assert!(q.remove(U, 4));
        assert!(q.get(U).is_empty());
        assert_eq!(q.nonempty_words(), &[0]);
        assert_eq!(q.total(), 0);
    }

    #[test]
    #[should_panic(expected = "queued twice")]
    fn a_packet_is_queued_at_most_once() {
        let mut q = FcfsQueues::new(2, 3);
        q.push(U, 2);
        q.push(U, 2);
    }
}
