//! Energy-optimal dissemination tree (substrate for Opportunistic
//! Flooding).
//!
//! OF "makes the probabilistic forwarding decision at each sender based
//! on the delay distribution along an optimal energy tree" (§II, §V-A).
//! The optimal energy tree minimises total expected transmissions, i.e.
//! it is the shortest-path tree under ETX (= 1/PRR) edge costs rooted at
//! the source.

use ldcf_net::{NodeId, Topology, SOURCE};

/// A rooted min-ETX tree over a topology.
#[derive(Clone, Debug)]
pub struct EnergyTree {
    /// `parent[i]` — tree parent of node `i` (`None` for the root and
    /// unreachable nodes).
    parent: Vec<Option<NodeId>>,
    /// Tree children of node `i`, ascending:
    /// `children[child_offsets[i]..child_offsets[i + 1]]` — one flat
    /// array instead of a `Vec` per node.
    child_offsets: Vec<u32>,
    /// Every node's children, concatenated (see `child_offsets`).
    children: Vec<NodeId>,
    /// `cost[i]` — ETX distance from the root.
    cost: Vec<f64>,
}

impl EnergyTree {
    /// Build the min-ETX tree rooted at the source.
    pub fn build(topo: &Topology) -> Self {
        Self::build_rooted(topo, SOURCE)
    }

    /// Build the min-ETX tree rooted at an arbitrary node.
    pub fn build_rooted(topo: &Topology, root: NodeId) -> Self {
        let (cost, parent) = topo.etx_tree(root);
        // Count each node's children, take prefix sums, then place the
        // children in ascending id order.
        let mut child_offsets = vec![0u32; topo.n_nodes() + 1];
        for p in parent.iter().flatten() {
            child_offsets[p.index() + 1] += 1;
        }
        for i in 1..child_offsets.len() {
            child_offsets[i] += child_offsets[i - 1];
        }
        let mut fill = child_offsets.clone();
        let mut children = vec![NodeId(0); parent.iter().flatten().count()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[fill[p.index()] as usize] = NodeId::from(i);
                fill[p.index()] += 1;
            }
        }
        Self {
            parent,
            child_offsets,
            children,
            cost,
        }
    }

    /// Tree parent of `node`.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Tree children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// ETX cost from the root to `node` (`inf` if unreachable).
    pub fn cost(&self, node: NodeId) -> f64 {
        self.cost[node.index()]
    }

    /// Whether `child` is a tree child of `parent`.
    pub fn is_child(&self, parent: NodeId, child: NodeId) -> bool {
        self.parent[child.index()] == Some(parent)
    }

    /// Tree depth (max number of hops root → leaf).
    pub fn depth(&self) -> u32 {
        let mut best = 0;
        for i in 0..self.parent.len() {
            let mut d = 0;
            let mut cur = NodeId::from(i);
            while let Some(p) = self.parent[cur.index()] {
                d += 1;
                cur = p;
            }
            best = best.max(d);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldcf_net::LinkQuality;

    #[test]
    fn tree_over_line_is_the_line() {
        let topo = Topology::line(4, LinkQuality::new(0.5));
        let tree = EnergyTree::build(&topo);
        assert_eq!(tree.parent(NodeId(0)), None);
        assert_eq!(tree.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.children(NodeId(0)), &[NodeId(1)]);
        assert!(tree.is_child(NodeId(2), NodeId(3)));
        assert!(!tree.is_child(NodeId(0), NodeId(3)));
        assert_eq!(tree.depth(), 3);
        // ETX cost: 2.0 per hop.
        assert!((tree.cost(NodeId(3)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn tree_avoids_bad_shortcuts() {
        // Triangle with a bad direct edge: tree should route through the
        // good relay.
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::new(0.9),
            LinkQuality::new(0.9),
        );
        topo.add_edge(
            NodeId(1),
            NodeId(2),
            LinkQuality::new(0.9),
            LinkQuality::new(0.9),
        );
        topo.add_edge(
            NodeId(0),
            NodeId(2),
            LinkQuality::new(0.3),
            LinkQuality::new(0.3),
        );
        let tree = EnergyTree::build(&topo);
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn unreachable_nodes_have_no_parent() {
        let mut topo = Topology::empty(3);
        topo.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::PERFECT,
            LinkQuality::PERFECT,
        );
        let tree = EnergyTree::build(&topo);
        assert_eq!(tree.parent(NodeId(2)), None);
        assert!(tree.cost(NodeId(2)).is_infinite());
    }
}
