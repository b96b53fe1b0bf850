//! Network topology: adjacency with per-link quality, generators, and
//! graph queries.
//!
//! The paper's evaluation (§V) runs over a 298-node topology with link
//! qualities derived from long-term RSSI measurements. This module holds
//! the graph representation and generic builders; the GreenOrbs-style
//! trace generator lives in `ldcf-trace`.

use crate::bitset;
use crate::link::{Link, LinkQuality};
use crate::node::{NodeId, Position};
use serde::{Deserialize, Serialize, Value};
use std::collections::BinaryHeap;

/// One undirected edge: its endpoints and the quality of each
/// direction, `a → b` then `b → a`.
pub type Edge = (NodeId, NodeId, LinkQuality, LinkQuality);

/// An undirected-connectivity, directed-quality network graph.
///
/// Qualities are directional (`quality(a→b)` may differ from
/// `quality(b→a)`), but an edge is present in both directions whenever it
/// is present in one — real deployments have asymmetric PRR but symmetric
/// audibility at the carrier-sense level, which the MAC model relies on.
///
/// Adjacency is one compressed-sparse-row table in struct-of-arrays
/// form. Node `u`'s row is the index range `offsets[u]..offsets[u + 1]`
/// into three parallel arrays:
///
/// * `targets` — neighbor ids, ascending, so walks visit neighbors in id
///   order and [`Topology::quality`] is a binary search in one
///   contiguous row. A walk over ids alone ([`Topology::neighbor_ids`])
///   reads 4 B per neighbor.
/// * `q_out` — the quality of `u → target`.
/// * `q_in` — the quality of `target → u`: the reverse edge's quality
///   carried inline, so a receiver reads every incoming link quality
///   ([`Topology::in_neighbors`]) without a search into its senders'
///   rows.
///
/// Every constructor builds the table in one pass: count degrees, take
/// prefix sums, fill (see [`Topology::from_edges`]). The table is meant
/// to be frozen once built: [`Topology::set_quality`] rewrites an
/// existing edge in place, while [`Topology::add_edge`] on a new pair
/// shifts the arrays (`O(E)`), which only small hand-built graphs do.
///
/// The table is the only adjacency: [`Topology::are_neighbors`] is a
/// binary search of one sorted row, and word-wise readers (carrier
/// sense, skip targets) walk [`Topology::neighbor_ids`] and test bits of
/// their own packed node rows, which are [`Topology::words_per_row`]
/// words long.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Row bounds: node `u`'s entries are `offsets[u]..offsets[u + 1]`.
    offsets: Vec<u32>,
    /// Neighbor ids, each row sorted ascending.
    targets: Vec<NodeId>,
    /// `q_out[k]` = quality of `u → targets[k]` for `k` in `u`'s row.
    q_out: Vec<LinkQuality>,
    /// `q_in[k]` = quality of `targets[k] → u` for `k` in `u`'s row.
    q_in: Vec<LinkQuality>,
    /// Optional node positions (used by geometric generators / traces).
    positions: Option<Vec<Position>>,
}

impl Topology {
    /// An edgeless topology over `n_nodes` nodes (source + sensors).
    pub fn empty(n_nodes: usize) -> Self {
        Self::from_sorted_edges(n_nodes, &[])
    }

    /// Build from undirected edges, each with its two directed
    /// qualities. A pair listed more than once keeps its first listing;
    /// endpoints may come in either order.
    pub fn from_edges(n_nodes: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut edges: Vec<Edge> = edges
            .into_iter()
            .map(|(a, b, q_ab, q_ba)| {
                assert_ne!(a, b, "self-links are not allowed");
                if a < b {
                    (a, b, q_ab, q_ba)
                } else {
                    (b, a, q_ba, q_ab)
                }
            })
            .collect();
        // Generators emit pairs in ascending order already; only other
        // inputs pay for the (stable, so first-listing-wins) sort.
        if !edges.is_sorted_by(|x, y| (x.0, x.1) < (y.0, y.1)) {
            edges.sort_by_key(|e| (e.0, e.1));
            edges.dedup_by_key(|e| (e.0, e.1));
        }
        Self::from_sorted_edges(n_nodes, &edges)
    }

    /// The one-pass CSR build from edges with `a < b`, strictly
    /// ascending in `(a, b)`. Row `u` receives its lower neighbors from
    /// the pairs `(a, u)` and then its higher ones from `(u, b)`, both
    /// ascending, so rows come out sorted with no per-row sort.
    fn from_sorted_edges(n_nodes: usize, edges: &[Edge]) -> Self {
        assert!(n_nodes >= 1, "topology needs at least the source node");
        let n_entries = 2 * edges.len();
        assert!(
            u32::try_from(n_entries).is_ok(),
            "more directed links than a u32 row offset can address"
        );
        // Count degrees, then inclusive prefix sums: `offsets[u]` ends
        // u's row. Filling back to front moves each `offsets[u]` down to
        // the start of u's row.
        let mut offsets = vec![0u32; n_nodes + 1];
        for &(a, b, _, _) in edges {
            assert!(b.index() < n_nodes, "edge endpoint {b} out of range");
            offsets[a.index()] += 1;
            offsets[b.index()] += 1;
        }
        let mut end = 0;
        for o in &mut offsets[..n_nodes] {
            end += *o;
            *o = end;
        }
        offsets[n_nodes] = end;
        let mut targets = vec![NodeId(0); n_entries];
        let mut q_out = vec![LinkQuality::PERFECT; n_entries];
        let mut q_in = vec![LinkQuality::PERFECT; n_entries];
        for &(a, b, q_ab, q_ba) in edges.iter().rev() {
            for (u, v, out, inn) in [(a, b, q_ab, q_ba), (b, a, q_ba, q_ab)] {
                offsets[u.index()] -= 1;
                let k = offsets[u.index()] as usize;
                targets[k] = v;
                q_out[k] = out;
                q_in[k] = inn;
            }
        }
        Self::from_csr(offsets, targets, q_out, q_in)
    }

    /// Wrap filled CSR arrays.
    fn from_csr(
        offsets: Vec<u32>,
        targets: Vec<NodeId>,
        q_out: Vec<LinkQuality>,
        q_in: Vec<LinkQuality>,
    ) -> Self {
        Self {
            offsets,
            targets,
            q_out,
            q_in,
            positions: None,
        }
    }

    /// Build from a list of directed links; missing reverse directions are
    /// added with the same quality (symmetric default). The first link
    /// naming a pair sets both of its directions.
    pub fn from_links(n_nodes: usize, links: impl IntoIterator<Item = Link>) -> Self {
        Self::from_edges(
            n_nodes,
            links
                .into_iter()
                .map(|l| (l.from, l.to, l.quality, l.quality)),
        )
    }

    /// Attach node positions (same length as node count).
    pub fn with_positions(mut self, positions: Vec<Position>) -> Self {
        assert_eq!(positions.len(), self.n_nodes());
        self.positions = Some(positions);
        self
    }

    /// Total number of nodes including the source.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of nominal sensors `N` (all nodes except the source).
    #[inline]
    pub fn n_sensors(&self) -> usize {
        self.n_nodes() - 1
    }

    /// Node positions, if the topology is geometric.
    pub fn positions(&self) -> Option<&[Position]> {
        self.positions.as_deref()
    }

    /// Index range of `node`'s row in the parallel arrays.
    #[inline]
    fn row(&self, node: NodeId) -> std::ops::Range<usize> {
        self.offsets[node.index()] as usize..self.offsets[node.index() + 1] as usize
    }

    /// Index of the entry `from → to`, if the link exists.
    #[inline]
    fn entry(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let row = self.row(from);
        self.targets[row.clone()]
            .binary_search(&to)
            .ok()
            .map(|i| row.start + i)
    }

    /// Set the directed quality `from → to` of an existing link, in
    /// place. Panics if the link is absent: new links come from
    /// [`Topology::add_edge`], which adds both directions.
    pub fn set_quality(&mut self, from: NodeId, to: NodeId, q: LinkQuality) {
        assert_ne!(from, to, "self-links are not allowed");
        let (Some(k), Some(rev)) = (self.entry(from, to), self.entry(to, from)) else {
            panic!("no link {from} → {to}: add it with add_edge");
        };
        self.q_out[k] = q;
        self.q_in[rev] = q;
    }

    /// Add an edge in both directions with the given per-direction
    /// qualities, overwriting existing entries. A new pair shifts the
    /// arrays (`O(E)`), which renumbers every link behind it (see
    /// [`Topology::link_index`]): build large graphs with
    /// [`Topology::from_edges`].
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, q_ab: LinkQuality, q_ba: LinkQuality) {
        assert_ne!(a, b, "self-links are not allowed");
        if self.entry(a, b).is_none() {
            self.insert_entry(a, b);
            self.insert_entry(b, a);
        }
        self.set_quality(a, b, q_ab);
        self.set_quality(b, a, q_ba);
    }

    /// Insert `to` into `from`'s row at its sorted position, qualities
    /// left for the caller to set.
    fn insert_entry(&mut self, from: NodeId, to: NodeId) {
        let row = self.row(from);
        let k = row.start + self.targets[row].partition_point(|&v| v < to);
        self.targets.insert(k, to);
        self.q_out.insert(k, LinkQuality::PERFECT);
        self.q_in.insert(k, LinkQuality::PERFECT);
        for o in &mut self.offsets[from.index() + 1..] {
            *o += 1;
        }
    }

    /// Number of directed links: `2 × n_edges`, one per row entry.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.targets.len()
    }

    /// Index of the directed link `from → to` in `0..n_links()`, if
    /// the link exists: `to`'s position in `from`'s row, counted from
    /// the start of the table. Links are numbered by sender, then by
    /// receiver id, so a node's outgoing links are one contiguous
    /// range and per-link state can live in a flat `Vec` indexed by
    /// link. [`Topology::add_edge`] on a new pair renumbers the links
    /// behind the insertion point; per-link state is therefore sized
    /// and filled only once the topology is built.
    #[inline]
    pub fn link_index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        self.entry(from, to)
    }

    /// Outgoing links of `node` in row order (ascending neighbor id):
    /// `(link, neighbor, quality of node → neighbor)`, with `link` as
    /// in [`Topology::link_index`].
    #[inline]
    pub fn out_links(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (usize, NodeId, LinkQuality)> + Clone + '_ {
        let row = self.row(node);
        self.targets[row.clone()]
            .iter()
            .zip(&self.q_out[row.clone()])
            .zip(row)
            .map(|((&v, &q), k)| (k, v, q))
    }

    /// Directed link quality `from → to`, if the link exists.
    pub fn quality(&self, from: NodeId, to: NodeId) -> Option<LinkQuality> {
        self.entry(from, to).map(|k| self.q_out[k])
    }

    /// Whether `a` and `b` are neighbors (audible to each other).
    #[inline]
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbor_ids(a).binary_search(&b).is_ok()
    }

    /// Neighbor ids of `node`, ascending.
    #[inline]
    pub fn neighbor_ids(&self, node: NodeId) -> &[NodeId] {
        &self.targets[self.row(node)]
    }

    /// Neighbors of `node` with the quality of each outgoing link
    /// `node → v`, ascending by id.
    #[inline]
    pub fn neighbors(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, LinkQuality)> + Clone + '_ {
        let row = self.row(node);
        self.targets[row.clone()]
            .iter()
            .copied()
            .zip(self.q_out[row].iter().copied())
    }

    /// Neighbors of `node` with the quality of each incoming link
    /// `v → node`, ascending by id — read inline from `node`'s own row.
    #[inline]
    pub fn in_neighbors(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = (NodeId, LinkQuality)> + Clone + '_ {
        let row = self.row(node);
        self.targets[row.clone()]
            .iter()
            .copied()
            .zip(self.q_in[row].iter().copied())
    }

    /// Words in a packed row over node ids
    /// ([`crate::bitset::words_for`]`(n_nodes)`), the stride of every
    /// per-node bitset the simulator keeps (awake, crashed, holders).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        bitset::words_for(self.n_nodes())
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.row(node).len()
    }

    /// Total number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Mean PRR over all directed links; `None` for an edgeless graph.
    pub fn mean_link_quality(&self) -> Option<f64> {
        let sum = self.q_out.iter().fold(0.0, |sum, q| sum + q.prr());
        (!self.q_out.is_empty()).then(|| sum / self.q_out.len() as f64)
    }

    /// Iterate over all directed links, by source id then target id.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.n_nodes()).flat_map(move |i| {
            let from = NodeId::from(i);
            self.neighbors(from)
                .map(move |(to, quality)| Link { from, to, quality })
        })
    }

    /// BFS hop distances from `root`; unreachable nodes get `u32::MAX`.
    pub fn hop_distances(&self, root: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.n_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[root.index()] = 0;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            for &v in self.neighbor_ids(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = d + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node is reachable from the source.
    pub fn is_connected(&self) -> bool {
        self.hop_distances(crate::SOURCE)
            .iter()
            .all(|&d| d != u32::MAX)
    }

    /// Hop eccentricity of the source: max hop distance to any reachable
    /// node. This approximates the network "depth" a flood traverses.
    pub fn source_eccentricity(&self) -> u32 {
        self.hop_distances(crate::SOURCE)
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// ETX shortest-path distances from `root` (Dijkstra over `1/PRR`
    /// edge costs). Returns `(costs, parents)`; unreachable nodes get
    /// `f64::INFINITY` and no parent. This is the "optimal energy tree"
    /// substrate used by Opportunistic Flooding (§II, §V-A).
    pub fn etx_tree(&self, root: NodeId) -> (Vec<f64>, Vec<Option<NodeId>>) {
        let n = self.n_nodes();
        let mut cost = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        cost[root.index()] = 0.0;
        heap.push(DijkstraEntry {
            cost: 0.0,
            node: root,
        });
        while let Some(DijkstraEntry { cost: c, node: u }) = heap.pop() {
            if c > cost[u.index()] {
                continue; // stale entry
            }
            for (v, q) in self.neighbors(u) {
                let nc = c + q.etx();
                if nc < cost[v.index()] {
                    cost[v.index()] = nc;
                    parent[v.index()] = Some(u);
                    heap.push(DijkstraEntry { cost: nc, node: v });
                }
            }
        }
        (cost, parent)
    }

    // ----- generators --------------------------------------------------

    /// A line (path) topology `0 - 1 - ... - n-1` with uniform quality.
    pub fn line(n_nodes: usize, quality: LinkQuality) -> Self {
        Self::from_edges(
            n_nodes,
            (1..n_nodes).map(|i| (NodeId::from(i - 1), NodeId::from(i), quality, quality)),
        )
    }

    /// A `rows × cols` grid with the source at cell (0,0) and uniform
    /// quality; 4-neighborhood.
    pub fn grid(rows: usize, cols: usize, quality: LinkQuality) -> Self {
        assert!(rows >= 1 && cols >= 1);
        let id = |r: usize, c: usize| NodeId::from(r * cols + c);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1), quality, quality));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c), quality, quality));
                }
            }
        }
        let topo = Self::from_edges(rows * cols, edges);
        let positions = (0..rows * cols)
            .map(|i| Position::new((i % cols) as f64 * 10.0, (i / cols) as f64 * 10.0))
            .collect();
        topo.with_positions(positions)
    }

    /// A Manhattan street-grid radio topology (cf. *Fast Flooding over
    /// Manhattan*, Clementi et al.): nodes sit on a `rows × cols`
    /// lattice of street intersections, and a radio reaches every
    /// intersection up to `reach` blocks away *along the same street or
    /// avenue* — line-of-sight down the urban canyon — while buildings
    /// block all other directions. Link quality decays linearly from
    /// `q_adjacent` (one block) to `q_at_reach` (`reach` blocks), same
    /// direction both ways. With `reach == 1` this is [`Topology::grid`]
    /// with uniform quality `q_adjacent`. The source sits at (0,0).
    pub fn manhattan(
        rows: usize,
        cols: usize,
        reach: usize,
        q_adjacent: f64,
        q_at_reach: f64,
    ) -> Self {
        assert!(rows >= 1 && cols >= 1);
        assert!(reach >= 1);
        assert!(q_adjacent >= q_at_reach && q_at_reach > 0.0 && q_adjacent <= 1.0);
        let id = |r: usize, c: usize| NodeId::from(r * cols + c);
        let q_of = |k: usize| {
            let frac = if reach == 1 {
                0.0
            } else {
                (k - 1) as f64 / (reach - 1) as f64
            };
            LinkQuality::clamped(q_adjacent + (q_at_reach - q_adjacent) * frac, 0.05)
        };
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                for k in 1..=reach {
                    if c + k < cols {
                        edges.push((id(r, c), id(r, c + k), q_of(k), q_of(k)));
                    }
                    if r + k < rows {
                        edges.push((id(r, c), id(r + k, c), q_of(k), q_of(k)));
                    }
                }
            }
        }
        let topo = Self::from_edges(rows * cols, edges);
        let positions = (0..rows * cols)
            .map(|i| Position::new((i % cols) as f64 * 10.0, (i / cols) as f64 * 10.0))
            .collect();
        topo.with_positions(positions)
    }

    /// A complete graph with uniform quality (useful for theory tests
    /// where every pair can communicate, matching Algorithm 1's setting).
    pub fn complete(n_nodes: usize, quality: LinkQuality) -> Self {
        Self::from_edges(
            n_nodes,
            (0..n_nodes).flat_map(|a| {
                ((a + 1)..n_nodes)
                    .map(move |b| (NodeId::from(a), NodeId::from(b), quality, quality))
            }),
        )
    }

    /// Random geometric graph: `n_nodes` uniform positions in a
    /// `side × side` square, edges within `radius`, quality decaying with
    /// distance from `q_near` (touching) to `q_far` (at radius).
    ///
    /// Candidate pairs come from a cell grid of side `radius` (each node
    /// only checked against its 3×3 cell neighborhood), so generation is
    /// O(n + edges) instead of O(n²) — the difference between minutes
    /// and never at 1M nodes. The RNG draw sequence is *identical* to
    /// the old all-pairs sweep: positions first, then exactly one jitter
    /// draw per in-radius pair in ascending `(a, b)` lexicographic
    /// order, so every seeded topology (and every scenario digest pinned
    /// in CI) reproduces byte-for-byte. That ascending order is also
    /// the one [`Topology::from_edges`] builds from without sorting.
    pub fn random_geometric<R: rand::Rng + ?Sized>(
        n_nodes: usize,
        side: f64,
        radius: f64,
        q_near: f64,
        q_far: f64,
        rng: &mut R,
    ) -> Self {
        assert!(q_near >= q_far && q_far > 0.0 && q_near <= 1.0);
        assert!(radius > 0.0 && side > 0.0);
        let positions: Vec<Position> = (0..n_nodes)
            .map(|_| Position::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
            .collect();
        // Bucket nodes into cells of side `radius`: any in-radius pair
        // lives in the same or an adjacent cell.
        let ncells = (side / radius).ceil().max(1.0) as usize;
        let cell_of = |p: &Position| {
            let cx = ((p.x / radius) as usize).min(ncells - 1);
            let cy = ((p.y / radius) as usize).min(ncells - 1);
            cy * ncells + cx
        };
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); ncells * ncells];
        for (i, p) in positions.iter().enumerate() {
            cells[cell_of(p)].push(i as u32);
        }
        let mut edges: Vec<Edge> = Vec::new();
        let mut cands: Vec<u32> = Vec::new();
        for a in 0..n_nodes {
            let pa = &positions[a];
            let cx = ((pa.x / radius) as usize).min(ncells - 1);
            let cy = ((pa.y / radius) as usize).min(ncells - 1);
            cands.clear();
            for dy in cy.saturating_sub(1)..(cy + 2).min(ncells) {
                for dx in cx.saturating_sub(1)..(cx + 2).min(ncells) {
                    for &b in &cells[dy * ncells + dx] {
                        if b as usize > a {
                            cands.push(b);
                        }
                    }
                }
            }
            // Ascending b restores the all-pairs sweep's draw order.
            cands.sort_unstable();
            for &b in &cands {
                let b = b as usize;
                let d = pa.distance(&positions[b]);
                if d <= radius {
                    let frac = d / radius;
                    let q = q_near + (q_far - q_near) * frac;
                    // Mild asymmetry, as in real deployments.
                    let jitter = 0.05 * (rng.random::<f64>() - 0.5);
                    let q_ab = LinkQuality::clamped(q + jitter, 0.05);
                    let q_ba = LinkQuality::clamped(q - jitter, 0.05);
                    edges.push((NodeId::from(a), NodeId::from(b), q_ab, q_ba));
                }
            }
        }
        Self::from_edges(n_nodes, edges).with_positions(positions)
    }
}

// Manual serde impls: the wire format carries only `adj` (each node's
// `(neighbor, quality)` list, the former derive's layout) and
// `positions`; `q_in` is derived state, rebuilt on deserialization.
impl Serialize for Topology {
    fn to_value(&self) -> Value {
        let adj = (0..self.n_nodes())
            .map(|u| {
                Value::Array(
                    self.neighbors(NodeId::from(u))
                        .map(|e| e.to_value())
                        .collect(),
                )
            })
            .collect();
        Value::Object(vec![
            ("adj".into(), Value::Array(adj)),
            ("positions".into(), self.positions.to_value()),
        ])
    }
}

impl Deserialize for Topology {
    /// Rejects input that would break the table's invariants: neighbor
    /// ids out of range, rows not strictly ascending (unsorted or
    /// duplicate entries), self-links, qualities outside `(0, 1]`, and
    /// links without their reverse direction. Each error names the
    /// offending node.
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let rows = match v.get("adj") {
            Some(Value::Array(rows)) => rows,
            Some(_) => return Err(serde::Error::expected("array", "Topology.adj")),
            None => return Err(serde::Error::custom("Topology: missing field 'adj'")),
        };
        let positions: Option<Vec<Position>> = match v.get("positions") {
            Some(p) => Deserialize::from_value(p)?,
            None => None,
        };
        let n = rows.len();
        if n == 0 {
            return Err(serde::Error::custom("Topology: empty adjacency"));
        }
        if positions.as_ref().is_some_and(|p| p.len() != n) {
            return Err(serde::Error::custom(format!(
                "Topology: {} positions for {n} nodes",
                positions.as_ref().map_or(0, Vec::len)
            )));
        }
        let err =
            |u: usize, what: String| serde::Error::custom(format!("Topology: node {u}: {what}"));
        // Rows straight into the flat arrays, each checked as it lands.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut targets = Vec::new();
        let mut q_out = Vec::new();
        for (u, row) in rows.iter().enumerate() {
            let Value::Array(entries) = row else {
                return Err(err(u, "neighbor list is not an array".into()));
            };
            let start = targets.len();
            for entry in entries {
                let (to, q): (NodeId, LinkQuality) = Deserialize::from_value(entry)?;
                if to.index() >= n {
                    return Err(err(u, format!("neighbor id {} out of range", to.0)));
                }
                if to.index() == u {
                    return Err(err(u, "self-link".into()));
                }
                if targets[start..].last().is_some_and(|&prev| prev >= to) {
                    return Err(err(
                        u,
                        format!("neighbors not strictly ascending at id {}", to.0),
                    ));
                }
                if !(q.prr() > 0.0 && q.prr() <= 1.0) {
                    return Err(err(
                        u,
                        format!("quality {} to {} outside (0, 1]", q.prr(), to.0),
                    ));
                }
                targets.push(to);
                q_out.push(q);
            }
            let end = u32::try_from(targets.len())
                .map_err(|_| serde::Error::custom("Topology: too many links"))?;
            offsets.push(end);
        }
        // Every row is sorted and in range: look each link's reverse up
        // in the target's row for its inline incoming quality.
        let mut q_in = Vec::with_capacity(targets.len());
        for u in 0..n {
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let row = offsets[v.index()] as usize..offsets[v.index() + 1] as usize;
                let Ok(i) = targets[row.clone()].binary_search(&NodeId::from(u)) else {
                    return Err(err(
                        v.index(),
                        format!("missing the reverse link to node {u}"),
                    ));
                };
                q_in.push(q_out[row.start + i]);
            }
        }
        let topo = Self::from_csr(offsets, targets, q_out, q_in);
        Ok(match positions {
            Some(p) => topo.with_positions(p),
            None => topo,
        })
    }
}

/// Min-heap entry for Dijkstra (BinaryHeap is a max-heap, so order is
/// reversed on cost).
#[derive(PartialEq)]
struct DijkstraEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for DijkstraEntry {}

impl PartialOrd for DijkstraEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DijkstraEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: smallest cost first. Costs are finite ETX sums.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Q: LinkQuality = LinkQuality::PERFECT;

    #[test]
    fn line_structure() {
        let t = Topology::line(5, Q);
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.n_sensors(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(t.degree(NodeId(0)), 1);
        assert_eq!(t.degree(NodeId(2)), 2);
        assert!(t.are_neighbors(NodeId(1), NodeId(2)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
        assert!(t.is_connected());
        assert_eq!(t.source_eccentricity(), 4);
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(3, 4, Q);
        assert_eq!(t.n_nodes(), 12);
        assert_eq!(t.n_edges(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
        assert!(t.is_connected());
        assert_eq!(t.source_eccentricity(), 2 + 3);
        assert!(t.positions().is_some());
    }

    #[test]
    fn manhattan_structure() {
        // reach 2: each intersection also hears two blocks down-street.
        let t = Topology::manhattan(3, 4, 2, 0.9, 0.5);
        assert_eq!(t.n_nodes(), 12);
        // 1-block links as in the grid, plus 2-block links:
        // rows*(cols-2)=6 horizontal + (rows-2)*cols=4 vertical.
        assert_eq!(t.n_edges(), (3 * 3 + 2 * 4) + 10);
        assert!(t.is_connected());
        assert!(t.positions().is_some());
        // Line-of-sight: (0,0) hears (0,2) but never the diagonal (1,1).
        assert!(t.are_neighbors(NodeId(0), NodeId(2)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(5)));
        // Quality decays with block distance.
        let near = t.quality(NodeId(0), NodeId(1)).unwrap().prr();
        let far = t.quality(NodeId(0), NodeId(2)).unwrap().prr();
        assert!((near - 0.9).abs() < 1e-12);
        assert!((far - 0.5).abs() < 1e-12);
        // reach 1 degenerates to the plain grid.
        let g = Topology::manhattan(3, 4, 1, 0.9, 0.9);
        assert_eq!(g.n_edges(), Topology::grid(3, 4, Q).n_edges());
    }

    #[test]
    fn complete_structure() {
        let t = Topology::complete(6, Q);
        assert_eq!(t.n_edges(), 15);
        assert_eq!(t.source_eccentricity(), 1);
        for i in 0..6 {
            assert_eq!(t.degree(NodeId(i)), 5);
        }
    }

    #[test]
    fn hop_distances_line() {
        let t = Topology::line(4, Q);
        assert_eq!(t.hop_distances(NodeId(0)), vec![0, 1, 2, 3]);
        assert_eq!(t.hop_distances(NodeId(2)), vec![2, 1, 0, 1]);
    }

    #[test]
    fn disconnected_detected() {
        let mut t = Topology::empty(4);
        t.add_edge(NodeId(0), NodeId(1), Q, Q);
        // nodes 2, 3 isolated
        assert!(!t.is_connected());
        let d = t.hop_distances(NodeId(0));
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn directed_quality_is_directional() {
        let mut t = Topology::empty(2);
        t.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::new(0.9),
            LinkQuality::new(0.4),
        );
        assert!((t.quality(NodeId(0), NodeId(1)).unwrap().prr() - 0.9).abs() < 1e-12);
        assert!((t.quality(NodeId(1), NodeId(0)).unwrap().prr() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn etx_tree_prefers_good_links() {
        // 0 -(0.5)- 1 -(0.5)- 2 versus direct 0 -(0.2)- 2:
        // via 1: 2 + 2 = 4 ETX; direct: 5 ETX -> parent(2) = 1.
        let mut t = Topology::empty(3);
        t.add_edge(
            NodeId(0),
            NodeId(1),
            LinkQuality::new(0.5),
            LinkQuality::new(0.5),
        );
        t.add_edge(
            NodeId(1),
            NodeId(2),
            LinkQuality::new(0.5),
            LinkQuality::new(0.5),
        );
        t.add_edge(
            NodeId(0),
            NodeId(2),
            LinkQuality::new(0.2),
            LinkQuality::new(0.2),
        );
        let (cost, parent) = t.etx_tree(NodeId(0));
        assert!((cost[2] - 4.0).abs() < 1e-9);
        assert_eq!(parent[2], Some(NodeId(1)));
        assert_eq!(parent[1], Some(NodeId(0)));
        assert_eq!(parent[0], None);
    }

    #[test]
    fn etx_tree_unreachable_is_infinite() {
        let t = Topology::empty(3);
        let (cost, parent) = t.etx_tree(NodeId(0));
        assert_eq!(cost[0], 0.0);
        assert!(cost[1].is_infinite() && cost[2].is_infinite());
        assert_eq!(parent[1], None);
    }

    #[test]
    fn random_geometric_basics() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = Topology::random_geometric(60, 100.0, 30.0, 0.95, 0.3, &mut rng);
        assert_eq!(t.n_nodes(), 60);
        // With radius 30 in a 100x100 square, 60 nodes is typically connected.
        assert!(t.n_edges() > 60);
        let mq = t.mean_link_quality().unwrap();
        assert!(mq > 0.3 && mq < 1.0, "mean quality {mq}");
        // Symmetric audibility even with asymmetric quality.
        for l in t.links() {
            assert!(t.are_neighbors(l.to, l.from));
        }
    }

    #[test]
    fn mean_quality_of_empty_graph_is_none() {
        assert!(Topology::empty(3).mean_link_quality().is_none());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn rejects_self_link() {
        let mut t = Topology::empty(2);
        t.set_quality(NodeId(1), NodeId(1), Q);
    }

    #[test]
    fn are_neighbors_matches_the_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        for mut t in [
            Topology::line(70, Q),
            Topology::grid(9, 9, Q),
            Topology::complete(65, Q),
            Topology::random_geometric(80, 100.0, 25.0, 0.9, 0.3, &mut rng),
        ] {
            let n = t.n_nodes();
            for a in 0..n {
                let a = NodeId::from(a);
                for b in 0..n {
                    let b = NodeId::from(b);
                    assert_eq!(t.are_neighbors(a, b), t.quality(a, b).is_some());
                }
            }
            // A new edge is audible both ways at once.
            let (a, b) = (NodeId(0), NodeId::from(n - 1));
            t.add_edge(a, b, Q, Q);
            assert!(t.are_neighbors(a, b) && t.are_neighbors(b, a));
        }
    }

    /// The old all-pairs generator, kept verbatim as the reference the
    /// cell-bucketed one must reproduce draw for draw.
    fn random_geometric_reference<R: rand::Rng + ?Sized>(
        n_nodes: usize,
        side: f64,
        radius: f64,
        q_near: f64,
        q_far: f64,
        rng: &mut R,
    ) -> Topology {
        let positions: Vec<Position> = (0..n_nodes)
            .map(|_| Position::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
            .collect();
        let mut topo = Topology::empty(n_nodes);
        for a in 0..n_nodes {
            for b in (a + 1)..n_nodes {
                let d = positions[a].distance(&positions[b]);
                if d <= radius {
                    let frac = d / radius;
                    let q = q_near + (q_far - q_near) * frac;
                    let jitter = 0.05 * (rng.random::<f64>() - 0.5);
                    let q_ab = LinkQuality::clamped(q + jitter, 0.05);
                    let q_ba = LinkQuality::clamped(q - jitter, 0.05);
                    topo.add_edge(NodeId::from(a), NodeId::from(b), q_ab, q_ba);
                }
            }
        }
        topo.with_positions(positions)
    }

    #[test]
    fn bucketed_random_geometric_reproduces_the_all_pairs_sweep() {
        for seed in [3u64, 11, 42, 77] {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let got = Topology::random_geometric(120, 100.0, 22.0, 0.9, 0.3, &mut r1);
            let want = random_geometric_reference(120, 100.0, 22.0, 0.9, 0.3, &mut r2);
            assert_eq!(got.n_edges(), want.n_edges(), "seed {seed}");
            for a in 0..got.n_nodes() {
                let a = NodeId::from(a);
                assert!(
                    got.neighbors(a).eq(want.neighbors(a)),
                    "seed {seed} node {a}"
                );
                assert!(
                    got.in_neighbors(a).eq(want.in_neighbors(a)),
                    "seed {seed} node {a}"
                );
            }
            assert_eq!(got.positions(), want.positions());
            // Both consumed the same number of draws.
            use rand::Rng;
            assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "seed {seed}");
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_words() {
        use serde::{Deserialize as _, Serialize as _};
        let t = Topology::grid(4, 5, Q);
        let v = t.to_value();
        // The wire format carries only the quality lists.
        assert!(v.get("adj").is_some());
        assert!(v.get("positions").is_some());
        assert!(v.get("words").is_none());
        let back = Topology::from_value(&v).unwrap();
        assert_eq!(back.n_nodes(), t.n_nodes());
        assert_eq!(back.n_edges(), t.n_edges());
        for a in 0..t.n_nodes() {
            let a = NodeId::from(a);
            assert_eq!(back.neighbor_ids(a), t.neighbor_ids(a));
            assert!(back.neighbors(a).eq(t.neighbors(a)));
            assert!(back.in_neighbors(a).eq(t.in_neighbors(a)));
        }
        assert!(back.positions().is_some());
    }
}
