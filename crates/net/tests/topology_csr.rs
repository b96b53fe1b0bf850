//! The compressed-sparse-row topology against a test-local reference:
//! every constructor must produce the graph a plain map of directed
//! links describes, the wire format must stay byte-identical, and
//! untrusted input that would break the table must be rejected.

use ldcf_net::node::Position;
use ldcf_net::{LinkQuality, NodeId, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// Directed links `(from, to) → quality`: the reference graph.
type Reference = BTreeMap<(u32, u32), f64>;

/// Random undirected edges over `n` nodes, endpoints in either order,
/// pairs possibly repeated; self-pairs are dropped.
fn edge_list(
    n: u32,
    raw: &[(u32, u32, f64, f64)],
) -> Vec<(NodeId, NodeId, LinkQuality, LinkQuality)> {
    raw.iter()
        .map(|&(a, b, q_ab, q_ba)| (a % n, b % n, q_ab, q_ba))
        .filter(|&(a, b, _, _)| a != b)
        .map(|(a, b, q_ab, q_ba)| {
            (
                NodeId(a),
                NodeId(b),
                LinkQuality::new(q_ab),
                LinkQuality::new(q_ba),
            )
        })
        .collect()
}

/// The first listing of each pair sets both of its directions.
fn reference(edges: &[(NodeId, NodeId, LinkQuality, LinkQuality)]) -> Reference {
    let mut r = Reference::new();
    for &(a, b, q_ab, q_ba) in edges {
        if !r.contains_key(&(a.0, b.0)) {
            r.insert((a.0, b.0), q_ab.prr());
            r.insert((b.0, a.0), q_ba.prr());
        }
    }
    r
}

/// Every query the topology answers agrees with the reference.
fn check(t: &Topology, r: &Reference, n: u32) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.n_nodes(), n as usize);
    prop_assert_eq!(t.n_edges(), r.len() / 2);
    for a in 0..n {
        let u = NodeId(a);
        let want: Vec<NodeId> = r
            .range((a, 0)..(a + 1, 0))
            .map(|(&(_, b), _)| NodeId(b))
            .collect();
        prop_assert_eq!(t.neighbor_ids(u), &want[..]);
        prop_assert!(t.neighbor_ids(u).windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(t.degree(u), want.len());
        for b in 0..n {
            let v = NodeId(b);
            let q = r.get(&(a, b)).copied();
            prop_assert_eq!(t.quality(u, v).map(LinkQuality::prr), q);
            prop_assert_eq!(t.are_neighbors(u, v), q.is_some());
        }
        for ((v, q_out), (w, q_in)) in t.neighbors(u).zip(t.in_neighbors(u)) {
            prop_assert_eq!(v, w);
            prop_assert_eq!(Some(q_out), t.quality(u, v));
            prop_assert_eq!(Some(q_in), t.quality(v, u));
        }
    }
    check_links(t, r, n)
}

/// The link index: links are numbered `0..n_links` by sender, then by
/// receiver id, so `link_index(u, v)` is `v`'s position in `u`'s row
/// counted from the start of the table, and `None` for non-links.
fn check_links(t: &Topology, r: &Reference, n: u32) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.n_links(), 2 * t.n_edges());
    prop_assert_eq!(t.n_links(), r.len());
    let mut next = 0;
    for a in 0..n {
        let u = NodeId(a);
        prop_assert_eq!(t.out_links(u).len(), t.degree(u));
        for (pos, (link, v, q)) in t.out_links(u).enumerate() {
            prop_assert_eq!(link, next, "links are numbered in row order");
            prop_assert_eq!(v, t.neighbor_ids(u)[pos]);
            prop_assert_eq!(Some(q), t.quality(u, v));
            prop_assert_eq!(t.link_index(u, v), Some(link));
            next += 1;
        }
        // The same entries read as inbound links: `v → u` at u's entry.
        for ((link, v, q), (out_link, out_v, _)) in t.in_links(u).zip(t.out_links(u)) {
            prop_assert_eq!((link, v), (out_link, out_v));
            prop_assert_eq!(Some(q), t.quality(v, u));
            prop_assert_eq!(t.in_quality(link), q);
        }
        for b in 0..n {
            let v = NodeId(b);
            if !r.contains_key(&(a, b)) {
                prop_assert_eq!(t.link_index(u, v), None);
            }
        }
    }
    prop_assert_eq!(next, t.n_links());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `from_edges`, pair by pair insertion through `add_edge`, and a
    /// serde round trip all build the reference graph.
    #[test]
    fn csr_matches_reference(
        n in 1u32..40,
        raw in prop::collection::vec((0u32..40, 0u32..40, 0.05f64..=1.0, 0.05f64..=1.0), 0..120),
    ) {
        let edges = edge_list(n, &raw);
        let r = reference(&edges);
        let built = Topology::from_edges(n as usize, edges.iter().copied());
        check(&built, &r, n)?;
        let mut grown = Topology::empty(n as usize);
        for (&(a, b), &q_ab) in r.iter().filter(|(&(a, b), _)| a < b) {
            let q_ba = r[&(b, a)];
            grown.add_edge(NodeId(a), NodeId(b), LinkQuality::new(q_ab), LinkQuality::new(q_ba));
        }
        check(&grown, &r, n)?;
        let back: Topology = serde_json::from_str(&serde_json::to_string(&built).unwrap()).unwrap();
        check(&back, &r, n)?;
    }

    /// `from_links`: the first link naming a pair sets both directions;
    /// `set_quality` then rewrites one direction in place.
    #[test]
    fn from_links_is_symmetric_first_wins(
        n in 2u32..30,
        raw in prop::collection::vec((0u32..30, 0u32..30, 0.05f64..=1.0, 0.05f64..=1.0), 0..80),
    ) {
        let edges = edge_list(n, &raw);
        let links = edges.iter().map(|&(a, b, q, _)| ldcf_net::link::Link { from: a, to: b, quality: q });
        let mut t = Topology::from_links(n as usize, links);
        let mut r = reference(&edges.iter().map(|&(a, b, q, _)| (a, b, q, q)).collect::<Vec<_>>());
        check(&t, &r, n)?;
        for &(a, b, _, q_ba) in &edges {
            t.set_quality(b, a, q_ba);
            r.insert((b.0, a.0), q_ba.prr());
        }
        check(&t, &r, n)?;
    }
}

/// A hand-built graph with asymmetric qualities and positions.
fn fixture() -> Topology {
    let q = LinkQuality::new;
    let mut t = Topology::empty(4);
    t.add_edge(NodeId(0), NodeId(2), q(0.9), q(0.4));
    t.add_edge(NodeId(2), NodeId(1), q(0.75), q(0.5));
    t.add_edge(NodeId(3), NodeId(0), q(0.3), q(0.625));
    t.with_positions(vec![
        Position::new(0.0, 0.0),
        Position::new(1.5, -2.0),
        Position::new(10.0, 0.25),
        Position::new(3.0, 4.0),
    ])
}

/// The wire format is each node's `(neighbor, quality)` list plus the
/// positions — pinned byte for byte, since traces and campaign
/// artefacts carry it.
/// `add_edge` on a new pair inserts into two rows, so every link behind
/// the first insertion point moves: per-link state must be sized after
/// the topology is built.
#[test]
fn add_edge_renumbers_links() {
    let q = LinkQuality::new(0.5);
    let mut t = Topology::line(3, q);
    assert_eq!(t.n_links(), 4);
    assert_eq!(t.link_index(NodeId(1), NodeId(2)), Some(2));
    assert_eq!(t.link_index(NodeId(0), NodeId(2)), None);
    t.add_edge(NodeId(0), NodeId(2), q, q);
    assert_eq!(t.n_links(), 6);
    assert_eq!(t.link_index(NodeId(0), NodeId(2)), Some(1));
    assert_eq!(t.link_index(NodeId(1), NodeId(2)), Some(3));
    assert_eq!(t.link_index(NodeId(2), NodeId(1)), Some(5));
}

#[test]
fn wire_format_is_pinned() {
    let want = r#"{"adj":[[[2,0.9],[3,0.625]],[[2,0.5]],[[0,0.4],[1,0.75]],[[0,0.3]]],"positions":[{"x":0,"y":0},{"x":1.5,"y":-2},{"x":10,"y":0.25},{"x":3,"y":4}]}"#;
    assert_eq!(serde_json::to_string(&fixture()).unwrap(), want);
    let back: Topology = serde_json::from_str(want).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), want);
    assert_eq!(
        serde_json::to_string(&Topology::line(3, LinkQuality::new(0.8))).unwrap(),
        r#"{"adj":[[[1,0.8]],[[0,0.8],[2,0.8]],[[1,0.8]]],"positions":null}"#
    );
}

/// Parse `adj` (no positions) and return the error message.
fn rejection(adj: &str) -> String {
    let json = format!(r#"{{"adj":{adj},"positions":null}}"#);
    match serde_json::from_str::<Topology>(&json) {
        Ok(_) => panic!("accepted {adj}"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn rejects_out_of_range_neighbor() {
    let e = rejection("[[[1,0.5]],[[0,0.5],[7,0.5]]]");
    assert!(e.contains("node 1") && e.contains("out of range"), "{e}");
}

#[test]
fn rejects_unsorted_neighbors() {
    let e = rejection("[[[2,0.5],[1,0.5]],[[0,0.5]],[[0,0.5]]]");
    assert!(e.contains("node 0") && e.contains("ascending"), "{e}");
}

#[test]
fn rejects_duplicate_neighbors() {
    let e = rejection("[[[1,0.5]],[[0,0.5],[0,0.7]]]");
    assert!(e.contains("node 1") && e.contains("ascending"), "{e}");
}

#[test]
fn rejects_self_link() {
    let e = rejection("[[[1,0.5]],[[0,0.5]],[[2,0.5]]]");
    assert!(e.contains("node 2") && e.contains("self-link"), "{e}");
}

#[test]
fn rejects_one_directional_link() {
    let e = rejection("[[[1,0.5],[2,0.5]],[[0,0.5]],[]]");
    assert!(
        e.contains("node 2") && e.contains("reverse link to node 0"),
        "{e}"
    );
}

#[test]
fn rejects_positions_of_the_wrong_length() {
    let json = r#"{"adj":[[[1,0.5]],[[0,0.5]]],"positions":[{"x":0,"y":0}]}"#;
    let e = serde_json::from_str::<Topology>(json)
        .unwrap_err()
        .to_string();
    assert!(e.contains("1 positions for 2 nodes"), "{e}");
}

#[test]
fn rejects_quality_outside_the_unit_interval() {
    for q in ["0", "1.5", "-0.25"] {
        let e = rejection(&format!("[[[1,0.5]],[[0,{q}]]]"));
        assert!(e.contains("node 1") && e.contains("outside (0, 1]"), "{e}");
    }
}
