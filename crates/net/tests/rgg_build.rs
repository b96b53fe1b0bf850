//! The streaming random-geometric build against the all-pairs sweep:
//! the cell search and the in-place row fill must give the very graph,
//! qualities and positions of testing every pair and building the
//! collected edges with `from_edges`, and leave the RNG where the sweep
//! leaves it, since schedules are drawn from the same RNG next.

use ldcf_net::node::Position;
use ldcf_net::{LinkQuality, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Positions first, then one jitter draw per in-radius pair in
/// ascending `(a, b)` order, every pair tested.
fn all_pairs_sweep(
    n: usize,
    side: f64,
    radius: f64,
    q_near: f64,
    q_far: f64,
    rng: &mut StdRng,
) -> Topology {
    let positions: Vec<Position> = (0..n)
        .map(|_| Position::new(rng.random_range(0.0..side), rng.random_range(0.0..side)))
        .collect();
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let d = positions[a].distance(&positions[b]);
            if d <= radius {
                let q = q_near + (q_far - q_near) * (d / radius);
                let jitter = 0.05 * (rng.random::<f64>() - 0.5);
                edges.push((
                    NodeId::from(a),
                    NodeId::from(b),
                    LinkQuality::clamped(q + jitter, 0.05),
                    LinkQuality::clamped(q - jitter, 0.05),
                ));
            }
        }
    }
    Topology::from_edges(n, edges).with_positions(positions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Radii run from far below the side (sparse, many cells) to past
    /// it (one cell, a near-complete graph).
    #[test]
    fn the_streaming_build_is_the_all_pairs_sweep(
        n in 1usize..=400,
        side in 1.0f64..80.0,
        radius_frac in 0.01f64..1.6,
        qs in (0.05f64..=1.0, 0.05f64..=1.0),
        seed in any::<u64>(),
    ) {
        let (q_near, q_far) = if qs.0 >= qs.1 { qs } else { (qs.1, qs.0) };
        let radius = side * radius_frac;
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        let got = Topology::random_geometric(n, side, radius, q_near, q_far, &mut r1);
        let want = all_pairs_sweep(n, side, radius, q_near, q_far, &mut r2);
        prop_assert_eq!(got.n_links(), want.n_links());
        for u in (0..n).map(NodeId::from) {
            prop_assert_eq!(got.neighbor_ids(u), want.neighbor_ids(u), "row of {}", u);
            prop_assert!(got.neighbors(u).eq(want.neighbors(u)), "q_out of {}", u);
            prop_assert!(got.in_neighbors(u).eq(want.in_neighbors(u)), "q_in of {}", u);
        }
        prop_assert_eq!(got.positions(), want.positions());
        prop_assert_eq!(r1.random::<u64>(), r2.random::<u64>(), "RNG left in another state");
    }
}
