//! Property-based tests for the network substrate.

use ldcf_net::{bitset, LinkQuality, NeighborTable, NodeId, Topology, WorkingSchedule};
use proptest::prelude::*;

/// One node's row as `(neighbor, out PRR, in PRR)`, and its link index
/// to every node.
type RowView = (Vec<(u32, f64, f64)>, Vec<Option<usize>>);

/// Every schedule, every calendar row (packed and listed), and the
/// rendezvous answers.
type TableView = (
    Vec<WorkingSchedule>,
    Vec<(Vec<u64>, Vec<NodeId>)>,
    Vec<Option<u64>>,
);

/// Everything a reader can ask a topology: each row with its out- and
/// in-qualities (as PRR), and the link index of every ordered pair.
fn topology_view(t: &Topology) -> Vec<RowView> {
    let n = t.n_nodes();
    (0..n)
        .map(NodeId::from)
        .map(|u| {
            let row = t
                .neighbors(u)
                .zip(t.in_neighbors(u))
                .map(|((v, q_out), (_, q_in))| (v.0, q_out.prr(), q_in.prr()))
                .collect();
            let links = (0..n).map(|v| t.link_index(u, NodeId::from(v))).collect();
            (row, links)
        })
        .collect()
}

/// Everything a reader can ask a schedule table: each node's schedule,
/// each calendar row (packed and listed), and the next rendezvous of
/// every single-node target set from every calendar offset.
fn table_view(t: &NeighborTable) -> TableView {
    let n = t.n_nodes();
    let period = u64::from(t.calendar_period());
    let schedules = (0..n)
        .map(|v| t.schedule(NodeId::from(v)).clone())
        .collect();
    let rows = (0..period)
        .map(|o| (t.active_words(o).to_vec(), t.all_active(o).collect()))
        .collect();
    let mut rendezvous = Vec::new();
    for v in 0..n {
        let mut targets = vec![0u64; bitset::words_for(n)];
        bitset::set_bit(&mut targets, v);
        let mut summary = vec![0u64; t.summary_words()];
        bitset::summarize_into(&targets, &mut summary);
        for from in 0..period {
            rendezvous.push(t.next_rendezvous(from, &targets, &summary));
        }
    }
    (schedules, rows, rendezvous)
}

/// Whether two topologies read the same arrays.
fn share_topology(a: &Topology, b: &Topology) -> bool {
    (0..a.n_nodes()).all(|u| {
        let u = NodeId::from(u);
        std::ptr::eq(a.neighbor_ids(u), b.neighbor_ids(u))
    })
}

/// Whether two schedule tables read the same schedules and calendar.
fn share_table(a: &NeighborTable, b: &NeighborTable) -> bool {
    (0..a.n_nodes()).all(|v| std::ptr::eq(a.schedule(NodeId::from(v)), b.schedule(NodeId::from(v))))
        && (0..u64::from(a.calendar_period()))
            .all(|o| std::ptr::eq(a.active_words(o), b.active_words(o)))
}

proptest! {
    /// A clone shares every array of the topology and the schedule
    /// table; `set_quality`, `add_edge` and `set_schedule` on one copy
    /// take effect there and leave every row, quality, link index,
    /// calendar row and rendezvous answer of the other copy as it was.
    #[test]
    fn clones_share_storage_and_copy_on_write(
        n in 2u32..30,
        raw in prop::collection::vec((0u32..30, 0u32..30, 0.05f64..=1.0, 0.05f64..=1.0), 0..60),
        period in 1u32..8,
        slots in prop::collection::vec(0u32..16, 30..31),
        writes in prop::collection::vec((0u32..30, 0u32..30, 0.05f64..=1.0, 0u32..16), 1..8),
    ) {
        let edges: Vec<_> = raw
            .iter()
            .map(|&(a, b, q_ab, q_ba)| (a % n, b % n, q_ab, q_ba))
            .filter(|&(a, b, _, _)| a != b)
            .map(|(a, b, q_ab, q_ba)| {
                (NodeId(a), NodeId(b), LinkQuality::new(q_ab), LinkQuality::new(q_ba))
            })
            .collect();
        let topo = Topology::from_edges(n as usize, edges);
        // Odd nodes wake at twice the period, so the calendar spans an
        // LCM of two periods.
        let period_of = |v: u32| period * (1 + v % 2);
        let table = NeighborTable::new(
            (0..n)
                .map(|v| WorkingSchedule::new(period_of(v), vec![slots[v as usize] % period_of(v)]))
                .collect(),
        );
        let mut topo_copy = topo.clone();
        let mut table_copy = table.clone();
        prop_assert!(share_topology(&topo, &topo_copy), "a topology clone shares its arrays");
        prop_assert!(share_table(&table, &table_copy), "a table clone shares its tables");
        let (topo_before, table_before) = (topology_view(&topo), table_view(&table));

        // The copy is written, the original must not move (the two are
        // alike: either is one more owner of the same arrays).
        let (t, s) = (&mut topo_copy, &mut table_copy);
        for &(a, b, q, slot) in &writes {
            let (a, b) = (NodeId(a % n), NodeId(b % n));
            let q = LinkQuality::new(q);
            if a != b {
                if t.are_neighbors(a, b) {
                    t.set_quality(a, b, q);
                } else {
                    t.add_edge(a, b, q, q);
                }
                prop_assert_eq!(t.quality(a, b), Some(q), "the write took effect");
            }
            let p = period_of(a.0);
            s.set_schedule(a, WorkingSchedule::new(p, vec![slot % p]));
            prop_assert!(s.is_active(a, u64::from(slot % p)), "the write took effect");
        }
        prop_assert!(!share_table(s, &table), "the written table has its own copy");
        prop_assert_eq!(topology_view(&topo), topo_before);
        prop_assert_eq!(table_view(&table), table_before);
    }

    /// `next_active_at_or_after` returns an active slot, is >= t, and is
    /// the SMALLEST such slot.
    #[test]
    fn next_active_is_correct(
        period in 1u32..50,
        offsets in prop::collection::vec(0u32..50, 1..8),
        t in 0u64..500,
    ) {
        let offsets: Vec<u32> = offsets.into_iter().map(|o| o % period).collect();
        let s = WorkingSchedule::new(period, offsets);
        let next = s.next_active_at_or_after(t);
        prop_assert!(next >= t);
        prop_assert!(s.is_active(next));
        for u in t..next {
            prop_assert!(!s.is_active(u), "slot {u} active before {next}");
        }
        // Periodicity: shifting by one period shifts the answer by one
        // period.
        prop_assert_eq!(
            s.next_active_at_or_after(t + period as u64),
            next + period as u64
        );
    }

    /// The duty ratio equals the measured fraction of active slots.
    #[test]
    fn duty_ratio_matches_census(
        period in 1u32..40,
        offsets in prop::collection::vec(0u32..40, 1..6),
    ) {
        let offsets: Vec<u32> = offsets.into_iter().map(|o| o % period).collect();
        let s = WorkingSchedule::new(period, offsets);
        let active = (0..period as u64).filter(|&t| s.is_active(t)).count();
        prop_assert!((s.duty_ratio() - active as f64 / period as f64).abs() < 1e-12);
    }

    /// Mean sleep latency is within [0, T-1] and zero iff always-on.
    #[test]
    fn mean_sleep_latency_bounds(
        period in 1u32..40,
        offset in 0u32..40,
    ) {
        let s = WorkingSchedule::new(period, vec![offset % period]);
        let msl = s.mean_sleep_latency();
        prop_assert!(msl >= 0.0);
        prop_assert!(msl <= (period as f64 - 1.0) + 1e-12);
        if period == 1 {
            prop_assert_eq!(msl, 0.0);
        }
    }

    /// ETX shortest paths never exceed (hops * max ETX) and never go
    /// below (hops * min ETX); parents always step towards the root.
    #[test]
    fn etx_tree_is_consistent(
        n in 2usize..30,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut topo = Topology::empty(n);
        // random connected tree + extra edges
        for i in 1..n {
            let parent = rng.random_range(0..i);
            let q = LinkQuality::new(rng.random_range(0.3..=1.0));
            topo.add_edge(NodeId::from(parent), NodeId::from(i), q, q);
        }
        for _ in 0..n {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                let q = LinkQuality::new(rng.random_range(0.3..=1.0));
                topo.add_edge(NodeId::from(a), NodeId::from(b), q, q);
            }
        }
        let (cost, parent) = topo.etx_tree(NodeId(0));
        let hops = topo.hop_distances(NodeId(0));
        for i in 0..n {
            prop_assert!(cost[i].is_finite());
            // ETX of any path >= hops (each edge ETX >= 1) and <= hops/0.3.
            prop_assert!(cost[i] + 1e-9 >= hops[i] as f64);
            prop_assert!(cost[i] <= hops[i] as f64 / 0.3 + 1e-9);
            if i != 0 {
                let p = parent[i].expect("connected");
                // Parent is strictly closer in ETX.
                prop_assert!(cost[p.index()] < cost[i]);
            }
        }
    }

    /// k-class always suffices: 1-(1-p)^k >= confidence for the returned k.
    #[test]
    fn k_class_is_sufficient(
        p in 0.05f64..=1.0,
        conf in 0.0f64..0.999,
    ) {
        let q = LinkQuality::new(p);
        let k = q.k_class(conf);
        let reach = 1.0 - (1.0 - p).powi(k as i32);
        prop_assert!(reach >= conf - 1e-9, "k={k} reaches {reach} < {conf}");
        // Minimality: k-1 would not suffice (when k > 1).
        if k > 1 {
            let reach_less = 1.0 - (1.0 - p).powi(k as i32 - 1);
            prop_assert!(reach_less < conf + 1e-9);
        }
    }
}
