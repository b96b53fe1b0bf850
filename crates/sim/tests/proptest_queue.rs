//! The FCFS queue slab against a model of one `Vec<PacketId>` per node:
//! after every push, remove and clear, each node's queue holds the
//! model's packets in the model's order, its length, packet bits and
//! non-empty bit agree, the total is the sum of the lengths, and the
//! first packet matching a predicate — what FCFS service reads — is
//! the model's.

use ldcf_net::{bitset, NodeId, PacketId};
use ldcf_sim::queue::FcfsQueues;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn check(q: &FcfsQueues, model: &[Vec<PacketId>], pivot: PacketId) -> Result<(), TestCaseError> {
    let mut total = 0;
    for (ui, want) in model.iter().enumerate() {
        let u = NodeId::from(ui);
        prop_assert_eq!(q.get(u), &want[..], "queue of {}", u);
        prop_assert_eq!(q.len(u), want.len());
        total += want.len() as u64;
        prop_assert_eq!(
            bitset::test_bit(q.nonempty_words(), ui),
            !want.is_empty(),
            "non-empty bit of {}",
            u
        );
        let mut bits = vec![0u64; q.queued_words(u).len()];
        for &p in want {
            bitset::set_bit(&mut bits, p as usize);
        }
        prop_assert_eq!(q.queued_words(u), &bits[..], "packet bits of {}", u);
        prop_assert_eq!(
            q.get(u).iter().find(|&&p| p >= pivot),
            want.iter().find(|&&p| p >= pivot)
        );
    }
    prop_assert_eq!(q.total(), total);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops are `(kind, node, packet, pivot)`: kinds 0–2 push (a packet
    /// a node already queues is skipped, as the engine never queues one
    /// twice), 3 removes (present or not) and 4 clears.
    #[test]
    fn the_slab_is_a_vec_per_node(
        n in 1usize..6,
        m in 1usize..140,
        ops in prop::collection::vec((0u8..5, 0usize..6, 0u32..140, 0u32..140), 0..300),
    ) {
        let mut q = FcfsQueues::new(n, m);
        let mut model: Vec<Vec<PacketId>> = vec![Vec::new(); n];
        for (kind, u, p, pivot) in ops {
            let (ui, p, pivot) = (u % n, p % m as u32, pivot % m as u32);
            let u = NodeId::from(ui);
            match kind {
                0..=2 => {
                    if !model[ui].contains(&p) {
                        q.push(u, p);
                        model[ui].push(p);
                    }
                }
                3 => {
                    let at = model[ui].iter().position(|&x| x == p);
                    if let Some(at) = at {
                        model[ui].remove(at);
                    }
                    prop_assert_eq!(q.remove(u, p), at.is_some());
                }
                _ => {
                    q.clear(u);
                    model[ui].clear();
                }
            }
            check(&q, &model, pivot)?;
        }
    }
}
