//! Property-based tests for the MAC resolution layer.

use ldcf_net::{LinkQuality, NodeId, PacketId, Topology};
use ldcf_sim::mac::{
    resolve_slot_into, resolve_slot_reference, MacScratch, Outcome, Overhearing, SlotResolution,
    TxIntent,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random connected topology + a batch of well-formed intents.
fn arb_case() -> impl Strategy<Value = (Topology, Vec<TxIntent>)> {
    (3usize..20, any::<u64>(), 1usize..12).prop_map(|(n, seed, n_intents)| {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut topo = Topology::empty(n);
        for i in 1..n {
            let parent = rng.random_range(0..i);
            let q = LinkQuality::new(rng.random_range(0.3..=1.0));
            topo.add_edge(NodeId::from(parent), NodeId::from(i), q, q);
        }
        for _ in 0..n / 2 {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            if a != b {
                let q = LinkQuality::new(rng.random_range(0.3..=1.0));
                topo.add_edge(NodeId::from(a), NodeId::from(b), q, q);
            }
        }
        let mut intents = Vec::new();
        for _ in 0..n_intents {
            let s = NodeId::from(rng.random_range(0..n));
            let nbrs = topo.neighbors(s);
            if nbrs.is_empty() {
                continue;
            }
            let (r, _) = nbrs[rng.random_range(0..nbrs.len())];
            intents.push(TxIntent {
                sender: s,
                receiver: r,
                packet: rng.random_range(0..4),
                backoff_rank: rng.random_range(0..8),
                bypass_mac: rng.random_bool(0.2),
            });
        }
        (topo, intents)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Core MAC invariants on arbitrary intent batches.
    #[test]
    fn mac_invariants((topo, intents) in arb_case(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let res = resolve_slot_reference(
            &topo,
            &intents,
            Overhearing::Enabled,
            |_| true,
            |_, _| true,
            |_, _, base| base,
            &mut rng,
        );

        // 1. Each sender transmits at most once per slot.
        let mut tx = res.transmitted.clone();
        tx.sort_unstable();
        let before = tx.len();
        tx.dedup();
        prop_assert_eq!(tx.len(), before, "duplicate sender in a slot");

        // 2. No sender both transmits and defers.
        for &d in &res.deferred {
            prop_assert!(!res.transmitted.contains(&intents[d].sender));
        }

        // 3. Every contended event's sender actually transmitted, and
        //    every event uses an existing link.
        for e in &res.events {
            prop_assert!(res.transmitted.contains(&e.sender));
            prop_assert!(topo.are_neighbors(e.sender, e.receiver));
        }

        // 4. Deferred senders were audible to some committed sender.
        for &d in &res.deferred {
            let silenced = intents[d].sender;
            prop_assert!(
                res.transmitted
                    .iter()
                    .any(|s| topo.are_neighbors(*s, silenced)),
                "deferral without an audible committed sender"
            );
        }

        // 5. Collisions only happen when 2+ committed senders target the
        //    same receiver.
        for e in &res.events {
            if e.outcome == Outcome::Collision {
                let same_target = intents
                    .iter()
                    .filter(|it| {
                        !it.bypass_mac
                            && it.receiver == e.receiver
                            && res.transmitted.contains(&it.sender)
                    })
                    .count();
                prop_assert!(same_target >= 2, "collision with a sole sender");
            }
        }

        // 6. Overheard packets were genuinely in the air from a
        //    committed sender audible to the receiver.
        for e in &res.events {
            if e.outcome == Outcome::Overheard {
                prop_assert!(topo.are_neighbors(e.sender, e.receiver));
                prop_assert!(res.transmitted.contains(&e.sender));
            }
        }
    }

    /// Differential oracle: the allocation-free [`resolve_slot_into`]
    /// must produce exactly the [`SlotResolution`] of the reference
    /// implementation — same vectors, same order — and leave the RNG in
    /// the same state (identical draw count), on random topologies,
    /// intent batches, activity/possession maps and seeds. The scratch
    /// is deliberately dirtied with a different input first, so buffer
    /// reuse across slots is exercised too.
    #[test]
    fn optimized_mac_matches_reference(
        (topo, intents) in arb_case(),
        seed in any::<u64>(),
        active_salt in any::<u64>(),
        wants_salt in any::<u64>(),
        over_enabled in any::<bool>(),
        prr_scale in 0.5f64..1.5,
    ) {
        let over = if over_enabled { Overhearing::Enabled } else { Overhearing::Disabled };
        let is_active =
            move |r: NodeId| !active_salt.wrapping_mul(r.0 as u64 + 3).is_multiple_of(4);
        let wants = move |r: NodeId, p: PacketId| {
            !(wants_salt ^ ((r.0 as u64) << 8) ^ p as u64).is_multiple_of(3)
        };
        let link_prr = move |_s: NodeId, _r: NodeId, base: f64| (base * prr_scale).min(1.0);

        let mut rng_ref = StdRng::seed_from_u64(seed);
        let expected =
            resolve_slot_reference(&topo, &intents, over, is_active, wants, link_prr, &mut rng_ref);

        let mut scratch = MacScratch::default();
        let mut got = SlotResolution::default();
        // Dirty the scratch and result buffers with a different slot.
        let mut dirty: Vec<TxIntent> = intents.clone();
        dirty.reverse();
        let mut rng_dirty = StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
        resolve_slot_into(
            &topo, &dirty, Overhearing::Enabled, |_| true, |_, _| true, |_, _, b| b,
            &mut rng_dirty, &mut scratch, &mut got,
        );

        let mut rng_opt = StdRng::seed_from_u64(seed);
        resolve_slot_into(
            &topo, &intents, over, is_active, wants, link_prr,
            &mut rng_opt, &mut scratch, &mut got,
        );

        prop_assert_eq!(&got, &expected);
        // Same number of RNG draws: the streams stay aligned afterwards.
        prop_assert_eq!(rng_opt.random::<u64>(), rng_ref.random::<u64>());
    }

    /// With perfect links, no bypass, and all receivers distinct, every
    /// committed transmission delivers.
    #[test]
    fn perfect_disjoint_unicasts_always_deliver(seed in 0u64..500) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 10usize;
        let topo = Topology::complete(n, LinkQuality::PERFECT);
        // Pair up disjoint (sender, receiver): 0->1, 2->3, ...
        let mut intents = Vec::new();
        for i in (0..n).step_by(2) {
            intents.push(TxIntent {
                sender: NodeId::from(i),
                receiver: NodeId::from(i + 1),
                packet: 0,
                backoff_rank: rng.random_range(0..4),
                bypass_mac: false,
            });
        }
        let res = resolve_slot_reference(
            &topo,
            &intents,
            Overhearing::Disabled,
            |_| true,
            |_, _| true,
            |_, _, base| base,
            &mut rng,
        );
        // Complete graph: carrier sense serialises everything to exactly
        // one transmission, which must deliver.
        prop_assert_eq!(res.transmitted.len(), 1);
        prop_assert_eq!(res.events.len(), 1);
        prop_assert_eq!(res.events[0].outcome, Outcome::Delivered);
    }
}
