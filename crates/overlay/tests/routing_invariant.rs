//! The structural invariant multi-stage routing stands on: every filter a
//! broker stores is covered by a filter its parent stores *for that
//! broker*. If this chain breaks anywhere, events get lost upstream of the
//! subscriber — so we check it after randomized subscribe/unsubscribe
//! sequences.

use std::sync::Arc;

use layercake_event::{Advertisement, TypeRegistry};
use layercake_overlay::{OverlayConfig, OverlaySim, PlacementPolicy};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts the covering chain over the whole hierarchy.
fn assert_covering_chain(sim: &OverlaySim) {
    let registry = Arc::clone(sim.registry());
    for &id in sim.brokers() {
        let broker = sim.broker(id).expect("broker id");
        let Some(parent_id) = broker.parent() else {
            continue;
        };
        let parent = sim.broker(parent_id).expect("parent is a broker");
        for (filter, _) in broker.table_entries() {
            let covered = parent.table_entries().any(|(pf, dests)| {
                dests.iter().any(|d| d.0 == id.0 as u64) && pf.covers(filter, &registry)
            });
            assert!(
                covered,
                "{}'s filter {} has no covering parent entry at {}",
                broker.label(),
                filter,
                parent.label()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parent_tables_always_cover_child_tables(
        seed in 0u64..10_000,
        subs in 1usize..25,
        unsubscribe_mask in proptest::collection::vec(any::<bool>(), 1..25),
        wildcard_rate in prop_oneof![Just(0.0), Just(0.4)],
        random_placement in any::<bool>(),
        aggregation in any::<bool>(),
    ) {
        let mut registry = TypeRegistry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = BiblioWorkload::new(
            BiblioConfig {
                subscriptions: subs,
                wildcard_rate,
                conferences: 4,
                authors: 10,
                titles: 20,
                ..BiblioConfig::default()
            },
            &mut registry,
            &mut rng,
        );
        let class = workload.class();
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![6, 3, 1],
                placement: if random_placement { PlacementPolicy::Random } else { PlacementPolicy::Similarity },
                aggregation_enabled: aggregation,
                seed,
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();

        let mut handles = Vec::new();
        for f in workload.subscriptions() {
            handles.push(sim.add_subscriber(f.clone()).unwrap());
            sim.settle();
            assert_covering_chain(&sim);
        }
        for (h, gone) in handles.iter().zip(unsubscribe_mask.iter()) {
            if *gone {
                sim.unsubscribe_now(*h);
                sim.settle();
                assert_covering_chain(&sim);
            }
        }
    }
}
