//! Property tests for the non-hierarchical mesh (footnote 1): zero-loss
//! delivery over random free trees with random attachment points, and
//! structural validation of generated topologies.

use std::sync::Arc;

use layercake_bench::mesh::{MeshConfig, MeshSim};
use layercake_event::{Advertisement, Envelope, EventSeq, TypeRegistry};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random free tree over `n` brokers: node `i > 0` connects to a random
/// earlier node.
fn arb_tree(max: usize) -> impl Strategy<Value = MeshConfig> {
    (2usize..=max, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
        MeshConfig { brokers: n, edges }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated free trees always validate.
    #[test]
    fn random_trees_validate(cfg in arb_tree(12)) {
        prop_assert!(cfg.validate().is_ok(), "{cfg:?}");
    }

    /// Zero loss / zero spurious delivery over random trees and random
    /// attachment points.
    #[test]
    fn mesh_delivery_equals_oracle(cfg in arb_tree(10), seed in 0u64..1_000, subs in 1usize..16, events in 20u64..80) {
        let brokers = cfg.brokers;
        let mut registry = TypeRegistry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = BiblioWorkload::new(
            BiblioConfig {
                subscriptions: subs,
                conferences: 4,
                authors: 12,
                titles: 25,
                wildcard_rate: 0.2,
                ..BiblioConfig::default()
            },
            &mut registry,
            &mut rng,
        );
        let class = workload.class();
        let registry = Arc::new(registry);
        let mut sim = MeshSim::new(cfg, Arc::clone(&registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();

        let handles: Vec<_> = workload
            .subscriptions()
            .iter()
            .map(|f| {
                let at = rng.gen_range(0..brokers);
                let h = sim.add_subscriber_at(at, f.clone()).unwrap();
                sim.settle();
                h
            })
            .collect();

        let stream: Vec<Envelope> = (0..events).map(|s| workload.envelope(s, &mut rng)).collect();
        for e in &stream {
            let at = rng.gen_range(0..brokers);
            sim.publish_at(at, e.clone());
        }
        sim.settle();

        for (h, f) in handles.iter().zip(workload.subscriptions()) {
            let oracle: Vec<EventSeq> = stream
                .iter()
                .filter(|e| f.matches_envelope(e, &registry))
                .map(Envelope::seq)
                .collect();
            let mut got = sim.deliveries(*h).to_vec();
            got.sort();
            prop_assert_eq!(got, oracle, "mesh mismatch for {} on {} brokers", f, brokers);
        }
    }

    /// Every broker evaluates each event at most once (acyclicity: no
    /// echoes, no duplicates).
    #[test]
    fn events_visit_each_broker_at_most_once(cfg in arb_tree(8), seed in 0u64..500) {
        let brokers = cfg.brokers;
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = MeshSim::new(cfg, Arc::new(registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        // A type-only subscription at every broker forces full flooding.
        for at in 0..brokers {
            sim.add_subscriber_at(at, layercake_filter::Filter::for_class(class)).unwrap();
            sim.settle();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let e = layercake_event::event_data! {
            "year" => 2000i64, "conference" => "c", "author" => "a", "title" => "t"
        };
        sim.publish_at(rng.gen_range(0..brokers), Envelope::from_meta(class, "Biblio", EventSeq(0), e));
        sim.settle();
        for i in 0..brokers {
            let rec = sim.broker(i).record();
            prop_assert!(rec.received <= 1, "broker {i} saw the event {} times", rec.received);
        }
        // And with full flooding, every broker saw it exactly once.
        let total: u64 = (0..brokers).map(|i| sim.broker(i).record().received).sum();
        prop_assert_eq!(total, brokers as u64);
    }
}
