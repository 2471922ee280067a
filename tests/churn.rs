//! Subscription churn: interleaved subscribe / explicit-unsubscribe /
//! publish sequences, checked against an interval oracle — every
//! subscriber receives exactly the matching events published while its
//! subscription was active.

use std::sync::Arc;

use layercake::event::{event_data, Advertisement};
use layercake::overlay::{OverlayConfig, OverlaySim, SubscriberHandle};
use layercake::workload::{BiblioConfig, BiblioWorkload};
use layercake::{Envelope, EventSeq, Filter, TypeRegistry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize), // index into the subscription pool
    Unsubscribe(usize),
    Publish,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..6).prop_map(Op::Subscribe),
            (0usize..6).prop_map(Op::Unsubscribe),
            Just(Op::Publish),
            Just(Op::Publish), // bias towards traffic
        ],
        4..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn churn_matches_interval_oracle(ops in arb_ops(), seed in 0u64..500) {
        let mut registry = TypeRegistry::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let workload = BiblioWorkload::new(
            BiblioConfig {
                subscriptions: 6,
                conferences: 3,
                authors: 6,
                titles: 10,
                match_bias: 0.8,
                title_scramble: 0.2,
                ..BiblioConfig::default()
            },
            &mut registry,
            &mut rng,
        );
        let class = workload.class();
        let registry = Arc::new(registry);
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![4, 2, 1],
                seed,
                ..OverlayConfig::default()
            },
            Arc::clone(&registry),
        );
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();

        // Pool slot → currently live handle (if any); every live handle
        // accumulates its expected deliveries.
        let mut live: Vec<Option<SubscriberHandle>> = vec![None; 6];
        let mut expected: std::collections::HashMap<SubscriberHandle, Vec<EventSeq>> =
            std::collections::HashMap::new();
        let mut filters: Vec<Option<Filter>> = vec![None; 6];
        let mut seq = 0u64;

        for op in ops {
            match op {
                Op::Subscribe(slot) => {
                    if live[slot].is_none() {
                        let f = workload.subscriptions()[slot].clone();
                        let h = sim.add_subscriber(f.clone()).unwrap();
                        sim.settle();
                        live[slot] = Some(h);
                        filters[slot] = Some(f);
                        expected.insert(h, Vec::new());
                    }
                }
                Op::Unsubscribe(slot) => {
                    if let Some(h) = live[slot].take() {
                        assert!(sim.unsubscribe_now(h));
                        sim.settle();
                        filters[slot] = None;
                    }
                }
                Op::Publish => {
                    let env = workload.envelope(seq, &mut rng);
                    seq += 1;
                    for slot in 0..6 {
                        if let (Some(h), Some(f)) = (live[slot], &filters[slot]) {
                            if f.matches_envelope(&env, &registry) {
                                expected.get_mut(&h).unwrap().push(env.seq());
                            }
                        }
                    }
                    sim.publish(env);
                    sim.settle();
                }
            }
        }

        for (h, want) in &expected {
            prop_assert_eq!(
                sim.deliveries(*h),
                want.as_slice(),
                "churned subscriber received the wrong event set"
            );
        }
    }
}

/// Deterministic regression: subscribe → publish → unsubscribe → publish →
/// resubscribe → publish; the subscriber sees exactly the events from its
/// active intervals.
#[test]
fn resubscription_intervals() {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let registry = Arc::new(registry);
    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels: vec![4, 1],
            ..OverlayConfig::default()
        },
        Arc::clone(&registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    let filter = Filter::for_class(class).eq("year", 2000).eq("author", "me");
    let publish = |sim: &mut OverlaySim, seq: u64| {
        let e =
            event_data! { "year" => 2000, "conference" => "c", "author" => "me", "title" => "t" };
        sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), e));
        sim.settle();
    };

    let first = sim.add_subscriber(filter.clone()).unwrap();
    sim.settle();
    publish(&mut sim, 0);
    assert!(sim.unsubscribe_now(first));
    sim.settle();
    publish(&mut sim, 1); // missed: nobody subscribed
    let second = sim.add_subscriber(filter).unwrap();
    sim.settle();
    publish(&mut sim, 2);

    assert_eq!(sim.deliveries(first), &[EventSeq(0)]);
    assert_eq!(sim.deliveries(second), &[EventSeq(2)]);
}
