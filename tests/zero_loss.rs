//! The end-to-end correctness invariant of multi-stage filtering: for every
//! subscriber, the set of delivered events equals the set of events
//! matching its *original* subscription — pre-filtering loses nothing and
//! delivers nothing spurious ("nodes taken together perform complete
//! filtering of events according to the interests of subscribers",
//! Section 6).

use std::sync::Arc;

use layercake::event::Advertisement;
use layercake::overlay::{OverlayConfig, OverlaySim};
use layercake::workload::{BiblioConfig, BiblioWorkload};
use layercake::{EventSeq, Filter, PlacementPolicy, TypeRegistry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs a random bibliographic workload over a given topology/policy
/// combination and checks delivered == oracle for every subscriber.
fn check_zero_loss(
    levels: Vec<usize>,
    placement: PlacementPolicy,
    wildcard_rate: f64,
    subs: usize,
    events: u64,
    seed: u64,
    aggregation_enabled: bool,
) -> Result<(), TestCaseError> {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: subs,
            wildcard_rate,
            conferences: 5,
            authors: 20,
            titles: 50,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let class = workload.class();
    let registry = Arc::new(registry);
    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels,
            placement,
            seed,
            aggregation_enabled,
            ..OverlayConfig::default()
        },
        Arc::clone(&registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    let mut handles = Vec::new();
    for f in workload.subscriptions() {
        handles.push(sim.add_subscriber(f.clone()).expect("valid filter"));
        sim.settle();
    }

    let stream: Vec<_> = (0..events)
        .map(|seq| workload.envelope(seq, &mut rng))
        .collect();
    for env in &stream {
        sim.publish(env.clone());
    }
    sim.settle();

    for (h, f) in handles.iter().zip(workload.subscriptions()) {
        let oracle: Vec<EventSeq> = stream
            .iter()
            .filter(|env| f.matches_envelope(env, &registry))
            .map(|env| env.seq())
            .collect();
        let delivered = sim.deliveries(*h);
        prop_assert_eq!(
            delivered,
            oracle.as_slice(),
            "subscriber {} mismatch for filter {}",
            sim.subscriber(*h).filter(),
            f
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero loss / zero spurious delivery across random topologies,
    /// placement policies, wildcard rates and aggregation.
    #[test]
    fn delivery_equals_oracle(
        levels_ix in 0usize..4,
        placement_random in any::<bool>(),
        wildcard_rate in prop_oneof![Just(0.0), Just(0.3), Just(1.0)],
        subs in 1usize..30,
        events in 20u64..120,
        seed in 0u64..1_000,
        aggregation in any::<bool>(),
    ) {
        let levels = match levels_ix {
            0 => vec![1],
            1 => vec![4, 1],
            2 => vec![8, 2, 1],
            _ => vec![8, 4, 2, 1],
        };
        let placement = if placement_random { PlacementPolicy::Random } else { PlacementPolicy::Similarity };
        check_zero_loss(levels, placement, wildcard_rate, subs, events, seed, aggregation)?;
    }
}

/// The same invariant at the paper's own scale, as a single deterministic
/// regression case.
#[test]
fn paper_scale_delivery_equals_oracle() {
    check_zero_loss(
        vec![20, 4, 1],
        PlacementPolicy::Similarity,
        0.1,
        80,
        2_000,
        2002,
        false,
    )
    .expect("paper-scale zero-loss check");
}

/// The same invariant with subscription aggregation enabled everywhere.
#[test]
fn paper_scale_zero_loss_with_aggregation() {
    check_zero_loss(
        vec![20, 4, 1],
        PlacementPolicy::Similarity,
        0.2,
        60,
        1_500,
        7,
        true,
    )
    .expect("aggregation zero-loss check");
}

/// Identical subscriptions from many subscribers all receive the stream.
#[test]
fn duplicate_subscriptions_fan_out() {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let registry = Arc::new(registry);
    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels: vec![6, 2, 1],
            ..OverlayConfig::default()
        },
        Arc::clone(&registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    let filter = Filter::for_class(class)
        .eq("year", 2000)
        .eq("author", "dup");
    let handles: Vec<_> = (0..10)
        .map(|_| {
            let h = sim.add_subscriber(filter.clone()).unwrap();
            sim.settle();
            h
        })
        .collect();

    let e = layercake::event::event_data! {
        "year" => 2000, "conference" => "c", "author" => "dup", "title" => "t"
    };
    sim.publish(layercake::Envelope::from_meta(
        class,
        "Biblio",
        EventSeq(0),
        e,
    ));
    sim.settle();
    for h in handles {
        assert_eq!(sim.deliveries(h), &[EventSeq(0)]);
    }
}
