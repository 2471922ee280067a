//! Tests for the protocol features beyond the basic Figure 5/6 machinery:
//! explicit unsubscription (Section 4.3), durable subscriptions with
//! disconnection buffering (Section 2.1), and soft-state cleanup under
//! network partitions (the failure case TTLs are designed for).

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, Envelope, EventData, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_sim::SimDuration;
use layercake_workload::BiblioWorkload;

fn sim(cfg: OverlayConfig) -> (OverlaySim, layercake_event::ClassId) {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut sim = OverlaySim::new(cfg, Arc::new(registry));
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();
    (sim, class)
}

fn ev(year: i64, conf: &str, author: &str, title: &str) -> EventData {
    event_data! { "year" => year, "conference" => conf, "author" => author, "title" => title }
}

fn env(class: layercake_event::ClassId, seq: u64, e: EventData) -> Envelope {
    Envelope::from_meta(class, "Biblio", EventSeq(seq), e)
}

#[test]
fn explicit_unsubscription_removes_filters_immediately() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 2, 1],
        ..OverlayConfig::default()
    });
    let keep = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "k"))
        .unwrap();
    let gone = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2001).eq("author", "g"))
        .unwrap();
    sim.settle();

    assert!(sim.unsubscribe_now(gone));
    sim.settle();

    sim.publish(env(class, 0, ev(2000, "c", "k", "t")));
    sim.publish(env(class, 1, ev(2001, "c", "g", "t")));
    sim.settle();
    assert_eq!(sim.deliveries(keep).len(), 1);
    assert!(sim.deliveries(gone).is_empty());

    // The event for the removed subscription dies at the root: no broker
    // below it should even have received it.
    let below_root_received: u64 = sim
        .brokers()
        .iter()
        .filter(|&&b| b != sim.root())
        .map(|&b| sim.broker(b).unwrap().record().received)
        .sum();
    // Only the matching event travels below the root (3 hops: stage-2,
    // stage-1 for the kept subscription path).
    assert!(below_root_received <= 2, "got {below_root_received}");
}

#[test]
fn unsubscription_withdraws_upstream_filters_completely() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 2, 1],
        ..OverlayConfig::default()
    });
    let only = sim
        .add_subscriber(
            Filter::for_class(class)
                .eq("year", 1999)
                .eq("title", "solo"),
        )
        .unwrap();
    sim.settle();
    // Before: the root holds the weakened (year) filter.
    assert_eq!(sim.broker(sim.root()).unwrap().filter_count(), 1);

    assert!(sim.unsubscribe_now(only));
    sim.settle();
    // Every broker table is empty again.
    for &b in sim.brokers() {
        assert_eq!(
            sim.broker(b).unwrap().filter_count(),
            0,
            "broker {} still holds filters",
            sim.broker(b).unwrap().label()
        );
    }
}

#[test]
fn unsubscription_keeps_shared_covering_filters_for_others() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 2, 1],
        ..OverlayConfig::default()
    });
    // Two subscriptions sharing the (year, conference) prefix: the upstream
    // weakened filters are shared.
    let stay = sim
        .add_subscriber(
            Filter::for_class(class)
                .eq("year", 2000)
                .eq("conference", "icdcs")
                .eq("author", "stay")
                .eq("title", "a"),
        )
        .unwrap();
    let leave = sim
        .add_subscriber(
            Filter::for_class(class)
                .eq("year", 2000)
                .eq("conference", "icdcs")
                .eq("author", "leave")
                .eq("title", "b"),
        )
        .unwrap();
    sim.settle();
    assert!(sim.unsubscribe_now(leave));
    sim.settle();

    // The shared path must still work for the remaining subscription.
    sim.publish(env(class, 0, ev(2000, "icdcs", "stay", "a")));
    sim.publish(env(class, 1, ev(2000, "icdcs", "leave", "b")));
    sim.settle();
    assert_eq!(sim.deliveries(stay), &[EventSeq(0)]);
    assert!(sim.deliveries(leave).is_empty());
    // Root still has the year filter (needed by `stay`).
    assert_eq!(sim.broker(sim.root()).unwrap().filter_count(), 1);
}

#[test]
fn unsubscribe_before_placement_returns_false() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 1],
        ..OverlayConfig::default()
    });
    let h = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "x"))
        .unwrap();
    // No settle: the placement walk has not run.
    assert!(!sim.unsubscribe_now(h));
}

#[test]
fn durable_subscriber_catches_up_after_reconnect() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 1],
        ..OverlayConfig::default()
    });
    let durable = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "d"))
        .unwrap();
    sim.settle();

    sim.publish(env(class, 0, ev(2000, "c", "d", "before")));
    sim.settle();
    assert!(sim.disconnect(durable));
    sim.settle();

    // Published while offline: buffered at the hosting node.
    for i in 1..=3u64 {
        sim.publish(env(class, i, ev(2000, "c", "d", "offline")));
    }
    sim.publish(env(class, 4, ev(1999, "c", "d", "nomatch")));
    sim.settle();
    assert_eq!(
        sim.deliveries(durable).len(),
        1,
        "nothing delivered while offline"
    );

    assert!(sim.reconnect(durable));
    sim.settle();
    // Catch-up preserves publication order and loses nothing.
    assert_eq!(
        sim.deliveries(durable),
        &[EventSeq(0), EventSeq(1), EventSeq(2), EventSeq(3)]
    );

    // Back to live delivery afterwards.
    sim.publish(env(class, 5, ev(2000, "c", "d", "live")));
    sim.settle();
    assert_eq!(sim.deliveries(durable).len(), 5);
}

#[test]
fn detach_does_not_affect_other_subscribers() {
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![2, 1],
        ..OverlayConfig::default()
    });
    let offline = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000))
        .unwrap();
    let online = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000))
        .unwrap();
    sim.settle();
    sim.disconnect(offline);
    sim.settle();
    sim.publish(env(class, 0, ev(2000, "c", "a", "t")));
    sim.settle();
    assert_eq!(sim.deliveries(online).len(), 1);
    assert!(sim.deliveries(offline).is_empty());
    sim.reconnect(offline);
    sim.settle();
    assert_eq!(sim.deliveries(offline).len(), 1);
}

#[test]
fn aggregation_shrinks_tables_and_keeps_delivery_exact() {
    let build = |aggregation: bool| {
        let (mut s, class) = sim(OverlayConfig {
            levels: vec![1],
            aggregation_enabled: aggregation,
            ..OverlayConfig::default()
        });
        // The paper's Example 5 shape: g-covering chains on one node.
        let weak = s
            .add_subscriber(Filter::for_class(class).eq("year", 2000).lt("year", 2005))
            .unwrap();
        s.settle();
        let mid = s
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "icdcs"),
            )
            .unwrap();
        s.settle();
        let strong = s
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "icdcs")
                    .eq("author", "eugster"),
            )
            .unwrap();
        s.settle();
        (s, class, [weak, mid, strong])
    };

    let (mut plain, class, plain_subs) = build(false);
    let (mut aggregated, _, aggregated_subs) = build(true);
    // Aggregation folds the stronger filters under the covering one: the
    // paper's "keep only g1".
    let plain_filters = plain.broker(plain.root()).unwrap().filter_count();
    let root = aggregated.broker(aggregated.root()).unwrap();
    assert_eq!(plain_filters, 3);
    assert_eq!(root.filter_count(), 1, "one live root");
    assert_eq!(root.covered_subs(), 2, "two covered subscriptions");

    // Delivery stays exact either way.
    for (i, (year, conf, author)) in [
        (2000i64, "icdcs", "eugster"),
        (2000, "icdcs", "felber"),
        (2000, "podc", "x"),
        (1999, "icdcs", "eugster"),
    ]
    .into_iter()
    .enumerate()
    {
        let e = ev(year, conf, author, "t");
        plain.publish(env(class, i as u64, e.clone()));
        aggregated.publish(env(class, i as u64, e));
    }
    plain.settle();
    aggregated.settle();
    for (p, a) in plain_subs.iter().zip(&aggregated_subs) {
        assert_eq!(plain.deliveries(*p), aggregated.deliveries(*a));
    }

    // Unsubscribing a covered subscription removes it only.
    assert!(aggregated.unsubscribe_now(aggregated_subs[2]));
    aggregated.settle();
    aggregated.publish(env(class, 10, ev(2000, "icdcs", "eugster", "t")));
    aggregated.settle();
    assert_eq!(
        aggregated.deliveries(aggregated_subs[2]).len(),
        1,
        "only the pre-unsubscription delivery remains"
    );
    let before = aggregated.deliveries(aggregated_subs[1]).len();
    assert!(before >= 3, "other covered subscriptions keep flowing");

    // Unsubscribing the cover re-promotes what it covered.
    assert!(aggregated.unsubscribe_now(aggregated_subs[0]));
    aggregated.settle();
    let root = aggregated.broker(aggregated.root()).unwrap();
    assert_eq!((root.filter_count(), root.covered_subs()), (1, 0));
    aggregated.publish(env(class, 11, ev(2000, "icdcs", "felber", "t")));
    aggregated.settle();
    assert_eq!(aggregated.deliveries(aggregated_subs[1]).len(), before + 1);
}

#[test]
fn partition_triggers_soft_state_cleanup() {
    let ttl = SimDuration::from_ticks(1_000);
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 1],
        leases_enabled: true,
        ttl,
        ..OverlayConfig::default()
    });
    let victim = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "v"))
        .unwrap();
    let witness = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "w"))
        .unwrap();
    sim.settle();
    let host = sim.subscriber(victim).host().unwrap();

    // Partition the subscriber from its host: renewals are lost — the
    // scenario explicit unsubscribe cannot handle (Section 4.3).
    let victim_actor = sim.subscriber_actor(victim);
    sim.partition(victim_actor, host);
    sim.run_for(ttl * 8);

    // The victim's filter has been swept; the witness is unaffected.
    sim.publish(env(class, 0, ev(2000, "c", "v", "t")));
    sim.publish(env(class, 1, ev(2000, "c", "w", "t")));
    sim.settle();
    assert!(sim.deliveries(victim).is_empty());
    assert_eq!(sim.deliveries(witness), &[EventSeq(1)]);
}

#[test]
fn healed_partition_allows_resubscription() {
    let ttl = SimDuration::from_ticks(1_000);
    let (mut sim, class) = sim(OverlayConfig {
        levels: vec![4, 1],
        leases_enabled: true,
        ttl,
        ..OverlayConfig::default()
    });
    let sub = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "v"))
        .unwrap();
    sim.settle();
    let host = sim.subscriber(sub).host().unwrap();
    let actor = sim.subscriber_actor(sub);

    sim.partition(actor, host);
    sim.run_for(ttl * 8);
    sim.heal_partition(actor, host);

    // A fresh subscription from the same application re-establishes flow.
    let again = sim
        .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "v"))
        .unwrap();
    sim.settle();
    sim.publish(env(class, 0, ev(2000, "c", "v", "t")));
    sim.settle();
    assert_eq!(sim.deliveries(again), &[EventSeq(0)]);
}
