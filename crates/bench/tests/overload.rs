//! Overload-protection suite: with flow control enabled the overlay must
//! (a) be invisible under capacity — byte-identical deliveries to a run
//! without it, (b) degrade gracefully past capacity — bounded queues,
//! data-only shedding, survivors delivered in order, and (c) isolate a
//! dead downstream behind a circuit breaker and recover when it returns.

use std::sync::Arc;

use layercake_bench::link::{set_broker_service_time, with_links, LinkConfig, LinkedSim};
use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::SimDuration;
use layercake_workload::BiblioWorkload;
use proptest::prelude::*;

/// A `[1, 1]` biblio overlay — one root, one stage-1 broker, one
/// subscriber matching every published event. The linear path makes
/// shed/delivery accounting exact.
fn linear_sim(
    cfg_mut: impl FnOnce(&mut OverlayConfig, &mut LinkConfig),
) -> (LinkedSim, ClassId, SubscriberHandle) {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut cfg = OverlayConfig {
        levels: vec![1, 1],
        ..OverlayConfig::default()
    };
    let mut link = LinkConfig::default();
    cfg_mut(&mut cfg, &mut link);
    let mut sim = with_links(cfg, link, Arc::new(registry)).unwrap();
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();
    // The filter constrains `title`, which only stage 1 can express, so
    // the subscription anchors on the stage-1 broker and every delivery
    // takes the full root -> stage-1 -> subscriber path.
    let sub = sim
        .add_subscriber(
            Filter::for_class(class)
                .eq("year", 2002i64)
                .eq("conference", "icdcs")
                .eq("author", "a")
                .eq("title", "t"),
        )
        .expect("valid subscription");
    sim.settle();
    assert_eq!(
        sim.subscriber(sub).host(),
        Some(sim.brokers()[0]),
        "subscription must anchor on the stage-1 broker"
    );
    (sim, class, sub)
}

fn matching_event(class: ClassId, seq: u64) -> Envelope {
    let data = event_data! {
        "year" => 2002i64,
        "conference" => "icdcs",
        "author" => "a",
        "title" => "t",
    };
    Envelope::from_meta(class, "Biblio", EventSeq(seq), data)
}

/// Under capacity, enabling flow control must not change a single
/// delivery: same events, same order, and no shed/breaker activity.
#[test]
fn flow_control_is_invisible_under_capacity() {
    let run = |flow: bool| {
        let (mut sim, class, sub) = linear_sim(|_, link| link.flow_control = flow);
        for round in 0..30u64 {
            for k in 0..4u64 {
                sim.publish(matching_event(class, round * 4 + k));
            }
            sim.run_for(SimDuration::from_ticks(8));
        }
        sim.settle();
        let delivered = sim.deliveries(sub).to_vec();
        let overload = sim.metrics().overload;
        (delivered, overload)
    };
    let (without_fc, baseline_stats) = run(false);
    let (with_fc, stats) = run(true);

    assert_eq!(without_fc.len(), 120);
    assert_eq!(with_fc, without_fc, "flow control altered deliveries");
    assert!(baseline_stats.total_shed() == 0 && baseline_stats.grants_sent == 0);
    assert_eq!(stats.total_shed(), 0, "nothing may be shed under capacity");
    assert_eq!(stats.control_shed, 0);
    assert_eq!(stats.breaker_opened, 0);
    assert!(stats.grants_sent > 0, "credit protocol was exercised");
}

/// A slow stage saturates: the queue toward it fills, stays bounded, and
/// only fresh data is shed — survivors arrive exactly once, in order,
/// and the books balance (published = delivered + shed).
#[test]
fn slow_stage_sheds_bounded_and_preserves_order() {
    let (mut sim, class, sub) = linear_sim(|_, link| link.flow_control = true);
    let slow = sim.brokers()[0];
    set_broker_service_time(&mut sim, slow, Some(SimDuration::from_ticks(8)));

    const PUBLISHED: u64 = 300;
    for seq in 0..PUBLISHED {
        sim.publish(matching_event(class, seq));
    }
    sim.settle();

    let delivered = sim.deliveries(sub).to_vec();
    let stats = sim.metrics().overload;

    assert!(stats.data_shed > 0, "2x+ overload must shed");
    assert_eq!(stats.control_shed, 0, "control plane is never shed");
    assert_eq!(stats.breaker_shed, 0, "a granting downstream never trips");
    assert_eq!(stats.breaker_opened, 0);
    assert!(stats.credit_stalls > 0, "backpressure was exercised");
    assert!(
        stats.peak_egress_depth <= 64,
        "queue depth {} exceeded the configured bound",
        stats.peak_egress_depth
    );
    // Sheds land on the saturated stage-1 link (recorded by the root,
    // stage 2, whose egress toward stage 1 is the bottleneck).
    assert!(!stats.shed_by_stage.is_empty());

    // Survivors: exactly once, in publication order, books balanced.
    assert_eq!(delivered.len() as u64, PUBLISHED - stats.total_shed());
    assert!(
        delivered.windows(2).all(|w| w[0] < w[1]),
        "survivors must stay in order"
    );
}

/// A crashed downstream trips the circuit breaker (bounded buildup, then
/// fast-fail); after restart the half-open probe closes it and fresh
/// events flow again.
#[test]
fn breaker_isolates_crashed_downstream_and_recovers() {
    const TTL: u64 = 200;
    let (mut sim, class, sub) = linear_sim(|cfg, link| {
        link.flow_control = true;
        cfg.leases_enabled = true;
        cfg.ttl = SimDuration::from_ticks(TTL);
    });
    let host = sim.brokers()[0];

    let mut seq = 0u64;
    for _ in 0..20 {
        sim.publish(matching_event(class, seq));
        seq += 1;
    }
    sim.settle();
    assert_eq!(sim.deliveries(sub).len(), 20, "healthy path works");

    sim.crash_broker(host);
    // Offered load continues against the dead stage: the window and then
    // the queue fill, probes go unanswered, the breaker trips and fast-
    // fails the rest.
    for _ in 0..200 {
        sim.publish(matching_event(class, seq));
        seq += 1;
        sim.run_for(SimDuration::from_ticks(4));
    }
    let mid = sim.metrics().overload;
    assert!(mid.breaker_opened >= 1, "breaker must trip on a dead stage");
    assert!(mid.breaker_shed > 0, "flushed queue counts as breaker shed");
    assert!(mid.probes_sent > 0);
    assert_eq!(mid.control_shed, 0);
    assert!(
        mid.peak_egress_depth <= 64,
        "a dead downstream must not grow the queue past its bound"
    );

    sim.restart_broker(host);
    // Recovery: half-open probe (after backoff, doubled while the crash
    // lasted) gets a grant from the restarted broker; leases notice the
    // lost subscription state and re-subscribe.
    sim.run_for(SimDuration::from_ticks(20 * TTL));
    let recovered = sim.metrics().overload;
    assert!(recovered.breaker_closed >= 1, "breaker must close again");

    // Fresh traffic flows end to end again.
    let before = sim.deliveries(sub).len();
    for _ in 0..10 {
        sim.publish(matching_event(class, seq));
        seq += 1;
        sim.run_for(SimDuration::from_ticks(2 * TTL));
    }
    sim.settle();
    assert!(
        sim.deliveries(sub).len() > before,
        "deliveries must resume after recovery"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the overload level, queue size, and service speed:
    /// control traffic is never shed, queue depth never exceeds its
    /// bound, survivors arrive exactly once in publication order, and
    /// every published event is either delivered or accounted shed.
    #[test]
    fn sheds_are_data_only_and_survivors_stay_ordered(
        seed in 0u64..1_000,
        queue_capacity in proptest::sample::select(&[8usize, 16, 64]),
        service in 0u64..=16,
        burst in 1usize..=8,
        events in 50u64..300,
    ) {
        let (mut sim, class, sub) = linear_sim(|cfg, link| {
            link.flow_control = true;
            link.queue_capacity = queue_capacity;
            cfg.seed = seed;
        });
        let slow = sim.brokers()[0];
        set_broker_service_time(
            &mut sim,
            slow,
            (service > 0).then(|| SimDuration::from_ticks(service)),
        );

        let mut seq = 0u64;
        while seq < events {
            for _ in 0..burst {
                sim.publish(matching_event(class, seq));
                seq += 1;
            }
            sim.run_for(SimDuration::from_ticks(2));
        }
        sim.settle();

        let delivered = sim.deliveries(sub).to_vec();
        let stats = sim.metrics().overload;

        prop_assert_eq!(stats.control_shed, 0, "control plane was shed");
        prop_assert!(
            stats.peak_egress_depth <= queue_capacity as u64,
            "depth {} > capacity {}",
            stats.peak_egress_depth,
            queue_capacity
        );
        prop_assert!(
            delivered.windows(2).all(|w| w[0] < w[1]),
            "duplicate or out-of-order delivery under credit stalls"
        );
        prop_assert_eq!(
            delivered.len() as u64 + stats.total_shed(),
            seq,
            "every event must be delivered or accounted as shed"
        );
    }
}
