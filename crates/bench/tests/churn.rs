//! Churn suite: node isolation (connectivity loss without state loss) and
//! soft-state lease expiry. Complements `tests/chaos.rs`, which covers
//! probabilistic link faults and crash/restart.

use std::sync::Arc;

use layercake_bench::link::{with_links, LinkConfig, LinkedSim};
use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::SimDuration;
use layercake_workload::BiblioWorkload;

const TTL: u64 = 200;

fn build(n: usize, leases: bool, reliability: bool) -> (LinkedSim, ClassId, Vec<SubscriberHandle>) {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut sim = with_links(
        OverlayConfig {
            levels: vec![4, 2, 1],
            leases_enabled: leases,
            ttl: SimDuration::from_ticks(TTL),
            ..OverlayConfig::default()
        },
        LinkConfig {
            reliable: reliability,
            ..LinkConfig::default()
        },
        Arc::new(registry),
    )
    .unwrap();
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();
    let mut subs = Vec::new();
    for i in 0..n {
        let h = sim
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "icdcs")
                    .eq("author", format!("a{i}")),
            )
            .expect("valid subscription");
        subs.push(h);
    }
    sim.run_for(SimDuration::from_ticks(TTL / 2));
    for &h in &subs {
        assert!(sim.subscriber(h).host().is_some(), "placement completed");
    }
    (sim, class, subs)
}

fn publish_for(sim: &mut LinkedSim, class: ClassId, i: usize, seq: u64) -> EventSeq {
    let data = event_data! {
        "year" => 2000i64,
        "conference" => "icdcs",
        "author" => format!("a{i}"),
        "title" => format!("t{seq}"),
    };
    sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), data));
    EventSeq(seq)
}

#[test]
fn reliability_recovers_events_sent_while_a_node_was_isolated() {
    let (mut sim, class, subs) = build(2, false, true);

    // Cut every link of subscriber 0's host. The event published while it
    // is dark is dropped on the blocked link — but the upstream sender has
    // it buffered.
    let host = sim.subscriber(subs[0]).host().expect("placed");
    sim.isolate(host);
    let dark = publish_for(&mut sim, class, 0, 0);
    sim.run_for(SimDuration::from_ticks(32));
    assert!(
        !sim.deliveries(subs[0]).contains(&dark),
        "no delivery through an isolated node"
    );

    // Heal; the next event on the link exposes the gap, the receiver NACKs
    // and the buffered event is retransmitted: nothing is lost.
    sim.heal_node(host);
    let fresh = publish_for(&mut sim, class, 0, 1);
    sim.run_for(SimDuration::from_ticks(64));
    assert!(
        sim.deliveries(subs[0]).contains(&dark),
        "gap repaired after heal"
    );
    assert!(sim.deliveries(subs[0]).contains(&fresh));
    assert!(sim.metrics().chaos.retransmitted > 0);
}

#[test]
fn isolation_without_reliability_loses_the_dark_events() {
    let (mut sim, class, subs) = build(2, false, false);
    let host = sim.subscriber(subs[0]).host().expect("placed");
    sim.isolate(host);
    let dark = publish_for(&mut sim, class, 0, 0);
    sim.run_for(SimDuration::from_ticks(32));
    sim.heal_node(host);
    let fresh = publish_for(&mut sim, class, 0, 1);
    sim.run_for(SimDuration::from_ticks(64));
    // The contrast with the reliable run: best-effort forwarding drops the
    // dark event forever, but traffic resumes after heal.
    assert!(!sim.deliveries(subs[0]).contains(&dark));
    assert!(sim.deliveries(subs[0]).contains(&fresh));
}

#[test]
fn repeated_isolate_heal_cycles_keep_the_overlay_delivering() {
    let (mut sim, class, subs) = build(3, true, true);
    let host = sim.subscriber(subs[0]).host().expect("placed");
    let mut seq = 0u64;
    for _cycle in 0..4 {
        sim.isolate(host);
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        sim.heal_node(host);
        // Everyone receives fresh post-heal events, including the
        // subscriber behind the churned node.
        let probes: Vec<(usize, EventSeq)> = (0..subs.len())
            .map(|i| {
                let s = publish_for(&mut sim, class, i, seq);
                seq += 1;
                (i, s)
            })
            .collect();
        sim.run_for(SimDuration::from_ticks(2 * TTL));
        for (i, probe) in probes {
            assert!(
                sim.deliveries(subs[i]).contains(&probe),
                "sub {i} lost its probe after heal cycle"
            );
        }
    }
}

#[test]
fn unrenewed_leases_are_swept_and_events_stop_flowing() {
    let (mut sim, class, subs) = build(2, true, false);
    let broker_filters = |sim: &LinkedSim| -> usize {
        sim.brokers()
            .iter()
            .map(|&b| sim.broker(b).unwrap().filter_count())
            .sum()
    };
    let before = broker_filters(&sim);
    assert!(before > 0, "placed subscriptions occupy broker tables");

    // Subscriber 0 goes silent (soft-state unsubscription): its filters
    // must disappear from every stage within 3 × TTL (+ one sweep).
    sim.unsubscribe(subs[0]);
    sim.run_for(SimDuration::from_ticks(5 * TTL));
    let after = broker_filters(&sim);
    assert!(
        after < before,
        "lease sweep removes the silent subscriber's branches ({before} -> {after})"
    );

    // Its events no longer flow; the renewing subscriber is unaffected.
    let gone = publish_for(&mut sim, class, 0, 0);
    let kept = publish_for(&mut sim, class, 1, 1);
    sim.run_for(SimDuration::from_ticks(TTL / 2));
    assert!(!sim.deliveries(subs[0]).contains(&gone));
    assert!(sim.deliveries(subs[1]).contains(&kept));
}

/// Node churn: a broker goes dark ([`OverlaySim::isolate`]) and comes back
/// ([`OverlaySim::heal_node`]). With per-link reliability the events
/// published while it was dark are retransmitted after heal — node churn
/// costs latency, not deliveries.
#[test]
fn isolated_broker_heals_without_losing_events() {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let registry = Arc::new(registry);
    let mut sim = with_links(
        OverlayConfig {
            levels: vec![4, 1],
            ..OverlayConfig::default()
        },
        LinkConfig {
            reliable: true,
            ..LinkConfig::default()
        },
        Arc::clone(&registry),
    )
    .unwrap();
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    let filter = Filter::for_class(class).eq("year", 2000).eq("author", "me");
    let sub = sim.add_subscriber(filter).unwrap();
    sim.settle();
    let host = sim.subscriber(sub).host().expect("placed");
    let publish = |sim: &mut LinkedSim, seq: u64| {
        let e =
            event_data! { "year" => 2000, "conference" => "c", "author" => "me", "title" => "t" };
        sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), e));
        sim.run_for(SimDuration::from_ticks(32));
    };

    publish(&mut sim, 0);
    sim.isolate(host);
    publish(&mut sim, 1); // dropped on the blocked link, buffered upstream
    assert_eq!(sim.deliveries(sub), &[EventSeq(0)]);
    sim.heal_node(host);
    publish(&mut sim, 2); // exposes the gap; 1 is NACKed and retransmitted

    assert_eq!(
        sim.deliveries(sub),
        &[EventSeq(0), EventSeq(1), EventSeq(2)]
    );
    assert!(sim.metrics().chaos.retransmitted > 0);
}
