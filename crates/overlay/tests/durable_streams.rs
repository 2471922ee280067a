//! Filtered durable streams: each durable consumer of a class is sent the
//! subsequence of the class log its own table entries match, chained by
//! predecessor offset. Whatever the interleaving of publishes, lost
//! frames, detaches and broker crashes, every consumer ends up with
//! exactly what a naive `Filter::matches` over the published events
//! says it is owed, nobody is sent what its filters reject, and a
//! consumer that matches nothing pins nothing.

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::{DestId, Filter};
use layercake_overlay::{OverlayConfig, OverlaySim, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_workload::BiblioWorkload;
use proptest::prelude::*;

const TTL: u64 = 400;
const CONFERENCES: [&str; 3] = ["icdcs", "podc", "sosp"];

/// Consumers of one class with different selectivities over the events
/// [`event`] builds; the third matches nothing.
fn consumer_filter(class: ClassId, k: usize) -> Filter {
    let f = Filter::for_class(class);
    match k {
        0 => f.ge("year", 2000),
        1 => f.eq("year", 2001),
        2 => f.eq("year", 1900),
        3 => f.eq("conference", "icdcs"),
        _ => f.le("year", 2001).eq("conference", "podc"),
    }
}

fn event(class: ClassId, seq: u64, year: i64, conf: usize) -> Envelope {
    let data = event_data! {
        "year" => year,
        "conference" => CONFERENCES[conf],
        "author" => "eugster",
        "title" => format!("t{seq}"),
    };
    Envelope::from_meta(class, "Biblio", EventSeq(seq), data)
}

/// One broker, so a re-subscription after its crash lands back on the
/// node that owns the log; segments of a handful of records, so rotation
/// and compaction are routine; every append synced, so a crash takes no
/// record with it (only unflushed acks).
fn sim_with_consumers(seed: u64, consumers: usize) -> (OverlaySim, ClassId, Vec<SubscriberHandle>) {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels: vec![1],
            leases_enabled: true,
            durability_enabled: true,
            ttl: SimDuration::from_ticks(TTL),
            wal_segment_bytes: 600,
            wal_flush_every: 1,
            seed,
            ..OverlayConfig::default()
        },
        Arc::new(registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();
    let subs = (0..consumers)
        .map(|k| {
            sim.add_durable_subscriber(consumer_filter(class, k))
                .unwrap()
        })
        .collect();
    sim.run_for(SimDuration::from_ticks(8));
    (sim, class, subs)
}

#[derive(Debug, Clone)]
enum Op {
    Publish(i64, usize),
    /// Publishes under a link of one consumer losing (and duplicating)
    /// frames: host → subscriber carries `Durable` and `DurableBase`,
    /// subscriber → host carries `AckUpto` and the repair `Attach`.
    Lossy {
        consumer: usize,
        to_subscriber: bool,
        events: Vec<(i64, usize)>,
    },
    Detach(usize),
    Attach(usize),
    CrashRestart,
}

fn content() -> impl Strategy<Value = (i64, usize)> {
    (2000i64..2004, 0usize..2)
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        0usize..5,
        any::<bool>(),
        proptest::collection::vec(content(), 1..5),
    )
        .prop_map(|(kind, consumer, to_subscriber, events)| match kind {
            0..=4 => Op::Publish(events[0].0, events[0].1),
            5..=7 => Op::Lossy {
                consumer,
                to_subscriber,
                events,
            },
            8 => Op::Detach(consumer),
            9 | 10 => Op::Attach(consumer),
            _ => Op::CrashRestart,
        })
}

/// Case count: the vendored proptest has no environment override of its
/// own, and this property is worth running long locally.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn every_consumer_gets_exactly_its_own_matches(
        seed in any::<u64>(),
        consumers in 3usize..6,
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let (mut sim, class, subs) = sim_with_consumers(seed, consumers);
        let host = sim.subscriber(subs[0]).host().expect("placed");
        let registry = Arc::clone(sim.registry());
        sim.set_fault_seed(seed ^ 0xD0_D0);

        // Faults stop one lease period in: a lease outlives any renewal
        // lost before that, so no consumer is ever dropped for silence
        // and the oracle stays the plain filter.
        let faults_until = sim.now() + SimDuration::from_ticks(TTL);
        let mut published: Vec<Envelope> = Vec::new();
        let mut crashed = false;
        let mut publish = |sim: &mut OverlaySim, (year, conf): (i64, usize)| {
            let env = event(class, published.len() as u64, year, conf);
            published.push(env.clone());
            sim.publish(env);
            sim.run_for(SimDuration::from_ticks(2));
        };
        for op in ops {
            match op {
                Op::Publish(year, conf) => publish(&mut sim, (year, conf)),
                Op::Lossy {
                    consumer,
                    to_subscriber,
                    events,
                } => {
                    let sub = sim.subscriber_actor(subs[consumer % consumers]);
                    let (from, to) = if to_subscriber {
                        (host, sub)
                    } else {
                        (sub, host)
                    };
                    if sim.now() < faults_until {
                        sim.set_link_fault_plan(
                            from,
                            to,
                            FaultPlan {
                                drop_probability: 0.4,
                                dup_probability: 0.1,
                                max_jitter: SimDuration::from_ticks(0),
                            },
                        );
                    }
                    for content in events {
                        publish(&mut sim, content);
                    }
                    sim.clear_fault_plans();
                }
                Op::Detach(k) => {
                    sim.disconnect(subs[k % consumers]);
                    sim.run_for(SimDuration::from_ticks(2));
                }
                Op::Attach(k) => {
                    sim.reconnect(subs[k % consumers]);
                    sim.run_for(SimDuration::from_ticks(2));
                }
                Op::CrashRestart => {
                    crashed = true;
                    sim.crash_broker(host);
                    sim.run_for(SimDuration::from_ticks(3));
                    prop_assert!(sim.restart_broker(host));
                    sim.run_for(SimDuration::from_ticks(2));
                }
            }
        }

        // Quiescence: everyone attached, links clean, time for renewals
        // to notice a crash, repairs to land and the sweep to restart
        // what stalled.
        let owed: Vec<Vec<EventSeq>> = (0..consumers)
            .map(|k| {
                let filter = consumer_filter(class, k);
                published
                    .iter()
                    .filter(|env| filter.matches(class, env.meta(), &registry))
                    .map(Envelope::seq)
                    .collect()
            })
            .collect();
        for round in 0..40 {
            if round % 4 == 0 {
                // A detach survives in the broker until an attach names
                // it; one sent while the subscriber was re-placing is
                // refused by the facade, so ask again.
                for &sub in &subs {
                    sim.reconnect(sub);
                }
            }
            sim.run_for(SimDuration::from_ticks(2 * TTL));
            if subs
                .iter()
                .zip(&owed)
                .all(|(&s, o)| sim.deliveries(s).len() == o.len())
            {
                break;
            }
        }
        for (k, (&sub, owed)) in subs.iter().zip(&owed).enumerate() {
            let mut got = sim.deliveries(sub).to_vec();
            got.sort_unstable();
            prop_assert_eq!(&got, owed, "consumer {}", k);
        }
        prop_assert!(owed[2].is_empty(), "the third consumer matches nothing");

        // One more sweep, for the last batched acks to flush: every
        // stream's persisted ack is at the tail — the consumer that
        // matched nothing included — and nothing closed is still pinned.
        sim.run_for(SimDuration::from_ticks(3 * TTL));
        sim.flush_wals();
        let wal = sim.broker(host).expect("a broker").wal().expect("durable");
        let tail = wal.tail_off(class);
        for (k, &sub) in subs.iter().enumerate() {
            let dest = DestId(sim.subscriber_actor(sub).0 as u64);
            prop_assert_eq!(wal.acked_upto(dest, class), tail, "consumer {}", k);
        }
        prop_assert!(wal.segment_count() <= 1, "closed segments compact");

        // A consumer whose filters the table holds is sent only what
        // they match. (A crashed broker rebuilds its table from
        // re-subscriptions and sends recovered consumers the whole
        // stream until theirs arrives: over-delivery by design.)
        let stats = wal.stats();
        let pairs: u64 = owed.iter().map(|o| o.len() as u64).sum();
        prop_assert!(stats.durable_sent >= pairs);
        if !crashed {
            for (k, &sub) in subs.iter().enumerate() {
                let record = sim.subscriber(sub).record();
                prop_assert_eq!(record.received, record.matched, "consumer {}", k);
            }
            // Every send is either a pair's first or a counted replay.
            prop_assert!(
                stats.durable_sent - stats.records_replayed <= pairs,
                "{} sent, {} replayed, {} owed",
                stats.durable_sent,
                stats.records_replayed,
                pairs
            );
        }
    }
}

/// Events no durable consumer wants are neither logged nor sent; events
/// one of K wants are logged once, sent once and passed over K−1 times.
#[test]
fn unmatched_events_cost_no_frame_and_no_record() {
    let (mut sim, class, subs) = sim_with_consumers(7, 5);
    let host = sim.subscriber(subs[0]).host().expect("placed");
    let before = sim.network_messages();

    // Too early for the filters on `year`, at a conference none names.
    for seq in 0..20 {
        sim.publish(event(class, seq, 1999, 2));
    }
    sim.run_for(SimDuration::from_ticks(16));
    let stats = sim.broker(host).unwrap().wal().unwrap().stats().clone();
    assert_eq!(stats.records_appended, 0, "the log holds what is owed");
    assert_eq!(stats.durable_sent, 0);
    assert_eq!(stats.durable_skipped, 0);
    assert_eq!(
        sim.network_messages(),
        before + 20,
        "the publications arrived and not one frame left the broker"
    );

    // The same conference in 2003: the first consumer's alone.
    for seq in 20..50 {
        sim.publish(event(class, seq, 2003, 2));
    }
    sim.run_for(SimDuration::from_ticks(16));
    let stats = sim.broker(host).unwrap().wal().unwrap().stats().clone();
    assert_eq!(stats.records_appended, 30);
    assert_eq!(stats.durable_sent, 30);
    assert_eq!(stats.durable_skipped, 30 * 4);
    assert_eq!(stats.records_replayed, 0);
    assert_eq!(sim.deliveries(subs[0]).len(), 30);
    // No sweep has run yet: passing a record over is what moved the
    // idle consumers' acks to the tail.
    let wal = sim.broker(host).unwrap().wal().unwrap();
    for &sub in &subs[1..] {
        assert_eq!(sim.subscriber(sub).durable_received(), 0);
        let dest = DestId(sim.subscriber_actor(sub).0 as u64);
        assert_eq!(wal.acked_upto(dest, class), 30);
    }
    assert!(sim
        .metrics()
        .durability_table()
        .contains("durable_skipped    = 120"));
}
