//! Behavioral tests for the wall-clock runtime: exactly-once sharded
//! delivery, follower control suppression, zero-loss shutdown drain, and
//! stats accounting.

use std::sync::Arc;
use std::time::Duration;

use layercake_event::{
    Advertisement, AttrValue, AttributeDecl, Bytes, ClassId, Envelope, EventData, EventSeq,
    StageMap, TypeRegistry, ValueKind, MAX_FRAME_PAYLOAD,
};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, OverlayError};
use layercake_rt::{RtConfig, RtError, Runtime, TransportKind};
use layercake_sim::SimDuration;

/// Registers `n` two-attribute event classes (`region`, `level`).
fn register_classes(registry: &mut TypeRegistry, n: usize) -> Vec<ClassId> {
    (0..n)
        .map(|i| {
            registry
                .register(
                    &format!("Sensor{i}"),
                    None,
                    vec![
                        AttributeDecl::new("region", ValueKind::Int),
                        AttributeDecl::new("level", ValueKind::Int),
                    ],
                )
                .unwrap()
        })
        .collect()
}

fn event(class: ClassId, idx: usize, seq: u64, region: i64, level: i64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", region);
    meta.insert("level", level);
    Envelope::from_meta(class, format!("Sensor{idx}"), EventSeq(seq), meta)
}

#[test]
fn sharded_delivery_is_exactly_once_across_classes() {
    let mut registry = TypeRegistry::new();
    let classes = register_classes(&mut registry, 4);
    let registry = Arc::new(registry);
    let overlay = OverlayConfig {
        levels: vec![2, 1],
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 4), registry).unwrap();
    for &class in &classes {
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[2, 1]).unwrap(),
        ));
    }
    // One subscriber per class, matching only region 0.
    let handles: Vec<_> = classes
        .iter()
        .map(|&class| {
            rt.add_subscriber(Filter::for_class(class).eq("region", 0i64))
                .unwrap()
        })
        .collect();

    // Interleave classes and regions; only region 0 events match.
    let publisher = rt.publisher();
    let mut expected_per_class = vec![Vec::new(); classes.len()];
    for seq in 0..400u64 {
        let idx = (seq as usize) % classes.len();
        let region = i64::from(seq % 2 == 1); // half match, half do not
        if region == 0 {
            expected_per_class[idx].push(EventSeq(seq));
        }
        publisher.publish(event(classes[idx], idx, seq, region, seq as i64));
    }
    let expected_total: usize = expected_per_class.iter().map(Vec::len).sum();
    assert!(
        rt.wait_delivered(expected_total as u64, Duration::from_secs(30)),
        "delivered {} of {expected_total}",
        rt.stats().delivered()
    );
    let report = rt.shutdown();

    for (idx, &handle) in handles.iter().enumerate() {
        let mut got = report.deliveries(handle).to_vec();
        got.sort_unstable();
        assert_eq!(
            got, expected_per_class[idx],
            "class {idx} must see each matching event exactly once"
        );
    }
    // Follower shards receive the broadcast control plane but must not
    // speak on it.
    assert!(report.stats.suppressed_control() > 0);
    assert_eq!(report.stats.decode_errors(), 0);
    assert_eq!(report.stats.published(), 400);
    assert_eq!(report.stats.delivered(), expected_total as u64);
    assert_eq!(
        report.stats.latency_histogram().count(),
        expected_total as u64
    );
}

/// One publisher and FIFO links: a subscriber sees its class's events in
/// the order they were published, not merely each of them once, and no
/// frame on the way failed to encode or decode. (The retired
/// `exp_throughput` asserted this before its timed runs.)
#[test]
fn a_single_publishers_order_survives_the_shards() {
    let mut registry = TypeRegistry::new();
    let classes = register_classes(&mut registry, 8);
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 2), Arc::new(registry)).unwrap();
    for &class in &classes {
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[2]).unwrap(),
        ));
    }
    let handles: Vec<_> = classes
        .iter()
        .map(|&class| {
            rt.add_subscriber(Filter::for_class(class).eq("region", 0i64))
                .unwrap()
        })
        .collect();

    let publisher = rt.publisher();
    for seq in 0..256u64 {
        let idx = (seq as usize) % classes.len();
        publisher.publish(event(classes[idx], idx, seq, 0, seq as i64));
    }
    assert!(rt.wait_delivered(256, Duration::from_secs(30)));
    let report = rt.shutdown();

    for (idx, &handle) in handles.iter().enumerate() {
        let expected: Vec<EventSeq> = (0..256u64)
            .filter(|seq| (*seq as usize) % classes.len() == idx)
            .map(EventSeq)
            .collect();
        assert_eq!(report.deliveries(handle), expected, "class {idx}");
    }
    assert_eq!(report.stats.decode_errors(), 0);
    assert_eq!(report.stats.encode_errors(), 0);
}

#[test]
fn shutdown_drains_in_flight_events() {
    let mut registry = TypeRegistry::new();
    let classes = register_classes(&mut registry, 1);
    let registry = Arc::new(registry);
    let overlay = OverlayConfig {
        levels: vec![2, 1],
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 2), registry).unwrap();
    rt.advertise(Advertisement::new(
        classes[0],
        StageMap::from_prefixes(&[2, 1]).unwrap(),
    ));
    let handle = rt
        .add_subscriber(Filter::for_class(classes[0]).eq("region", 0i64))
        .unwrap();

    // Publish a burst and shut down immediately: the staged top-down
    // drain must still deliver every matching event.
    let publisher = rt.publisher();
    for seq in 0..500u64 {
        publisher.publish(event(classes[0], 0, seq, 0, seq as i64));
    }
    let report = rt.shutdown();
    assert_eq!(report.stats.delivered(), 500);
    assert_eq!(report.deliveries(handle).len(), 500);
}

/// The branches of one subscription are placed one at a time: a branch's
/// `req-Insert` is at the root before the next branch's request is sent, so
/// the similarity search always sees it. Sent as a batch the requests race
/// the `req-Insert`s they cause, and where a branch lands — and whether a
/// follower shard's table still equals its leader's — depends on which
/// thread the scheduler ran first.
#[test]
fn branches_sharing_a_root_filter_share_a_host() {
    let mut registry = TypeRegistry::new();
    let class = register_classes(&mut registry, 1)[0];
    let overlay = OverlayConfig {
        levels: vec![4, 1],
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 2), Arc::new(registry)).unwrap();
    // The root filters on `region` alone, the stage-1 brokers on both.
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[2, 1]).unwrap(),
    ));
    // Level-major, so branches of one region are never neighbours.
    let branches: Vec<Filter> = (0..6i64)
        .flat_map(|level| {
            (0..8i64).map(move |region| {
                Filter::for_class(class)
                    .eq("region", region)
                    .eq("level", level)
            })
        })
        .collect();
    rt.add_subscriber_any(branches).unwrap();
    let report = rt.shutdown();

    let node = &report.subscribers[0];
    assert!(node.fully_placed());
    for region in 0..8usize {
        let hosts: Vec<_> = node
            .branches()
            .iter()
            .skip(region)
            .step_by(8)
            .map(|b| b.host().expect("placed"))
            .collect();
        assert_eq!(hosts.len(), 6);
        assert!(
            hosts.iter().all(|h| *h == hosts[0]),
            "region {region} is spread over {hosts:?}"
        );
    }
    // Every shard of a broker applied the same control frames in the same
    // order, so the replicas' tables are equal entry for entry.
    for ((id, shard), broker) in &report.brokers {
        let leader = report
            .brokers
            .iter()
            .find(|((b, s), _)| b == id && *s == 0)
            .map(|(_, leader)| leader)
            .expect("shard 0 of every broker");
        let entries = |b: &layercake_overlay::Broker| {
            b.table_entries()
                .map(|(f, ds)| (f.clone(), ds))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            entries(broker),
            entries(leader),
            "broker {id:?} shard {shard}"
        );
    }
}

/// The frame shape of lcbench's `durable-tcp`: four symbols, each with
/// one volatile and one durable subscriber, all hosted by the broker the
/// publications enter at. An event costs three data frames — in, and out
/// to each of its two matching subscribers — plus the durable
/// subscriber's batched acks: the durable consumers of the other three
/// symbols are sent nothing.
#[test]
fn a_durable_delivery_costs_one_frame_per_matching_consumer() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        let dir = std::env::temp_dir().join(format!(
            "layercake-rt-frames-{transport:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut registry = TypeRegistry::new();
        let class = register_classes(&mut registry, 1)[0];
        let overlay = OverlayConfig {
            levels: vec![1],
            durability_enabled: true,
            ..OverlayConfig::default()
        };
        let mut cfg = RtConfig::new(overlay, 1);
        cfg.durable_dir = Some(dir.clone());
        cfg.transport = transport;
        let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[2, 1]).unwrap(),
        ));
        for region in 0..4i64 {
            let filter = Filter::for_class(class).eq("region", region);
            rt.add_subscriber(filter.clone()).unwrap();
            rt.add_durable_subscriber(filter).unwrap();
        }

        // Publishes `n` events, two deliveries each, and waits for the
        // trailing acks (flushed a `ttl` after the last delivery).
        let publisher = rt.publisher();
        let mut seq = 0u64;
        let mut publish = |n: u64| {
            for _ in 0..n {
                publisher.publish(event(class, 0, seq, (seq % 4) as i64, seq as i64));
                seq += 1;
            }
            assert!(rt.wait_delivered(2 * seq, Duration::from_secs(30)));
            std::thread::sleep(Duration::from_millis(250));
        };
        publish(100);
        let warm = rt.stats().frames_sent();
        publish(1600);
        let per_event = (rt.stats().frames_sent() - warm) as f64 / 1600.0;
        let report = rt.shutdown();
        assert!(
            (3.0..=3.5).contains(&per_event),
            "{transport:?}: {per_event} frames per event"
        );
        assert_eq!(report.durability().durable_sent, 1700);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Publishes three events of a one-float class, the middle one built by
/// `make` instead, on `transport`; returns the report and the subscriber's
/// deliveries.
fn publish_around(
    transport: TransportKind,
    make: impl FnOnce(ClassId) -> Envelope,
) -> (layercake_rt::RtReport, Vec<EventSeq>) {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "Gauge",
            None,
            vec![AttributeDecl::new("reading", ValueKind::Float)],
        )
        .unwrap();
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.transport = transport;
    let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let handle = rt.add_subscriber(Filter::for_class(class)).unwrap();
    let gauge = |seq: u64| {
        let mut meta = EventData::new();
        meta.insert("reading", 1.5);
        Envelope::from_meta(class, "Gauge", EventSeq(seq), meta)
    };
    let publisher = rt.publisher();
    publisher.publish(gauge(0));
    publisher.publish(make(class));
    publisher.publish(gauge(2));
    assert!(rt.wait_delivered(2, Duration::from_secs(30)));
    let report = rt.shutdown();
    let delivered = report.deliveries(handle).to_vec();
    (report, delivered)
}

/// A NaN float can be put into meta-data directly (`AttrValue::Float`),
/// but no hop may carry it: the publisher refuses the event into
/// `rt.encode_errors`, and it is never delivered.
#[test]
fn a_nan_event_is_refused_at_the_publisher() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        let (report, delivered) = publish_around(transport, |class| {
            let mut meta = EventData::new();
            meta.insert("reading", AttrValue::Float(f64::NAN));
            Envelope::from_meta(class, "Gauge", EventSeq(1), meta)
        });
        assert_eq!(delivered, [EventSeq(0), EventSeq(2)], "{transport:?}");
        assert_eq!(report.stats.encode_errors(), 1, "{transport:?}");
        assert_eq!(report.stats.decode_errors(), 0, "{transport:?}");
    }
}

/// A message whose frame would exceed the frame cap is refused where it is
/// sent, into `rt.encode_errors`, and the events around it flow on.
#[test]
fn an_over_cap_event_is_an_encode_error_and_is_not_delivered() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        let (report, delivered) = publish_around(transport, |class| {
            let mut meta = EventData::new();
            meta.insert("reading", 1.5);
            let payload = Bytes::from(vec![0u8; MAX_FRAME_PAYLOAD]);
            Envelope::from_parts(class, "Gauge", EventSeq(1), meta, payload)
        });
        assert_eq!(delivered, [EventSeq(0), EventSeq(2)], "{transport:?}");
        assert_eq!(report.stats.encode_errors(), 1, "{transport:?}");
        assert_eq!(report.stats.frames_sent(), report.stats.frames_received());
    }
}

#[test]
fn runtime_rejects_unsupported_configs() {
    let registry = Arc::new(TypeRegistry::new());
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let err = Runtime::start(RtConfig::new(overlay.clone(), 0), Arc::clone(&registry));
    assert!(matches!(err, Err(RtError::InvalidShards)));

    let mut leased = overlay;
    leased.leases_enabled = true;
    let err = Runtime::start(RtConfig::new(leased, 1), registry);
    assert!(matches!(err, Err(RtError::UnsupportedFeature(_))));
}

#[test]
fn runtime_rejects_a_zero_ttl() {
    // The ttl paces a durable subscriber's ack flush and gap repair even
    // with leases off; zero would re-arm those timers forever.
    let overlay = OverlayConfig {
        levels: vec![1],
        ttl: SimDuration::ZERO,
        ..OverlayConfig::default()
    };
    let err = Runtime::start(RtConfig::new(overlay, 1), Arc::new(TypeRegistry::new()));
    assert!(matches!(err, Err(RtError::Overlay(OverlayError::ZeroTtl))));
}
