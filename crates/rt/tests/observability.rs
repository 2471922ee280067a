//! Runtime observability: sim-vs-rt trace parity, structured snapshots,
//! and the Prometheus endpoint.
//!
//! The trace-parity test is the observability counterpart of the
//! delivery-parity suite (`tests/parity.rs`): with full sampling, the
//! wall-clock runtime must record *the same per-hop provenance* — node,
//! sender, stage, covering-filter verdict — as the deterministic
//! simulator for every event, differing only in timestamps (virtual
//! ticks vs nanoseconds) and shard ids (the simulator has one replica
//! per broker).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use layercake_event::{Advertisement, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::{telemetry_table, TelemetrySnapshot};
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_rt::{RtConfig, RtError, Runtime};
use layercake_trace::EventTrace;
use layercake_workload::{BiblioConfig, BiblioWorkload, StockConfig, StockWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EVENTS: u64 = 100;

/// One hop, reduced to its transport-independent provenance: node
/// label, sending node, stage, and the filtering verdict. Timestamps
/// (virtual vs wall-clock) and shard ids (always 0 in the sim) are the
/// two fields the transports legitimately disagree on.
type Provenance = (String, u64, usize, String);

fn provenance(trace: &EventTrace) -> Vec<Provenance> {
    let mut hops: Vec<_> = trace
        .hops
        .iter()
        .map(|h| {
            (
                h.node.clone(),
                h.from_id,
                h.stage,
                format!("{:?}", h.verdict),
            )
        })
        .collect();
    // The simulator appends hops in global virtual-time order; the
    // runtime appends in wall-clock completion order across threads.
    // The hop *set* is the contract.
    hops.sort();
    hops
}

fn by_event(traces: Vec<EventTrace>) -> BTreeMap<(String, u64), Vec<Provenance>> {
    traces
        .into_iter()
        .map(|t| ((t.class.clone(), t.seq), provenance(&t)))
        .collect()
}

fn trace_parity_case(levels: Vec<usize>, shards: usize, seed: u64) {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 8,
            conferences: 5,
            authors: 20,
            titles: 40,
            wildcard_rate: 0.2,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let class = workload.class();
    let registry = Arc::new(registry);
    let adv = Advertisement::new(class, BiblioWorkload::stage_map());
    let events: Vec<_> = (0..EVENTS)
        .map(|i| workload.envelope(i, &mut rng))
        .collect();
    let overlay = OverlayConfig {
        levels,
        trace_sample_every: 1,
        ..OverlayConfig::default()
    };

    // Reference: every event fully traced under virtual time.
    let mut sim = OverlaySim::new(overlay.clone(), Arc::clone(&registry));
    sim.advertise(adv.clone());
    sim.settle();
    let mut expected_deliveries = 0u64;
    let mut sim_handles = Vec::new();
    for filter in workload.subscriptions() {
        sim_handles.push(sim.add_subscriber(filter.clone()).unwrap());
        sim.settle();
    }
    sim.publish_all(events.iter().cloned());
    sim.settle();
    for &h in &sim_handles {
        expected_deliveries += sim.deliveries(h).len() as u64;
    }
    let sim_traces = by_event(sim.traces());
    assert_eq!(sim_traces.len(), EVENTS as usize);

    // Same protocol, same sampling, wall-clock transport.
    let mut rt = Runtime::start(RtConfig::new(overlay, shards), registry).unwrap();
    rt.advertise(adv);
    for filter in workload.subscriptions() {
        rt.add_subscriber(filter.clone()).unwrap();
    }
    let publisher = rt.publisher();
    for env in events {
        publisher.publish(env);
    }
    assert!(
        rt.wait_delivered(expected_deliveries, Duration::from_secs(30)),
        "runtime delivered {} of {expected_deliveries}",
        rt.stats().delivered()
    );
    let report = rt.shutdown();
    let sink = report.trace.as_ref().expect("tracing was enabled");
    assert_eq!(sink.traced_count(), EVENTS);
    assert_eq!(sink.published_count(), EVENTS);
    let rt_traces = by_event(sink.traces());

    assert_eq!(
        sim_traces.keys().collect::<Vec<_>>(),
        rt_traces.keys().collect::<Vec<_>>(),
        "sampled event sets diverged"
    );
    for (key, sim_hops) in &sim_traces {
        let rt_hops = &rt_traces[key];
        assert_eq!(
            sim_hops, rt_hops,
            "per-hop provenance diverged for event {key:?}"
        );
    }

    // Wall-clock stamps: hop arrivals are nanoseconds since runtime
    // start, so a later hop in a chain never precedes the publish stamp.
    for trace in sink.traces() {
        for hop in &trace.hops {
            assert!(
                hop.arrival >= trace.published_at,
                "hop arrival precedes publish in {trace:?}"
            );
        }
    }

    // The export is line-per-trace JSONL in the sim's schema.
    let jsonl = sink.to_jsonl();
    assert_eq!(jsonl.lines().count(), EVENTS as usize);
    assert!(jsonl.lines().all(|l| l.starts_with('{')));
}

#[test]
fn trace_parity_single_shard() {
    trace_parity_case(vec![4, 1], 1, 0x7EAC0);
}

#[test]
fn trace_parity_sharded_records_shards() {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(0x54A2D);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 8,
            conferences: 5,
            authors: 20,
            titles: 40,
            wildcard_rate: 0.2,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let class = workload.class();
    let registry = Arc::new(registry);
    let overlay = OverlayConfig {
        levels: vec![4, 1],
        trace_sample_every: 1,
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 4), registry).unwrap();
    rt.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    for filter in workload.subscriptions() {
        rt.add_subscriber(filter.clone()).unwrap();
    }
    let publisher = rt.publisher();
    for i in 0..EVENTS {
        publisher.publish(workload.envelope(i, &mut rng));
    }
    // Don't require a delivery count here — this case only asserts hop
    // provenance; give in-flight frames a moment to land.
    std::thread::sleep(Duration::from_millis(300));
    let report = rt.shutdown();
    let sink = report.trace.expect("tracing was enabled");
    let traces = sink.traces();
    assert_eq!(traces.len(), EVENTS as usize);
    // Broker hops record the matcher shard that ran them; with one
    // class hashing to one shard, all broker hops of one event agree.
    let shards_seen: std::collections::BTreeSet<u32> = traces
        .iter()
        .flat_map(|t| t.hops.iter())
        .filter(|h| h.stage > 0)
        .map(|h| h.shard)
        .collect();
    assert_eq!(
        shards_seen.len(),
        1,
        "one event class must match on exactly one shard, saw {shards_seen:?}"
    );
    // Subscriber hops always report shard 0 (subscribers are unsharded).
    assert!(traces
        .iter()
        .flat_map(|t| t.hops.iter())
        .filter(|h| h.stage == 0)
        .all(|h| h.shard == 0));
}

fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn prom_value(exposition: &str, series: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| {
            l.strip_prefix(series).and_then(|rest| {
                let rest = rest.trim();
                rest.split_whitespace().next()?.parse().ok()
            })
        })
        .unwrap_or_else(|| panic!("series {series} missing from:\n{exposition}"))
}

#[test]
fn metrics_endpoint_serves_prometheus_exposition() {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(0x3A11);
    let workload = BiblioWorkload::new(BiblioConfig::default(), &mut registry, &mut rng);
    let class = workload.class();
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    cfg.stage_sample_every = 1;
    let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
    let addr = rt.metrics_addr().expect("endpoint bound");
    rt.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    rt.add_subscriber(workload.subscriptions()[0].clone())
        .unwrap();

    let publisher = rt.publisher();
    for i in 0..20 {
        publisher.publish(workload.envelope(i, &mut rng));
    }
    std::thread::sleep(Duration::from_millis(200));

    let first = scrape(addr);
    let (head, body) = first.split_once("\r\n\r\n").expect("HTTP head + body");
    assert!(head.starts_with("HTTP/1.1 200 OK"));
    assert!(head.contains("text/plain; version=0.0.4"));
    assert!(body.contains("# TYPE layercake_rt_published counter"));
    assert!(body.contains("# TYPE layercake_rt_latency_ns summary"));
    assert!(body.contains("# TYPE layercake_stage_match_ns summary"));
    assert_eq!(prom_value(body, "layercake_rt_published "), 20);

    // Counters are monotone across scrapes.
    for i in 20..40 {
        publisher.publish(workload.envelope(i, &mut rng));
    }
    std::thread::sleep(Duration::from_millis(200));
    let second = scrape(addr);
    let body2 = second.split_once("\r\n\r\n").unwrap().1;
    assert_eq!(prom_value(body2, "layercake_rt_published "), 40);
    assert!(
        prom_value(body2, "layercake_rt_frames_sent ")
            >= prom_value(body, "layercake_rt_frames_sent ")
    );

    // The structured snapshot is the registry's: the endpoint's numbers,
    // by the names they are registered under.
    let snap = rt.snapshot();
    assert_eq!(snap.counter("rt.published"), Some(40));
    for stage in [
        "stage.match_ns",
        "stage.decode_ns",
        "stage.encode_ns",
        "stage.egress_send_ns",
        "stage.ingress_wait_ns",
    ] {
        assert!(snap.histogram(stage).unwrap().count() > 0, "{stage}");
    }

    // Stable serde shape round-trips.
    let json = serde_json::to_string(&snap).unwrap();
    let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap, back);
    // And the table names what it shows.
    let table = telemetry_table(&snap);
    assert!(table.contains("rt.published"));
    assert!(table.contains("stage.match_ns"));

    let _ = rt.shutdown();
}

#[test]
fn snapshot_and_prometheus_expose_table_shape_gauges() {
    let mut registry = TypeRegistry::new();
    let stock = StockWorkload::new(StockConfig::default(), &mut registry);
    let class = stock.class();
    let overlay = OverlayConfig {
        levels: vec![1, 1],
        aggregation_enabled: true,
        // Keep the symbol-wide filter co-located with the narrow one it
        // covers (see the overlay aggregation suite).
        wildcard_stage_placement: false,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());
    let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
    let addr = rt.metrics_addr().expect("endpoint bound");
    rt.advertise(Advertisement::new(class, StockWorkload::stage_map()));
    let sym = StockWorkload::symbol_name(0);
    rt.add_subscriber(Filter::for_class(class).eq("symbol", sym.clone()))
        .unwrap();
    rt.add_subscriber(Filter::for_class(class).eq("symbol", sym).lt("price", 10.0))
        .unwrap();

    // Subscriptions land asynchronously; poll until the broker leaders
    // have published the table shape. The wide filter is one live entry
    // on the stage-1 broker plus its announcement upstream; the narrow
    // one is covered bookkeeping only.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let snap = rt.snapshot();
        let entries = snap.gauge("rt.filter_table_entries").unwrap();
        if entries >= 2 && snap.gauge("rt.agg_covered_subs").unwrap() >= 1 {
            break snap;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "table-shape gauges never published:\n{}",
            telemetry_table(&snap)
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(telemetry_table(&snap).contains("rt.filter_table_entries"));

    let response = scrape(addr);
    let body = response.split_once("\r\n\r\n").unwrap().1;
    assert!(body.contains("# TYPE layercake_rt_filter_table_entries gauge"));
    assert!(body.contains("# TYPE layercake_rt_agg_covered_subs gauge"));
    assert!(prom_value(body, "layercake_rt_filter_table_entries ") >= 2);
    assert!(prom_value(body, "layercake_rt_agg_covered_subs ") >= 1);
    let _ = rt.shutdown();
}

#[test]
fn invalid_metrics_addr_is_rejected_with_actionable_error() {
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.metrics_addr = Some("not-an-addr".to_string());
    let registry = Arc::new(TypeRegistry::new());
    let err = match Runtime::start(cfg, registry) {
        Err(e) => e,
        Ok(_) => panic!("invalid metrics_addr must be rejected"),
    };
    match &err {
        RtError::Metrics { addr, .. } => assert_eq!(addr, "not-an-addr"),
        other => panic!("expected RtError::Metrics, got {other:?}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("RtConfig::metrics_addr") && text.contains("127.0.0.1:9464"),
        "error must name the knob and show a working value: {text}"
    );
}

#[test]
fn tracing_config_is_accepted_by_the_runtime() {
    // Regression: the runtime used to reject any trace_sample_every > 0
    // with a misleading "unsupported" error.
    let overlay = OverlayConfig {
        levels: vec![1],
        trace_sample_every: 64,
        ..OverlayConfig::default()
    };
    let rt = Runtime::start(RtConfig::new(overlay, 2), Arc::new(TypeRegistry::new())).unwrap();
    assert!(rt.trace_sink().is_some());
    let report = rt.shutdown();
    assert!(report.trace.is_some());
}
