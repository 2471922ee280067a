//! Runtime telemetry: the wall-clock runtime with every observability
//! surface switched on — per-stage pipeline profiling, sampled hop
//! tracing with wall-clock stamps, a structured snapshot, and a live
//! Prometheus endpoint (scraped in-process; point `curl` at the printed
//! address to do it by hand).
//!
//! Run with: `cargo run --example runtime_telemetry`

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use layercake_event::{typed_event, Advertisement, Envelope, EventSeq, StageMap, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::telemetry_table;
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, Runtime};

typed_event! {
    pub struct Trade: "Trade" { symbol: i64, size: i64 }
}

fn main() {
    let mut registry = TypeRegistry::new();
    let class = registry.register_event::<Trade>().unwrap();

    let overlay = OverlayConfig {
        levels: vec![1],
        // Sample every 8th published event into a wall-clock trace: each
        // hop records the shard it ran on, the covering-filter verdict,
        // and a nanosecond timestamp.
        trace_sample_every: 8,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 2);
    // Time every 4th frame through the pipeline stages (ingress wait →
    // decode → match → encode → egress send). At 0 the instrumentation
    // costs one relaxed load and a branch per frame.
    cfg.stage_sample_every = 4;
    // Port 0 binds an ephemeral port; ask the runtime where it landed.
    cfg.metrics_addr = Some("127.0.0.1:0".to_string());

    let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    rt.add_subscriber(Filter::for_class(class).ge("size", 100))
        .unwrap();

    let publisher = rt.publisher();
    for seq in 0..400u64 {
        let trade = Trade::new(seq as i64 % 7, (seq as i64 % 300) + 1);
        publisher.publish(Envelope::encode(class, EventSeq(seq), &trade).unwrap());
    }
    let expected = (0..400u64).filter(|s| (s % 300) + 1 >= 100).count() as u64;
    assert!(rt.wait_delivered(expected, Duration::from_secs(10)));

    // 1. Structured snapshot: every registered metric by name, serde-stable
    //    JSON, rendered here as tables.
    let snap = rt.snapshot();
    println!("--- snapshot ---------------------------------------------\n");
    println!("{}", telemetry_table(&snap));

    // 2. Live Prometheus endpoint, scraped the way a collector would:
    //    curl http://<addr>/metrics
    let addr = rt.metrics_addr().expect("metrics endpoint is on");
    println!("--- scrape of http://{addr}/metrics ----------------------\n");
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    write!(conn, "GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    let body = response.split("\r\n\r\n").nth(1).unwrap_or("");
    for line in body.lines().filter(|l| {
        l.starts_with("layercake_rt_published")
            || l.starts_with("layercake_rt_delivered")
            || l.starts_with("layercake_stage_match_ns")
    }) {
        println!("{line}");
    }

    // 3. Sampled wall-clock traces, same JSONL schema as the simulator.
    let report = rt.shutdown();
    let sink = report.trace.as_ref().expect("tracing is on");
    println!(
        "\n--- first two trace records (of {}) ----------------------\n",
        sink.traced_count()
    );
    for line in sink.to_jsonl().lines().take(2) {
        println!("{line}");
    }
}
