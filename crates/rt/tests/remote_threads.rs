//! A served remote connection costs two threads, whatever its
//! subscriptions: the link writer and one forwarder of every
//! subscription's deliveries. Both end with the runtime.
//!
//! One test in this file, so that no other test's threads share the
//! process: it counts the runtime's threads by name in
//! `/proc/self/task/*/comm`.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_overlay::OverlayConfig;
use layercake_rt::remote::{serve_one, RemoteClient};
use layercake_rt::{RtConfig, Runtime};

const SUBSCRIPTIONS: i64 = 8;

/// The names of this process's runtime threads (`lc-*`), without the
/// client's reader.
fn runtime_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("lc-") && name != "lc-client")
        .collect();
    names.sort();
    names
}

/// The runtime's thread names once there are `want` of them: a thread
/// names itself when it first runs, and a joined one can linger in
/// `/proc` for a moment. Gives up after 5 s and returns what there is.
fn settled_threads(want: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut threads = runtime_threads();
    while threads.len() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        threads = runtime_threads();
    }
    threads
}

fn event(class: ClassId, seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", seq as i64 % SUBSCRIPTIONS);
    Envelope::from_meta(class, "Region", EventSeq(seq), meta)
}

#[test]
fn a_remote_client_costs_two_threads_not_one_per_subscription() {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "Region",
            None,
            vec![AttributeDecl::new("region", ValueKind::Int)],
        )
        .unwrap();
    let overlay = OverlayConfig {
        levels: vec![2, 1],
        ..OverlayConfig::default()
    };
    let mut rt = Runtime::start(RtConfig::new(overlay, 1), Arc::new(registry)).unwrap();
    // As many local subscribers as cores: every shared worker exists
    // before the client connects, so its subscriptions add none.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for _ in 0..cores {
        rt.add_subscriber(Filter::for_class(class).eq("region", -1i64))
            .unwrap();
    }
    let before = settled_threads(cores + 1);
    assert_eq!(
        before.len(),
        cores + 1,
        "workers and supervisor: {before:?}"
    );

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let want = before.len() + 2;
    let client = std::thread::spawn(move || {
        let mut client = RemoteClient::connect(addr).unwrap();
        let stages = StageMap::from_prefixes(&[1]).unwrap();
        client.advertise(Advertisement::new(class, stages)).unwrap();
        let wait = Duration::from_secs(10);
        for region in 0..SUBSCRIPTIONS {
            client
                .subscribe(Filter::for_class(class).eq("region", region), wait)
                .unwrap();
        }
        let events = 4 * SUBSCRIPTIONS as u64;
        for seq in 0..events {
            client.publish(event(class, seq)).unwrap();
        }
        for _ in 0..events {
            client.recv_deliver(wait).unwrap().expect("a delivery");
        }
        settled_threads(want)
    });
    serve_one(&mut rt, &listener).expect("served");
    let serving = client.join().unwrap();
    let report = rt.shutdown().into_result().expect("no crash");
    assert_eq!(report.stats.delivered(), 4 * SUBSCRIPTIONS as u64);
    assert!(
        serving.len() <= before.len() + 2,
        "serving {SUBSCRIPTIONS} subscriptions: {serving:?}, before: {before:?}"
    );
    let left = settled_threads(0);
    assert!(left.is_empty(), "{left:?} outlived shutdown");
}
