//! Nodes are tasks, not threads: a runtime's brokers and subscribers
//! share at most one worker thread per core, durable broker shards
//! included — their logs' fsyncs run on one `lc-wal-sync` thread, never
//! in a turn.
//!
//! One test in this file, so that no other test's threads share the
//! process: it counts the runtime's threads by name in
//! `/proc/self/task/*/comm`.
#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, Runtime};

const SHARDS: usize = 2;
const SUBSCRIBERS: i64 = 12;
const EVENTS: u64 = 120;

/// The names of this process's runtime threads (`lc-*`).
fn runtime_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("lc-"))
        .collect();
    names.sort();
    names
}

fn registry() -> (Arc<TypeRegistry>, ClassId) {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "Sensor",
            None,
            vec![
                AttributeDecl::new("region", ValueKind::Int),
                AttributeDecl::new("level", ValueKind::Int),
            ],
        )
        .unwrap();
    (Arc::new(registry), class)
}

fn event(class: ClassId, seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", (seq % SUBSCRIBERS as u64) as i64);
    meta.insert("level", seq as i64);
    Envelope::from_meta(class, "Sensor", EventSeq(seq), meta)
}

/// The runtime's thread names once there are `want` of them: a thread
/// names itself when it first runs, which on a loaded host can lag its
/// spawn, and a joined one can linger in `/proc` for a moment. Gives up
/// after 5 s and returns what there is.
fn settled_threads(want: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut threads = runtime_threads();
    while threads.len() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        threads = runtime_threads();
    }
    threads
}

/// Three brokers of two shards each and twelve subscribers, one region
/// each, durable when there is a log directory; every subscriber must
/// receive exactly its region's events. Returns the runtime's thread
/// names while it ran, once `want` are named.
fn run(durable_dir: Option<std::path::PathBuf>, want: usize) -> Vec<String> {
    let (reg, class) = registry();
    let overlay = OverlayConfig {
        levels: vec![2, 1],
        durability_enabled: durable_dir.is_some(),
        ..OverlayConfig::default()
    };
    let durable = durable_dir.is_some();
    let mut cfg = RtConfig::new(overlay, SHARDS);
    cfg.durable_dir = durable_dir;
    let mut rt = Runtime::start(cfg, reg).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let subs: Vec<_> = (0..SUBSCRIBERS)
        .map(|region| {
            let filter = Filter::for_class(class).eq("region", region);
            match durable {
                true => rt.add_durable_subscriber(filter),
                false => rt.add_subscriber(filter),
            }
            .unwrap()
        })
        .collect();
    let publisher = rt.publisher();
    for seq in 0..EVENTS {
        publisher.publish(event(class, seq));
    }
    assert!(
        rt.wait_delivered(EVENTS, Duration::from_secs(30)),
        "delivered only {} of {EVENTS}",
        rt.stats().delivered()
    );
    let threads = settled_threads(want);

    let report = rt.shutdown().into_result().expect("no crash");
    for (region, sub) in subs.into_iter().enumerate() {
        let got: BTreeSet<EventSeq> = report.deliveries(sub).iter().copied().collect();
        let want: BTreeSet<EventSeq> = (0..EVENTS)
            .filter(|seq| seq % SUBSCRIBERS as u64 == region as u64)
            .map(EventSeq)
            .collect();
        assert_eq!(got, want, "subscriber {region}");
        assert_eq!(report.deliveries(sub).len(), want.len(), "duplicates");
    }
    threads
}

#[test]
fn durable_shards_share_the_workers_and_one_sync_thread_serves_every_log() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let brokers = 3 * SHARDS;
    let nodes = brokers + SUBSCRIBERS as usize;
    let workers = |threads: &[String]| {
        threads
            .iter()
            .filter(|name| name.starts_with("lc-worker-"))
            .count()
    };

    // Volatile: every node shares the per-core workers; the supervisor is
    // the only other runtime thread.
    let shared = cores.min(nodes);
    let threads = run(None, shared + 1);
    assert_eq!(workers(&threads), shared, "{threads:?}");
    assert_eq!(threads.len(), shared + 1, "{threads:?}");
    assert!(threads.contains(&"lc-supervisor".to_string()));
    assert!(threads.len() <= cores + 1, "{threads:?}");
    let left = settled_threads(0);
    assert!(left.is_empty(), "{left:?} outlived shutdown");

    // Durable: the broker shards, each with a log, take the same shared
    // workers, and one sync thread serves all six logs.
    let dir = std::env::temp_dir().join(format!("layercake-executor-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let threads = run(Some(dir.clone()), shared + 2);
    assert_eq!(workers(&threads), shared, "{threads:?}");
    let syncs = threads.iter().filter(|name| *name == "lc-wal-sync").count();
    assert_eq!(syncs, 1, "{threads:?}");
    assert_eq!(threads.len(), shared + 2, "{threads:?}");
    assert!(threads.contains(&"lc-supervisor".to_string()));
    let left = settled_threads(0);
    assert!(left.is_empty(), "{left:?} outlived shutdown");
    // Six logs, one per broker shard.
    let logs = std::fs::read_dir(&dir)
        .unwrap()
        .flat_map(|b| std::fs::read_dir(b.unwrap().path()).unwrap())
        .count();
    assert_eq!(logs, brokers);
    let _ = std::fs::remove_dir_all(&dir);
}
