//! E20 — self-healing under fire: kill broker shards mid-load and
//! measure what recovery costs and what it saves.
//!
//! Three wall-clock scenarios through the supervised `layercake-rt`
//! runtime, all driven by a seeded [`RtFaultPlan`]:
//!
//!   1. **panic + link loss** — a sharded durable run where *both*
//!      matcher shards are panicked mid-load (the data shard mid-stream,
//!      the control shard during setup) while a lossy link drops ~5% of
//!      the volatile subscriber's deliveries. Measures MTTR (the
//!      `rt.restart_ns` histogram: crash noticed → replacement live),
//!      verifies the durable subscriber loses *nothing*, and checks the
//!      volatile loss identity: every missing volatile delivery is in
//!      the `rt.frames_dropped` ledger — degraded, never silent.
//!   2. **crash storm** — one shard re-panicked at its nth frame in
//!      every restarted generation while events keep flowing: restart
//!      count, MTTR distribution over many samples, and exactly-once
//!      durable delivery through repeated WAL-backed recoveries.
//!   3. **stall** — a shard frozen (sleeping inside one turn) long
//!      enough for the stall detector to fence and replace it; the
//!      replacement reads the shard's inbox while the zombie sleeps, and
//!      the zombie hands its in-flight frame back when it wakes.
//!
//! Shape checks (the binary exits non-zero on violation): every induced
//! fault is healed (`gave_up == 0` everywhere), durable delivery covers
//! every sequence exactly once in all scenarios, the volatile loss
//! identity holds, and every MTTR sample is positive.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_selfheal
//! [out_dir] [events]` — `out_dir` (default `docs/results`) receives
//! `BENCH_selfheal.json`; `events` (default 2000) sizes the published
//! load per scenario (CI smoke runs pass a smaller value).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_metrics::{render_table, Histogram};
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, RtFaultPlan, Runtime};

const CLASS: ClassId = ClassId(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("layercake-e20-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn registry() -> Arc<TypeRegistry> {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "Feed0",
            None,
            vec![
                AttributeDecl::new("region", ValueKind::Int),
                AttributeDecl::new("level", ValueKind::Int),
            ],
        )
        .expect("register bench class");
    assert_eq!(class, CLASS);
    Arc::new(registry)
}

fn bench_event(seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", 0i64);
    meta.insert("level", (seq % 100) as i64);
    Envelope::from_meta(CLASS, "Feed0", EventSeq(seq), meta)
}

/// Polls `cond` until it holds or `timeout` passes.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// MTTR figures in milliseconds, lifted from an `rt.restart_ns`
/// histogram snapshot.
struct Mttr {
    samples: u64,
    p50_ms: f64,
    max_ms: f64,
    mean_ms: f64,
}

impl Mttr {
    fn from(h: &Histogram) -> Self {
        Self {
            samples: h.count(),
            p50_ms: h.p50() as f64 / 1e6,
            max_ms: h.max() as f64 / 1e6,
            mean_ms: h.mean() / 1e6,
        }
    }
}

struct SelfHealResult {
    panics: u64,
    restarts: u64,
    mttr: Mttr,
    durable_delivered: u64,
    volatile_delivered: u64,
    frames_dropped: u64,
    frames_requeued: u64,
}

/// Scenario 1: both shards of a durable 2-shard broker panicked
/// mid-load, plus a seeded 5% drop on the volatile subscriber's link.
fn run_selfheal(events: u64) -> SelfHealResult {
    let dir = scratch_dir("heal");
    let overlay = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        wal_flush_every: 8,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 2);
    cfg.durable_dir = Some(dir.clone());
    // Node ids: broker 0, durable subscriber 1, volatile subscriber 2.
    // Class 0 hashes to shard 0 of 2 — shard 0 dies holding data
    // mid-stream, shard 1 (control-only) dies during setup traffic.
    cfg.fault_plan = Some(
        RtFaultPlan::new(20)
            .panic_shard(0, 0, 3 + events / 2)
            .panic_shard(0, 1, 2)
            .drop_link(0, 2, 0.05),
    );
    let mut rt = Runtime::start(cfg, registry()).expect("start runtime");
    rt.advertise(Advertisement::new(
        CLASS,
        StageMap::from_prefixes(&[1]).expect("stage map"),
    ));
    let durable = rt
        .add_durable_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
        .expect("place durable subscriber");
    let volatile = rt
        .add_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
        .expect("place volatile subscriber");
    assert_eq!(volatile.node().0, 2, "volatile id drifted; retarget plan");

    let publisher = rt.publisher();
    for seq in 0..events {
        publisher.publish(bench_event(seq));
    }
    // Every event either reaches the volatile subscriber or lands in the
    // drop ledger; the durable one gets all of them. The sum closes the
    // books.
    let stats = Arc::clone(rt.stats());
    assert!(
        wait_for(Duration::from_secs(120), || {
            stats.delivered() + stats.frames_dropped() >= 2 * events && stats.restarts() >= 2
        }),
        "self-heal run stuck: delivered={} dropped={} restarts={} of {events}",
        stats.delivered(),
        stats.frames_dropped(),
        stats.restarts(),
    );

    let report = rt
        .shutdown()
        .into_result()
        .expect("both panics must be healed");
    let d: BTreeSet<EventSeq> = report.deliveries(durable).iter().copied().collect();
    assert_eq!(
        d.len() as u64,
        events,
        "durable subscriber lost {} events across the crashes",
        events - d.len() as u64
    );
    assert_eq!(
        report.deliveries(durable).len() as u64,
        events,
        "durable redelivery must stay exactly-once"
    );
    let v: BTreeSet<EventSeq> = report.deliveries(volatile).iter().copied().collect();
    let result = SelfHealResult {
        panics: report.stats.panics(),
        restarts: report.stats.restarts(),
        mttr: Mttr::from(&report.stats.restart_histogram()),
        durable_delivered: d.len() as u64,
        volatile_delivered: v.len() as u64,
        frames_dropped: report.stats.frames_dropped(),
        frames_requeued: report.stats.frames_requeued(),
    };
    assert_eq!(
        result.volatile_delivered + result.frames_dropped,
        events,
        "volatile loss must be exactly the ledgered drops"
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

struct StormResult {
    panics: u64,
    restarts: u64,
    mttr: Mttr,
    durable_delivered: u64,
    frames_requeued: u64,
    wall_ms: f64,
}

/// Scenario 2: the shard re-panics at its nth frame in every restarted
/// generation while the full load flows through WAL-backed recoveries.
fn run_storm(events: u64) -> StormResult {
    let dir = scratch_dir("storm");
    let overlay = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        wal_flush_every: 8,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.durable_dir = Some(dir.clone());
    cfg.fault_plan = Some(RtFaultPlan::new(21).panic_shard_every(0, 0, 40));
    cfg.supervision.max_restarts = 10_000;
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let mut rt = Runtime::start(cfg, registry()).expect("start runtime");
    rt.advertise(Advertisement::new(
        CLASS,
        StageMap::from_prefixes(&[1]).expect("stage map"),
    ));
    let durable = rt
        .add_durable_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
        .expect("place durable subscriber");

    let start = Instant::now();
    let publisher = rt.publisher();
    for seq in 0..events {
        publisher.publish(bench_event(seq));
    }
    assert!(
        rt.wait_delivered(events, Duration::from_secs(300)),
        "storm run delivered only {} of {events} (restarts={}, gave_up={})",
        rt.stats().delivered(),
        rt.stats().restarts(),
        rt.stats().gave_up(),
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;

    let report = rt.shutdown().into_result().expect("storm must be healed");
    let d: BTreeSet<EventSeq> = report.deliveries(durable).iter().copied().collect();
    assert_eq!(d.len() as u64, events, "storm must lose nothing durable");
    assert_eq!(
        report.deliveries(durable).len() as u64,
        events,
        "storm redelivery must stay exactly-once"
    );
    let result = StormResult {
        panics: report.stats.panics(),
        restarts: report.stats.restarts(),
        mttr: Mttr::from(&report.stats.restart_histogram()),
        durable_delivered: d.len() as u64,
        frames_requeued: report.stats.frames_requeued(),
        wall_ms,
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

struct StallResult {
    stalls: u64,
    restarts: u64,
    mttr: Mttr,
    delivered: u64,
}

/// Scenario 3: a frozen (not dead) shard is fenced on its stuck turn
/// and replaced while it sleeps; it hands its in-flight frame back when
/// it wakes.
fn run_stall(events: u64) -> StallResult {
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.fault_plan = Some(RtFaultPlan::new(22).stall_shard(0, 0, 5, Duration::from_millis(600)));
    cfg.supervision.stall_timeout = Some(Duration::from_millis(100));
    let mut rt = Runtime::start(cfg, registry()).expect("start runtime");
    rt.advertise(Advertisement::new(
        CLASS,
        StageMap::from_prefixes(&[1]).expect("stage map"),
    ));
    let sub = rt
        .add_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
        .expect("place subscriber");

    let publisher = rt.publisher();
    for seq in 0..events {
        publisher.publish(bench_event(seq));
    }
    assert!(
        rt.wait_delivered(events, Duration::from_secs(120)),
        "stall run delivered only {} of {events} (stalls={}, restarts={})",
        rt.stats().delivered(),
        rt.stats().stalls(),
        rt.stats().restarts(),
    );

    let report = rt.shutdown().into_result().expect("stall must be healed");
    let d: BTreeSet<EventSeq> = report.deliveries(sub).iter().copied().collect();
    assert_eq!(d.len() as u64, events, "salvage must lose nothing");
    StallResult {
        stalls: report.stats.stalls(),
        restarts: report.stats.restarts(),
        mttr: Mttr::from(&report.stats.restart_histogram()),
        delivered: d.len() as u64,
    }
}

fn mttr_json(m: &Mttr) -> String {
    format!(
        "{{\"samples\": {}, \"p50_ms\": {:.3}, \"max_ms\": {:.3}, \"mean_ms\": {:.3}}}",
        m.samples, m.p50_ms, m.max_ms, m.mean_ms
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let events: u64 = args.get(2).map_or(2_000, |s| {
        s.parse().expect("events must be a positive integer")
    });
    assert!(events >= 64, "events must be at least 64");

    eprintln!("E20: shard panics + lossy link under {events} events …");
    let heal = run_selfheal(events);
    eprintln!(
        "  {} panics healed in {} restarts, MTTR p50 {:.2} ms",
        heal.panics, heal.restarts, heal.mttr.p50_ms
    );

    let storm_events = events.min(1_000);
    eprintln!("E20: crash storm, {storm_events} events …");
    let storm = run_storm(storm_events);
    eprintln!(
        "  {} restarts over {:.0} ms wall, MTTR p50 {:.2} ms",
        storm.restarts, storm.wall_ms, storm.mttr.p50_ms
    );

    let stall_events = events.min(200);
    eprintln!("E20: stalled shard, {stall_events} events …");
    let stall = run_stall(stall_events);

    println!("self-healing under fire, {events} events:\n");
    println!(
        "{}",
        render_table(
            &[
                "scenario",
                "panics",
                "stalls",
                "restarts",
                "MTTR p50 ms",
                "MTTR max ms",
                "durable loss",
                "volatile loss (ledgered)"
            ],
            &[
                vec![
                    "panic+drop".to_string(),
                    heal.panics.to_string(),
                    "0".to_string(),
                    heal.restarts.to_string(),
                    format!("{:.2}", heal.mttr.p50_ms),
                    format!("{:.2}", heal.mttr.max_ms),
                    (events - heal.durable_delivered).to_string(),
                    heal.frames_dropped.to_string(),
                ],
                vec![
                    "storm".to_string(),
                    storm.panics.to_string(),
                    "0".to_string(),
                    storm.restarts.to_string(),
                    format!("{:.2}", storm.mttr.p50_ms),
                    format!("{:.2}", storm.mttr.max_ms),
                    (storm_events - storm.durable_delivered).to_string(),
                    "0".to_string(),
                ],
                vec![
                    "stall".to_string(),
                    "0".to_string(),
                    stall.stalls.to_string(),
                    stall.restarts.to_string(),
                    format!("{:.2}", stall.mttr.p50_ms),
                    format!("{:.2}", stall.mttr.max_ms),
                    "-".to_string(),
                    (stall_events - stall.delivered).to_string(),
                ],
            ],
        )
    );
    println!(
        "reading guide: MTTR is crash-noticed → replacement-live (restart\n\
         backoff included). Durable subscribers ride the WAL through every\n\
         crash with zero loss; volatile subscribers lose exactly what the\n\
         rt.frames_dropped ledger says they lost ({} + {} = {} here). Panics\n\
         alone cost no deliveries at all: a restart keeps the shard's inbox,\n\
         and the crashed generation's in-flight frames ({} + {}) go to its\n\
         successor first.\n",
        heal.volatile_delivered,
        heal.frames_dropped,
        events,
        heal.frames_requeued,
        storm.frames_requeued,
    );

    // ---- machine-readable output --------------------------------------
    let json = format!(
        "{{\n  \"experiment\": \"E20\",\n  \"events\": {events},\n  \
         \"selfheal\": {{\"panics\": {}, \"restarts\": {}, \"mttr\": {}, \
         \"durable_loss\": {}, \"volatile_delivered\": {}, \
         \"frames_dropped\": {}, \"frames_requeued\": {}, \
         \"volatile_loss_accounted\": true}},\n  \
         \"storm\": {{\"events\": {storm_events}, \"panics\": {}, \"restarts\": {}, \
         \"mttr\": {}, \"durable_loss\": {}, \"frames_requeued\": {}, \
         \"wall_ms\": {:.1}}},\n  \
         \"stall\": {{\"events\": {stall_events}, \"stalls\": {}, \"restarts\": {}, \
         \"mttr\": {}, \"loss\": {}}}\n}}\n",
        heal.panics,
        heal.restarts,
        mttr_json(&heal.mttr),
        events - heal.durable_delivered,
        heal.volatile_delivered,
        heal.frames_dropped,
        heal.frames_requeued,
        storm.panics,
        storm.restarts,
        mttr_json(&storm.mttr),
        storm_events - storm.durable_delivered,
        storm.frames_requeued,
        storm.wall_ms,
        stall.stalls,
        stall.restarts,
        mttr_json(&stall.mttr),
        stall_events - stall.delivered,
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_selfheal.json");
    std::fs::write(&path, &json).expect("write BENCH_selfheal.json");
    println!("wrote {path}");

    // ---- shape checks -------------------------------------------------
    assert_eq!(heal.panics, 2, "both injected panics must fire");
    assert!(heal.restarts >= 2 && heal.mttr.samples >= 2);
    assert!(
        storm.restarts >= 3,
        "a storm of one is not a storm ({} restarts)",
        storm.restarts
    );
    assert_eq!(storm.mttr.samples, storm.restarts);
    assert!(stall.stalls >= 1 && stall.restarts >= 1);
    for m in [&heal.mttr, &storm.mttr, &stall.mttr] {
        assert!(
            m.p50_ms > 0.0 && m.max_ms >= m.p50_ms,
            "MTTR samples must be positive and ordered"
        );
    }
    println!("shape checks passed.");
}
