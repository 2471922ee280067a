//! Self-healing behavior of the wall-clock runtime: induced shard
//! panics are isolated and healed in place, stalls are fenced and
//! replaced, crash storms on a durable topology stay exactly-once, and
//! a spent restart budget degrades to *accounted* loss — never an
//! abort, never a silent gap.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::Filter;
use layercake_overlay::OverlayConfig;
use layercake_rt::{CrashKind, RtConfig, RtError, RtFaultPlan, Runtime, TransportKind};

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
    meta.insert("region", 0i64);
    meta.insert("level", seq as i64);
    Envelope::from_meta(class, "Sensor", EventSeq(seq), meta)
}

fn volatile_config(shards: usize) -> RtConfig {
    let overlay = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    RtConfig::new(overlay, shards)
}

fn durable_config(dir: &Path) -> RtConfig {
    let overlay = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        wal_flush_every: 8,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 1);
    cfg.durable_dir = Some(dir.to_path_buf());
    cfg
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("layercake-sup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// A single induced shard panic under load never aborts the process:
/// the supervisor restarts the shard in place behind the inbox it keeps,
/// hands the successor the very frame it died holding (the injected
/// panic fires before processing), and every published event arrives.
#[test]
fn induced_panic_is_isolated_and_healed_in_place() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        induced_panic_heals(transport);
    }
}

fn induced_panic_heals(transport: TransportKind) {
    let (reg, class) = registry();
    let mut cfg = volatile_config(2);
    cfg.transport = transport;
    // Class 0 hashes to shard 0 of 2 (see runtime::shard_of). The shard
    // sees advertise + filter-add control first, so frame 5 is mid-data.
    cfg.fault_plan = Some(RtFaultPlan::new(1).panic_shard(0, 0, 5));
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let mut rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();

    let publisher = rt.publisher();
    for seq in 0..20 {
        publisher.publish(event(class, seq));
    }
    assert!(
        rt.wait_delivered(20, Duration::from_secs(30)),
        "delivered only {} of 20 (panics={}, restarts={})",
        rt.stats().delivered(),
        rt.stats().panics(),
        rt.stats().restarts(),
    );
    let stats = Arc::clone(rt.stats());
    assert_eq!(stats.panics(), 1);
    assert_eq!(stats.faults_injected(), 1);
    assert!(
        wait_for(Duration::from_secs(10), || stats.restarts() == 1),
        "restart never completed"
    );

    let crashes = rt.crashes();
    assert_eq!(crashes.len(), 1, "{crashes:?}");
    assert_eq!(crashes[0].kind, CrashKind::Panic);
    assert_eq!(crashes[0].shard, 0);
    assert!(crashes[0].recovered, "{crashes:?}");
    assert!(crashes[0].detail.contains("injected fault"), "{crashes:?}");

    let report = rt.shutdown();
    assert!(report.failure().is_none(), "{:?}", report.crashes);
    let report = report.into_result().expect("a healed crash is not fatal");
    let got: BTreeSet<EventSeq> = report.deliveries(sub).iter().copied().collect();
    assert_eq!(got, (0..20).map(EventSeq).collect::<BTreeSet<_>>());
    assert_eq!(report.deliveries(sub).len(), 20, "duplicate delivery");
    // MTTR was measured: one restart, one sample in the histogram.
    assert_eq!(report.stats.restart_histogram().count(), 1);
}

/// Restart storm over one durable log directory (satellite: the shard
/// crashes at its nth frame in *every* generation while events flow).
/// Durable replay after each restart makes redelivery at-least-once on
/// the wire; the subscriber's `(class, seq)` dedup must grind that back
/// to exactly-once in the report.
#[test]
fn restart_storm_keeps_durable_delivery_exactly_once() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        restart_storm_stays_exactly_once(transport);
    }
}

fn restart_storm_stays_exactly_once(transport: TransportKind) {
    let dir = scratch_dir(&format!("storm-{transport:?}"));
    let (reg, class) = registry();
    let mut cfg = durable_config(&dir);
    cfg.transport = transport;
    cfg.fault_plan = Some(RtFaultPlan::new(2).panic_shard_every(0, 0, 25));
    cfg.supervision.max_restarts = 500;
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let mut rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_durable_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();

    let publisher = rt.publisher();
    for seq in 0..100 {
        publisher.publish(event(class, seq));
        if seq % 10 == 9 {
            // Spread the load across generations instead of front-running
            // the first crash with the whole batch.
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert!(
        rt.wait_delivered(100, Duration::from_secs(60)),
        "delivered only {} of 100 (panics={}, restarts={}, gave_up={})",
        rt.stats().delivered(),
        rt.stats().panics(),
        rt.stats().restarts(),
        rt.stats().gave_up(),
    );
    let stats = Arc::clone(rt.stats());
    assert!(
        stats.restarts() >= 2,
        "a storm needs repeated restarts, saw {}",
        stats.restarts()
    );
    assert_eq!(stats.gave_up(), 0, "budget must outlast the storm");

    let report = rt.shutdown().into_result().expect("storm was healed");
    let got: BTreeSet<EventSeq> = report.deliveries(sub).iter().copied().collect();
    assert_eq!(got, (0..100).map(EventSeq).collect::<BTreeSet<_>>());
    assert_eq!(
        report.deliveries(sub).len(),
        100,
        "dedup must absorb durable replay duplicates"
    );
    assert!(report.crashes.iter().all(|c| c.recovered), "{:?}", {
        report.crashes.iter().filter(|c| !c.recovered).count()
    });

    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled shard (one turn stuck, its worker thread alive but busy) is
/// fenced and replaced by the stall detector; the zombie hands its
/// in-flight frame to the replacement when it finally wakes. While
/// the zombie still sleeps, the replacement — and every node that shared
/// the stuck worker — runs on a fresh worker thread.
#[test]
fn stalled_shard_is_fenced_and_replaced() {
    let (reg, class) = registry();
    let mut cfg = volatile_config(1);
    cfg.fault_plan = Some(RtFaultPlan::new(3).stall_shard(0, 0, 4, Duration::from_secs(3)));
    cfg.supervision.stall_timeout = Some(Duration::from_millis(100));
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let mut rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();

    let publisher = rt.publisher();
    for seq in 0..10 {
        publisher.publish(event(class, seq));
    }
    let stats = Arc::clone(rt.stats());
    assert!(
        wait_for(Duration::from_secs(10), || stats.stalls() >= 1
            && stats.restarts() >= 1),
        "stall never healed (stalls={}, restarts={})",
        stats.stalls(),
        stats.restarts(),
    );
    // The zombie sleeps on with the first ten events; the next ten go
    // straight through its replacement.
    let before = stats.delivered();
    let replaced = Instant::now();
    for seq in 10..20 {
        publisher.publish(event(class, seq));
    }
    assert!(
        wait_for(Duration::from_secs(1), || stats.delivered() >= before + 10),
        "the replacement delivered {} of 10 within 1 s",
        stats.delivered() - before,
    );
    assert!(
        replaced.elapsed() < Duration::from_secs(2),
        "the zombie has woken: the check proves nothing"
    );
    assert!(
        rt.wait_delivered(20, Duration::from_secs(30)),
        "delivered only {} of 20 (stalls={}, restarts={})",
        rt.stats().delivered(),
        rt.stats().stalls(),
        rt.stats().restarts(),
    );
    assert!(stats.stalls() >= 1, "stall was never detected");
    assert!(stats.restarts() >= 1, "fenced shard was never replaced");
    assert_eq!(stats.panics(), 0, "a stall is not a panic");

    let report = rt.shutdown().into_result().expect("stall was healed");
    let crashes: Vec<_> = report
        .crashes
        .iter()
        .filter(|c| c.kind == CrashKind::Stall)
        .collect();
    assert!(!crashes.is_empty() && crashes.iter().all(|c| c.recovered));
    let got: BTreeSet<EventSeq> = report.deliveries(sub).iter().copied().collect();
    assert_eq!(got, (0..20).map(EventSeq).collect::<BTreeSet<_>>());
}

/// A panicking *subscriber* is reported, not restarted — and it must
/// not take `shutdown()` down with it, nor the subscribers that share its
/// worker. The structured failure surfaces through
/// `RtReport::into_result`, replacing the aborting join of earlier
/// revisions.
#[test]
fn subscriber_panic_is_reported_not_fatal_to_shutdown() {
    let (reg, class) = registry();
    let mut cfg = volatile_config(1);
    // One broker node occupies id 0, so the first subscriber is node 1;
    // its 3rd received frame lands mid-delivery stream.
    cfg.fault_plan = Some(RtFaultPlan::new(4).panic_shard(1, 0, 3));
    let mut rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();
    assert_eq!(sub.node().0, 1, "subscriber id drifted; retarget the plan");
    // More subscribers than workers: at least one shares the panicking
    // subscriber's worker.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let others: Vec<_> = (0..cores)
        .map(|_| {
            rt.add_subscriber(Filter::for_class(class).eq("region", 0i64))
                .unwrap()
        })
        .collect();

    let publisher = rt.publisher();
    for seq in 0..6 {
        publisher.publish(event(class, seq));
    }
    let stats = Arc::clone(rt.stats());
    assert!(
        wait_for(Duration::from_secs(10), || stats.panics() >= 1),
        "injected subscriber panic never fired"
    );
    for seq in 6..12 {
        publisher.publish(event(class, seq));
    }

    // The whole point: this neither aborts nor panics.
    let report = rt.shutdown();
    for other in others {
        let got: BTreeSet<EventSeq> = report.deliveries(other).iter().copied().collect();
        assert!(
            (6..12).map(EventSeq).all(|seq| got.contains(&seq)),
            "subscriber {} missed events published after the panic: {got:?}",
            other.node().0
        );
    }
    let failure = report.failure().expect("dead subscriber is a failure");
    assert_eq!(failure.node.0, 1);
    assert!(!failure.recovered);
    match report.into_result() {
        Ok(_) => panic!("unrecovered crash must surface as Err"),
        Err(err) => assert!(matches!(err, RtError::NodePanic(_)), "{err}"),
    }
}

/// When the restart budget is spent the supervisor dead-ends the shard
/// instead of looping forever: `gave_up` ticks, the crash entry stays
/// unrecovered, and every data frame routed at the corpse lands in the
/// `frames_dropped` ledger — degraded, but accounted.
#[test]
fn spent_restart_budget_degrades_to_accounted_loss() {
    let (reg, class) = registry();
    let mut cfg = volatile_config(1);
    // Panic at the very first frame of every generation: unhealable.
    cfg.fault_plan = Some(RtFaultPlan::new(5).panic_shard_every(0, 0, 1));
    cfg.supervision.max_restarts = 2;
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    // A *data* frame is the poison pill: unlike control (which muted
    // replay absorbs — a crash on a control frame heals in one restart),
    // the data frame goes verbatim to each new generation, which
    // dies on the same frame again until the budget runs out. No
    // advertisement on purpose: this broker never gets to match anything.
    let publisher = rt.publisher();
    publisher.publish(event(class, 0));
    let stats = Arc::clone(rt.stats());
    assert!(
        wait_for(Duration::from_secs(20), || stats.gave_up() == 1),
        "supervisor never gave up (panics={}, restarts={})",
        stats.panics(),
        stats.restarts(),
    );
    assert_eq!(stats.restarts(), 2, "budget allows exactly two retries");
    assert_eq!(stats.panics(), 3, "initial crash plus two failed retries");

    // Data aimed at the corpse is counted, not silently swallowed — on
    // top of the poison frame itself, ledgered when the shard was
    // dead-ended.
    for seq in 1..11 {
        publisher.publish(event(class, seq));
    }
    assert!(
        wait_for(Duration::from_secs(10), || stats.frames_dropped() >= 11),
        "dead-end drops must be ledgered, saw {}",
        stats.frames_dropped(),
    );

    let report = rt.shutdown();
    let failure = report.failure().expect("a spent budget is a failure");
    assert!(!failure.recovered);
    assert_eq!(failure.restarts, 2);
    assert!(report.into_result().is_err());
}

/// A control frame the successor's replay already covered still counts as
/// handled: after a follower shard dies on a subscription, the next
/// `advertise` finds every frame sent also received and returns at once
/// (it used to wait out the whole placement timeout).
#[test]
fn advertise_after_a_restart_does_not_wait_for_covered_control() {
    let mut registry = TypeRegistry::new();
    let decls = || vec![AttributeDecl::new("region", ValueKind::Int)];
    let first = registry.register("First", None, decls()).unwrap();
    let second = registry.register("Second", None, decls()).unwrap();
    let mut cfg = volatile_config(2);
    // Shard 1's frames: the advertisement, then the subscription.
    cfg.fault_plan = Some(RtFaultPlan::new(6).panic_shard(0, 1, 2));
    cfg.supervision.backoff_base = Duration::from_millis(1);
    let mut rt = Runtime::start(cfg, Arc::new(registry)).unwrap();
    let map = || StageMap::from_prefixes(&[1]).unwrap();
    rt.advertise(Advertisement::new(first, map()));
    rt.add_subscriber(Filter::for_class(first).eq("region", 0i64))
        .unwrap();
    let stats = Arc::clone(rt.stats());
    assert!(
        wait_for(Duration::from_secs(10), || stats.restarts() == 1),
        "restart never completed"
    );

    let started = Instant::now();
    rt.advertise(Advertisement::new(second, map()));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "advertise took {took:?}");
    assert_eq!(stats.frames_sent(), stats.frames_received());
    assert!(rt.shutdown().failure().is_none());
}

/// Frames sent while a crashed shard waits out its backoff queue in its
/// inbox and reach the successor in order: the subscriber gets every
/// event once, in publish order, and nothing is dropped.
#[test]
fn events_published_during_a_restart_arrive_once_and_in_order() {
    for transport in [TransportKind::Mpsc, TransportKind::Tcp] {
        restart_window_keeps_order(transport);
    }
}

fn restart_window_keeps_order(transport: TransportKind) {
    let (reg, class) = registry();
    let mut cfg = volatile_config(1);
    cfg.transport = transport;
    // The shard's frames: the advertisement, the subscription, event 0.
    cfg.fault_plan = Some(RtFaultPlan::new(7).panic_shard(0, 0, 3));
    cfg.supervision.backoff_base = Duration::from_millis(200);
    let mut rt = Runtime::start(cfg, Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();
    let stats = Arc::clone(rt.stats());
    let publisher = rt.publisher();
    publisher.publish(event(class, 0));
    assert!(
        wait_for(Duration::from_secs(10), || stats.panics() == 1),
        "the injected panic never fired"
    );
    for seq in 1..50 {
        publisher.publish(event(class, seq));
    }
    assert_eq!(stats.restarts(), 0, "published after the backoff");
    assert!(
        rt.wait_delivered(50, Duration::from_secs(30)),
        "delivered only {} of 50 ({transport:?})",
        stats.delivered(),
    );
    assert_eq!(stats.restarts(), 1);
    assert_eq!(stats.frames_dropped(), 0);

    let report = rt.shutdown().into_result().expect("the crash was healed");
    let want: Vec<EventSeq> = (0..50).map(EventSeq).collect();
    assert_eq!(report.deliveries(sub), want.as_slice(), "{transport:?}");
}
