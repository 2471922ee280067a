//! Crash-restart recovery in the wall-clock runtime: a broker killed
//! mid-stream and restarted with nothing but its log directory must give
//! a re-subscribing durable subscriber every event back — the replayed
//! suffix overlapping what was already acknowledged is the bounded
//! re-delivery the `(class, seq)` dedup absorbs, never a loss.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::{DestId, Filter};
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};
use layercake_overlay::OverlayConfig;
use layercake_rt::{RtConfig, RtError, Runtime};

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

fn durable_config(dir: &Path) -> RtConfig {
    let overlay = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        wal_flush_every: 8,
        ..OverlayConfig::default()
    };
    let mut cfg = RtConfig::new(overlay, 2);
    cfg.durable_dir = Some(dir.to_path_buf());
    cfg
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("layercake-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts a runtime over `dir`, subscribes durably to the class, and
/// publishes `seqs`; tears down via `kill` (crash) or `shutdown`
/// (graceful), returning the delivered sequences and durability counters.
fn run_once(
    dir: &Path,
    reg: &Arc<TypeRegistry>,
    class: ClassId,
    seqs: std::ops::Range<u64>,
    crash: bool,
) -> (Vec<EventSeq>, layercake_metrics::DurabilityStats) {
    let mut rt = Runtime::start(durable_config(dir), Arc::clone(reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_durable_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();
    let n = seqs.end - seqs.start;
    let publisher = rt.publisher();
    for seq in seqs {
        publisher.publish(event(class, seq));
    }
    // At least the fresh events must land; replayed history (second run)
    // rides along and is drained fully by the staged teardown either way.
    assert!(
        rt.wait_delivered(n, Duration::from_secs(30)),
        "delivered only {}",
        rt.stats().delivered()
    );
    let report = if crash { rt.kill() } else { rt.shutdown() };
    (report.deliveries(sub).to_vec(), report.durability())
}

#[test]
fn killed_broker_replays_the_unacked_suffix_after_restart() {
    let dir = scratch_dir("kill");
    let (reg, class) = registry();

    // Run 1: 60 events, then a crash — the batched offset table dies with
    // acknowledgements still in memory (records themselves are already in
    // the OS's hands, as they would be for any in-process crash).
    let (first, d1) = run_once(&dir, &reg, class, 0..60, true);
    assert_eq!(first.len(), 60);
    assert_eq!(d1.records_appended, 60);
    assert!(d1.fsync_batches > 0);

    // Run 2: a fresh runtime over nothing but the log directory. The same
    // subscriber id re-subscribes, resumes from the last *persisted*
    // offset, and replays the suffix before taking 40 new events.
    let (second, d2) = run_once(&dir, &reg, class, 60..100, false);
    assert_eq!(d2.torn_truncations, 0, "a process kill tears no files");
    assert!(
        d2.records_replayed > 0,
        "acks lost to the crash force a replay"
    );

    // Zero loss: both runs together cover every sequence exactly.
    let union: BTreeSet<EventSeq> = first.iter().chain(second.iter()).copied().collect();
    let all: BTreeSet<EventSeq> = (0..100).map(EventSeq).collect();
    assert_eq!(union, all, "first: {first:?}\nsecond: {second:?}");
    // The replayed overlap is bounded by one flush batch of acks; within
    // a run nothing is ever delivered twice.
    for run in [&first, &second] {
        let uniq: BTreeSet<EventSeq> = run.iter().copied().collect();
        assert_eq!(uniq.len(), run.len(), "duplicate delivery within a run");
    }
    assert!(
        second.iter().filter(|s| s.0 < 60).count() as u64 == d2.records_replayed,
        "everything from run 1 seen in run 2 came from the log"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_persists_acks_so_nothing_replays() {
    let dir = scratch_dir("graceful");
    let (reg, class) = registry();

    let (first, _) = run_once(&dir, &reg, class, 0..30, false);
    assert_eq!(first.len(), 30);

    // The final flush at shutdown persisted ack = 30, so the second run
    // owes the subscriber nothing from the past.
    let (second, d2) = run_once(&dir, &reg, class, 30..60, false);
    assert_eq!(d2.records_replayed, 0, "persisted acks suppress replay");
    assert_eq!(second, (30..60).map(EventSeq).collect::<Vec<_>>());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Sharded runtime, durable class hashed to a *follower* shard (shard 1
/// of 2): the class's log slice — and therefore the only true resume
/// offset — lives on a shard that normally stays silent on control
/// traffic. The stream-open frame (`DurableBase`) must come from the
/// owner shard, not the leader: the leader's replica has an empty
/// history for the class and would open every stream at offset 0,
/// wedging recovery. (The other recovery tests use a class that happens
/// to hash to the leader, which hides this.)
#[test]
fn recovery_works_for_classes_owned_by_a_follower_shard() {
    let dir = scratch_dir("follower");
    let mut registry = TypeRegistry::new();
    // A filler class pushes "Sensor" to id 1, which hashes to shard 1
    // when running 2 shards (Fibonacci hash, see runtime::shard_of).
    registry
        .register("Noise", None, vec![AttributeDecl::new("x", ValueKind::Int)])
        .unwrap();
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
    assert_eq!(class, ClassId(1), "filler must land Sensor on shard 1");
    let reg = Arc::new(registry);

    let (first, d1) = run_once(&dir, &reg, class, 0..30, true);
    assert_eq!(first.len(), 30);
    assert_eq!(d1.records_appended, 30, "only the owner shard appends");

    // More fresh events than the broker's in-flight window: if the
    // subscriber's cursor were seeded from the wrong shard's (empty)
    // history, acks would never advance and the stream would stall
    // before delivering them all.
    let (second, d2) = run_once(&dir, &reg, class, 30..110, false);
    assert!(
        d2.records_replayed > 0,
        "acks lost to the crash force a replay"
    );
    let union: BTreeSet<EventSeq> = first.iter().chain(second.iter()).copied().collect();
    let all: BTreeSet<EventSeq> = (0..110).map(EventSeq).collect();
    assert_eq!(union, all, "first: {first:?}\nsecond: {second:?}");
    for run in [&first, &second] {
        let uniq: BTreeSet<EventSeq> = run.iter().copied().collect();
        assert_eq!(uniq.len(), run.len(), "duplicate delivery within a run");
    }

    // Graceful shutdown persisted the owner-shard acks; a third run owes
    // the subscriber nothing — which also proves the acks converged on
    // the shard that actually holds the history.
    let (third, d3) = run_once(&dir, &reg, class, 110..120, false);
    assert_eq!(d3.records_replayed, 0, "persisted acks suppress replay");
    assert_eq!(third, (110..120).map(EventSeq).collect::<Vec<_>>());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two selective consumers of one class, killed and restarted: each
/// stream is the subsequence of the class log its consumer's filter
/// matches, so the restart replays to each consumer its own unacked
/// matches and passes over the other's — every replayed frame is one its
/// receiver's filter accepts.
#[test]
fn restart_replays_to_each_selective_consumer_only_its_own_matches() {
    let dir = scratch_dir("selective");
    let (reg, class) = registry();
    let event = |seq: u64| {
        let mut meta = EventData::new();
        meta.insert("region", (seq % 2) as i64);
        meta.insert("level", seq as i64);
        Envelope::from_meta(class, "Sensor", EventSeq(seq), meta)
    };
    let run = |seqs: std::ops::Range<u64>, crash: bool| {
        let mut rt = Runtime::start(durable_config(&dir), Arc::clone(&reg)).unwrap();
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[1]).unwrap(),
        ));
        let subs = [0i64, 1].map(|region| {
            rt.add_durable_subscriber(Filter::for_class(class).eq("region", region))
                .unwrap()
        });
        let n = seqs.end - seqs.start;
        let publisher = rt.publisher();
        for seq in seqs {
            publisher.publish(event(seq));
        }
        assert!(rt.wait_delivered(n, Duration::from_secs(30)));
        let report = if crash { rt.kill() } else { rt.shutdown() };
        let deliveries = subs.map(|sub| report.deliveries(sub).to_vec());
        let records = [0, 1].map(|i| report.subscribers[i].record());
        (deliveries, records, report.durability())
    };

    let (first, _, d1) = run(0..80, true);
    assert_eq!(d1.records_appended, 80);
    assert_eq!(d1.durable_sent, 80, "one consumer is owed each event");
    assert_eq!(d1.durable_skipped, 80, "and the other passes it over");

    let (second, records, d2) = run(80..120, false);
    assert!(
        d2.records_replayed > 0,
        "acks lost to the crash force a replay"
    );
    let mut replayed = 0;
    for (region, (first, second)) in first.iter().zip(&second).enumerate() {
        let union: BTreeSet<EventSeq> = first.iter().chain(second).copied().collect();
        let owed: BTreeSet<EventSeq> = (0..120)
            .filter(|seq| seq % 2 == region as u64)
            .map(EventSeq)
            .collect();
        assert_eq!(union, owed, "region {region}");
        replayed += second.iter().filter(|s| s.0 < 80).count() as u64;
    }
    assert_eq!(
        replayed, d2.records_replayed,
        "every replayed frame was a delivery: none went to the wrong consumer"
    );
    assert_eq!(d2.durable_sent, 40 + d2.records_replayed);
    for record in &records {
        assert_eq!(record.received, record.matched, "{}", record.node);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// A selective consumer's class log ends in records it was never owed
/// (they were logged for the class's other consumer). A graceful shutdown
/// applies its final cursor *and* settles the idle stream over that tail,
/// so the next start's catch-up has nothing to read back.
#[test]
fn graceful_shutdown_settles_a_selective_consumers_unowed_tail() {
    let dir = scratch_dir("settle");
    let (reg, class) = registry();
    let start = || {
        let mut rt = Runtime::start(durable_config(&dir), Arc::clone(&reg)).unwrap();
        rt.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[1]).unwrap(),
        ));
        // Always the first subscriber, so both runs give it the same id.
        let one_in_four = rt
            .add_durable_subscriber(Filter::for_class(class).eq("region", 0i64))
            .unwrap();
        (rt, one_in_four)
    };

    let (mut rt, one_in_four) = start();
    rt.add_durable_subscriber(Filter::for_class(class).ge("region", 1i64))
        .unwrap();
    let publisher = rt.publisher();
    for seq in 0..80u64 {
        let mut meta = EventData::new();
        meta.insert("region", (seq % 4) as i64);
        meta.insert("level", seq as i64);
        publisher.publish(Envelope::from_meta(class, "Sensor", EventSeq(seq), meta));
    }
    assert!(rt.wait_delivered(80, Duration::from_secs(30)));
    let report = rt.shutdown();
    assert_eq!(report.deliveries(one_in_four).len(), 20);
    assert_eq!(report.durability().records_appended, 80);

    // The last three records (seq 77..=79) belong to the other consumer,
    // which does not come back: whatever is read now is read for this one.
    let (rt, one_in_four) = start();
    let report = rt.shutdown();
    let d = report.durability();
    assert_eq!(d.records_decoded, 0, "the unowed tail was re-scanned");
    assert_eq!(d.records_replayed, 0);
    assert!(report.deliveries(one_in_four).is_empty());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The registration contract: a durable subscription is on disk when
/// `add_durable_subscriber` returns — in every shard's log, the class
/// owner's included — even when the runtime is killed at once and the
/// sync jobs still queued are abandoned.
#[test]
fn a_durable_registration_survives_a_kill_right_after_it() {
    let dir = scratch_dir("register");
    let (reg, class) = registry();
    let mut rt = Runtime::start(durable_config(&dir), Arc::clone(&reg)).unwrap();
    rt.advertise(Advertisement::new(
        class,
        StageMap::from_prefixes(&[1]).unwrap(),
    ));
    let sub = rt
        .add_durable_subscriber(Filter::for_class(class).eq("region", 0i64))
        .unwrap();
    drop(rt.kill());

    let dest = DestId(sub.node().0 as u64);
    for shard in ["s0", "s1"] {
        let storage = FileStorage::open(dir.join("b0").join(shard)).unwrap();
        let log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert!(log.is_class_consumer(dest, class), "no entry in {shard}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn durable_dir_and_durability_flag_must_agree() {
    let (reg, _) = registry();
    let overlay = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        ..OverlayConfig::default()
    };
    // Durability without a directory: nowhere to put real files.
    let err = Runtime::start(RtConfig::new(overlay.clone(), 1), Arc::clone(&reg))
        .map(|_| ())
        .expect_err("durability_enabled without durable_dir must be rejected");
    assert!(matches!(err, RtError::UnsupportedFeature(_)), "{err}");

    // A directory without the overlay flag: dead configuration.
    let mut cfg = RtConfig::new(
        OverlayConfig {
            levels: vec![1],
            ..OverlayConfig::default()
        },
        1,
    );
    cfg.durable_dir = Some(std::env::temp_dir().join("layercake-rt-unused"));
    let err = Runtime::start(cfg, reg)
        .map(|_| ())
        .expect_err("durable_dir without durability_enabled must be rejected");
    assert!(matches!(err, RtError::UnsupportedFeature(_)), "{err}");
}
