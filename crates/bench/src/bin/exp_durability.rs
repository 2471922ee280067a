//! E18 — durability cost and recovery: what the segmented event log
//! charges on the hot path and how fast a crashed broker comes back.
//!
//! Three direct measurements against a real on-disk [`DurableLog`]
//! (`FileStorage`, real fsync), one against a broker over such a log,
//! plus one end-to-end crash/restart run through the wall-clock runtime:
//!
//!   1. **fsync batching sweep** — append the same event stream with
//!      `flush_every` ∈ {1, 8, 64}: appends/sec vs fsync batches, timed
//!      until the sync thread has run every fsync asked for. This is the
//!      paper's durability trade-off made concrete: a shorter flush
//!      interval buys a shorter unsynced tail (fewer events lost to a
//!      power cut) at the price of more fsyncs.
//!   2. **recovery time** — reopen the logged directory cold and time
//!      `DurableLog::open`, which CRC-scans every record of every
//!      segment and truncates any torn tail. This is the broker's
//!      restart-to-serving latency contribution.
//!   3. **replay throughput** — register a consumer at offset 0 and
//!      drain `replay_after`, timing decode of the full history. This
//!      bounds how fast a reconnecting durable subscriber catches up.
//!      Then the same history is paged out in windows of 8 — the shape
//!      the broker's in-flight window gives catch-up under load — and
//!      the bytes the log read are set against the bytes it returned.
//!   4. **selective consumers** — four durable consumers of one class,
//!      each matching a quarter of the stream, drain a logged backlog
//!      from one broker under acknowledgements of eight: what the broker
//!      sends against what the consumers are owed, the frames an event
//!      costs, and the price of paging a filtered stream out of a log
//!      that is read whole.
//!   5. **runtime crash/restart** — a small `layercake-rt` run with a
//!      durable subscriber: publish, `kill()` (no final flush), restart
//!      over the same directory, and verify zero event loss across the
//!      two runs with a non-empty replay.
//!
//! Shape checks (the binary exits non-zero on violation): every append
//! lands in the log; fsync batches strictly shrink as the flush
//! interval grows; recovery recovers the full tail with no torn
//! truncation; replay returns the entire history in offset order; a
//! paged catch-up decodes exactly the records it returns and reads at
//! most twice their bytes; selective consumers are sent at most 1.05
//! frames per delivery they are owed, and their catch-up reads between
//! one and two times the bytes it decodes; the runtime crash/restart
//! loses nothing.
//!
//! Run with: `cargo run --release -p layercake-bench --bin
//! exp_durability [out_dir] [events]` — `out_dir` (default
//! `docs/results`) receives `BENCH_durability.json`; `events` (default
//! 20000) sizes the logged history (CI smoke runs pass a smaller
//! value).

use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap, TypeRegistry,
    ValueKind,
};
use layercake_filter::{DestId, Filter};
use layercake_metrics::render_table;
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};
use layercake_overlay::{topology, Node, NodeCtx, OverlayConfig, OverlayMsg, SubscriptionReq};
use layercake_rt::{RtConfig, Runtime};
use layercake_sim::{ActorId, SimDuration, SimTime};

const FLUSH_SWEEP: [usize; 3] = [1, 8, 64];
const CLASS: ClassId = ClassId(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("layercake-e18-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_event(seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("region", 0i64);
    meta.insert("level", (seq % 100) as i64);
    Envelope::from_meta(CLASS, "Feed0", EventSeq(seq), meta)
}

fn open_log(dir: &Path, flush_every: usize) -> DurableLog {
    let storage = FileStorage::open(dir.to_path_buf()).expect("open log storage");
    DurableLog::open(
        Box::new(storage),
        LogConfig {
            flush_every,
            ..LogConfig::default()
        },
    )
}

struct SweepRow {
    flush_every: usize,
    appends_per_sec: f64,
    fsync_batches: u64,
    bytes_fsynced: u64,
    segments: usize,
}

/// Appends the same `events`-long stream under one flush interval,
/// keeping a consumer registered so nothing compacts mid-run.
fn sweep_cell(flush_every: usize, events: u64) -> SweepRow {
    let dir = scratch_dir(&format!("sweep{flush_every}"));
    let mut log = open_log(&dir, flush_every);
    log.register_consumer(DestId(1), CLASS);
    let stream: Vec<Envelope> = (0..events).map(bench_event).collect();

    // Timed through the drain: the fsyncs run on the sync thread, and
    // the sweep prices them.
    let start = Instant::now();
    for env in &stream {
        log.append(env);
    }
    log.flush();
    layercake_overlay::wal::drain();
    let elapsed = start.elapsed();

    assert_eq!(log.tail_off(CLASS), events, "every append must land");
    let row = SweepRow {
        flush_every,
        appends_per_sec: events as f64 / elapsed.as_secs_f64(),
        fsync_batches: log.stats().fsync_batches,
        bytes_fsynced: log.stats().bytes_fsynced,
        segments: log.segment_count(),
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

struct RecoveryResult {
    open_ms: f64,
    scanned_per_sec: f64,
    replay_ms: f64,
    replayed_per_sec: f64,
    paged: PagedCatchUp,
}

/// Paging the whole history out in windows of [`PAGE`] records.
struct PagedCatchUp {
    calls: u64,
    records_per_sec: f64,
    records_decoded: u64,
    /// `log_bytes_read` ÷ the bytes of the records returned.
    read_amplification: f64,
}

/// Window of the paged catch-up: one batch of acknowledgements' worth.
const PAGE: usize = 8;

/// Logs `events` records, drops the log, then times a cold reopen
/// (full CRC rescan) and a from-zero replay of the whole history.
fn recovery_and_replay(events: u64) -> RecoveryResult {
    let dir = scratch_dir("recover");
    let logged_bytes = {
        let mut log = open_log(&dir, 8);
        log.register_consumer(DestId(1), CLASS);
        for seq in 0..events {
            log.append(&bench_event(seq));
        }
        log.flush();
        log.stats().bytes_fsynced
    };

    let start = Instant::now();
    let mut log = open_log(&dir, 8);
    let open = start.elapsed();
    assert_eq!(log.tail_off(CLASS), events, "recovery must find the tail");
    assert_eq!(log.stats().torn_truncations, 0, "a clean log has no tears");

    let start = Instant::now();
    let replayed = log.replay_after(CLASS, 0);
    let replay = start.elapsed();
    assert_eq!(replayed.len() as u64, events, "replay returns everything");
    assert!(
        replayed.windows(2).all(|w| w[0].0 < w[1].0),
        "replay must come back in offset order"
    );
    drop(replayed);

    let before = log.stats().clone();
    let start = Instant::now();
    let mut upto = 0;
    while let Some(&(last, _)) = log.replay_window(CLASS, upto, PAGE).last() {
        upto = last;
    }
    let paged = start.elapsed();
    assert_eq!(upto, events, "paging reaches the tail");
    let after = log.stats();
    let paged = PagedCatchUp {
        calls: after.catch_up_calls - before.catch_up_calls,
        records_per_sec: events as f64 / paged.as_secs_f64(),
        records_decoded: after.records_decoded - before.records_decoded,
        read_amplification: (after.log_bytes_read - before.log_bytes_read) as f64
            / logged_bytes as f64,
    };

    let _ = std::fs::remove_dir_all(&dir);
    RecoveryResult {
        open_ms: open.as_secs_f64() * 1000.0,
        scanned_per_sec: events as f64 / open.as_secs_f64(),
        replay_ms: replay.as_secs_f64() * 1000.0,
        replayed_per_sec: events as f64 / replay.as_secs_f64(),
        paged,
    }
}

/// A [`NodeCtx`] that keeps what the broker sends, for the drive below
/// to play the subscribers' part.
#[derive(Default)]
struct Outbox {
    sent: Vec<(ActorId, OverlayMsg)>,
}

impl NodeCtx for Outbox {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn me(&self) -> ActorId {
        ActorId(0)
    }
    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        self.sent.push((to, msg));
    }
    fn set_timer(&mut self, _delay: SimDuration, _tag: u64) {}
}

/// Consumers of the selective run, each owed every [`SELECTIVE`]-th event.
const SELECTIVE: u64 = 4;

struct SelectiveResult {
    /// Frames into and out of the broker over the whole run, per event:
    /// one publication, one delivery, an eighth of an ack.
    frames_per_event: f64,
    /// `durable_sent` ÷ the deliveries the consumers are owed.
    sent_per_owed: f64,
    durable_skipped: u64,
    /// Broker time in the handlers that page the backlog out (re-attach
    /// and acknowledgements), per record they sent.
    catch_up_us_per_record: f64,
    catch_up_calls: u64,
    /// `log_bytes_read` ÷ the bytes of the records decoded.
    read_amplification: f64,
}

/// One broker on a real log, [`SELECTIVE`] durable consumers with
/// `region = k`, a backlog of `events` logged while they are detached,
/// then each re-attaches and drains its stream, acknowledging every
/// eighth delivery as a subscriber does.
fn selective_consumers(events: u64) -> SelectiveResult {
    let dir = scratch_dir("selective");
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
    let registry = Arc::new(registry);
    let cfg = OverlayConfig {
        levels: vec![1],
        durability_enabled: true,
        ..OverlayConfig::default()
    };
    let mut broker = topology::build_brokers(&cfg, &registry, None)
        .expect("one-broker topology")
        .remove(0)
        .broker;
    broker.enable_durability(
        Box::new(FileStorage::open(dir.clone()).expect("open log storage")),
        LogConfig::default(),
    );

    let publisher = ActorId(usize::MAX);
    let mut out = Outbox::default();
    let mut frames = 0u64;
    let mut feed = |broker: &mut layercake_overlay::Broker,
                    out: &mut Outbox,
                    from: ActorId,
                    msg: OverlayMsg| {
        frames += 1;
        broker.on_message(from, msg, out);
    };
    let adv = Advertisement::new(CLASS, StageMap::from_prefixes(&[1]).expect("stage map"));
    feed(&mut broker, &mut out, publisher, OverlayMsg::Advertise(adv));
    let consumers: Vec<ActorId> = (0..SELECTIVE).map(|k| ActorId(100 + k as usize)).collect();
    for (k, &subscriber) in consumers.iter().enumerate() {
        let filter = Filter::for_class(CLASS).eq("region", k as i64);
        let (id, filter) = topology::standardize_branches(&registry, vec![filter], k as u64)
            .expect("bench filter standardises")
            .remove(0);
        let req = SubscriptionReq {
            id,
            filter,
            subscriber,
            durable: true,
        };
        feed(
            &mut broker,
            &mut out,
            subscriber,
            OverlayMsg::Subscribe(req),
        );
        feed(
            &mut broker,
            &mut out,
            subscriber,
            OverlayMsg::Detach { subscriber },
        );
    }
    for seq in 0..events {
        let mut meta = EventData::new();
        meta.insert("region", (seq % SELECTIVE) as i64);
        meta.insert("level", (seq % 100) as i64);
        let env = Envelope::from_meta(CLASS, "Feed0", EventSeq(seq), meta);
        feed(&mut broker, &mut out, publisher, OverlayMsg::Publish(env));
    }
    out.sent.clear();

    let before = broker.durability().expect("durable broker").clone();
    let mut paging = Duration::ZERO;
    let mut delivered = 0u64;
    for &subscriber in &consumers {
        // What the subscriber has to say, in order: the re-attach, then
        // an ack per eighth delivery; its timer flushes a short last batch.
        let mut inbox = VecDeque::from([OverlayMsg::Attach { subscriber }]);
        let (mut unacked, mut cursor) = (0, 0);
        loop {
            let msg = match inbox.pop_front() {
                Some(msg) => msg,
                None if unacked > 0 => {
                    unacked = 0;
                    OverlayMsg::AckUpto {
                        class: CLASS,
                        upto: cursor,
                    }
                }
                None => break,
            };
            let start = Instant::now();
            feed(&mut broker, &mut out, subscriber, msg);
            paging += start.elapsed();
            for (to, msg) in out.sent.drain(..) {
                assert_eq!(
                    to, subscriber,
                    "only the draining consumer is sent anything"
                );
                let OverlayMsg::Durable { off, env, .. } = msg else {
                    continue;
                };
                assert_eq!(env.seq().0 % SELECTIVE, (subscriber.0 - 100) as u64);
                delivered += 1;
                unacked += 1;
                cursor = off;
                if unacked == 8 {
                    unacked = 0;
                    inbox.push_back(OverlayMsg::AckUpto {
                        class: CLASS,
                        upto: off,
                    });
                }
            }
        }
    }
    frames += delivered + SELECTIVE; // the deliveries and the stream-open frames
    assert_eq!(delivered, events, "every consumer drained what it is owed");

    let after = broker.durability().expect("durable broker");
    let mean_record = after.bytes_fsynced as f64 / after.records_appended as f64;
    let decoded = after.records_decoded - before.records_decoded;
    let result = SelectiveResult {
        frames_per_event: frames as f64 / events as f64,
        sent_per_owed: after.durable_sent as f64 / events as f64,
        durable_skipped: after.durable_skipped,
        catch_up_us_per_record: paging.as_secs_f64() * 1e6 / events as f64,
        catch_up_calls: after.catch_up_calls - before.catch_up_calls,
        read_amplification: (after.log_bytes_read - before.log_bytes_read) as f64
            / (decoded as f64 * mean_record),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Returns once no frame is queued or being handled, five polls in a
/// row: a durable stream with backlog keeps a delivery or an
/// acknowledgement in flight until its last record is out.
fn settle(rt: &Runtime) {
    let mut quiet = 0;
    while quiet < 5 {
        let stats = rt.stats();
        let received = stats.frames_received();
        quiet = if received == stats.frames_sent() {
            quiet + 1
        } else {
            0
        };
        std::thread::sleep(Duration::from_millis(5));
    }
}

struct CrashRestart {
    first_delivered: u64,
    replayed: u64,
    recovered_total: u64,
    /// The restarted run's catch-up, as `RtReport::durability()` sums it
    /// over the shards: calls, records decoded, and bytes read over the
    /// bytes of that many mean-sized records.
    catch_up_calls: u64,
    records_decoded: u64,
    read_amplification: f64,
}

/// End-to-end through the runtime: log under real traffic, kill the
/// process state without the final flush, restart over the directory,
/// and count what the durable subscriber gets back.
fn rt_crash_restart(events: u64) -> CrashRestart {
    let dir = scratch_dir("rt");
    let run = |seqs: std::ops::Range<u64>, crash: bool| {
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
        let overlay = OverlayConfig {
            levels: vec![1],
            durability_enabled: true,
            ..OverlayConfig::default()
        };
        let mut cfg = RtConfig::new(overlay, 2);
        cfg.durable_dir = Some(dir.clone());
        let mut rt = Runtime::start(cfg, Arc::new(registry)).expect("start runtime");
        rt.advertise(Advertisement::new(
            CLASS,
            StageMap::from_prefixes(&[1]).expect("stage map"),
        ));
        let sub = rt
            .add_durable_subscriber(Filter::for_class(CLASS).eq("region", 0i64))
            .expect("place durable subscriber");
        let n = seqs.end - seqs.start;
        let publisher = rt.publisher();
        for seq in seqs {
            publisher.publish(bench_event(seq));
        }
        assert!(
            rt.wait_delivered(n, Duration::from_secs(120)),
            "crash-restart run delivered {} of {n}",
            rt.stats().delivered()
        );
        // The restarted run's first `n` deliveries may all be replay, and
        // the backlog behind them is paged out by acknowledgements the
        // brokers stop reading once teardown poisons them: let the
        // stream run dry first.
        if !crash {
            settle(&rt);
        }
        let report = if crash { rt.kill() } else { rt.shutdown() };
        (report.deliveries(sub).to_vec(), report.durability())
    };

    let half = events / 2;
    let (first, _) = run(0..half, true);
    let (second, d2) = run(half..events, false);
    let union: BTreeSet<EventSeq> = first.iter().chain(second.iter()).copied().collect();
    assert_eq!(
        union.len() as u64,
        events,
        "crash/restart must lose nothing ({} of {events} recovered)",
        union.len()
    );
    assert!(d2.records_replayed > 0, "the lost acks must force a replay");
    let _ = std::fs::remove_dir_all(&dir);
    // Both runs logged the same kind of event, so the second run's mean
    // record size prices the records of the first that it read back.
    let mean_record = d2.bytes_fsynced as f64 / d2.records_appended as f64;
    CrashRestart {
        first_delivered: first.len() as u64,
        replayed: d2.records_replayed,
        recovered_total: union.len() as u64,
        catch_up_calls: d2.catch_up_calls,
        records_decoded: d2.records_decoded,
        read_amplification: d2.log_bytes_read as f64 / (d2.records_decoded as f64 * mean_record),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args.get(1).map_or("docs/results", String::as_str);
    let events: u64 = args.get(2).map_or(20_000, |s| {
        s.parse().expect("events must be a positive integer")
    });
    assert!(events >= 64, "events must be at least 64");

    eprintln!("E18: fsync batching sweep, {events} appends per cell …");
    let sweep: Vec<SweepRow> = FLUSH_SWEEP
        .iter()
        .map(|&fe| {
            let row = sweep_cell(fe, events);
            eprintln!(
                "  flush_every={fe}: {:.0} appends/sec, {} fsync batches",
                row.appends_per_sec, row.fsync_batches
            );
            row
        })
        .collect();

    eprintln!("E18: recovery + replay over {events} records …");
    let rec = recovery_and_replay(events);

    eprintln!("E18: {SELECTIVE} selective consumers over {events} records …");
    let sel = selective_consumers(events);

    let rt_events = events.min(2048);
    eprintln!("E18: runtime crash/restart, {rt_events} events …");
    let cr = rt_crash_restart(rt_events);

    println!("durable log cost, {events} events per cell:\n");
    println!(
        "{}",
        render_table(
            &[
                "flush_every",
                "appends/sec",
                "fsync batches",
                "bytes fsynced",
                "segments"
            ],
            &sweep
                .iter()
                .map(|r| vec![
                    r.flush_every.to_string(),
                    format!("{:.0}", r.appends_per_sec),
                    r.fsync_batches.to_string(),
                    r.bytes_fsynced.to_string(),
                    r.segments.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "recovery: cold open (full CRC rescan) {:.2} ms ({:.0} records/sec)",
        rec.open_ms, rec.scanned_per_sec
    );
    println!(
        "replay:   from offset 0 {:.2} ms ({:.0} records/sec)",
        rec.replay_ms, rec.replayed_per_sec
    );
    println!(
        "catch-up: windows of {PAGE}, {} calls, {:.0} records/sec, {} records decoded, \
         bytes read / bytes returned = {:.2}",
        rec.paged.calls,
        rec.paged.records_per_sec,
        rec.paged.records_decoded,
        rec.paged.read_amplification
    );
    println!(
        "selective: {SELECTIVE} consumers x 1/{SELECTIVE} of the stream: {:.3} frames per event, \
         durable_sent / owed = {:.3} ({} passed over), catch-up {:.2} us per record sent \
         in {} reads, bytes read / bytes decoded = {:.2}",
        sel.frames_per_event,
        sel.sent_per_owed,
        sel.durable_skipped,
        sel.catch_up_us_per_record,
        sel.catch_up_calls,
        sel.read_amplification
    );
    println!(
        "runtime crash/restart: {} delivered, crash, restart replayed {} — \
         {} of {} recovered, zero loss; its catch-up: {} calls, {} records decoded, \
         bytes read / bytes returned = {:.2}.\n",
        cr.first_delivered,
        cr.replayed,
        cr.recovered_total,
        rt_events,
        cr.catch_up_calls,
        cr.records_decoded,
        cr.read_amplification
    );
    println!(
        "reading guide: flush_every=1 asks for an fsync after every append,\n\
         and the sync thread folds the requests queued while it was busy\n\
         into one fsync per segment; larger intervals ask less often, at\n\
         the cost of a longer unsynced\n\
         tail on power loss (an in-process crash loses only unflushed\n\
         acknowledgements, which replay absorbs). Recovery is linear in\n\
         logged bytes — compaction after consumer acks is what keeps it\n\
         short in steady state.\n"
    );

    // ---- machine-readable output --------------------------------------
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"flush_every\": {}, \"appends_per_sec\": {:.1}, \
                 \"fsync_batches\": {}, \"bytes_fsynced\": {}, \"segments\": {}}}",
                r.flush_every, r.appends_per_sec, r.fsync_batches, r.bytes_fsynced, r.segments
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"E18\",\n  \"events\": {events},\n  \
         \"fsync_sweep\": [\n{}\n  ],\n  \
         \"recovery\": {{\"open_ms\": {:.3}, \"records_per_sec\": {:.1}}},\n  \
         \"replay\": {{\"replay_ms\": {:.3}, \"records_per_sec\": {:.1}}},\n  \
         \"paged_catch_up\": {{\"window\": {PAGE}, \"calls\": {}, \"records_per_sec\": {:.1}, \
         \"records_decoded\": {}, \"read_amplification\": {:.3}}},\n  \
         \"selective_consumers\": {{\"consumers\": {SELECTIVE}, \"frames_per_event\": {:.3}, \
         \"sent_per_owed\": {:.3}, \"durable_skipped\": {}, \"catch_up_us_per_record\": {:.3}, \
         \"catch_up_calls\": {}, \"read_amplification\": {:.3}}},\n  \
         \"rt_crash_restart\": {{\"events\": {rt_events}, \"first_delivered\": {}, \
         \"records_replayed\": {}, \"recovered\": {}, \"zero_loss\": true, \
         \"catch_up_calls\": {}, \"records_decoded\": {}, \"read_amplification\": {:.3}}}\n}}\n",
        sweep_json.join(",\n"),
        rec.open_ms,
        rec.scanned_per_sec,
        rec.replay_ms,
        rec.replayed_per_sec,
        rec.paged.calls,
        rec.paged.records_per_sec,
        rec.paged.records_decoded,
        rec.paged.read_amplification,
        sel.frames_per_event,
        sel.sent_per_owed,
        sel.durable_skipped,
        sel.catch_up_us_per_record,
        sel.catch_up_calls,
        sel.read_amplification,
        cr.first_delivered,
        cr.replayed,
        cr.recovered_total,
        cr.catch_up_calls,
        cr.records_decoded,
        cr.read_amplification,
    );
    std::fs::create_dir_all(out_dir).expect("create out_dir");
    let path = format!("{out_dir}/BENCH_durability.json");
    std::fs::write(&path, &json).expect("write BENCH_durability.json");
    println!("wrote {path}");

    // ---- shape checks -------------------------------------------------
    for w in sweep.windows(2) {
        assert!(
            w[0].fsync_batches > w[1].fsync_batches,
            "larger flush intervals must batch into fewer fsyncs \
             ({} at {}, {} at {})",
            w[0].fsync_batches,
            w[0].flush_every,
            w[1].fsync_batches,
            w[1].flush_every
        );
    }
    for r in &sweep {
        assert!(
            r.appends_per_sec > 0.0 && r.appends_per_sec.is_finite(),
            "appends/sec at flush_every={} must be positive",
            r.flush_every
        );
        assert!(r.bytes_fsynced > 0, "synced bytes must be accounted");
    }
    assert!(rec.scanned_per_sec > 0.0 && rec.replayed_per_sec > 0.0);
    assert_eq!(
        rec.paged.records_decoded, events,
        "a paged catch-up decodes the records it returns and no others"
    );
    for (what, amplification) in [
        ("a paged catch-up", rec.paged.read_amplification),
        ("the restarted runtime", cr.read_amplification),
    ] {
        assert!(
            amplification <= 2.0,
            "{what} read {amplification:.2}x the bytes it returned: whole-segment reads are back"
        );
    }
    assert!(
        sel.sent_per_owed <= 1.05,
        "selective consumers were sent {:.3} frames per delivery owed: \
         streams are carrying records their consumers' filters reject",
        sel.sent_per_owed
    );
    assert!(
        (1.0..=2.0).contains(&sel.read_amplification),
        "a filtered catch-up read {:.2}x the bytes it decoded",
        sel.read_amplification
    );
    println!("shape checks passed.");
}
