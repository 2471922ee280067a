//! The layer replay: a seeded sample of a workload's own events and
//! subscriptions, pushed through each crate's public functions on one
//! thread, every call timed from outside.
//!
//! Two parts. The *micro* part times one operation of one crate at a time
//! (a codec call, a table insert). The *pipeline* part routes each sample
//! event by hand through the brokers and subscribers of the real
//! hierarchy — wire encode, wire decode, `Node::on_message`, for every hop
//! the runtime would make — and records a span around each call; their sum
//! is what one event costs with no threads, queues or wake-ups, which is
//! what `replay.sum_vs_cpu_ratio` compares with the measured CPU time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::inputs::{Inputs, SubRole, SubSpec};
use crate::sut::{
    covers, intern, record_scan, record_segment, weaken, CoreLayer, Envelope, EventLayer,
    FilterLayer, HistLayer, Msg, MsgKind, OverlayRig, SimRun, WalLayer, WireLayer, EXTERNAL,
};

/// Events in the replayed sample.
const SAMPLE: u64 = 2_000;

pub type Metrics = Vec<(&'static str, f64)>;

/// Mean nanoseconds per call of `f(i)` over `0..n`, after a warm-up eighth.
fn time_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..n / 8 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// One timed call: name, start, end, the span that caused it, and the
/// event's seq as the identifier its spans share.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    seq: u64,
}

/// Spans, held in memory until the replay ends.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: Option<u64>, name: &'static str, start_ns: u64, seq: u64) {
        let id = self.spans.len() as u64;
        let end_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            seq,
        });
    }

    /// Total duration and call count of the spans called `name`.
    fn total(&self, name: &str) -> (f64, f64) {
        let of_name = self.spans.iter().filter(|s| s.name == name);
        of_name.fold((0.0, 0.0), |(ns, n), s| {
            (ns + (s.end_ns - s.start_ns) as f64, n + 1.0)
        })
    }

    fn mean_ns(&self, name: &str) -> f64 {
        let (ns, n) = self.total(name);
        if n == 0.0 {
            0.0
        } else {
            ns / n
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"seq\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.seq
            )?;
        }
        out.flush()
    }
}

fn sample(inputs: &Inputs) -> Vec<Envelope> {
    (0..SAMPLE)
        .map(|seq| {
            inputs
                .domain
                .envelope(&inputs.contents[inputs.content_of(seq)], seq)
        })
        .collect()
}

fn specs(inputs: &Inputs) -> impl Iterator<Item = &SubSpec> {
    inputs.initial.iter().chain(&inputs.churn)
}

/// Runs the whole replay; writes the spans to `spans_path`.
pub fn replay(inputs: &Inputs, out_dir: &Path, spans_path: &Path) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let events = sample(inputs);
    event_layer(inputs, &events, &mut m);
    filter_layer(inputs, &mut m);
    wal_layer(inputs, &events, out_dir, &mut m);
    sim_layer(inputs, &events, &mut m);
    small_layers(inputs, &mut m);
    pipeline(inputs, &events, out_dir, spans_path, &mut m)?;
    Ok(m)
}

fn event_layer(inputs: &Inputs, events: &[Envelope], m: &mut Metrics) {
    let n = events.len();
    let content = |i: usize| &inputs.contents[inputs.content_of(i as u64)];
    m.push((
        "event.typed_encode_ns",
        time_ns(n, |i| {
            let c = content(i);
            black_box(inputs.domain.typed_encode(&c.symbol, c.price, i as u64));
        }),
    ));
    let mut layer = EventLayer::new();
    let mut buf = Vec::new();
    m.push((
        "event.codec_encode_ns",
        time_ns(n, |i| {
            buf.clear();
            layer.codec_encode(&events[i], &mut buf);
            black_box(buf.len());
        }),
    ));
    let encoded: Vec<Vec<u8>> = events
        .iter()
        .map(|e| {
            let mut b = Vec::new();
            layer.codec_encode(e, &mut b);
            b
        })
        .collect();
    m.push((
        "event.codec_decode_ns",
        time_ns(n, |i| {
            black_box(layer.codec_decode(&encoded[i]));
        }),
    ));
    m.push((
        "event.frame_roundtrip_ns",
        time_ns(n, |i| {
            black_box(layer.frame_roundtrip(&encoded[i]));
        }),
    ));
    m.push((
        "event.intern_ns",
        time_ns(n, |i| {
            black_box(intern(if i % 2 == 0 { "symbol" } else { "price" }));
        }),
    ));
    let segment = record_segment(&encoded);
    let scans = 20;
    let per_scan_ns = time_ns(scans, |_| {
        assert_eq!(
            record_scan(black_box(&segment)),
            n,
            "every record scans clean"
        );
    });
    // Bytes per nanosecond × 1000 = MB/s.
    m.push((
        "event.record_scan_mbps",
        segment.len() as f64 / per_scan_ns * 1e3,
    ));
}

fn filter_layer(inputs: &Inputs, m: &mut Metrics) {
    // Every `<filter, subscriber>` pair the workload places, in order.
    let pairs: Vec<(usize, u64)> = specs(inputs)
        .enumerate()
        .flat_map(|(dest, spec)| spec.branches.iter().map(move |&f| (f, dest as u64)))
        .collect();
    let n = pairs.len();
    let filter = |i: usize| inputs.filters[pairs[i].0].clone();
    let mut layer = FilterLayer::new(&inputs.domain);

    let start = Instant::now();
    for (i, &(_, dest)) in pairs.iter().enumerate() {
        layer.insert(filter(i), dest);
    }
    m.push((
        "filter.insert_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    ));
    let start = Instant::now();
    for (i, &(_, dest)) in pairs.iter().enumerate() {
        layer.agg_insert(filter(i), dest);
    }
    m.push((
        "filter.agg_insert_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    ));
    m.push(("filter.entries", layer.entries() as f64));
    m.push(("filter.agg_entries", layer.agg_entries() as f64));

    let content = |i: usize| &inputs.contents[inputs.content_of(i as u64)];
    let mut hits = 0usize;
    let sample = SAMPLE as usize;
    m.push((
        "filter.match_ns",
        time_ns(sample, |i| hits += layer.matches(content(i))),
    ));
    // The warm-up eighth of `time_ns` counted hits too.
    m.push((
        "filter.match_hits_per_event",
        hits as f64 / (sample + sample / 8) as f64,
    ));
    m.push((
        "filter.agg_match_ns",
        time_ns(sample, |i| {
            black_box(layer.agg_matches(content(i)));
        }),
    ));

    let distinct = inputs.filters.len();
    m.push((
        "filter.weaken_ns",
        time_ns(sample, |i| {
            black_box(weaken(&inputs.domain, &inputs.filters[i % distinct], 2));
        }),
    ));
    m.push((
        "filter.covers_ns",
        time_ns(sample, |i| {
            black_box(covers(
                &inputs.domain,
                &inputs.filters[(i + 1) % distinct],
                &inputs.filters[i % distinct],
            ));
        }),
    ));

    // Removal is destructive, so it goes last: every 16th pair, at least
    // the first. (A pair the Zipf draw produced twice is removed once; its
    // second removal finds nothing, which costs a look-up all the same.)
    let victims: Vec<usize> = (0..n).step_by(16).collect();
    let start = Instant::now();
    for &i in &victims {
        black_box(layer.remove(&inputs.filters[pairs[i].0], pairs[i].1));
    }
    m.push((
        "filter.remove_ns",
        start.elapsed().as_nanos() as f64 / victims.len() as f64,
    ));
    let start = Instant::now();
    for &i in &victims {
        layer.agg_remove(&inputs.filters[pairs[i].0], pairs[i].1);
    }
    m.push((
        "filter.agg_remove_ns",
        start.elapsed().as_nanos() as f64 / victims.len() as f64,
    ));
}

fn wal_layer(inputs: &Inputs, events: &[Envelope], out_dir: &Path, m: &mut Metrics) {
    let dir = out_dir.join(format!("wal-layer-{}", std::process::id()));
    let mut wal = WalLayer::open(&inputs.domain, &dir);
    let n = events.len();
    let start = Instant::now();
    for env in events {
        wal.append(env);
    }
    m.push((
        "overlay.wal_append_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    ));
    let start = Instant::now();
    let replayed = wal.replay_all();
    assert_eq!(replayed, n, "the log replays what was appended");
    m.push((
        "overlay.wal_replay_eps",
        n as f64 / start.elapsed().as_secs_f64(),
    ));
    let (fsyncs, bytes, appended) = wal.totals();
    m.push((
        "overlay.wal_fsyncs_per_event",
        fsyncs as f64 / appended as f64,
    ));
    m.push((
        "overlay.wal_bytes_per_event",
        bytes as f64 / appended as f64,
    ));
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
}

fn sim_layer(inputs: &Inputs, events: &[Envelope], m: &mut Metrics) {
    let mut sim = SimRun::new(&inputs.domain);
    for spec in specs(inputs) {
        sim.subscribe(inputs.branches(spec));
    }
    let before = sim.counts();
    let start = Instant::now();
    for env in events {
        sim.publish(env.clone());
    }
    sim.settle();
    let seconds = start.elapsed().as_secs_f64();
    let after = sim.counts();
    let n = events.len() as f64;
    m.push(("sim.events_per_s", n / seconds));
    m.push((
        "overlay.sim_msgs_per_event",
        (after.network_messages - before.network_messages) as f64 / n,
    ));
    m.push((
        "overlay.sim_evals_per_event",
        (after.evaluations - before.evaluations) as f64 / n,
    ));
    let received = (after.stage0_received - before.stage0_received) as f64;
    let matched = (after.stage0_matched - before.stage0_matched) as f64;
    m.push((
        "overlay.subscriber_accept_ratio",
        if received == 0.0 {
            0.0
        } else {
            matched / received
        },
    ));
}

fn small_layers(inputs: &Inputs, m: &mut Metrics) {
    let content = |i: usize| &inputs.contents[inputs.content_of(i as u64)];
    let symbols: Vec<String> = inputs
        .contents
        .iter()
        .take(4)
        .map(|c| c.symbol.clone())
        .collect();
    let mut core = CoreLayer::new(&symbols);
    m.push((
        "core.publish_typed_ns",
        time_ns(500, |i| {
            let c = content(i);
            core.publish(&c.symbol, c.price);
        }),
    ));
    let mut hist = HistLayer::new();
    m.push((
        "metrics.hist_record_ns",
        time_ns(100_000, |i| hist.record(i as u64 * 37)),
    ));
    black_box(hist.count());
    let per_event_ns = time_ns(SAMPLE as usize, |i| {
        black_box(inputs.domain.envelope(content(i), i as u64));
    });
    m.push(("workload.gen_eps", 1e9 / per_event_ns));
}

/// Name of the span around a `Node::on_message` call.
fn node_span(broker: bool, kind: MsgKind) -> &'static str {
    match (broker, kind) {
        (true, MsgKind::Publish) => "overlay.broker_publish",
        (true, MsgKind::Subscribe) => "overlay.broker_subscribe",
        (false, MsgKind::Deliver) => "overlay.subscriber_accept",
        _ => "overlay.control",
    }
}

/// Delivers `first` and everything it causes, one hop at a time: wire
/// encode, wire decode, `on_message`, each under its own span.
fn pump(
    rig: &mut OverlayRig,
    wire: &mut WireLayer,
    spans: &mut Spans,
    parent: Option<u64>,
    seq: u64,
    first: (usize, usize, Msg),
) {
    let mut queue = VecDeque::from([first]);
    let mut outbox = Vec::new();
    let mut frame = Vec::new();
    while let Some((from, to, msg)) = queue.pop_front() {
        frame.clear();
        let t = spans.now();
        wire.encode(from, &msg, &mut frame);
        spans.push(parent, "rt.wire_encode", t, seq);
        let t = spans.now();
        let (from, msg) = wire.decode(&frame);
        spans.push(parent, "rt.wire_decode", t, seq);
        let name = node_span(rig.is_broker(to), msg.kind());
        let t = spans.now();
        rig.deliver(from, to, msg, &mut outbox);
        spans.push(parent, name, t, seq);
        queue.extend(outbox.drain(..));
    }
}

fn pipeline(
    inputs: &Inputs,
    events: &[Envelope],
    out_dir: &Path,
    spans_path: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let wal_dir = out_dir.join(format!("wal-rig-{}", std::process::id()));
    let mut rig = OverlayRig::new(&inputs.domain, inputs.durable.then_some(wal_dir.as_path()));
    let mut wire = WireLayer::new();
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let root = rig.root();

    // Set-up: advertise, then walk every subscription down the hierarchy.
    // `seq` is the subscriber's index here; these spans are not events.
    let advertisement = rig.advertisement();
    pump(
        &mut rig,
        &mut wire,
        &mut spans,
        None,
        0,
        (EXTERNAL, root, advertisement),
    );
    for (i, spec) in specs(inputs).enumerate() {
        let (_, requests) =
            rig.add_subscriber(inputs.branches(spec), spec.role == SubRole::Durable);
        for request in requests {
            pump(
                &mut rig,
                &mut wire,
                &mut spans,
                None,
                i as u64,
                (EXTERNAL, root, request),
            );
        }
    }
    m.push((
        "overlay.broker_subscribe_ns",
        spans.mean_ns("overlay.broker_subscribe"),
    ));
    let setup_spans = spans.spans.len();

    // The sample, one event at a time.
    let start = Instant::now();
    for env in events {
        let seq = crate::sut::seq_of(env);
        let t = spans.now();
        let id = spans.spans.len() as u64;
        // Reserve the event's own span first so that its children can name
        // it; its end is set once they are done.
        spans.push(None, "replay.event", t, seq);
        pump(
            &mut rig,
            &mut wire,
            &mut spans,
            Some(id),
            seq,
            (EXTERNAL, root, Msg::publish(env.clone())),
        );
        spans.spans[id as usize].end_ns = spans.now();
    }
    let seconds = start.elapsed().as_secs_f64();
    let n = events.len() as f64;

    // Only the events' spans from here on.
    let event_spans = Spans {
        epoch: spans.epoch,
        spans: spans.spans.split_off(setup_spans),
    };
    let (publish_ns, publishes) = event_spans.total("overlay.broker_publish");
    let (_, hops) = event_spans.total("rt.wire_encode");
    let (event_ns, _) = event_spans.total("replay.event");
    m.push(("rt.wire_encode_ns", event_spans.mean_ns("rt.wire_encode")));
    m.push(("rt.wire_decode_ns", event_spans.mean_ns("rt.wire_decode")));
    m.push((
        "overlay.broker_publish_ns",
        if publishes == 0.0 {
            0.0
        } else {
            publish_ns / publishes
        },
    ));
    // Messages the brokers sent per published event: every hop but the
    // publication itself.
    m.push(("overlay.broker_fanout_per_event", hops / n - 1.0));
    m.push((
        "overlay.subscriber_accept_ns",
        event_spans.mean_ns("overlay.subscriber_accept"),
    ));
    m.push(("replay.sum_us_per_event", event_ns / n / 1e3));
    m.push(("replay.eps", n / seconds));
    event_spans
        .write(spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    if inputs.durable {
        drop(rig);
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    Ok(())
}
