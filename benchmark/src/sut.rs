//! The adapter: every call into the system under test goes through this
//! file, and no other file of the benchmark names a `layercake_*` crate.
//! `README.md` lists the signatures bound here; a refactor of the system
//! keeps them or shims them here, and nowhere else.
//!
//! Defaults are reached through `Default` (`OverlayConfig::default()`,
//! `WireCodec::default()`, `RtConfig::new`), never by naming an
//! `IndexKind`/`WireCodec` variant, so deleting a knob does not break the
//! benchmark. The one named variant is `TransportKind::Tcp`, because the
//! `durable-tcp` workload exists to measure that path.

use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use layercake_core::EventSystem;
use layercake_event::{
    encode_frame, encode_record, scan_records, Advertisement, AttrId, BinCodec, Bytes, ClassId,
    DecodeDict, DictMode, EncodeDict, EventData, EventSeq, FrameDecoder, TypeRegistry, WireReader,
};
use layercake_filter::{weaken_to_stage, AggTable, DestId, FilterId, FilterTable};
use layercake_metrics::{Histogram, PipelineStage};
use layercake_overlay::topology::{build_brokers, build_subscriber, standardize_branches};
use layercake_overlay::wal::{DurableLog, FileStorage, LogConfig};
use layercake_overlay::{Node, NodeCtx, OverlayConfig, OverlayMsg, OverlaySim, SubscriptionReq};
use layercake_rt::wire::encode_msg_into;
use layercake_rt::{
    LinkDecoder, Publisher, RtConfig, RtStats, RtSubscriberHandle, Runtime, TransportKind,
    WireCodec,
};
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_workload::stock::Stock;
use layercake_workload::{StockConfig, StockWorkload, SubsConfig, Zipf, ZipfSubs};

pub use layercake_event::Envelope;
pub use layercake_filter::Filter;

/// Hierarchy used by every workload: two stage-1 brokers under a root, so
/// weakening (root holds symbol-only filters) and placement by similarity
/// (which stage-1 broker hosts a filter) are both exercised.
const LEVELS: [usize; 2] = [2, 1];
/// Sampling period of the traced pass, for stage profiling and for event
/// traces alike.
const TRACE_EVERY: u64 = 64;
/// Sender id of a message injected from outside the overlay: the sentinel
/// the runtime and the simulator use.
pub const EXTERNAL: usize = usize::MAX;

fn overlay_config() -> OverlayConfig {
    OverlayConfig {
        levels: LEVELS.to_vec(),
        ..OverlayConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Inputs: the stock domain
// ---------------------------------------------------------------------------

/// The event class every workload publishes, with its registry.
#[derive(Clone)]
pub struct Domain {
    registry: Arc<TypeRegistry>,
    class: ClassId,
}

impl Domain {
    /// Registers the `Stock` class of the workload crate.
    pub fn stock() -> Self {
        let mut registry = TypeRegistry::new();
        let class = StockWorkload::new(StockConfig::default(), &mut registry).class();
        Self {
            registry: Arc::new(registry),
            class,
        }
    }

    fn advertisement(&self) -> Advertisement {
        Advertisement::new(self.class, StockWorkload::stage_map())
    }

    /// `symbol = <symbol>`: the single-filter subscription of probes and
    /// fan-out subscribers.
    pub fn symbol_filter(&self, symbol: &str) -> Filter {
        Filter::for_class(self.class).eq("symbol", symbol.to_owned())
    }

    /// Naive evaluation of one filter on one event's meta-data: the
    /// oracle's only primitive, independent of every index.
    pub fn matches(&self, filter: &Filter, content: &Content) -> bool {
        filter.matches(self.class, &content.meta, &self.registry)
    }

    /// The envelope of event `seq` carrying `content`: what
    /// `Envelope::encode` of the typed `Stock` produces, rebuilt around the
    /// shared meta-data and payload so that building it costs the
    /// generator one allocation, not a serialisation.
    pub fn envelope(&self, content: &Content, seq: u64) -> Envelope {
        Envelope::from_parts(
            self.class,
            "Stock",
            EventSeq(seq),
            content.meta.clone(),
            content.payload.clone(),
        )
    }

    /// `Envelope::encode` of a typed `Stock`: the publisher-edge cost.
    pub fn typed_encode(&self, symbol: &str, price: f64, seq: u64) -> Envelope {
        Envelope::encode(
            self.class,
            EventSeq(seq),
            &Stock::new(symbol.to_owned(), price),
        )
        .expect("a Stock serialises")
    }
}

/// One distinct event body: the meta-data brokers filter on and the opaque
/// payload, both as typed publication produces them.
#[derive(Clone)]
pub struct Content {
    pub symbol: String,
    pub price: f64,
    meta: EventData,
    payload: Bytes,
}

impl Content {
    pub fn new(domain: &Domain, symbol: String, price: f64) -> Self {
        let env = domain.typed_encode(&symbol, price, 0);
        Self {
            symbol,
            price,
            meta: env.meta().clone(),
            payload: env.payload().clone(),
        }
    }
}

/// Ticker symbol of a subscription group.
pub fn symbol_name(group: usize) -> String {
    StockWorkload::symbol_name(group)
}

/// A Zipf-popular subscription population over `groups × buckets` distinct
/// `symbol = S ∧ price < ceiling` filters (the workload crate's `ZipfSubs`).
pub struct SubPool {
    subs: ZipfSubs,
    sampler: Zipf,
    buckets: usize,
}

impl SubPool {
    pub fn new(domain: &Domain, groups: usize, buckets: usize, skew: f64) -> Self {
        let cfg = SubsConfig {
            groups,
            buckets,
            skew,
            ..SubsConfig::default()
        };
        let subs = ZipfSubs::new(cfg, domain.class);
        Self {
            sampler: Zipf::new(subs.population(), skew),
            subs,
            buckets,
        }
    }

    /// Draws one popularity rank.
    pub fn draw<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }

    pub fn filter_at(&self, rank: usize) -> Filter {
        self.subs.filter_at(rank)
    }

    pub fn group_of(&self, rank: usize) -> usize {
        rank / self.buckets
    }
}

/// Seq of a delivered envelope.
pub fn seq_of(env: &Envelope) -> u64 {
    env.seq().0
}

// ---------------------------------------------------------------------------
// The runtime
// ---------------------------------------------------------------------------

/// What differs between the runtimes the workloads start.
#[derive(Clone, Default)]
pub struct RtOptions {
    /// Loopback TCP links instead of in-process channels.
    pub tcp: bool,
    /// Turns durability on, with the write-ahead logs under this directory.
    pub durable_dir: Option<PathBuf>,
    /// Stage profiling and event tracing, one frame/event in 64.
    pub traced: bool,
}

/// Handle of a placed subscriber, for reading its deliveries back.
#[derive(Clone, Copy)]
pub struct SubHandle(RtSubscriberHandle);

/// How a subscriber is attached.
pub enum SubKind {
    /// Deliveries are also forwarded into the collector's channel.
    Tapped(Sender<Envelope>),
    Durable,
    Plain,
}

/// A running `layercake-rt` runtime, advertised and ready for subscribers.
pub struct Sut {
    rt: Runtime,
}

impl Sut {
    pub fn start(domain: &Domain, opts: &RtOptions) -> Result<Self, String> {
        let mut overlay = overlay_config();
        overlay.durability_enabled = opts.durable_dir.is_some();
        if opts.traced {
            overlay.trace_sample_every = TRACE_EVERY;
        }
        let mut cfg = RtConfig::new(overlay, 1);
        cfg.durable_dir = opts.durable_dir.clone();
        if opts.tcp {
            cfg.transport = TransportKind::Tcp;
        }
        if opts.traced {
            cfg.stage_sample_every = TRACE_EVERY;
        }
        let rt = Runtime::start(cfg, Arc::clone(&domain.registry)).map_err(|e| e.to_string())?;
        rt.advertise(domain.advertisement());
        Ok(Self { rt })
    }

    /// Places one subscriber with the given disjunctive branches, blocking
    /// until every branch is hosted.
    pub fn subscribe(
        &mut self,
        kind: SubKind,
        mut branches: Vec<Filter>,
    ) -> Result<SubHandle, String> {
        let single = |branches: &mut Vec<Filter>| {
            assert_eq!(
                branches.len(),
                1,
                "tapped and durable subscribers take one filter"
            );
            branches.pop().expect("one filter")
        };
        let placed = match kind {
            SubKind::Tapped(tap) => self.rt.add_subscriber_tapped(single(&mut branches), tap),
            SubKind::Durable => self.rt.add_durable_subscriber(single(&mut branches)),
            SubKind::Plain => self.rt.add_subscriber_any(branches),
        };
        placed.map(SubHandle).map_err(|e| e.to_string())
    }

    pub fn publisher(&self) -> SutPublisher {
        SutPublisher(self.rt.publisher())
    }

    pub fn counters(&self) -> SutCounters {
        SutCounters(Arc::clone(self.rt.stats()))
    }

    pub fn shutdown(self) -> SutReport {
        let report = self.rt.shutdown();
        SutReport {
            crashes: report.crashes.len() as u64,
            traced_events: report.trace.as_ref().map_or(0, |t| t.traced_count()),
            report,
        }
    }
}

/// The publisher edge, for the generator thread.
pub struct SutPublisher(Publisher);

impl SutPublisher {
    #[inline]
    pub fn publish(&self, env: Envelope) {
        self.0.publish(env);
    }
}

/// One reading of the runtime's counters.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    pub published: u64,
    pub frames_sent: u64,
    pub frames_received: u64,
    pub bytes_sent: u64,
    /// Encode errors + decode errors + dropped frames.
    pub errors: u64,
    pub queue_wait_sum_ns: u64,
    pub queue_wait_count: u64,
    /// `(sum of nanoseconds, samples)` of every profiled pipeline stage, in
    /// the order of `STAGE_NAMES`; all zero unless the runtime is traced.
    pub stages: [(u64, u64); STAGE_NAMES.len()],
}

/// The runtime's pipeline stages in `PipelineStage::ALL` order, by the names
/// the benchmark reports them under: the runtime's own, prefixed `rt.`.
pub const STAGE_NAMES: [&str; 7] = [
    "rt.stage.ingress_wait_ns",
    "rt.stage.decode_ns",
    "rt.stage.match_ns",
    "rt.stage.encode_ns",
    "rt.stage.egress_send_ns",
    "rt.stage.wal_append_ns",
    "rt.stage.wal_fsync_ns",
];

/// A handle on the live counters that any thread may read.
#[derive(Clone)]
pub struct SutCounters(Arc<RtStats>);

impl SutCounters {
    /// The two counters quiescence is judged by; cheap enough to poll.
    pub fn frames(&self) -> (u64, u64) {
        (self.0.frames_sent(), self.0.frames_received())
    }

    pub fn read(&self) -> Counters {
        let s = &self.0;
        let wait = s.queue_wait_histogram();
        Counters {
            published: s.published(),
            frames_sent: s.frames_sent(),
            frames_received: s.frames_received(),
            bytes_sent: s.bytes_sent(),
            errors: s.encode_errors() + s.decode_errors() + s.frames_dropped(),
            queue_wait_sum_ns: wait.sum(),
            queue_wait_count: wait.count(),
            // The stage profiler records into the same registry.
            stages: PipelineStage::ALL.map(|stage| {
                let h = s.registry().histogram(stage.metric_name()).merged();
                (h.sum(), h.count())
            }),
        }
    }
}

/// Final state of a runtime.
pub struct SutReport {
    report: layercake_rt::RtReport,
    pub crashes: u64,
    pub traced_events: u64,
}

impl SutReport {
    /// Event seqs delivered to a subscriber, in delivery order.
    pub fn deliveries(&self, handle: SubHandle) -> Vec<u64> {
        self.report
            .deliveries(handle.0)
            .iter()
            .map(|s| s.0)
            .collect()
    }

    pub fn counters(&self) -> Counters {
        SutCounters(Arc::clone(&self.report.stats)).read()
    }
}

// ---------------------------------------------------------------------------
// Layer replay: single calls into each crate, for `layers.rs` to time
// ---------------------------------------------------------------------------

/// `event` crate: the binary codec, framing, interning and record scan.
pub struct EventLayer {
    enc: EncodeDict,
    dec: DecodeDict,
    frames: FrameDecoder,
}

impl EventLayer {
    pub fn new() -> Self {
        Self {
            enc: EncodeDict::new(DictMode::Shared),
            dec: DecodeDict::new(DictMode::Shared),
            frames: FrameDecoder::new(),
        }
    }

    /// `BinCodec::encode_bin` of an envelope, appended to `out`.
    pub fn codec_encode(&mut self, env: &Envelope, out: &mut Vec<u8>) {
        env.encode_bin(out, &mut self.enc);
    }

    /// `BinCodec::decode_bin` of an envelope.
    pub fn codec_decode(&self, bytes: &[u8]) -> Envelope {
        Envelope::decode_bin(&mut WireReader::new(bytes), &self.dec).expect("own encoding decodes")
    }

    /// `encode_frame` then `FrameDecoder::push`/`next_frame`; returns the
    /// payload length that came back.
    pub fn frame_roundtrip(&mut self, payload: &[u8]) -> usize {
        let framed = encode_frame(payload).expect("payload under the frame cap");
        self.frames.push(&framed);
        self.frames
            .next_frame()
            .expect("own frame decodes")
            .expect("a whole frame was pushed")
            .len()
    }
}

/// `AttrId::intern` of an already known name: the per-attribute cost of the
/// string-keyed `EventData` API.
pub fn intern(name: &str) -> u32 {
    AttrId::intern(name).0
}

/// A log segment image holding one CRC-framed record per payload.
pub fn record_segment(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut seg = Vec::new();
    for p in payloads {
        seg.extend_from_slice(&encode_record(p).expect("record under the frame cap"));
    }
    seg
}

/// `scan_records` over a segment image (what log recovery does); returns
/// the number of valid records.
pub fn record_scan(segment: &[u8]) -> usize {
    scan_records(segment).records.len()
}

/// `filter` crate: the plain table and the aggregating table, both built
/// with the overlay's default index.
pub struct FilterLayer {
    domain: Domain,
    plain: FilterTable,
    agg: AggTable,
    out: Vec<DestId>,
}

impl FilterLayer {
    pub fn new(domain: &Domain) -> Self {
        let index = OverlayConfig::default().index;
        Self {
            domain: domain.clone(),
            plain: FilterTable::new(index),
            agg: AggTable::new(index),
            out: Vec::new(),
        }
    }

    pub fn insert(&mut self, filter: Filter, dest: u64) {
        self.plain.insert(filter, DestId(dest));
    }

    pub fn remove(&mut self, filter: &Filter, dest: u64) -> bool {
        self.plain.remove(filter, DestId(dest))
    }

    /// Destinations of the filters matching `content`.
    pub fn matches(&mut self, content: &Content) -> usize {
        self.plain.matches(
            self.domain.class,
            &content.meta,
            &self.domain.registry,
            &mut self.out,
        );
        self.out.len()
    }

    pub fn entries(&self) -> usize {
        self.plain.filter_count()
    }

    pub fn agg_insert(&mut self, filter: Filter, dest: u64) {
        self.agg.insert(filter, DestId(dest), &self.domain.registry);
    }

    pub fn agg_remove(&mut self, filter: &Filter, dest: u64) {
        self.agg.remove(filter, DestId(dest), &self.domain.registry);
    }

    pub fn agg_matches(&mut self, content: &Content) -> usize {
        self.agg.matches(
            self.domain.class,
            &content.meta,
            &self.domain.registry,
            &mut self.out,
        );
        self.out.len()
    }

    pub fn agg_entries(&self) -> usize {
        self.agg.live_entries()
    }
}

/// `weaken_to_stage`: the filter a stage-`stage` broker stores for `filter`.
pub fn weaken(domain: &Domain, filter: &Filter, stage: usize) -> Filter {
    let class = domain
        .registry
        .class(domain.class)
        .expect("Stock is registered");
    weaken_to_stage(filter, class, &StockWorkload::stage_map(), stage)
}

/// `Filter::covers`.
pub fn covers(domain: &Domain, a: &Filter, b: &Filter) -> bool {
    a.covers(b, &domain.registry)
}

/// `rt::wire`: one link's encoder and decoder.
pub struct WireLayer {
    enc: EncodeDict,
    dec: LinkDecoder,
}

impl WireLayer {
    pub fn new() -> Self {
        Self {
            enc: EncodeDict::new(DictMode::Shared),
            dec: LinkDecoder::new(WireCodec::default()),
        }
    }

    /// `wire::encode_msg_into`: one framed message appended to `out`.
    pub fn encode(&mut self, from: usize, msg: &Msg, out: &mut Vec<u8>) {
        encode_msg_into(
            WireCodec::default(),
            ActorId(from),
            &msg.0,
            &mut self.enc,
            out,
        )
        .expect("message under the frame cap");
    }

    /// `LinkDecoder::push` + `next_msg` of one whole frame.
    pub fn decode(&mut self, frame: &[u8]) -> (usize, Msg) {
        self.dec.push(frame);
        let (from, msg) = self
            .dec
            .next_msg()
            .expect("own frame decodes")
            .expect("a whole frame was pushed");
        (from.0, Msg(msg))
    }
}

/// An overlay message, opaque to the benchmark.
#[derive(Clone)]
pub struct Msg(OverlayMsg);

impl Msg {
    pub fn publish(env: Envelope) -> Self {
        Self(OverlayMsg::Publish(env))
    }

    pub fn kind(&self) -> MsgKind {
        match &self.0 {
            OverlayMsg::Publish(_) => MsgKind::Publish,
            OverlayMsg::Deliver(_) | OverlayMsg::Durable { .. } => MsgKind::Deliver,
            OverlayMsg::Subscribe(_) | OverlayMsg::ReqInsert { .. } => MsgKind::Subscribe,
            _ => MsgKind::Control,
        }
    }
}

/// What the replay needs to know about a message to name its span.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    Publish,
    Deliver,
    /// `Subscribe` or `ReqInsert`: a table insertion at a broker.
    Subscribe,
    Control,
}

/// A `NodeCtx` that queues what a node sends, for the rig to route.
struct RigCtx<'a> {
    me: ActorId,
    outbox: &'a mut Vec<(usize, usize, Msg)>,
}

impl NodeCtx for RigCtx<'_> {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(0)
    }
    fn me(&self) -> ActorId {
        self.me
    }
    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        self.outbox.push((self.me.0, to.0, Msg(msg)));
    }
    // Leases are off, so the only timers are the durable-ack flush of a
    // subscriber; the replay measures steady-state calls, not timers.
    fn set_timer(&mut self, _delay: SimDuration, _tag: u64) {}
}

/// `overlay` crate: the brokers of `topology::build_brokers` and subscriber
/// nodes of `topology::build_subscriber`, driven one `Node::on_message` at a
/// time. The rig owns no queue: `deliver` returns what the node sent, and
/// the replay routes it, so every call can be timed on its own.
pub struct OverlayRig {
    domain: Domain,
    cfg: OverlayConfig,
    nodes: Vec<Box<dyn Node>>,
    brokers: usize,
    next_filter: u64,
}

impl OverlayRig {
    /// Builds the hierarchy; with `wal_dir`, every broker logs durably
    /// under it, as the runtime's brokers do.
    pub fn new(domain: &Domain, wal_dir: Option<&Path>) -> Self {
        let mut cfg = overlay_config();
        cfg.durability_enabled = wal_dir.is_some();
        let built = build_brokers(&cfg, &domain.registry, None).expect("valid topology");
        let brokers = built.len();
        let nodes = built
            .into_iter()
            .map(|n| {
                let mut broker = n.broker;
                if let Some(dir) = wal_dir {
                    let storage = FileStorage::open(dir.join(format!("rig-b{}", n.id.0)))
                        .expect("open rig log directory");
                    broker.enable_durability(Box::new(storage), log_config(&cfg));
                }
                Box::new(broker) as Box<dyn Node>
            })
            .collect();
        Self {
            domain: domain.clone(),
            cfg,
            nodes,
            brokers,
            next_filter: 0,
        }
    }

    /// Node id of the root broker: where publications and subscriptions
    /// enter.
    pub fn root(&self) -> usize {
        self.brokers - 1
    }

    pub fn is_broker(&self, node: usize) -> bool {
        node < self.brokers
    }

    /// The advertisement to deliver at the root before anything else.
    pub fn advertisement(&self) -> Msg {
        Msg(OverlayMsg::Advertise(self.domain.advertisement()))
    }

    /// Adds a subscriber node and returns its id with the `Subscribe`
    /// requests to deliver at the root, one per branch.
    pub fn add_subscriber(&mut self, branches: Vec<Filter>, durable: bool) -> (usize, Vec<Msg>) {
        let branches = standardize_branches(&self.domain.registry, branches, self.next_filter)
            .expect("workload filters standardise");
        self.next_filter += branches.len() as u64;
        let id = self.nodes.len();
        let node = build_subscriber(
            &self.cfg,
            &self.domain.registry,
            ActorId(self.root()),
            format!("sub-{id:04}"),
            branches.clone(),
            None,
            None,
            durable,
        );
        self.nodes.push(Box::new(node));
        let reqs = branches
            .into_iter()
            .map(|(fid, filter): (FilterId, Filter)| {
                Msg(OverlayMsg::Subscribe(SubscriptionReq {
                    id: fid,
                    filter,
                    subscriber: ActorId(id),
                    durable,
                }))
            })
            .collect();
        (id, reqs)
    }

    /// One `Node::on_message`; what the node sent is appended to `outbox`
    /// as `(from, to, message)`.
    pub fn deliver(
        &mut self,
        from: usize,
        to: usize,
        msg: Msg,
        outbox: &mut Vec<(usize, usize, Msg)>,
    ) {
        let mut ctx = RigCtx {
            me: ActorId(to),
            outbox,
        };
        self.nodes[to].on_message(ActorId(from), msg.0, &mut ctx);
    }
}

fn log_config(cfg: &OverlayConfig) -> LogConfig {
    LogConfig {
        segment_bytes: cfg.wal_segment_bytes,
        flush_every: cfg.wal_flush_every,
    }
}

/// `overlay::wal`: one durable log on real files, with the default sizing.
pub struct WalLayer {
    log: DurableLog,
    class: ClassId,
}

impl WalLayer {
    pub fn open(domain: &Domain, dir: &Path) -> Self {
        let storage = FileStorage::open(dir).expect("open log directory");
        let mut log = DurableLog::open(Box::new(storage), log_config(&OverlayConfig::default()));
        // Without a consumer nothing pins the segments and compaction
        // would delete what the replay metric is about to read back.
        log.register_consumer(DestId(1), domain.class);
        Self {
            log,
            class: domain.class,
        }
    }

    pub fn append(&mut self, env: &Envelope) {
        self.log.append(env);
    }

    /// `(fsync batches, bytes fsynced, records appended)` so far.
    pub fn totals(&self) -> (u64, u64, u64) {
        let s = self.log.stats();
        (s.fsync_batches, s.bytes_fsynced, s.records_appended)
    }

    /// Flushes, then reads the whole log back; returns the record count.
    pub fn replay_all(&mut self) -> usize {
        self.log.flush();
        self.log.replay_after(self.class, 0).len()
    }
}

/// `sim` + `overlay::OverlaySim`: the deterministic reference run of the
/// same inputs, for exact message and evaluation counts.
pub struct SimRun {
    sim: OverlaySim,
}

/// Exact counts of a reference run.
pub struct SimCounts {
    pub network_messages: u64,
    pub evaluations: u64,
    pub stage0_received: u64,
    pub stage0_matched: u64,
}

impl SimRun {
    pub fn new(domain: &Domain) -> Self {
        let mut sim = OverlaySim::try_new(overlay_config(), Arc::clone(&domain.registry))
            .expect("valid topology");
        sim.advertise(domain.advertisement());
        sim.settle();
        Self { sim }
    }

    pub fn subscribe(&mut self, branches: Vec<Filter>) {
        self.sim
            .add_subscriber_any(branches, None)
            .expect("workload filters standardise");
        self.sim.settle();
    }

    pub fn publish(&mut self, env: Envelope) {
        self.sim.publish(env);
    }

    pub fn settle(&mut self) {
        self.sim.settle();
    }

    pub fn counts(&self) -> SimCounts {
        let m = self.sim.metrics();
        let stage0 = || m.records.iter().filter(|r| r.stage == 0);
        SimCounts {
            network_messages: self.sim.network_messages(),
            evaluations: m.records.iter().map(|r| r.evaluations).sum(),
            stage0_received: stage0().map(|r| r.received).sum(),
            stage0_matched: stage0().map(|r| r.matched).sum(),
        }
    }
}

/// `core` facade: typed publish + settle on the simulated overlay.
pub struct CoreLayer {
    system: EventSystem,
}

impl CoreLayer {
    pub fn new(symbols: &[String]) -> Self {
        let mut system = EventSystem::builder()
            .levels(&LEVELS)
            .with_event::<Stock>()
            .expect("register Stock")
            .build();
        system
            .advertise::<Stock>(Some(StockWorkload::stage_map()))
            .expect("advertise Stock");
        for s in symbols {
            system
                .subscribe::<Stock>(|f| f.eq("symbol", s.clone()))
                .expect("subscribe");
        }
        system.settle();
        Self { system }
    }

    /// `EventSystem::publish` of a typed `Stock`, then `settle`.
    pub fn publish(&mut self, symbol: &str, price: f64) {
        self.system
            .publish(&Stock::new(symbol.to_owned(), price))
            .expect("publish");
        self.system.settle();
    }
}

/// `metrics::Histogram::record`.
pub struct HistLayer(Histogram);

impl HistLayer {
    pub fn new() -> Self {
        Self(Histogram::new())
    }
    pub fn record(&mut self, v: u64) {
        self.0.record(v);
    }
    pub fn count(&self) -> u64 {
        self.0.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_follow_the_runtimes() {
        for (name, stage) in STAGE_NAMES.iter().zip(PipelineStage::ALL) {
            assert_eq!(*name, format!("rt.{}", stage.metric_name()));
        }
    }
}
