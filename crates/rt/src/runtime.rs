//! The multi-threaded wall-clock runtime.
//!
//! Every overlay node — each matcher shard of each broker, and each
//! subscriber — is a task owning its node state machine outright, run by
//! one of a few worker threads ([`crate::executor`]), at most one per
//! core; a durable log's fsyncs run on the process's `lc-wal-sync` thread,
//! never in a turn. Nodes exchange *messages*: an inbox holds the
//! [`OverlayMsg`] and its sender, so an event crosses an in-process hop as
//! an `Arc` bump of its envelope body, with no encode and no decode. Bytes
//! exist only where a message crosses a socket: the TCP transport's link
//! threads and the [`crate::remote`] protocol encode and decode plain
//! [`wire`] frames there, and `rt.bytes_sent` counts every hop's frame
//! ([`wire::frame_len`]) either way. Whichever way a message travels, it
//! enters an inbox through one router function, `Router::enter`, which
//! picks the shard, captures control for restart replay (tagging the frame
//! with its place in the log) and schedules the receiving node on its
//! worker.
//!
//! # Sharding contract (leader/follower)
//!
//! Each broker is replicated across `shards` matcher shards. Data
//! frames (`Publish`/`Deliver`/`Durable`) are routed to exactly one
//! shard by a hash of the event class, so each class's matching work
//! runs on one shard per broker and distinct classes spread across
//! shards. Control frames are broadcast to *all* shards so every
//! replica's filter table stays identical — but only shard 0 (the
//! leader) emits outgoing control messages or arms timers; followers
//! apply the same table mutations and stay silent. Because placement
//! decisions can consult a seeded RNG, replicas stay convergent only
//! when control traffic reaches them in one global order — which the
//! runtime guarantees by placing subscriptions sequentially during
//! setup, one branch at a time ([`Runtime::add_subscriber_any`] sends a
//! branch's request only once the previous branch is hosted, and blocks
//! until the last walk finishes) before any data flows.
//!
//! # Supervision
//!
//! A worker catches a node's panic around each slice and runs its other
//! nodes on; the `lc-supervisor` thread restarts a crashed or stalled
//! broker shard in place — state machine rebuilt, control prefix replayed
//! mutedly, durable log recovered, `DurableBase` re-emitted, the successor
//! stored in the crashed generation's worker slot — under a bounded,
//! backed-off budget. A shard's inbox and slot are made once, at start: the
//! frames sent while it was down wait in that inbox, in order, and no
//! route changes until a spent budget dead-ends it. Subscriber panics
//! are reported in [`RtReport::crashes`], not restarted (see
//! [`crate::SupervisionConfig`] and `DESIGN.md`'s runtime fault model).
//!
//! # Shutdown protocol
//!
//! [`Runtime::shutdown`] stops the supervisor (force-completing pending
//! restarts), then poisons stage by stage from the root down: each node
//! receiving the poison pill drains everything still queued in its inbox,
//! then exits and its worker hands back the final state machine. Since a
//! stage has exited before the next one down is poisoned, every data
//! frame forwarded downward is already enqueued at its destination when
//! that destination drains — published events are never lost at
//! shutdown. Subscribers drain last, then the workers stop. On the TCP
//! transport the pill is the end of the link's stream: poisoning closes
//! the link behind every frame queued on it, and its reader hands each
//! shard the pill at EOF.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use layercake_event::{
    Advertisement, AttrValue, DecodeDict, DictMode, EncodeDict, Envelope, TraceContext, TraceId,
    TypeRegistry, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use layercake_filter::{Filter, FilterId};
use layercake_metrics::{DurabilityStats, Gauge, PipelineStage, StageProfiler, TelemetrySnapshot};
use layercake_overlay::topology::{self, TopologyNode};
use layercake_overlay::wal::{FileStorage, SyncTelemetry};
use layercake_overlay::{Broker, Node, NodeCtx, OverlayConfig, OverlayMsg, SubscriberNode};
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_trace::TraceSink;

use crate::driver::{LoopExit, NodeDriver, SharedRx};
use crate::error::RtError;
use crate::executor::{Executor, Inbox, Slice, Task, Worker};
use crate::fault::{FaultState, RtFaultPlan};
use crate::metrics_http::MetricsServer;
use crate::stats::RtStats;
use crate::supervisor::{
    CrashEntry, CrashKind, ShardDown, ShardSlot, Slots, SupervisionConfig, Supervisor,
    SupervisorShared,
};
use crate::transport::{self, Link, LinkCmd, TransportKind};
use crate::wire;

/// The external-publisher sentinel: same value the simulator uses for
/// `send_external`, so provenance on the wire matches sim traces.
pub(crate) const EXTERNAL: ActorId = ActorId(usize::MAX);

/// How long [`Runtime::add_subscriber_any`] waits for a placement walk,
/// and [`Runtime::advertise`] for the flood to settle, before giving up.
const PLACEMENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration for [`Runtime::start`].
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// The overlay to run. Soft-state leases must be disabled: their
    /// timers and expiries run per broker replica and would diverge
    /// across matcher shards. (The simulator's hop-by-hop link layer is
    /// not an overlay option at all: nothing here can ask for it.)
    /// Durability does run — the durable log is keyed by event
    /// class, and data frames shard by class too, so each shard's log
    /// covers exactly the classes it matches and replicas never
    /// disagree; enable it with `overlay.durability_enabled` plus
    /// [`RtConfig::durable_dir`]. So does trace sampling:
    /// `overlay.trace_sample_every = n` samples every n-th published
    /// event into a wall-clock [`TraceSink`] with per-hop provenance
    /// (shard id, covering-filter verdict) matching the simulator's,
    /// exported as the same JSONL schema.
    pub overlay: OverlayConfig,
    /// Matcher shards per broker; ≥ 1. Each is a node of its own, with its
    /// own inbox and filter table; shards share the workers with every
    /// other volatile node, at most one worker per core.
    pub shards: usize,
    /// Root directory for the per-broker durable logs, required when
    /// `overlay.durability_enabled` is set. Broker `b`'s shard `s` logs
    /// under `<durable_dir>/b<b>/s<s>`; restarting a runtime over the
    /// same directory recovers consumer offsets and replays unacked
    /// events to re-subscribing durable subscribers. The supervisor
    /// reuses the same layout when it restarts a single crashed shard in
    /// place.
    pub durable_dir: Option<PathBuf>,
    /// Pipeline stage profiling: every n-th frame a node receives
    /// is timed through ingress wait → match → egress send (every n-th a
    /// TCP link carries through encode and decode; WAL append/fsync on
    /// durable runs) into the telemetry registry. `0` (the default) turns
    /// profiling off; the cost left on the hot path is then one branch
    /// per frame.
    pub stage_sample_every: u64,
    /// When set, serves the telemetry registry in Prometheus text
    /// exposition format on this socket address (e.g. `"127.0.0.1:9464"`;
    /// port 0 binds an ephemeral port reported by
    /// [`Runtime::metrics_addr`]). `None` (the default) serves nothing.
    pub metrics_addr: Option<String>,
    /// Crash-recovery policy: restart budget, backoff, stall detection.
    /// Supervision is on by default; see [`SupervisionConfig`].
    pub supervision: SupervisionConfig,
    /// Seeded wall-clock fault injection (induced shard panics/stalls,
    /// link drops) for chaos tests and the E20 experiment. `None` (the
    /// default) injects nothing and keeps the fault hooks to two hash
    /// probes per frame.
    pub fault_plan: Option<RtFaultPlan>,
    /// Which link backend carries frames between nodes:
    /// in-process mpsc channels (the default) or loopback TCP sockets
    /// with per-link writer/reader threads ([`TransportKind::Tcp`]),
    /// which makes every hop pay real socket I/O — the in-process
    /// proving ground for multi-process deployments (see
    /// [`crate::remote`] for actual cross-process brokers).
    pub transport: TransportKind,
}

impl RtConfig {
    /// A runtime config over `overlay` with `shards` matcher shards per
    /// broker, default supervision, no fault injection, the mpsc
    /// transport, and all observability (stage profiling, metrics
    /// endpoint) off.
    #[must_use]
    pub fn new(overlay: OverlayConfig, shards: usize) -> Self {
        Self {
            overlay,
            shards,
            durable_dir: None,
            stage_sample_every: 0,
            metrics_addr: None,
            supervision: SupervisionConfig::default(),
            fault_plan: None,
            transport: TransportKind::default(),
        }
    }

    fn validate(&self) -> Result<(), RtError> {
        self.overlay.validate()?;
        if self.shards == 0 {
            return Err(RtError::InvalidShards);
        }
        if self.overlay.leases_enabled {
            return Err(RtError::UnsupportedFeature(
                "leases arm timers and expire table entries per replica, \
                 which would diverge across matcher shards; run them in \
                 the deterministic simulator",
            ));
        }
        if let Some(addr) = &self.metrics_addr {
            if addr.parse::<SocketAddr>().is_err() {
                return Err(RtError::Metrics {
                    addr: addr.clone(),
                    reason: "not a valid socket address".to_string(),
                });
            }
        }
        if self.overlay.durability_enabled && self.durable_dir.is_none() {
            return Err(RtError::UnsupportedFeature(
                "durability in the runtime writes real files; set \
                 RtConfig::durable_dir to the log directory",
            ));
        }
        if self.durable_dir.is_some() && !self.overlay.durability_enabled {
            return Err(RtError::UnsupportedFeature(
                "durable_dir is set but overlay.durability_enabled is \
                 false; enable both or neither",
            ));
        }
        if let Some(plan) = &self.fault_plan {
            plan.validate()?;
        }
        Ok(())
    }
}

/// One message in flight between nodes, with its sender: inbox channels,
/// unlike the simulator's scheduler, carry no provenance.
#[derive(Clone)]
pub(crate) struct Frame {
    pub(crate) from: ActorId,
    pub(crate) msg: OverlayMsg,
    /// Nanoseconds since runtime start when the frame entered its inbox;
    /// `0` when the stage profiler is off (the receiver then skips the
    /// ingress-wait stage rather than misreading an unstamped frame).
    pub(crate) enqueued_ns: u64,
    /// A captured control broadcast's position in its broker's control
    /// log, set by [`Router::enter`]: a shard rebuilt from the first `n`
    /// entries skips the frames before `n`. `None` for data, acks and
    /// subscriber-bound control.
    pub(crate) ctrl_seq: Option<u64>,
}

/// What a node receives: either one message or the shutdown poison pill.
#[derive(Clone)]
pub(crate) enum RtEvent {
    Frame(Frame),
    Shutdown,
}

impl RtEvent {
    /// A data frame: what the loss and requeue ledgers count.
    pub(crate) fn is_data(&self) -> bool {
        matches!(self, RtEvent::Frame(frame) if frame.msg.is_data())
    }
}

// An inbox slot is one `RtEvent`; a capacity burst queues up to 30 000 in
// one inbox, so its size shows in peak RSS: 120 bytes raised lcbench's
// `match-zipf`/`churn-mixed` `peak_rss_mb` 8–11%, 96 bytes 3–5.5% (bound 15%).
const _: () = assert!(std::mem::size_of::<RtEvent>() <= 96);

/// How to reach one node: an inbox per matcher shard. A subscriber is a
/// one-shard node.
pub(crate) struct Route {
    shards: Vec<Inbox>,
    /// On the TCP transport, the destination's link writer: messages are
    /// queued here and the link's reader thread enters them into `shards`
    /// after a real socket round trip. `None` on the mpsc transport.
    link: Option<Sender<LinkCmd>>,
}

impl Route {
    /// Puts a copy of `ev` into every shard's inbox; `false` when a
    /// receiving end is gone.
    fn broadcast(&self, ev: &RtEvent) -> bool {
        let mut reached = true;
        for inbox in &self.shards {
            reached &= inbox.push(ev.clone());
        }
        reached
    }

    /// Hands every shard the shutdown pill.
    pub(crate) fn shut_down(&self) {
        self.broadcast(&RtEvent::Shutdown);
    }
}

/// The routing table: node id → inbox(es). Subscribers register after
/// brokers are already running, hence the lock; sends take a read lock,
/// which is uncontended in steady state. A broker shard's inbox is written
/// at start and, if its restart budget runs out, once more to dead-end it
/// ([`Router::dead_end`]); a restart leaves it alone.
#[derive(Clone)]
pub(crate) struct Router {
    routes: Arc<RwLock<Vec<Option<Route>>>>,
    /// Captured control broadcasts per broker id (framed bytes, in the
    /// order every shard's inbox took them), excluding the high-rate
    /// idempotent `AckUpto`. Replayed mutedly into a rebuilt shard so its
    /// filter table and placement RNG stream converge with the surviving
    /// replicas. Growth is bounded by setup traffic (advertisements +
    /// placement walks), not by data volume.
    ctrl: Arc<Vec<Mutex<Vec<Vec<u8>>>>>,
    pub(crate) epoch: Instant,
    pub(crate) profiler: Arc<StageProfiler>,
    pub(crate) fault: Arc<FaultState>,
    /// Set once teardown begins: send failures stop counting as frame
    /// loss (closed channels are the shutdown protocol, not a fault).
    teardown: Arc<AtomicBool>,
}

impl Router {
    fn new(
        capacity: usize,
        epoch: Instant,
        profiler: Arc<StageProfiler>,
        fault: Arc<FaultState>,
    ) -> Self {
        let mut routes = Vec::with_capacity(capacity);
        routes.resize_with(capacity, || None);
        let mut ctrl = Vec::with_capacity(capacity);
        ctrl.resize_with(capacity, || Mutex::new(Vec::new()));
        Self {
            routes: Arc::new(RwLock::new(routes)),
            ctrl: Arc::new(ctrl),
            epoch,
            profiler,
            fault,
            teardown: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Lock poisoning cannot corrupt the table (writers only swap whole
    /// routes or inboxes), and the supervisor must keep routing around a
    /// panicked peer — so every lock acquisition survives poison.
    pub(crate) fn read_routes(&self) -> RwLockReadGuard<'_, Vec<Option<Route>>> {
        self.routes.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_routes(&self) -> RwLockWriteGuard<'_, Vec<Option<Route>>> {
        self.routes.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn set(&self, id: ActorId, route: Route) {
        let mut routes = self.write_routes();
        if routes.len() <= id.0 {
            routes.resize_with(id.0 + 1, || None);
        }
        routes[id.0] = Some(route);
    }

    /// A send hitting a closed channel: the receiving node is dead (or
    /// deliberately dead-ended after give-up). Data frames count in the
    /// loss ledger unless the runtime is tearing down.
    fn note_send_failure(&self, stats: &RtStats, data: bool) {
        if data && !self.teardown.load(Ordering::Relaxed) {
            stats.inc_frames_dropped();
        }
    }

    pub(crate) fn begin_teardown(&self) {
        self.teardown.store(true, Ordering::Relaxed);
    }

    /// Sends `msg` to node `to`: an mpsc inbox takes the message itself
    /// ([`Router::enter`]), a TCP link's writer encodes it. Either way its
    /// frame is counted ([`wire::frame_len`]), once per shard copy, and one
    /// over the frame cap is refused into `rt.encode_errors`. Sends to
    /// already-exited nodes fail soft (counted for data, silent for
    /// control/teardown).
    ///
    /// When `sampled`, the routed send is timed into the `EgressSend`
    /// pipeline stage.
    pub(crate) fn dispatch(
        &self,
        from: ActorId,
        to: ActorId,
        msg: OverlayMsg,
        stats: &RtStats,
        sampled: bool,
    ) {
        let data = msg.is_data();
        if data && self.fault.should_drop(from.0, to.0) {
            // An injected link drop: unlike a panic (whose in-flight
            // frame goes to the successor), this frame is really gone,
            // so it lands in both ledgers.
            stats.inc_faults_injected();
            stats.inc_frames_dropped();
            return;
        }
        let len = wire::frame_len(from, &msg);
        if len - FRAME_HEADER_LEN > MAX_FRAME_PAYLOAD {
            // A message that cannot fit the frame cap: accounted and
            // dropped here, never a panic in a node.
            stats.inc_encode_errors();
            return;
        }
        let send_timer = sampled.then(Instant::now);
        let routes = self.read_routes();
        let Some(Some(route)) = routes.get(to.0) else {
            return;
        };
        // Accounting is per shard copy, so both transports report
        // identical frame counts.
        let copies = if data { 1 } else { route.shards.len() };
        for _ in 0..copies {
            stats.note_frame_sent(len);
        }
        match &route.link {
            Some(link) => {
                if link.send(LinkCmd::Send { from, msg }).is_err() {
                    self.note_send_failure(stats, data);
                }
            }
            None => self.enter(&routes, to.0, from, msg, stats),
        }
        if let Some(t0) = send_timer {
            self.profiler
                .record(PipelineStage::EgressSend, elapsed_ns(t0));
        }
    }

    /// Enters `msg` into node `to`'s inboxes: the one place a frame gets
    /// its shard and its `ctrl_seq` and the receiving node is scheduled
    /// on its worker ([`Inbox::push`]), called by [`Router::dispatch`] on
    /// the mpsc transport and by the link reader on TCP. Data goes to the
    /// class shard, control to every shard. A broker's control broadcast
    /// is captured into its replay log, whose lock is held across the
    /// shard sends, so every shard's inbox takes captured control in log
    /// order; acks are idempotent, never captured, and take no lock, and
    /// nothing subscriber-bound is captured. The frame is stamped for the
    /// ingress-wait stage whenever the profiler is enabled at all, so the
    /// *receiver's* sampler can measure frames whose send was not sampled.
    pub(crate) fn enter(
        &self,
        routes: &[Option<Route>],
        to: usize,
        from: ActorId,
        msg: OverlayMsg,
        stats: &RtStats,
    ) {
        let class = data_class(&msg);
        let Some(Some(route)) = routes.get(to) else {
            return self.note_send_failure(stats, class.is_some());
        };
        let enqueued_ns = if self.profiler.enabled() {
            nanos_since(self.epoch)
        } else {
            0
        };
        let frame = |msg: OverlayMsg, ctrl_seq: Option<u64>| {
            RtEvent::Frame(Frame {
                from,
                msg,
                enqueued_ns,
                ctrl_seq,
            })
        };
        let reached = match (class, self.ctrl.get(to)) {
            (Some(class), _) => {
                route.shards[shard_of(class, route.shards.len())].push(frame(msg, None))
            }
            (None, Some(log)) if !matches!(msg, OverlayMsg::AckUpto { .. }) => {
                // As bytes: smaller than the message, and kept for the runtime's life.
                let bytes = wire::encode_msg(from, &msg, &mut EncodeDict::new(DictMode::Shared))
                    .expect("dispatch checked the frame cap");
                let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
                log.push(bytes);
                route.broadcast(&frame(msg, Some(log.len() as u64 - 1)))
            }
            (None, _) => route.broadcast(&frame(msg, None)),
        };
        if !reached {
            self.note_send_failure(stats, class.is_some());
        }
    }

    /// The captured control prefix of broker `b`, for muted replay into
    /// a rebuilt shard.
    pub(crate) fn ctrl_prefix(&self, b: usize) -> Vec<Vec<u8>> {
        self.ctrl[b]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Hands a fenced zombie's in-flight `ev` back to broker `b` shard
    /// `shard`'s inbox: its successor takes it, or, on a dead end, the loss
    /// ledger. A data frame counts as requeued or as dropped.
    pub(crate) fn push_back(&self, b: usize, shard: usize, ev: RtEvent, stats: &RtStats) {
        let data = ev.is_data();
        let pushed =
            matches!(self.read_routes().get(b), Some(Some(route)) if route.shards[shard].push(ev));
        if data && pushed {
            stats.add_frames_requeued(1);
        } else if data {
            stats.inc_frames_dropped();
        }
    }

    /// Routes broker `b` shard `shard` to a dead end for good, once its
    /// restart budget is spent: its inbox becomes a sender whose receiver
    /// is gone, so later data frames fail soft into the loss ledger, and
    /// the data frames its inbox `rx` still holds are counted there too.
    pub(crate) fn dead_end(&self, b: usize, shard: usize, rx: &SharedRx, stats: &RtStats) {
        if let Some(Some(route)) = self.write_routes().get_mut(b) {
            route.shards[shard] = Inbox::unhosted(channel().0);
        }
        let rx = rx.lock().unwrap_or_else(PoisonError::into_inner);
        stats.add_frames_dropped(rx.try_iter().filter(RtEvent::is_data).count() as u64);
    }
}

/// Nanoseconds elapsed since `t0`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The event class a data frame is keyed on, `None` for control: `Some`
/// exactly when [`OverlayMsg::is_data`].
///
/// `AckUpto` deliberately stays control: broadcasting acks keeps every
/// replica's consumer-offset table identical, and on shards that do not
/// own the class the ack is a no-op against an empty class history.
fn data_class(msg: &OverlayMsg) -> Option<u32> {
    match msg {
        OverlayMsg::Publish(env) | OverlayMsg::Deliver(env) | OverlayMsg::Durable { env, .. } => {
            Some(env.class().0)
        }
        _ => None,
    }
}

/// Maps an event class to a matcher shard. Fibonacci hashing spreads the
/// small dense class-id space evenly even when `shards` is a power of 2.
pub(crate) fn shard_of(class: u32, shards: usize) -> usize {
    let h = u64::from(class).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 32) as usize) % shards
}

/// The muted [`NodeCtx`] used while replaying a rebuilt shard's captured
/// control prefix: the surviving replicas already delivered every
/// side-effect of these messages (walk replies, placement acks, timer
/// arms), so the replay must mutate state *silently* — re-sending would
/// duplicate control traffic the overlay has no dedup for.
struct MutedCtx {
    me: ActorId,
    epoch: Instant,
}

impl NodeCtx for MutedCtx {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(micros_since(self.epoch))
    }

    fn me(&self) -> ActorId {
        self.me
    }

    fn send(&mut self, _to: ActorId, _msg: OverlayMsg) {}

    fn set_timer(&mut self, _delay: SimDuration, _tag: u64) {}
}

pub(crate) fn micros_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

pub(crate) fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A cloneable publisher edge. Each clone is meant to be driven by its
/// own thread; publishing stamps the envelope with a wall-clock trace
/// context (nanoseconds since runtime start) and injects it at the root
/// with external provenance, paying the same wire cost as any hop.
///
/// Without a trace sink every event is stamped (the stamp only feeds the
/// latency histogram). With trace sampling on, the sink decides which
/// events carry a context — those accumulate full per-hop provenance in
/// the sink, and only they feed the latency histogram.
#[derive(Clone)]
pub struct Publisher {
    root: ActorId,
    epoch: Instant,
    router: Router,
    stats: Arc<RtStats>,
    trace: Option<Arc<TraceSink>>,
}

impl Publisher {
    /// Publishes one event at the root. An event holding a NaN float is
    /// refused into `rt.encode_errors`: no hop would decode it.
    pub fn publish(&self, mut env: Envelope) {
        self.stats.inc_published();
        let nan = |(_, v): (_, &AttrValue)| matches!(v, AttrValue::Float(f) if f.is_nan());
        if env.meta().iter_ids().any(nan) {
            self.stats.inc_encode_errors();
            return;
        }
        let now = nanos_since(self.epoch);
        match &self.trace {
            Some(sink) => env.set_trace(sink.begin_trace(
                env.class_name(),
                env.seq().0,
                SimTime::from_ticks(now),
            )),
            None => env.set_trace(Some(TraceContext::new(TraceId(env.seq().0), now))),
        }
        self.router.dispatch(
            EXTERNAL,
            self.root,
            OverlayMsg::Publish(env),
            &self.stats,
            false,
        );
    }
}

/// Handle to a subscriber, returned by
/// [`Runtime::add_subscriber_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtSubscriberHandle {
    id: ActorId,
    index: usize,
}

impl RtSubscriberHandle {
    /// The subscriber's overlay node id — the value an
    /// [`RtFaultPlan`] targets to inject faults into this subscriber
    /// (with shard `0`).
    #[must_use]
    pub fn node(&self) -> ActorId {
        self.id
    }
}

/// Final state returned by [`Runtime::shutdown`].
pub struct RtReport {
    /// The runtime's counters and latency distribution.
    pub stats: Arc<RtStats>,
    /// Each subscriber's final node state (deliveries, inbox, labels),
    /// in the order the subscribers were added. A subscriber that
    /// panicked is represented by an empty rebuilt node (its volatile
    /// state died with the panic) and a [`RtReport::crashes`] entry.
    pub subscribers: Vec<SubscriberNode>,
    /// Each broker shard's final state, keyed by `(broker id, shard)`.
    /// Shards that died unrecovered are absent here and present in
    /// [`RtReport::crashes`].
    pub brokers: Vec<((ActorId, usize), Broker)>,
    /// The wall-clock trace sink with every sampled event's per-hop
    /// provenance; `None` when `overlay.trace_sample_every` was 0.
    pub trace: Option<Arc<TraceSink>>,
    /// Every crash the supervision layer observed: recovered shard
    /// restarts first (in completion order), then unrecovered exits
    /// found at teardown.
    pub crashes: Vec<CrashEntry>,
}

impl RtReport {
    /// The delivered event sequences of the subscriber behind `handle`.
    #[must_use]
    pub fn deliveries(&self, handle: RtSubscriberHandle) -> &[layercake_event::EventSeq] {
        self.subscribers[handle.index].deliveries()
    }

    /// Durable-log counters summed across every broker shard; quiet when
    /// the runtime ran without durability.
    #[must_use]
    pub fn durability(&self) -> DurabilityStats {
        let mut total = DurabilityStats::default();
        for (_, broker) in &self.brokers {
            if let Some(stats) = broker.durability() {
                total.absorb(stats);
            }
        }
        total
    }

    /// The first crash the supervision layer could *not* recover from
    /// (an unrestarted node panic, a spent restart budget), if any.
    /// Recovered restarts are normal operation and do not count.
    #[must_use]
    pub fn failure(&self) -> Option<&CrashEntry> {
        self.crashes.iter().find(|c| !c.recovered)
    }

    /// Converts the report into a `Result`, turning the first
    /// unrecovered crash into [`RtError::NodePanic`] — for callers that
    /// treated the old panicking `shutdown()` as their failure signal.
    ///
    /// # Errors
    ///
    /// [`RtError::NodePanic`] when any node exited unrecovered.
    pub fn into_result(self) -> Result<Self, RtError> {
        match self.failure() {
            Some(c) => Err(RtError::NodePanic(format!(
                "node {} shard {} ({:?}): {}",
                c.node.0, c.shard, c.kind, c.detail
            ))),
            None => Ok(self),
        }
    }
}

/// Everything needed to rebuild a subscriber's node shell if it panics:
/// the report must keep one entry per subscriber index.
struct SubscriberSlot {
    id: ActorId,
    label: String,
    branches: Vec<(FilterId, Filter)>,
    durable: bool,
    /// Where its worker hands back the final node (`None` after a panic).
    done: Receiver<Option<Box<SubscriberNode>>>,
}

/// A running wall-clock overlay: broker shards wired per the shared
/// topology, ready to accept advertisements, subscribers and published
/// events.
pub struct Runtime {
    cfg: RtConfig,
    registry: Arc<TypeRegistry>,
    epoch: Instant,
    router: Router,
    stats: Arc<RtStats>,
    root: ActorId,
    broker_count: usize,
    /// Per-shard supervision bookkeeping, shared with the supervisor.
    slots: Slots,
    crashes: Arc<Mutex<Vec<CrashEntry>>>,
    supervisor: Supervisor,
    executor: Arc<Executor>,
    subscribers: Vec<SubscriberSlot>,
    /// Live TCP links (one per node) when `cfg.transport` is
    /// [`TransportKind::Tcp`]; empty on the mpsc transport. Closed and
    /// joined at teardown after every node has drained.
    links: Vec<Link>,
    next_filter: u64,
    trace: Option<Arc<TraceSink>>,
    metrics: Option<MetricsServer>,
}

impl Runtime {
    /// Builds the broker hierarchy from the shared topology and hosts
    /// `shards` matcher shards per broker on the workers, then starts the
    /// supervisor thread.
    ///
    /// # Errors
    ///
    /// [`RtError::Overlay`] for invalid overlay configs,
    /// [`RtError::InvalidShards`] / [`RtError::UnsupportedFeature`] for
    /// runtime-specific constraint violations (see [`RtConfig`]),
    /// [`RtError::Thread`] if the OS refuses a thread spawn.
    pub fn start(cfg: RtConfig, registry: Arc<TypeRegistry>) -> Result<Self, RtError> {
        cfg.validate()?;
        let epoch = Instant::now();
        let stats = Arc::new(RtStats::new());
        // The profiler registers its stage histograms in the stats
        // registry, so one snapshot (and the Prometheus endpoint) covers
        // counters, latency and stages alike.
        let profiler = Arc::new(StageProfiler::new(stats.registry(), cfg.stage_sample_every));
        let fault = Arc::new(FaultState::new(cfg.fault_plan.clone()));
        // One shared sink across every shard replica: data frames reach
        // exactly one shard, so each sampled event's hops land once, in
        // causal order per hop chain — same invariant as the simulator.
        let trace = (cfg.overlay.trace_sample_every > 0)
            .then(|| Arc::new(TraceSink::new(cfg.overlay.trace_sample_every)));
        let metrics = match &cfg.metrics_addr {
            Some(addr) => Some(MetricsServer::start(addr, Arc::clone(stats.registry()))?),
            None => None,
        };

        // One full replica of the hierarchy per shard; replica s of every
        // broker handles the same class slice end to end.
        let replicas: Vec<Vec<TopologyNode>> = (0..cfg.shards)
            .map(|_| topology::build_brokers(&cfg.overlay, &registry, trace.as_ref()))
            .collect::<Result<_, _>>()?;
        let broker_count = replicas[0].len();
        let root = replicas[0]
            .last()
            .expect("validated topology has a root")
            .id;

        let router = Router::new(broker_count, epoch, Arc::clone(&profiler), fault);
        let executor = Arc::new(Executor::new(epoch, stats.registry()));
        let (notice_tx, notice_rx) = channel();
        let slots: Slots = Arc::new(Mutex::new(HashMap::new()));
        let crashes: Arc<Mutex<Vec<CrashEntry>>> = Arc::new(Mutex::new(Vec::new()));
        let mut inboxes: Vec<Vec<Inbox>> = (0..broker_count).map(|_| Vec::new()).collect();
        // Shard-major, so consecutive volatile nodes — and a broker's
        // shards — land on different workers.
        for (shard, replica) in replicas.into_iter().enumerate() {
            for node in replica {
                let b = node.id.0;
                let (broker, _) = equip(node.broker, &cfg, &stats, &router, b, shard)?;
                let fence = Arc::new(AtomicBool::new(false));
                let driver = NodeDriver::new(
                    broker,
                    ActorId(b),
                    Some((shard, cfg.shards)),
                    router.clone(),
                    Arc::clone(&stats),
                )
                .fenced_by(Arc::clone(&fence));
                let worker = executor.worker().map_err(RtError::Thread)?;
                // The inbox and the worker slot every generation uses.
                let (tx, rx) = channel();
                let rx: SharedRx = Arc::new(Mutex::new(rx));
                let (done_tx, done) = channel();
                let task = ShardTask::new(driver, &rx, &notice_tx, &done_tx);
                let (inbox, worker_slot) = worker.host(tx, Some((b, shard)), task);
                inboxes[b].push(inbox);
                slots.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    (b, shard),
                    ShardSlot {
                        stage: node.stage,
                        restarts: 0,
                        fence,
                        rx,
                        worker,
                        worker_slot,
                        done_tx,
                        done: Some(done),
                    },
                );
            }
        }
        let mut links: Vec<Link> = Vec::new();
        for (b, shards) in inboxes.into_iter().enumerate() {
            let link = transport::open_link(cfg.transport, b, &router, &stats, &mut links)
                .map_err(RtError::Thread)?;
            router.set(ActorId(b), Route { shards, link });
        }

        let shared = SupervisorShared {
            cfg: cfg.clone(),
            registry: Arc::clone(&registry),
            trace: trace.clone(),
            router: router.clone(),
            stats: Arc::clone(&stats),
            slots: Arc::clone(&slots),
            crashes: Arc::clone(&crashes),
            notice_tx,
            executor: Arc::clone(&executor),
        };
        let supervisor = Supervisor::start(shared, notice_rx).map_err(RtError::Thread)?;

        Ok(Self {
            cfg,
            registry,
            epoch,
            router,
            stats,
            root,
            broker_count,
            slots,
            crashes,
            supervisor,
            executor,
            subscribers: Vec::new(),
            links,
            next_filter: 0,
            trace,
            metrics,
        })
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<RtStats> {
        &self.stats
    }

    /// The crashes the supervision layer has recorded so far (restart
    /// completions and give-ups), for mid-run inspection; the full list
    /// including teardown-time findings is in [`RtReport::crashes`].
    #[must_use]
    pub fn crashes(&self) -> Vec<CrashEntry> {
        self.crashes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The wall-clock trace sink, when `overlay.trace_sample_every` is
    /// non-zero. Sampled events accumulate per-hop provenance here while
    /// the runtime runs; [`layercake_trace::TraceSink::to_jsonl`]
    /// exports it in the same schema as the simulator's traces.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The address the Prometheus endpoint actually bound, when
    /// [`RtConfig::metrics_addr`] was set (resolves port 0 to the
    /// OS-assigned ephemeral port).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::addr)
    }

    /// A merged point-in-time view of every runtime metric, by its
    /// registered name: counters (`rt.published`, ...), gauges
    /// (`rt.filter_table_entries`, ...), the latency histograms and one
    /// histogram per pipeline stage (`stage.match_ns`, ...). It is what
    /// the Prometheus endpoint serves; it serializes to stable JSON
    /// (`serde`) and [`layercake_metrics::telemetry_table`] renders it as
    /// aligned tables.
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.stats.registry().snapshot()
    }

    /// The root broker's node id.
    #[must_use]
    pub fn root(&self) -> ActorId {
        self.root
    }

    /// The stage profiler every node and link samples into.
    pub(crate) fn profiler(&self) -> &Arc<StageProfiler> {
        &self.router.profiler
    }

    /// Floods an event-class advertisement from the root, mirroring
    /// [`layercake_overlay::OverlaySim::advertise`].
    ///
    /// # Panics
    ///
    /// Panics if the advertised class is unregistered or the stage map
    /// does not fit its schema (same contract as the simulator).
    pub fn advertise(&self, adv: Advertisement) {
        let class = self
            .registry
            .class(adv.class)
            .unwrap_or_else(|| panic!("advertised {} is not registered", adv.class));
        adv.stage_map
            .check_arity(class.arity())
            .expect("stage map fits the class schema");
        self.router.dispatch(
            EXTERNAL,
            self.root,
            OverlayMsg::Advertise(adv),
            &self.stats,
            false,
        );
        // Advertisements flood through leader control; let every shard of
        // every broker handle its copy before subscriptions race in.
        self.quiesce();
    }

    /// Adds a subscriber with a single declarative filter, blocking until
    /// its placement walk completes.
    ///
    /// # Errors
    ///
    /// Standardization errors as in the simulator, or
    /// [`RtError::PlacementTimeout`] if the walk does not finish within
    /// the configured timeout.
    pub fn add_subscriber(&mut self, filter: Filter) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], false, None)
    }

    /// Adds a subscriber whose accepted deliveries are *also* forwarded,
    /// in acceptance order, into `tap` — the bridge the remote-access
    /// layer ([`crate::remote`]) uses to stream matched events out to
    /// another process. Delivery accounting (exactly-once dedup, latency
    /// histogram) is unchanged; the tap sees each accepted envelope once.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_subscriber_tapped(
        &mut self,
        filter: Filter,
        tap: Sender<Envelope>,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], false, Some(tap))
    }

    /// Adds a *durable* subscriber: the hosting broker appends the
    /// subscription's class history to its on-disk log and replays
    /// everything past the subscriber's acknowledged offset when the
    /// same subscriber id re-subscribes — including across a runtime
    /// restarted over the same [`RtConfig::durable_dir`], and across a
    /// supervised in-place shard restart.
    ///
    /// Requires `overlay.durability_enabled` (otherwise the subscription
    /// silently degrades to the volatile path, exactly as in the
    /// simulator). The registration is on disk when this returns: once
    /// every shard has handled the request, this waits for the sync queue.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_durable_subscriber(
        &mut self,
        filter: Filter,
    ) -> Result<RtSubscriberHandle, RtError> {
        let handle = self.add_subscriber_inner(vec![filter], true, None)?;
        // The leader's acceptance woke us; a follower may not have registered.
        if self.cfg.shards > 1 {
            self.quiesce();
        }
        layercake_overlay::wal::drain();
        Ok(handle)
    }

    /// Adds a subscriber with a disjunctive subscription, hosts it on a
    /// worker and places its branches one at a time, blocking until every
    /// branch is hosted. Sequential placement is what keeps follower shards
    /// convergent with their leader (see the module docs), and what makes
    /// placement a function of the subscriptions alone: a branch's
    /// `req-Insert` is in the root's inbox before its acceptance is sent,
    /// so the next branch's similarity search always finds it — sent as a
    /// batch, the requests would race the `req-Insert`s they cause.
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_subscriber_any(
        &mut self,
        filters: Vec<Filter>,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(filters, false, None)
    }

    fn add_subscriber_inner(
        &mut self,
        filters: Vec<Filter>,
        durable: bool,
        tap: Option<Sender<Envelope>>,
    ) -> Result<RtSubscriberHandle, RtError> {
        let branches = topology::standardize_branches(&self.registry, filters, self.next_filter)
            .map_err(RtError::Filter)?;
        self.next_filter += branches.len() as u64;
        let index = self.subscribers.len();
        let id = ActorId(self.broker_count + index);
        let label = format!("sub-{index:04}");
        let mut node = topology::build_subscriber(
            &self.cfg.overlay,
            &self.registry,
            self.root,
            label.clone(),
            branches.clone(),
            None,
            self.trace.as_ref(),
            durable,
        );
        node.set_store_envelopes(true);

        let link = transport::open_link(
            self.cfg.transport,
            id.0,
            &self.router,
            &self.stats,
            &mut self.links,
        )
        .map_err(RtError::Thread)?;
        let worker = self.executor.worker().map_err(RtError::Thread)?;
        let (placed_tx, placed) = channel();
        let (done_tx, done) = channel();
        let (tx, rx) = channel();
        let task = SubscriberTask {
            driver: NodeDriver::new(node, id, None, self.router.clone(), Arc::clone(&self.stats)),
            rx: Arc::new(Mutex::new(rx)),
            placed: 0,
            placed_tx,
            crashes: Arc::clone(&self.crashes),
            tap: tap.map(|tap| (tap, Arc::clone(&worker))),
            done: done_tx,
        };
        let (inbox, _) = worker.host(tx, None, Box::new(task));
        self.router.set(
            id,
            Route {
                shards: vec![inbox],
                link,
            },
        );
        self.subscribers.push(SubscriberSlot {
            id,
            label,
            branches: branches.clone(),
            durable,
            done,
        });

        // The subscriber itself initiates the walk, with external
        // provenance for the initial requests — as in the simulator. It
        // signals each branch's acceptance; a subscriber that died first
        // hangs up instead.
        for (fid, filter) in branches {
            self.router.dispatch(
                EXTERNAL,
                self.root,
                OverlayMsg::Subscribe(layercake_overlay::SubscriptionReq {
                    id: fid,
                    filter,
                    subscriber: id,
                    durable,
                }),
                &self.stats,
                false,
            );
            placed
                .recv_timeout(PLACEMENT_TIMEOUT)
                .map_err(|_| RtError::PlacementTimeout)?;
        }
        Ok(RtSubscriberHandle { id, index })
    }

    /// A cloneable publisher edge for driving load from caller threads.
    #[must_use]
    pub fn publisher(&self) -> Publisher {
        Publisher {
            root: self.root,
            epoch: self.epoch,
            router: self.router.clone(),
            stats: Arc::clone(&self.stats),
            trace: self.trace.clone(),
        }
    }

    /// Blocks until `expected` events have been delivered or `timeout`
    /// elapses; returns whether the target was reached.
    pub fn wait_delivered(&self, expected: u64, timeout: Duration) -> bool {
        self.stats.wait_delivered(expected, timeout)
    }

    /// Waits until every frame sent so far has been handled, along with
    /// every frame sent in response: the barrier behind
    /// [`Runtime::advertise`]. A node counts a frame as received only after
    /// handling it, so the counters meet exactly when nothing is queued or
    /// being worked on, on either transport (a frame counts as sent before
    /// it reaches a socket). Gives up after the placement timeout — a link
    /// that dropped a frame keeps the counters apart for good.
    fn quiesce(&self) {
        let deadline = Instant::now() + PLACEMENT_TIMEOUT;
        // `received` first: it never exceeds `sent`, so reading it first
        // cannot make frames still in flight look handled.
        while self.stats.frames_received() != self.stats.frames_sent() {
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Stops the runtime: stops the supervisor (force-completing any
    /// pending restart), poisons broker stages from the root down and
    /// waits for each to exit (each node drains its inbox first), then the
    /// subscribers, stops the workers, and returns the final node states
    /// plus stats. Each
    /// broker's durable log gets a final flush and waits for the sync
    /// queue, so every appended record and acknowledged offset is on disk
    /// when this returns.
    ///
    /// Nodes that panicked do **not** panic this call: they
    /// surface as [`RtReport::crashes`] entries (see
    /// [`RtReport::failure`] / [`RtReport::into_result`]).
    ///
    /// Callers must stop publishing first; frames injected during
    /// shutdown may be dropped with the closed channels.
    #[must_use]
    pub fn shutdown(self) -> RtReport {
        self.teardown(true)
    }

    /// Tears the runtime down like [`Runtime::shutdown`] but *without*
    /// the final durable-log flush — a crash stand-in for recovery
    /// tests. Acknowledged offsets still sitting in the batched offset
    /// table, and the sync thread's queued jobs, are abandoned, so a
    /// runtime restarted over the same
    /// [`RtConfig::durable_dir`] replays a suffix the subscribers had
    /// already seen (the bounded re-delivery the `(class, seq)` dedup
    /// absorbs). Record bytes already handed to the OS survive either
    /// way: in-process, only a power failure can lose written-but-
    /// unsynced file data.
    ///
    /// Like [`Runtime::shutdown`], never panics on crashed nodes.
    #[must_use]
    pub fn kill(self) -> RtReport {
        self.teardown(false)
    }

    fn teardown(mut self, flush_wals: bool) -> RtReport {
        // Stop scraping before the metrics become a half-drained mix of
        // live and exited nodes.
        drop(self.metrics.take());
        // Closed channels are expected from here on — stop counting
        // them as loss.
        self.router.begin_teardown();
        // Stop injecting faults before stopping the supervisor: a storm
        // re-arms every generation, and a panic taken once the
        // supervisor is gone would surface as an unrecovered crash the
        // scenario never asked for.
        self.router.fault.disarm();
        // Stop the supervisor first: it force-completes pending restarts
        // (skipping the remaining backoff) so every shard is either live
        // or permanently dead-ended before the poison sweep starts.
        self.supervisor.stop_and_join();

        // Only what teardown reads: the slots' own exit senders go, so a
        // node dropped without a report cannot leave a wait hanging.
        let mut shards: Vec<_> = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            let slots = slots.drain();
            slots
                .map(|(k, s)| (s.stage, k, s.restarts, s.done))
                .collect()
        };
        // Top-down: the root's stage is the highest; deterministic order
        // within a stage.
        shards.sort_by_key(|&(stage, key, ..)| (Reverse(stage), key));

        // Crashes found here go after those the supervision layer recorded.
        let mut found = Vec::new();
        let mut brokers = Vec::with_capacity(shards.len());
        for stage in shards.chunk_by(|x, y| x.0 == y.0) {
            // One pill per node reaches every shard.
            for (_, (b, _), ..) in stage.iter().filter(|e| e.1 .1 == 0) {
                self.poison(ActorId(*b));
            }
            for (_, (b, shard), restarts, done) in stage {
                let Some(done) = done else {
                    // Dead-ended after a spent restart budget; its crash
                    // entry was recorded when the supervisor gave up.
                    continue;
                };
                match done.recv().unwrap_or_else(|_| Err(LOST_NODE.to_string())) {
                    Ok(broker) => brokers.push(((ActorId(*b), *shard), *broker)),
                    // A panic after the supervisor stopped: the exit
                    // notice had nobody to process it.
                    Err(detail) => found.push(CrashEntry::unrecovered(
                        ActorId(*b),
                        *shard,
                        CrashKind::Panic,
                        detail,
                        *restarts,
                    )),
                }
            }
        }

        let subs = std::mem::take(&mut self.subscribers);
        for t in &subs {
            self.poison(t.id);
        }
        let mut subscribers = Vec::with_capacity(subs.len());
        for t in subs {
            // A subscriber that panicked recorded its crash itself.
            let node = t.done.recv().unwrap_or_else(|_| {
                let detail = LOST_NODE.to_string();
                found.push(CrashEntry::unrecovered(
                    t.id,
                    0,
                    CrashKind::Panic,
                    detail,
                    0,
                ));
                None
            });
            subscribers.push(match node {
                Some(node) => *node,
                None => self.rebuild_subscriber_shell(&t.label, t.branches, t.durable),
            });
        }
        let mut crashes =
            std::mem::take(&mut *self.crashes.lock().unwrap_or_else(PoisonError::into_inner));
        crashes.extend(found);

        // Every node has drained and exited; nothing useful can still be
        // in flight on a link socket.
        self.executor.stop();
        for link in std::mem::take(&mut self.links) {
            link.close();
        }

        if flush_wals {
            // Subscribers batch acknowledgements (`ACK_EVERY` plus a
            // flush timer); at a graceful shutdown the tail of a batch
            // is usually still unsent, and the wires are already down.
            // Apply each subscriber's final contiguous cursor directly —
            // to every shard of the host broker, mirroring the broadcast
            // ack routing — then flush, so a restart over the same
            // directory owes these streams nothing.
            for (i, node) in subscribers.iter().enumerate() {
                let me = ActorId(self.broker_count + i);
                for (host, class, cursor) in node.durable_cursors() {
                    for (_, broker) in brokers.iter_mut().filter(|((id, _), _)| *id == host) {
                        broker.apply_final_ack(me, class, cursor);
                    }
                }
            }
        }
        for (_, broker) in brokers.iter_mut() {
            broker.close_wal(flush_wals);
        }

        RtReport {
            stats: self.stats,
            subscribers,
            brokers,
            trace: self.trace,
            crashes,
        }
    }

    /// An empty stand-in node for a subscriber that panicked:
    /// keeps [`RtReport::subscribers`] aligned with subscriber indices
    /// (its deliveries read empty; the crash entry carries the story).
    fn rebuild_subscriber_shell(
        &self,
        label: &str,
        branches: Vec<(FilterId, Filter)>,
        durable: bool,
    ) -> SubscriberNode {
        let mut node = topology::build_subscriber(
            &self.cfg.overlay,
            &self.registry,
            self.root,
            label.to_string(),
            branches,
            None,
            self.trace.as_ref(),
            durable,
        );
        node.set_store_envelopes(true);
        node
    }

    /// Sends the shutdown poison pill to every shard of node `id`. On the
    /// TCP transport that closes the node's link: the writer puts every
    /// frame queued ahead on the socket first, and the reader hands each
    /// shard the pill at EOF — the drain-before-exit teardown invariant
    /// the mpsc channels give for free.
    fn poison(&self, id: ActorId) {
        if let Some(Some(route)) = self.router.read_routes().get(id.0) {
            match &route.link {
                Some(link) => {
                    let _ = link.send(LinkCmd::Close);
                }
                None => route.shut_down(),
            }
        }
    }
}

/// Publishes one broker's table shape (live filter entries, covered
/// aggregation bookkeeping) into the runtime-wide gauges as a *delta
/// contribution*: each loop iteration adds the change since the last
/// publish, and dropping the guard retracts everything it contributed.
/// That makes the gauges correct across panics, fences, and restarts —
/// a crashed generation's contribution unwinds with its stack, and the
/// replacement republishes as control replay rebuilds its table. Only
/// the leader shard publishes (followers hold replica tables of the same
/// broker; counting them would multiply every entry by the shard count).
struct TableGauges {
    entries: Arc<Gauge>,
    covered: Arc<Gauge>,
    published_entries: i64,
    published_covered: i64,
    active: bool,
}

impl TableGauges {
    fn new(stats: &RtStats, active: bool) -> Self {
        Self {
            entries: stats.filter_table_entries_gauge(),
            covered: stats.agg_covered_subs_gauge(),
            published_entries: 0,
            published_covered: 0,
            active,
        }
    }

    fn publish(&mut self, broker: &Broker) {
        if !self.active {
            return;
        }
        let entries = i64::try_from(broker.filter_count()).unwrap_or(i64::MAX);
        let covered = i64::try_from(broker.covered_subs()).unwrap_or(i64::MAX);
        if entries != self.published_entries {
            self.entries.add(entries - self.published_entries);
            self.published_entries = entries;
        }
        if covered != self.published_covered {
            self.covered.add(covered - self.published_covered);
            self.published_covered = covered;
        }
    }
}

impl Drop for TableGauges {
    fn drop(&mut self) {
        if self.active {
            self.entries.add(-self.published_entries);
            self.covered.add(-self.published_covered);
        }
    }
}

/// What a teardown reads when a node's worker dropped it without a report.
const LOST_NODE: &str = "the node was dropped without an exit report";

/// One generation of a broker shard as its worker runs it: table gauges
/// after each slice; on exit the final state machine back to teardown —
/// or, for a panic, a notice to the supervisor with the in-flight frame.
/// A fenced zombie hands its in-flight frame back to the inbox.
struct ShardTask {
    driver: NodeDriver<Broker>,
    rx: SharedRx,
    gauges: TableGauges,
    notices: Sender<ShardDown>,
    /// The final state machine, or the panic message.
    done: Sender<Result<Box<Broker>, String>>,
}

impl ShardTask {
    fn new(
        driver: NodeDriver<Broker>,
        rx: &SharedRx,
        notices: &Sender<ShardDown>,
        done: &Sender<Result<Box<Broker>, String>>,
    ) -> Box<Self> {
        Box::new(Self {
            gauges: TableGauges::new(&driver.env.stats, driver.env.speaks),
            driver,
            rx: Arc::clone(rx),
            notices: notices.clone(),
            done: done.clone(),
        })
    }
}

impl Task for ShardTask {
    fn slice(&mut self) -> Slice {
        let end = self.driver.slice(&self.rx);
        self.gauges.publish(&self.driver.node);
        end
    }

    fn recheck(&mut self) -> bool {
        self.driver.recheck(&self.rx)
    }

    fn deadline(&self) -> Option<u64> {
        self.driver.deadline()
    }

    fn exit(mut self: Box<Self>, exit: Result<LoopExit, String>) {
        let (b, shard) = self.driver.slot();
        let current = self.driver.take_in_flight();
        let detail = match exit {
            Ok(LoopExit::Clean) => {
                let _ = self.done.send(Ok(Box::new(self.driver.into_node())));
                return;
            }
            Ok(LoopExit::Fenced) => {
                if let Some(ev) = current {
                    let env = &self.driver.env;
                    env.router.push_back(b, shard, ev, &env.stats);
                }
                return;
            }
            Err(detail) => detail,
        };
        self.driver.env.stats.inc_panics();
        // Read by teardown if nobody restarts the shard; a restart
        // discards it.
        let _ = self.done.send(Err(detail.clone()));
        let _ = self.notices.send(ShardDown {
            b,
            shard,
            detail,
            current,
        });
    }
}

/// A subscriber as its worker runs it: placement signals, latency and the
/// tap after each slice. Subscriber panics are isolated and reported, not
/// restarted: the node's volatile delivery state died with the slice, and
/// re-subscription (durable for zero loss) is the caller-level recovery
/// path. Fault plans target a subscriber through its node id with shard 0
/// ([`RtSubscriberHandle::node`]).
struct SubscriberTask {
    driver: NodeDriver<SubscriberNode>,
    rx: SharedRx,
    /// Branches signalled as hosted so far, on `placed_tx`: what
    /// `add_subscriber_inner` blocks on between placement requests.
    placed: usize,
    placed_tx: Sender<()>,
    /// Where a panic is recorded: nothing restarts a subscriber.
    crashes: Arc<Mutex<Vec<CrashEntry>>>,
    /// When set, every accepted delivery is also forwarded here (the
    /// remote-access bridge; see [`Runtime::add_subscriber_tapped`]), in
    /// batches its worker hands on.
    tap: Option<(Sender<Envelope>, Arc<Worker>)>,
    /// The final node, or `None` after a panic.
    done: Sender<Option<Box<SubscriberNode>>>,
}

impl Task for SubscriberTask {
    fn slice(&mut self) -> Slice {
        let end = self.driver.slice(&self.rx);
        let (node, env) = (&mut self.driver.node, &self.driver.env);
        while self.placed < node.placed_branches() {
            self.placed += 1;
            // Nobody listens once the placement call has timed out.
            let _ = self.placed_tx.send(());
        }
        let accepted: Vec<Envelope> = node.take_inbox().collect();
        for tc in accepted.iter().filter_map(Envelope::trace) {
            let now = nanos_since(env.epoch);
            env.stats
                .record_latency_ns(now.saturating_sub(tc.published_at));
        }
        env.stats.add_delivered(accepted.len() as u64);
        if let Some((tap, worker)) = self.tap.as_ref().filter(|_| !accepted.is_empty()) {
            worker.hold(tap, accepted);
        }
        end
    }

    fn recheck(&mut self) -> bool {
        self.driver.recheck(&self.rx)
    }

    fn deadline(&self) -> Option<u64> {
        self.driver.deadline()
    }

    fn exit(self: Box<Self>, exit: Result<LoopExit, String>) {
        let node = match exit {
            // Nothing fences a subscriber; either exit hands the node back.
            Ok(_) => Some(Box::new(self.driver.into_node())),
            Err(detail) => {
                self.driver.env.stats.inc_panics();
                let crash =
                    CrashEntry::unrecovered(self.driver.env.me, 0, CrashKind::Panic, detail, 0);
                self.crashes
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(crash);
                None
            }
        };
        let _ = self.done.send(node);
    }
}

/// Makes a freshly built state machine of broker `b` into its shard
/// `shard`: recovers the shard's durable log slice under
/// `<durable_dir>/b{b}/s{shard}` (each shard owns a disjoint class slice,
/// so shard logs never overlap; torn-tail truncation and the offset table
/// reload happen inside `DurableLog::open`, before the shard takes
/// traffic), then replays the broker's captured control prefix *mutedly*
/// so the filter table, placement decisions and RNG position converge
/// with the surviving replicas. At start the prefix is empty: generation
/// 0 is a restart with nothing to replay. Returns the broker and the
/// replayed prefix length (its driver's replay cut-off).
fn equip(
    mut broker: Broker,
    cfg: &RtConfig,
    stats: &RtStats,
    router: &Router,
    b: usize,
    shard: usize,
) -> io::Result<(Broker, u64)> {
    if let Some(dir) = &cfg.durable_dir {
        let dir = dir.join(format!("b{b}")).join(format!("s{shard}"));
        let telemetry = SyncTelemetry::new(stats.registry(), Arc::clone(&router.profiler));
        let storage = FileStorage::open(dir)?.with_telemetry(telemetry);
        broker.enable_durability(Box::new(storage), cfg.overlay.log_config());
    }
    let prefix = router.ctrl_prefix(b);
    let replayed = prefix.len() as u64;
    let mut dict = DecodeDict::new(DictMode::Shared);
    let mut ctx = MutedCtx {
        me: ActorId(b),
        epoch: router.epoch,
    };
    // Each entry is one frame, the runtime's own encoding.
    for bytes in prefix {
        if let Ok(Some((from, msg))) = wire::decode_payload(&bytes[FRAME_HEADER_LEN..], &mut dict) {
            broker.on_message(from, msg, &mut ctx);
        }
    }
    Ok((broker, replayed))
}

/// Rebuilds broker `b`'s shard `shard` state machine from scratch:
/// deterministic topology construction (seeded `cfg.seed ^ node_index`,
/// so the RNG stream matches the crashed instance's), then [`equip`]
/// over the same per-shard directory.
fn rebuild_broker(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
) -> Result<(Broker, u64), String> {
    let cfg = &shared.cfg;
    let mut nodes = topology::build_brokers(&cfg.overlay, &shared.registry, shared.trace.as_ref())
        .map_err(|e| format!("topology rebuild failed: {e}"))?;
    if b >= nodes.len() {
        return Err(format!("broker {b} not in rebuilt topology"));
    }
    // Nodes are indexed by id, so this takes exactly broker `b`.
    let node = nodes.swap_remove(b);
    equip(node.broker, cfg, &shared.stats, &shared.router, b, shard)
        .map_err(|e| format!("durable log reopen failed: {e}"))
}

/// Replaces a crashed (or fenced) broker shard in place: rebuild the
/// state machine ([`rebuild_broker`]), re-open its durable streams so
/// durable subscribers receive a fresh `DurableBase` (rebasing their
/// contiguity cursors) plus any unacked replay, and store the successor in
/// the crashed generation's worker slot, with `current`, the crashed
/// generation's in-flight frame, as its first. Everything sent to the
/// shard meanwhile waits in its inbox, in order.
///
/// `recovered` gets the shard's restart count just before the successor
/// is stored: what the successor delivers can be observed at once, and
/// must not be seen ahead of its restart's accounting. On failure, returns
/// the error and `current`.
pub(crate) fn perform_restart(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
    current: Option<RtEvent>,
    recovered: impl FnOnce(u32),
) -> Result<(), (String, Option<RtEvent>)> {
    let (broker, replayed) = match rebuild_broker(shared, b, shard) {
        Ok(x) => x,
        Err(e) => return Err((e, current)),
    };
    let fence = Arc::new(AtomicBool::new(false));
    let mut driver = NodeDriver::new(
        broker,
        ActorId(b),
        Some((shard, shared.cfg.shards)),
        shared.router.clone(),
        Arc::clone(&shared.stats),
    )
    .fenced_by(Arc::clone(&fence))
    .resume(replayed, current);
    {
        // Re-open durable streams before the successor takes a frame:
        // mpsc linearizes sends, so every subscriber sees its rebased
        // `DurableBase` ahead of anything the successor delivers.
        let (broker, mut ctx) = driver.ctx(false);
        broker.reopen_durable_streams(&mut ctx);
    }
    let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(slot) = slots.get_mut(&(b, shard)) else {
        return Err((
            "supervision slot vanished".to_string(),
            driver.take_in_flight(),
        ));
    };
    slot.restarts += 1;
    slot.fence = fence;
    recovered(slot.restarts);
    let task = ShardTask::new(driver, &slot.rx, &shared.notice_tx, &slot.done_tx);
    slot.worker.rehost(slot.worker_slot, task);
    Ok(())
}

#[cfg(test)]
impl Router {
    /// A router that knows one node, `dest`, with one inbox per sender in
    /// `shards` and no link.
    pub(crate) fn with_node(
        dest: usize,
        shards: Vec<Sender<RtEvent>>,
        profiler: Arc<StageProfiler>,
    ) -> Self {
        let router = Self::new(
            dest + 1,
            Instant::now(),
            profiler,
            Arc::new(FaultState::new(None)),
        );
        let shards = shards.into_iter().map(Inbox::unhosted).collect();
        router.set(ActorId(dest), Route { shards, link: None });
        router
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two senders broadcast control to a 4-shard broker at once: the
    /// replay log's order is every shard's inbox order, and each frame's
    /// tag is its position in the log.
    #[test]
    fn concurrent_control_enters_every_shard_in_log_order() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| channel()).unzip();
        let stats = RtStats::new();
        let profiler = Arc::new(StageProfiler::new(stats.registry(), 0));
        let router = Router::with_node(0, txs, profiler);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 1..=2 {
                let (router, stats, start) = (&router, &stats, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        let msg = OverlayMsg::AcceptedAt {
                            id: FilterId(i),
                            node: ActorId(t),
                        };
                        router.dispatch(ActorId(t), ActorId(0), msg, stats, false);
                    }
                });
            }
        });
        let log = router.ctrl_prefix(0);
        assert_eq!(log.len(), 1_000);
        for rx in &rxs {
            let inbox: Vec<Vec<u8>> = rx
                .try_iter()
                .enumerate()
                .map(|(i, ev)| match ev {
                    RtEvent::Frame(f) => {
                        assert_eq!(f.ctrl_seq, Some(i as u64));
                        let mut dict = EncodeDict::new(DictMode::Shared);
                        wire::encode_msg(f.from, &f.msg, &mut dict).unwrap()
                    }
                    RtEvent::Shutdown => panic!("no pill was sent"),
                })
                .collect();
            assert!(inbox == log, "a shard's inbox takes control in log order");
        }
    }
}
