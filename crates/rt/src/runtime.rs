//! The multi-threaded wall-clock runtime.
//!
//! Every overlay node — each matcher shard of each broker, and each
//! subscriber — runs as its own OS thread owning the node state machine
//! outright; threads exchange *byte frames* over `std::sync::mpsc`
//! channels, so every hop pays real serialize/frame/deframe/deserialize
//! cost. Zero-copy `Arc` envelope sharing therefore happens only inside
//! a shard (fan-out clones within one matcher thread), exactly as it
//! would across real sockets.
//!
//! # Sharding contract (leader/follower)
//!
//! Each broker is replicated across `shards` matcher threads. Data
//! frames (`Publish`/`Deliver`/`Durable`) are routed to exactly one
//! shard by a hash of the event class, so each class's matching work
//! runs on one thread per broker and distinct classes spread across
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
//! Every node thread body runs under `catch_unwind`. A panicking or
//! stalled broker shard does not abort the process: the thread reports
//! its exit over a supervision channel (carrying the in-flight frame and
//! its drained inbox receiver), and the supervisor thread restarts the
//! shard in place — rebuilding the deterministic node state machine,
//! replaying the captured control prefix mutedly so the filter table and
//! RNG stream converge, recovering the shard's durable log slice from
//! [`RtConfig::durable_dir`] and re-emitting `DurableBase` so durable
//! subscribers rebase their contiguity cursors, and swapping the shard's
//! inbox sender inside the shared router so peers never hold a dead
//! channel. Restarts run under a bounded budget with exponential
//! backoff; a shard that exhausts it is routed to a dead end and every
//! subsequently dropped data frame is counted in `rt.frames_dropped`
//! (see [`crate::SupervisionConfig`] and `DESIGN.md`'s runtime fault
//! model). Subscriber panics are isolated and reported in
//! [`RtReport::crashes`], not restarted: their node state died with the
//! thread and durable re-subscription is the caller's recovery path.
//!
//! # Shutdown protocol
//!
//! [`Runtime::shutdown`] stops the supervisor (force-completing pending
//! restarts), then poisons and joins stage by stage from the root down:
//! each thread receiving the poison pill drains everything still queued
//! in its inbox, then exits. Since a stage is joined before the next one
//! down is poisoned, every data frame forwarded downward is already
//! enqueued at its destination when that destination drains — published
//! events are never lost at shutdown. Subscribers drain last.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use layercake_event::{Advertisement, Envelope, TraceContext, TraceId, TypeRegistry};
use layercake_filter::{Filter, FilterId};
use layercake_metrics::{DurabilityStats, Gauge, PipelineStage, StageProfiler, TelemetrySnapshot};
use layercake_overlay::topology::{self, TopologyNode};
use layercake_overlay::wal::FileStorage;
use layercake_overlay::{Broker, Node, NodeCtx, OverlayConfig, OverlayMsg, SubscriberNode};
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_trace::TraceSink;

use crate::driver::{LoopExit, NodeDriver};
use crate::error::RtError;
use crate::fault::{FaultState, RtFaultPlan};
use crate::metrics_http::MetricsServer;
use crate::stats::RtStats;
use crate::supervisor::{
    panic_message, CrashEntry, CrashKind, DownKind, Notice, ShardOutcome, ShardSlot, Slots,
    SubOutcome, SupervisionConfig, Supervisor, SupervisorShared,
};
use crate::transport::{self, Link, LinkCmd, TransportKind, SHARD_BROADCAST};
use crate::wire::{self, LinkDecoder, WireCodec};

/// The external-publisher sentinel: same value the simulator uses for
/// `send_external`, so provenance on the wire matches sim traces.
pub(crate) const EXTERNAL: ActorId = ActorId(usize::MAX);

/// How often an idle node thread wakes with no timer due. Never, by
/// default: it blocks on its inbox, and its heartbeat gauge is the time
/// it last went to sleep. Only the supervisor's stall scan reads
/// heartbeats, so only when [`SupervisionConfig::stall_timeout`] is set
/// does an idle thread tick — several times per timeout, refreshing the
/// gauge and checking its fence.
fn idle_tick(supervision: &SupervisionConfig) -> Option<Duration> {
    supervision
        .stall_timeout
        .filter(|_| supervision.enabled)
        .map(|timeout| timeout / 4)
}

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
    /// Matcher shards (threads) per broker; ≥ 1.
    pub shards: usize,
    /// How long [`Runtime::add_subscriber_any`] waits for the placement
    /// walk to finish before giving up.
    pub placement_timeout: Duration,
    /// Root directory for the per-broker durable logs, required when
    /// `overlay.durability_enabled` is set. Broker `b`'s shard `s` logs
    /// under `<durable_dir>/b<b>/s<s>`; restarting a runtime over the
    /// same directory recovers consumer offsets and replays unacked
    /// events to re-subscribing durable subscribers. The supervisor
    /// reuses the same layout when it restarts a single crashed shard in
    /// place.
    pub durable_dir: Option<PathBuf>,
    /// Pipeline stage profiling: every n-th frame a node thread receives
    /// is timed through ingress wait → decode → match → encode → egress
    /// send (plus WAL append/fsync on durable runs) into the telemetry
    /// registry. `0` (the default) turns profiling off; the cost left on
    /// the hot path is then one relaxed atomic load and a branch per
    /// frame.
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
    /// Which link backend carries frames between node threads:
    /// in-process mpsc channels (the default) or loopback TCP sockets
    /// with per-link writer/reader threads ([`TransportKind::Tcp`]),
    /// which makes every hop pay real socket I/O — the in-process
    /// proving ground for multi-process deployments (see
    /// [`crate::remote`] for actual cross-process brokers).
    pub transport: TransportKind,
}

impl RtConfig {
    /// A runtime config over `overlay` with `shards` matcher threads per
    /// broker, a generous placement timeout, default supervision, no
    /// fault injection, and all observability (stage profiling, metrics
    /// endpoint) off.
    #[must_use]
    pub fn new(overlay: OverlayConfig, shards: usize) -> Self {
        Self {
            overlay,
            shards,
            placement_timeout: Duration::from_secs(10),
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

/// How a frame sitting in a shard inbox relates to the restart replay,
/// decided at send time by the router. When the supervisor requeues a
/// crashed shard's backlog into its replacement, data frames and ack
/// broadcasts are always kept, while a control frame is kept only if the
/// rebuilt state machine did *not* already absorb it from the captured
/// control prefix (its capture sequence is `>=` the replayed length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameTag {
    /// A class-routed data frame; counted in the loss/requeue ledgers.
    Data,
    /// A captured control broadcast with its position in the broker's
    /// control log.
    Ctrl(u64),
    /// An `AckUpto` broadcast (or subscriber-bound control): idempotent,
    /// never captured, always requeued, never counted as data loss.
    Ack,
}

/// One framed wire message in flight between node threads.
#[derive(Clone)]
pub(crate) struct Frame {
    pub(crate) bytes: Vec<u8>,
    /// Nanoseconds since runtime start at enqueue time; `0` when the
    /// stage profiler is off (the receiver then skips the ingress-wait
    /// stage rather than misreading an unstamped frame).
    pub(crate) enqueued_ns: u64,
    pub(crate) tag: FrameTag,
}

/// What a node thread receives: either one framed wire message or the
/// shutdown poison pill.
#[derive(Clone)]
pub(crate) enum RtEvent {
    Frame(Frame),
    Shutdown,
}

/// How to reach one node: an inbox per matcher shard. A subscriber is a
/// one-shard node.
struct Route {
    shards: Vec<Sender<RtEvent>>,
    /// On the TCP transport, the destination's link writer: frames are
    /// queued here and the link's reader thread forwards them into
    /// `shards` after a real socket round trip. `None` on the mpsc
    /// transport.
    link: Option<Sender<LinkCmd>>,
}

impl Route {
    /// Sends `ev` to shard `shard` — a copy to every shard for
    /// [`SHARD_BROADCAST`] — by way of the link if there is one. `false`
    /// when a receiving end is gone.
    fn send(&self, shard: u32, ev: RtEvent) -> bool {
        let Some(link) = &self.link else {
            return self.deliver(shard, ev);
        };
        // One socket write carries a broadcast; the link reader fans it
        // out to every shard.
        let cmd = match ev {
            RtEvent::Frame(f) => LinkCmd::Frame {
                shard,
                tag: f.tag,
                enqueued_ns: f.enqueued_ns,
                bytes: f.bytes,
            },
            RtEvent::Shutdown => LinkCmd::Shutdown { shard },
        };
        link.send(cmd).is_ok()
    }

    /// Puts `ev` straight into the inbox of shard `shard`, or of each.
    fn deliver(&self, shard: u32, ev: RtEvent) -> bool {
        if shard == SHARD_BROADCAST {
            let mut reached = true;
            for tx in &self.shards {
                reached &= tx.send(ev.clone()).is_ok();
            }
            reached
        } else {
            let tx = self.shards.get(shard as usize);
            tx.is_some_and(|tx| tx.send(ev).is_ok())
        }
    }
}

/// The routing table: node id → channel(s). Subscribers register after
/// broker threads are already running, hence the lock; sends take a read
/// lock, which is uncontended in steady state.
///
/// The router is also the supervisor's re-wiring seam: a crashed shard's
/// sender is swapped under the write lock (park → live replacement, or a
/// dead end once the restart budget is spent), so peers holding the
/// router never see a closed channel — their sends either reach the
/// replacement's backlog or fail soft into the loss ledger.
#[derive(Clone)]
pub(crate) struct Router {
    routes: Arc<RwLock<Vec<Option<Route>>>>,
    /// Captured control broadcasts per broker id (framed bytes, in send
    /// order), excluding the high-rate idempotent `AckUpto`. Replayed
    /// mutedly into a rebuilt shard so its filter table and placement
    /// RNG stream converge with the surviving replicas. Growth is
    /// bounded by setup traffic (advertisements + placement walks), not
    /// by data volume.
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
    /// `Sender` slots), and the supervisor must keep routing around a
    /// panicked peer — so every lock acquisition survives poison.
    fn read_routes(&self) -> RwLockReadGuard<'_, Vec<Option<Route>>> {
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

    /// A send hitting a closed channel: the receiving thread is dead (or
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

    /// Serializes `msg` and delivers it: data frames go to the class
    /// shard, control frames are broadcast to every shard. Sends to
    /// already-exited nodes fail soft (counted for data, silent for
    /// control/teardown).
    ///
    /// When `sampled`, the encode and the routed send are timed into the
    /// `Encode` / `EgressSend` pipeline stages. Independently of the
    /// sample, frames are stamped with an enqueue timestamp whenever the
    /// profiler is enabled at all, so the *receiver's* sampler can
    /// measure ingress wait on frames whose send was not itself sampled.
    pub(crate) fn dispatch(
        &self,
        from: ActorId,
        to: ActorId,
        msg: &OverlayMsg,
        stats: &RtStats,
        sampled: bool,
    ) {
        if msg.is_data() && self.fault.should_drop(from.0, to.0) {
            // An injected link drop: unlike a panic (whose in-flight
            // frames the supervisor requeues), this frame is really
            // gone, so it lands in both ledgers.
            stats.inc_faults_injected();
            stats.inc_frames_dropped();
            return;
        }
        let encode_timer = sampled.then(Instant::now);
        let bytes = match wire::encode_for_dispatch(from, msg) {
            Ok(bytes) => bytes,
            Err(_) => {
                // A message that cannot fit the frame cap: accounted and
                // dropped here, never a panic in a node thread.
                stats.inc_encode_errors();
                return;
            }
        };
        if let Some(t0) = encode_timer {
            self.profiler.record(PipelineStage::Encode, elapsed_ns(t0));
        }
        let enqueued_ns = if self.profiler.enabled() {
            nanos_since(self.epoch)
        } else {
            0
        };
        let send_timer = sampled.then(Instant::now);
        let routes = self.read_routes();
        let Some(Some(route)) = routes.get(to.0) else {
            return;
        };
        let (shard, tag) = match (data_class(msg), self.ctrl.get(to.0)) {
            (Some(class), _) => (shard_of(class, route.shards.len()) as u32, FrameTag::Data),
            // A broker's control broadcast is captured for restart replay;
            // acks are not, and neither is anything subscriber-bound.
            (None, Some(log)) if !matches!(msg, OverlayMsg::AckUpto { .. }) => {
                let mut log = log.lock().unwrap_or_else(PoisonError::into_inner);
                log.push(bytes.clone());
                (SHARD_BROADCAST, FrameTag::Ctrl(log.len() as u64 - 1))
            }
            (None, _) => (SHARD_BROADCAST, FrameTag::Ack),
        };
        // Accounting is per shard copy, so both transports report
        // identical frame counts.
        let copies = match shard {
            SHARD_BROADCAST => route.shards.len(),
            _ => 1,
        };
        for _ in 0..copies {
            stats.note_frame_sent(bytes.len());
        }
        let frame = Frame {
            bytes,
            enqueued_ns,
            tag,
        };
        if !route.send(shard, RtEvent::Frame(frame)) {
            self.note_send_failure(stats, tag == FrameTag::Data);
        }
        if let Some(t0) = send_timer {
            self.profiler
                .record(PipelineStage::EgressSend, elapsed_ns(t0));
        }
    }

    /// Delivers one link-arrived frame into node `dest`'s *current* inbox
    /// sender(s) — called by the TCP link reader thread. Looking the
    /// route up per message means supervised shard restarts re-wire the
    /// link exactly as they re-wire in-process senders.
    pub(crate) fn forward_link_frame(
        &self,
        dest: usize,
        shard: u32,
        tag: FrameTag,
        enqueued_ns: u64,
        payload: &[u8],
        stats: &RtStats,
    ) {
        let frame = Frame {
            bytes: payload.to_vec(),
            enqueued_ns,
            tag,
        };
        let routes = self.read_routes();
        let reached = match routes.get(dest) {
            Some(Some(route)) => route.deliver(shard, RtEvent::Frame(frame)),
            _ => false,
        };
        if !reached {
            self.note_send_failure(stats, tag == FrameTag::Data);
        }
    }

    /// Delivers a link-arrived shutdown pill into node `dest`'s inbox
    /// sender(s).
    pub(crate) fn forward_link_shutdown(&self, dest: usize, shard: u32) {
        if let Some(Some(route)) = self.read_routes().get(dest) {
            let _ = route.deliver(shard, RtEvent::Shutdown);
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

    /// Points broker `b` shard `shard` at `tx`, dropping the sender it
    /// replaces — which closes that inbox once every clone is gone.
    fn set_shard_sender(routes: &mut [Option<Route>], b: usize, shard: usize, tx: Sender<RtEvent>) {
        if let Some(Some(route)) = routes.get_mut(b) {
            route.shards[shard] = tx;
        }
    }

    /// Swaps broker `b` shard `shard`'s inbox sender for a fresh *park*
    /// channel and returns its receiver: frames sent during the restart
    /// window buffer there instead of vanishing into the dead channel.
    /// Dropping the old sender under the write lock also closes the dead
    /// channel, so the crashed thread's receiver drains completely.
    pub(crate) fn park_shard(&self, b: usize, shard: usize) -> Receiver<RtEvent> {
        let (tx, rx) = channel();
        Self::set_shard_sender(&mut self.write_routes(), b, shard, tx);
        rx
    }

    /// Moves a crashed generation's backlog — `stranded`, then whatever
    /// `rx` still holds — into `tx`, leaving out the control frames a
    /// rebuilt shard already replayed (the first `replayed` captured
    /// broadcasts). A poison pill racing the restart is passed on only
    /// when `pass_shutdown`. Returns `(data frames delivered, data frames
    /// lost)`; with no `tx`, every data frame is lost.
    fn drain_backlog(
        tx: Option<&Sender<RtEvent>>,
        stranded: impl IntoIterator<Item = Frame>,
        rx: Option<&Receiver<RtEvent>>,
        replayed: u64,
        pass_shutdown: bool,
    ) -> (u64, u64) {
        let (mut delivered, mut lost) = (0u64, 0u64);
        let backlog = stranded
            .into_iter()
            .map(RtEvent::Frame)
            .chain(rx.into_iter().flat_map(Receiver::try_iter));
        for ev in backlog {
            match ev {
                RtEvent::Frame(frame) => {
                    if let FrameTag::Ctrl(seq) = frame.tag {
                        if seq < replayed {
                            continue;
                        }
                    }
                    let data = frame.tag == FrameTag::Data;
                    let sent = tx.is_some_and(|tx| tx.send(RtEvent::Frame(frame)).is_ok());
                    if data && sent {
                        delivered += 1;
                    } else if data {
                        lost += 1;
                    }
                }
                RtEvent::Shutdown if pass_shutdown => {
                    if let Some(tx) = tx {
                        let _ = tx.send(RtEvent::Shutdown);
                    }
                }
                RtEvent::Shutdown => {}
            }
        }
        (delivered, lost)
    }

    /// Installs a fresh live channel for broker `b` shard `shard`,
    /// requeuing the crashed generation's backlog — `stranded` (the dead
    /// inbox's drained frames, in order) then everything parked during
    /// the restart — filtered against the rebuilt state machine's
    /// control replay. Runs under the write lock so no new frame can
    /// overtake the requeued backlog. Returns the new receiver and the
    /// number of data frames requeued.
    pub(crate) fn install_shard(
        &self,
        b: usize,
        shard: usize,
        stranded: Vec<Frame>,
        park_rx: &Receiver<RtEvent>,
        replayed: u64,
    ) -> (Receiver<RtEvent>, u64) {
        let (tx, rx) = channel();
        let mut routes = self.write_routes();
        // A poison pill racing the restart still shuts the replacement
        // down.
        let (requeued, _) = Self::drain_backlog(Some(&tx), stranded, Some(park_rx), replayed, true);
        Self::set_shard_sender(&mut routes, b, shard, tx);
        (rx, requeued)
    }

    /// Routes broker `b` shard `shard` to a dead end (a sender whose
    /// receiver is already dropped): the restart budget is spent, and
    /// from now on every data frame sent to this shard fails soft into
    /// the loss ledger. Counts and discards the backlog (`stranded` plus
    /// whatever `rx` still holds); returns the number of data frames
    /// lost.
    pub(crate) fn fail_shard(
        &self,
        b: usize,
        shard: usize,
        stranded: impl IntoIterator<Item = Frame>,
        rx: Option<&Receiver<RtEvent>>,
    ) -> u64 {
        let (tx, _dead_rx) = channel();
        Self::set_shard_sender(&mut self.write_routes(), b, shard, tx);
        // Nothing was replayed, so every data frame counts.
        Self::drain_backlog(None, stranded, rx, 0, false).1
    }

    /// Salvages a late-exiting zombie's trapped backlog into whatever
    /// route is *currently* live for broker `b` shard `shard` (a fenced
    /// thread waking after its replacement already took over, or frames
    /// from a stale generation). Returns `(data frames requeued, data
    /// frames lost)`.
    pub(crate) fn requeue_stranded(
        &self,
        b: usize,
        shard: usize,
        current: Option<Frame>,
        rx: &Receiver<RtEvent>,
        replayed: u64,
    ) -> (u64, u64) {
        let tx = match self.read_routes().get(b) {
            Some(Some(route)) => route.shards.get(shard).cloned(),
            _ => None,
        };
        Self::drain_backlog(tx.as_ref(), current, Some(rx), replayed, false)
    }
}

/// Nanoseconds elapsed since `t0`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The event class a data frame is keyed on, `None` for control.
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
    /// Publishes one event at the root.
    pub fn publish(&self, mut env: Envelope) {
        let now = nanos_since(self.epoch);
        match &self.trace {
            Some(sink) => env.set_trace(sink.begin_trace(
                env.class_name(),
                env.seq().0,
                SimTime::from_ticks(now),
            )),
            None => env.set_trace(Some(TraceContext::new(TraceId(env.seq().0), now))),
        }
        self.stats.inc_published();
        self.router.dispatch(
            EXTERNAL,
            self.root,
            &OverlayMsg::Publish(env),
            &self.stats,
            false,
        );
    }
}

/// Handle to a subscriber thread, returned by
/// [`Runtime::add_subscriber_any`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RtSubscriberHandle {
    id: ActorId,
    index: usize,
}

impl RtSubscriberHandle {
    /// The subscriber's overlay node id — the value an
    /// [`RtFaultPlan`] targets to inject faults into this subscriber's
    /// thread (with shard `0`).
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
    /// in the order the subscribers were added. A subscriber whose
    /// thread panicked is represented by an empty rebuilt node (its
    /// volatile state died with the thread) and a [`RtReport::crashes`]
    /// entry.
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

/// Everything needed to rebuild a subscriber's node shell if its thread
/// panics: the report must keep one entry per subscriber index.
struct SubscriberThread {
    id: ActorId,
    label: String,
    branches: Vec<(FilterId, Filter)>,
    durable: bool,
    handle: JoinHandle<SubOutcome>,
}

/// A running wall-clock overlay: broker shard threads wired per the
/// shared topology, ready to accept advertisements, subscribers and
/// published events.
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
    supervisor: Option<Supervisor>,
    notice_tx: Sender<Notice>,
    subscriber_threads: Vec<SubscriberThread>,
    /// Live TCP links (one per node) when `cfg.transport` is
    /// [`TransportKind::Tcp`]; empty on the mpsc transport. Closed and
    /// joined at teardown after every node thread has drained.
    links: Vec<Link>,
    next_filter: u64,
    trace: Option<Arc<TraceSink>>,
    profiler: Arc<StageProfiler>,
    metrics: Option<MetricsServer>,
}

impl Runtime {
    /// Builds the broker hierarchy from the shared topology and spawns
    /// `shards` matcher threads per broker, plus the supervisor thread
    /// (unless `cfg.supervision.enabled` is off).
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
        let mut replicas: Vec<Vec<TopologyNode>> = (0..cfg.shards)
            .map(|_| topology::build_brokers(&cfg.overlay, &registry, trace.as_ref()))
            .collect::<Result<_, _>>()?;
        let broker_count = replicas[0].len();
        let root = replicas[0]
            .last()
            .expect("validated topology has a root")
            .id;

        let router = Router::new(broker_count, epoch, Arc::clone(&profiler), fault);
        let mut links: Vec<Link> = Vec::new();
        let mut inboxes: Vec<Vec<Receiver<RtEvent>>> = Vec::with_capacity(broker_count);
        for b in 0..broker_count {
            let mut txs = Vec::with_capacity(cfg.shards);
            let mut rxs = Vec::with_capacity(cfg.shards);
            for _ in 0..cfg.shards {
                let (tx, rx) = channel();
                txs.push(tx);
                rxs.push(rx);
            }
            let link = match cfg.transport {
                TransportKind::Mpsc => None,
                TransportKind::Tcp => {
                    let link = transport::spawn_link(b, router.clone(), Arc::clone(&stats))
                        .map_err(RtError::Thread)?;
                    let tx = link.tx.clone();
                    links.push(link);
                    Some(tx)
                }
            };
            router.set(ActorId(b), Route { shards: txs, link });
            inboxes.push(rxs);
        }

        let (notice_tx, notice_rx) = channel();
        let slots: Slots = Arc::new(Mutex::new(HashMap::new()));
        let crashes: Arc<Mutex<Vec<CrashEntry>>> = Arc::new(Mutex::new(Vec::new()));
        // Consume replicas back to front so each broker's receiver list
        // (also popped from the back) pairs with the right shard index.
        for shard in (0..cfg.shards).rev() {
            let replica = replicas.pop().expect("one replica per shard");
            for node in replica {
                let b = node.id.0;
                let rx = inboxes[b].pop().expect("one receiver per shard");
                let stage = node.stage;
                let (broker, _) = equip(node.broker, &cfg, &profiler, &router, b, shard)?;
                let fence = Arc::new(AtomicBool::new(false));
                let heartbeat = stats
                    .registry()
                    .gauge(&format!("rt.heartbeat_us.b{b}s{shard}"));
                let driver = NodeDriver::new(
                    broker,
                    ActorId(b),
                    Some((shard, cfg.shards)),
                    router.clone(),
                    Arc::clone(&stats),
                    Arc::clone(&heartbeat),
                    idle_tick(&cfg.supervision),
                )
                .fenced_by(Arc::clone(&fence));
                let handle =
                    spawn_shard(driver, 0, notice_tx.clone(), rx).map_err(RtError::Thread)?;
                slots.lock().unwrap_or_else(PoisonError::into_inner).insert(
                    (b, shard),
                    ShardSlot {
                        stage,
                        generation: 0,
                        restarts: 0,
                        replayed: 0,
                        fence,
                        heartbeat,
                        handle: Some(handle),
                        failed: false,
                        restarting: false,
                    },
                );
            }
        }

        let supervisor = if cfg.supervision.enabled {
            let shared = SupervisorShared {
                cfg: cfg.clone(),
                registry: Arc::clone(&registry),
                trace: trace.clone(),
                router: router.clone(),
                stats: Arc::clone(&stats),
                profiler: Arc::clone(&profiler),
                slots: Arc::clone(&slots),
                crashes: Arc::clone(&crashes),
                notice_tx: notice_tx.clone(),
            };
            Some(Supervisor::start(shared, notice_rx).map_err(RtError::Thread)?)
        } else {
            // Without a supervisor the notice receiver is dropped and
            // exit notices fail soft; crashes still surface at teardown.
            None
        };

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
            notice_tx,
            subscriber_threads: Vec::new(),
            links,
            next_filter: 0,
            trace,
            profiler,
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

    /// The stage profiler driving per-frame pipeline sampling; exposed
    /// so callers can retune [`RtConfig::stage_sample_every`] live.
    #[must_use]
    pub fn stage_profiler(&self) -> &Arc<StageProfiler> {
        &self.profiler
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
            &OverlayMsg::Advertise(adv),
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
    /// simulator).
    ///
    /// # Errors
    ///
    /// Same as [`Runtime::add_subscriber`].
    pub fn add_durable_subscriber(
        &mut self,
        filter: Filter,
    ) -> Result<RtSubscriberHandle, RtError> {
        self.add_subscriber_inner(vec![filter], true, None)
    }

    /// Adds a subscriber with a disjunctive subscription, spawns its
    /// thread and places its branches one at a time, blocking until every
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
        let index = self.subscriber_threads.len();
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

        let (tx, rx) = channel();
        let link = match self.cfg.transport {
            TransportKind::Mpsc => None,
            TransportKind::Tcp => {
                let link =
                    transport::spawn_link(id.0, self.router.clone(), Arc::clone(&self.stats))
                        .map_err(RtError::Thread)?;
                let link_tx = link.tx.clone();
                self.links.push(link);
                Some(link_tx)
            }
        };
        let shards = vec![tx];
        self.router.set(id, Route { shards, link });
        let (placed_tx, placed) = channel();
        let heartbeat = self
            .stats
            .registry()
            .gauge(&format!("rt.heartbeat_us.sub{index}"));
        let driver = NodeDriver::new(
            node,
            id,
            None,
            self.router.clone(),
            Arc::clone(&self.stats),
            heartbeat,
            idle_tick(&self.cfg.supervision),
        );
        let env = SubEnv {
            placed: placed_tx,
            notices: self.notice_tx.clone(),
            tap,
        };
        let handle = std::thread::Builder::new()
            .name(format!("lc-sub-{index}"))
            .spawn(move || subscriber_thread_main(driver, &env, &rx))
            .map_err(RtError::Thread)?;
        self.subscriber_threads.push(SubscriberThread {
            id,
            label,
            branches: branches.clone(),
            durable,
            handle,
        });

        // The subscriber itself initiates the walk, with external
        // provenance for the initial requests — as in the simulator. Its
        // thread signals each branch's acceptance; a thread that died
        // first hangs up instead.
        for (fid, filter) in branches {
            self.router.dispatch(
                EXTERNAL,
                self.root,
                &OverlayMsg::Subscribe(layercake_overlay::SubscriptionReq {
                    id: fid,
                    filter,
                    subscriber: id,
                    durable,
                }),
                &self.stats,
                false,
            );
            placed
                .recv_timeout(self.cfg.placement_timeout)
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
        let deadline = Instant::now() + self.cfg.placement_timeout;
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
    /// pending restart), poisons and joins broker stages from the root
    /// down (each thread drains its inbox before exiting), then the
    /// subscribers, and returns the final node states plus stats. Each
    /// broker's durable log gets a final flush, so every appended record
    /// and acknowledged offset is on disk when this returns.
    ///
    /// Node threads that panicked do **not** panic this call: they
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
    /// table are abandoned, so a runtime restarted over the same
    /// [`RtConfig::durable_dir`] replays a suffix the subscribers had
    /// already seen (the bounded re-delivery the `(class, seq)` dedup
    /// absorbs). Record bytes already handed to the OS survive either
    /// way: in-process, only a power failure can lose written-but-
    /// unsynced file data.
    ///
    /// Like [`Runtime::shutdown`], never panics on crashed node threads.
    #[must_use]
    pub fn kill(self) -> RtReport {
        self.teardown(false)
    }

    fn teardown(mut self, flush_wals: bool) -> RtReport {
        // Stop scraping before the metrics become a half-drained mix of
        // live and joined threads.
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
        if let Some(mut sup) = self.supervisor.take() {
            sup.stop_and_join();
        }

        let mut entries: Vec<((usize, usize), ShardSlot)> = {
            let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            slots.drain().collect()
        };
        // Top-down: the root's stage is the highest; deterministic order
        // within a stage.
        entries.sort_by_key(|e| (Reverse(e.1.stage), e.0));

        let mut crashes =
            std::mem::take(&mut *self.crashes.lock().unwrap_or_else(PoisonError::into_inner));
        let mut brokers = Vec::with_capacity(entries.len());
        let mut i = 0;
        while i < entries.len() {
            let stage = entries[i].1.stage;
            let mut j = i;
            while j < entries.len() && entries[j].1.stage == stage {
                j += 1;
            }
            for e in &entries[i..j] {
                self.poison(ActorId(e.0 .0), e.0 .1);
            }
            for e in &mut entries[i..j] {
                let ((b, shard), slot) = e;
                let Some(handle) = slot.handle.take() else {
                    // Dead-ended after a spent restart budget; its crash
                    // entry was recorded when the supervisor gave up.
                    continue;
                };
                let joined = handle.join();
                match joined.unwrap_or_else(|p| ShardOutcome::Panicked(panic_message(p.as_ref()))) {
                    ShardOutcome::Clean(broker) => {
                        brokers.push(((ActorId(*b), *shard), *broker));
                    }
                    // A panic after the supervisor stopped: the exit
                    // notice had nobody to process it.
                    ShardOutcome::Panicked(detail) => {
                        crashes.push(CrashEntry::unrecovered(
                            ActorId(*b),
                            *shard,
                            CrashKind::Panic,
                            detail,
                            slot.restarts,
                        ));
                    }
                    // A fenced zombie this generation never replaced
                    // (cannot normally happen — fencing always installs
                    // a successor handle); nothing to report.
                    ShardOutcome::Fenced => {}
                }
            }
            i = j;
        }

        let subs = std::mem::take(&mut self.subscriber_threads);
        for t in &subs {
            self.poison(t.id, 0);
        }
        let mut subscribers = Vec::with_capacity(subs.len());
        for t in subs {
            let joined = t.handle.join();
            match joined.unwrap_or_else(|p| SubOutcome::Panicked(panic_message(p.as_ref()))) {
                SubOutcome::Clean(node) => subscribers.push(*node),
                SubOutcome::Panicked(detail) => {
                    // The supervisor usually recorded this from the exit
                    // notice already; don't double-count.
                    if !crashes.iter().any(|c| c.node == t.id) {
                        crashes.push(CrashEntry::unrecovered(
                            t.id,
                            0,
                            CrashKind::Panic,
                            detail,
                            0,
                        ));
                    }
                    subscribers
                        .push(self.rebuild_subscriber_shell(&t.label, t.branches, t.durable));
                }
            }
        }

        // Every node thread has drained and joined; nothing useful can
        // still be in flight on a link socket.
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
            for (_, broker) in brokers.iter_mut() {
                broker.flush_wal();
            }
        }

        RtReport {
            stats: self.stats,
            subscribers,
            brokers,
            trace: self.trace,
            crashes,
        }
    }

    /// An empty stand-in node for a subscriber whose thread panicked:
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

    /// Sends the shutdown poison pill to one node shard. On the TCP
    /// transport the pill rides the link's FIFO behind every frame
    /// already queued there, preserving the drain-before-exit teardown
    /// invariant the mpsc channels give for free.
    fn poison(&self, id: ActorId, shard: usize) {
        if let Some(Some(route)) = self.router.read_routes().get(id.0) {
            let _ = route.send(shard as u32, RtEvent::Shutdown);
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

fn spawn_shard(
    driver: NodeDriver<Broker>,
    generation: u64,
    notices: Sender<Notice>,
    rx: Receiver<RtEvent>,
) -> io::Result<JoinHandle<ShardOutcome>> {
    let (b, shard) = driver.slot();
    std::thread::Builder::new()
        .name(format!("lc-broker-{b}.{shard}"))
        .spawn(move || shard_thread_main(driver, generation, &notices, rx))
}

/// The supervised wrapper around one broker shard's run loop: catches
/// panics, reports the exit over the supervision channel with the
/// in-flight frame and the (now drainable) inbox receiver, and hands the
/// state machine back on a clean exit. `generation` is this thread's
/// restart generation; stale-generation exit notices (a fenced zombie
/// waking late) are salvaged, not restarted again.
fn shard_thread_main(
    mut driver: NodeDriver<Broker>,
    generation: u64,
    notices: &Sender<Notice>,
    rx: Receiver<RtEvent>,
) -> ShardOutcome {
    let exit = catch_unwind(AssertUnwindSafe(|| {
        // Declared inside the closure so a panic unwinding to
        // `catch_unwind` still runs the Drop and retracts this
        // generation's gauge contribution.
        let mut table_gauges = TableGauges::new(&driver.env.stats, driver.env.speaks);
        driver.run(&rx, |broker| table_gauges.publish(broker))
    }));
    let (kind, detail, outcome) = match exit {
        Ok(LoopExit::Clean) => return ShardOutcome::Clean(Box::new(driver.into_node())),
        Ok(LoopExit::Fenced) => (DownKind::Fence, String::new(), ShardOutcome::Fenced),
        Err(payload) => {
            driver.env.stats.inc_panics();
            let detail = panic_message(payload.as_ref());
            (
                DownKind::Panic,
                detail.clone(),
                ShardOutcome::Panicked(detail),
            )
        }
    };
    let (b, shard) = driver.slot();
    let _ = notices.send(Notice::ShardDown {
        b,
        shard,
        generation,
        kind,
        detail,
        current: driver.take_current(),
        rx,
    });
    outcome
}

/// What a subscriber thread needs besides its driver and inbox.
struct SubEnv {
    /// Told once per branch, when it is hosted: what
    /// `add_subscriber_inner` blocks on between placement requests.
    placed: Sender<()>,
    notices: Sender<Notice>,
    /// When set, every accepted delivery is also forwarded here (the
    /// remote-access bridge); see [`Runtime::add_subscriber_tapped`].
    tap: Option<Sender<Envelope>>,
}

/// The supervised wrapper around one subscriber's run loop: like a
/// broker shard's, plus placement signalling and per-delivery latency
/// accounting after each turn. Subscriber panics are isolated and
/// reported, not restarted: the node's volatile delivery state died with
/// the thread, and re-subscription (durable for zero loss) is the
/// caller-level recovery path. Fault plans target a subscriber through
/// its node id with shard 0 ([`RtSubscriberHandle::node`]).
fn subscriber_thread_main(
    mut driver: NodeDriver<SubscriberNode>,
    env: &SubEnv,
    rx: &Receiver<RtEvent>,
) -> SubOutcome {
    let (stats, epoch) = (Arc::clone(&driver.env.stats), driver.env.epoch);
    let mut placed = 0usize;
    let exit = catch_unwind(AssertUnwindSafe(|| {
        driver.run(rx, |node| {
            while placed < node.placed_branches() {
                placed += 1;
                // Nobody listens once the placement call has timed out.
                let _ = env.placed.send(());
            }
            for env_msg in node.take_inbox() {
                if let Some(tc) = env_msg.trace() {
                    stats.record_latency_ns(nanos_since(epoch).saturating_sub(tc.published_at));
                }
                stats.inc_delivered();
                if let Some(tap) = &env.tap {
                    let _ = tap.send(env_msg);
                }
            }
        })
    }));
    match exit {
        // Nothing fences a subscriber; either exit hands the node back.
        Ok(LoopExit::Clean | LoopExit::Fenced) => SubOutcome::Clean(Box::new(driver.into_node())),
        Err(payload) => {
            let detail = panic_message(payload.as_ref());
            stats.inc_panics();
            let _ = env.notices.send(Notice::SubscriberDown {
                id: driver.env.me,
                detail: detail.clone(),
            });
            SubOutcome::Panicked(detail)
        }
    }
}

/// Makes a freshly built state machine of broker `b` into its shard
/// `shard`: recovers the shard's durable log slice under
/// `<durable_dir>/b{b}/s{shard}` (each shard owns a disjoint class slice,
/// so shard logs never overlap; torn-tail truncation and the offset table
/// reload happen inside `DurableLog::open`, before the thread takes
/// traffic), then replays the broker's captured control prefix *mutedly*
/// so the filter table, placement decisions and RNG position converge
/// with the surviving replicas. At start the prefix is empty: generation
/// 0 is a restart with nothing to replay. Returns the broker and the
/// replayed prefix length (the requeue filter's cutoff).
fn equip(
    mut broker: Broker,
    cfg: &RtConfig,
    profiler: &Arc<StageProfiler>,
    router: &Router,
    b: usize,
    shard: usize,
) -> io::Result<(Broker, u64)> {
    if let Some(dir) = &cfg.durable_dir {
        let storage = FileStorage::open(dir.join(format!("b{b}")).join(format!("s{shard}")))?;
        broker.enable_durability(Box::new(storage), cfg.overlay.log_config());
    }
    broker.set_stage_profiler(Arc::clone(profiler));
    let prefix = router.ctrl_prefix(b);
    let replayed = prefix.len() as u64;
    let mut decoder = LinkDecoder::new(WireCodec::Binary);
    let mut ctx = MutedCtx {
        me: ActorId(b),
        epoch: router.epoch,
    };
    for bytes in prefix {
        decoder.push(&bytes);
        while let Ok(Some((from, msg))) = decoder.next_msg() {
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
    equip(node.broker, cfg, &shared.profiler, &shared.router, b, shard)
        .map_err(|e| format!("durable log reopen failed: {e}"))
}

/// Replaces a crashed (or fenced) broker shard in place: rebuild the
/// state machine ([`rebuild_broker`]), re-open its durable streams so
/// durable subscribers receive a fresh `DurableBase` (rebasing their
/// contiguity cursors) plus any unacked replay, requeue the crashed
/// generation's surviving backlog into a fresh inbox, and spawn the
/// replacement thread under a bumped generation.
///
/// On success returns the number of data frames requeued. On failure the
/// shard has already been routed to a dead end and the error carries the
/// number of data frames lost with it; the caller marks the slot failed.
pub(crate) fn perform_restart(
    shared: &SupervisorShared,
    b: usize,
    shard: usize,
    stranded: Vec<Frame>,
    park_rx: &Receiver<RtEvent>,
) -> Result<u64, (String, u64)> {
    let (broker, replayed) = match rebuild_broker(shared, b, shard) {
        Ok(x) => x,
        Err(e) => {
            let lost = shared.router.fail_shard(b, shard, stranded, Some(park_rx));
            return Err((e, lost));
        }
    };
    let (generation, fence, heartbeat) = {
        let slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = slots.get(&(b, shard)) else {
            let lost = shared.router.fail_shard(b, shard, stranded, Some(park_rx));
            return Err(("supervision slot vanished".to_string(), lost));
        };
        (
            slot.generation + 1,
            Arc::new(AtomicBool::new(false)),
            Arc::clone(&slot.heartbeat),
        )
    };
    let mut driver = NodeDriver::new(
        broker,
        ActorId(b),
        Some((shard, shared.cfg.shards)),
        shared.router.clone(),
        Arc::clone(&shared.stats),
        heartbeat,
        idle_tick(&shared.cfg.supervision),
    )
    .fenced_by(Arc::clone(&fence));
    {
        // Re-open durable streams *before* the new inbox goes live:
        // mpsc linearizes sends, so every subscriber sees its rebased
        // `DurableBase` ahead of anything the replacement delivers.
        let (broker, mut ctx) = driver.ctx(false);
        broker.reopen_durable_streams(&mut ctx);
    }
    let (live_rx, requeued) = shared
        .router
        .install_shard(b, shard, stranded, park_rx, replayed);
    match spawn_shard(driver, generation, shared.notice_tx.clone(), live_rx) {
        Ok(handle) => {
            let mut slots = shared.slots.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = slots.get_mut(&(b, shard)) {
                slot.generation = generation;
                slot.restarts += 1;
                slot.replayed = replayed;
                slot.fence = fence;
                // Drop (detach) the dead generation's handle: it already
                // reported its outcome through the notice channel.
                slot.handle = Some(handle);
                slot.restarting = false;
            }
            Ok(requeued)
        }
        Err(e) => {
            // The spawn closure consumed the live inbox, taking the
            // freshly requeued backlog with it — count those frames as
            // lost alongside dead-ending the route.
            let lost = shared.router.fail_shard(b, shard, [], None) + requeued;
            Err((format!("replacement thread spawn failed: {e}"), lost))
        }
    }
}
