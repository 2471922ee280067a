//! Wall-clock runtime counters and latency distribution.

use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use layercake_metrics::{Gauge, Histogram, ShardedCounter, ShardedHistogram, TelemetryRegistry};

/// How many cache-padded slots each runtime metric shards across. Writer
/// threads pick distinct slots round-robin, so this bounds the writer
/// parallelism before two threads share a slot; 16 covers a worker per
/// core, the link threads of a small TCP deployment and the publishers.
const STAT_SHARDS: usize = 16;

/// Shared counters for a runtime instance.
///
/// All counters are monotone and sharded across cache-padded atomic
/// slots ([`ShardedCounter`]) — each writer thread increments its own slot
/// with a relaxed `fetch_add` and readers merge on demand, so the hot
/// path never bounces a shared cache line. End-to-end latency is fed in
/// nanoseconds into a [`ShardedHistogram`] with the same log₂ bucketing
/// the simulator's metrics use, so virtual-time and wall-clock latency
/// reports share one bucketing scheme.
///
/// Every metric is registered in a [`TelemetryRegistry`] under a
/// `rt.`-prefixed name, so the same figures flow out through
/// [`crate::Runtime::snapshot`] and the Prometheus endpoint without a
/// second accounting path.
///
/// With trace sampling enabled (`overlay.trace_sample_every > 0`) only
/// the sampled events carry the publish stamp, so the latency histogram
/// then describes the sampled subset rather than every delivery.
#[derive(Debug)]
pub struct RtStats {
    registry: Arc<TelemetryRegistry>,
    published: Arc<ShardedCounter>,
    delivered: Arc<ShardedCounter>,
    frames_sent: Arc<ShardedCounter>,
    bytes_sent: Arc<ShardedCounter>,
    frames_received: Arc<ShardedCounter>,
    suppressed_control: Arc<ShardedCounter>,
    decode_errors: Arc<ShardedCounter>,
    encode_errors: Arc<ShardedCounter>,
    timers_fired: Arc<ShardedCounter>,
    panics: Arc<ShardedCounter>,
    restarts: Arc<ShardedCounter>,
    stalls: Arc<ShardedCounter>,
    gave_up: Arc<ShardedCounter>,
    frames_dropped: Arc<ShardedCounter>,
    frames_requeued: Arc<ShardedCounter>,
    faults_injected: Arc<ShardedCounter>,
    latency_ns: Arc<ShardedHistogram>,
    queue_wait_ns: Arc<ShardedHistogram>,
    restart_ns: Arc<ShardedHistogram>,
    /// Live filter-table entries summed over all broker leaders — the
    /// number of filters the match loops actually evaluate.
    filter_table_entries: Arc<Gauge>,
    /// Subscriptions held as covered (non-live) aggregation bookkeeping,
    /// summed over all broker leaders; zero with aggregation disabled.
    agg_covered_subs: Arc<Gauge>,
    /// Callers blocked in [`RtStats::wait_delivered`]. Subscribers read
    /// it after every delivery and touch the lock only when it is
    /// non-zero, so an unobserved delivery costs one load.
    delivery_waiters: AtomicUsize,
    delivery_lock: Mutex<()>,
    delivery_signal: Condvar,
}

impl Default for RtStats {
    fn default() -> Self {
        Self::new()
    }
}

impl RtStats {
    /// Creates zeroed stats backed by a fresh telemetry registry.
    #[must_use]
    pub fn new() -> Self {
        let registry = Arc::new(TelemetryRegistry::new(STAT_SHARDS));
        Self {
            published: registry.counter("rt.published"),
            delivered: registry.counter("rt.delivered"),
            frames_sent: registry.counter("rt.frames_sent"),
            bytes_sent: registry.counter("rt.bytes_sent"),
            frames_received: registry.counter("rt.frames_received"),
            suppressed_control: registry.counter("rt.suppressed_control"),
            decode_errors: registry.counter("rt.decode_errors"),
            encode_errors: registry.counter("rt.encode_errors"),
            timers_fired: registry.counter("rt.timers_fired"),
            panics: registry.counter("rt.panics"),
            restarts: registry.counter("rt.restarts"),
            stalls: registry.counter("rt.stalls"),
            gave_up: registry.counter("rt.gave_up"),
            frames_dropped: registry.counter("rt.frames_dropped"),
            frames_requeued: registry.counter("rt.frames_requeued"),
            faults_injected: registry.counter("rt.faults_injected"),
            latency_ns: registry.histogram("rt.latency_ns"),
            queue_wait_ns: registry.histogram("rt.queue_wait_ns"),
            restart_ns: registry.histogram("rt.restart_ns"),
            filter_table_entries: registry.gauge("rt.filter_table_entries"),
            agg_covered_subs: registry.gauge("rt.agg_covered_subs"),
            delivery_waiters: AtomicUsize::new(0),
            delivery_lock: Mutex::new(()),
            delivery_signal: Condvar::new(),
            registry,
        }
    }

    /// The registry holding every runtime metric (these counters plus
    /// the stage profiler's histograms) — the source for
    /// [`crate::Runtime::snapshot`] and the Prometheus endpoint.
    #[must_use]
    pub fn registry(&self) -> &Arc<TelemetryRegistry> {
        &self.registry
    }

    pub(crate) fn inc_published(&self) {
        self.published.inc();
    }

    pub(crate) fn add_delivered(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.delivered.add(n);
        // Pairs with the fence in `wait_delivered`: either this thread sees
        // the waiter and wakes it, or the waiter's check sees this delivery.
        fence(Ordering::SeqCst);
        if self.delivery_waiters.load(Ordering::Relaxed) > 0 {
            // Taking the lock orders the wake-up after the waiter's check.
            drop(
                self.delivery_lock
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner),
            );
            self.delivery_signal.notify_all();
        }
    }

    /// Blocks until `expected` events have been delivered or `timeout`
    /// elapses; returns whether the target was reached. The delivering
    /// thread wakes the caller — nothing is polled.
    pub(crate) fn wait_delivered(&self, expected: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self
            .delivery_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.delivery_waiters.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let reached = loop {
            if self.delivered() >= expected {
                break true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break false;
            }
            guard = self
                .delivery_signal
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        };
        self.delivery_waiters.fetch_sub(1, Ordering::Relaxed);
        reached
    }

    pub(crate) fn note_frame_sent(&self, bytes: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add(bytes as u64);
    }

    pub(crate) fn inc_frames_received(&self) {
        self.frames_received.inc();
    }

    pub(crate) fn inc_suppressed_control(&self) {
        self.suppressed_control.inc();
    }

    pub(crate) fn inc_decode_errors(&self) {
        self.decode_errors.inc();
    }

    pub(crate) fn inc_encode_errors(&self) {
        self.encode_errors.inc();
    }

    pub(crate) fn inc_timers_fired(&self) {
        self.timers_fired.inc();
    }

    pub(crate) fn record_latency_ns(&self, ns: u64) {
        self.latency_ns.record(ns);
    }

    pub(crate) fn record_queue_wait_ns(&self, ns: u64) {
        self.queue_wait_ns.record(ns);
    }

    pub(crate) fn inc_panics(&self) {
        self.panics.inc();
    }

    pub(crate) fn inc_restarts(&self) {
        self.restarts.inc();
    }

    pub(crate) fn inc_stalls(&self) {
        self.stalls.inc();
    }

    pub(crate) fn inc_gave_up(&self) {
        self.gave_up.inc();
    }

    pub(crate) fn inc_frames_dropped(&self) {
        self.frames_dropped.inc();
    }

    pub(crate) fn add_frames_dropped(&self, n: u64) {
        if n > 0 {
            self.frames_dropped.add(n);
        }
    }

    pub(crate) fn add_frames_requeued(&self, n: u64) {
        if n > 0 {
            self.frames_requeued.add(n);
        }
    }

    pub(crate) fn inc_faults_injected(&self) {
        self.faults_injected.inc();
    }

    pub(crate) fn record_restart_ns(&self, ns: u64) {
        self.restart_ns.record(ns);
    }

    pub(crate) fn filter_table_entries_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.filter_table_entries)
    }

    pub(crate) fn agg_covered_subs_gauge(&self) -> Arc<Gauge> {
        Arc::clone(&self.agg_covered_subs)
    }

    /// Events handed to [`crate::Publisher::publish`].
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published.get()
    }

    /// Events accepted exactly-once by subscriber nodes.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Frames pushed onto node channels (control broadcasts count once
    /// per shard copy).
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.get()
    }

    /// Total bytes of the frames sent, on either transport (an mpsc hop
    /// moves the message; its frame is counted, not written).
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.get()
    }

    /// Frames handled by nodes.
    #[must_use]
    pub fn frames_received(&self) -> u64 {
        self.frames_received.get()
    }

    /// Outgoing control messages dropped by follower shards (the leader
    /// speaks for the broker; see the runtime's sharding contract).
    #[must_use]
    pub fn suppressed_control(&self) -> u64 {
        self.suppressed_control.get()
    }

    /// Frames that failed framing or payload decoding and were dropped.
    #[must_use]
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.get()
    }

    /// Messages that failed wire encoding (frame cap exceeded) and were
    /// never sent. Always zero for well-formed workloads; nonzero means
    /// a protocol-scale bug, surfaced as a counter instead of a panic.
    #[must_use]
    pub fn encode_errors(&self) -> u64 {
        self.encode_errors.get()
    }

    /// Node panics caught by the workers (broker shards and subscribers
    /// alike), injected or organic.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.panics.get()
    }

    /// Supervised shard restarts completed (state machine rebuilt,
    /// durable log recovered, successor hosted in the shard's slot).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts.get()
    }

    /// Shards the supervisor's stall scan fenced for a stuck turn.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }

    /// Shards permanently dead-ended: restart budget spent, or the
    /// restart itself failed.
    #[must_use]
    pub fn gave_up(&self) -> u64 {
        self.gave_up.get()
    }

    /// The volatile loss ledger: data frames dropped by injected link
    /// faults, sends to dead-ended shards, and the frames a shard's inbox
    /// held when it was dead-ended. Durable subscribers recover these
    /// through log replay; volatile subscribers see exactly this count as
    /// potential loss — accounted, never silent.
    #[must_use]
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.get()
    }

    /// In-flight data frames a crashed or fenced shard generation handed
    /// to its successor. The rest of a crashed shard's backlog never
    /// moves: it waits in the inbox the successor reads.
    #[must_use]
    pub fn frames_requeued(&self) -> u64 {
        self.frames_requeued.get()
    }

    /// Faults the [`crate::RtFaultPlan`] actually injected (panics,
    /// stalls, link drops).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.get()
    }

    /// Merged snapshot of the end-to-end delivery latency distribution
    /// (publish stamp → subscriber accept), in nanoseconds. With trace
    /// sampling on, covers the sampled deliveries only.
    #[must_use]
    pub fn latency_histogram(&self) -> Histogram {
        self.latency_ns.merged()
    }

    /// Distribution of publish-queue wait (publish stamp → root-broker
    /// ingress dequeue), in nanoseconds. This is the backlog component
    /// the delivery-latency histogram deliberately *excludes*: publish
    /// stamps are rebased at ingress dequeue so `latency_ns` measures
    /// pipeline delivery latency, and the wait spent behind earlier
    /// events in the root inbox is accounted here instead (an early
    /// "268 ms p50" was this wait, misread as delivery time).
    #[must_use]
    pub fn queue_wait_histogram(&self) -> Histogram {
        self.queue_wait_ns.merged()
    }

    /// Distribution of supervised restart durations (crash noticed →
    /// replacement live, backoff included), in nanoseconds — the
    /// runtime's MTTR measurement (experiment E20).
    #[must_use]
    pub fn restart_histogram(&self) -> Histogram {
        self.restart_ns.merged()
    }
}
