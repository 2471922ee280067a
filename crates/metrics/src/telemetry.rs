//! Sharded, lock-free runtime telemetry: counters, gauges, log₂
//! histograms, a named registry, and text renderers (aligned tables and
//! Prometheus exposition format).
//!
//! The simulator's metrics ([`crate::RunMetrics`], [`crate::Histogram`])
//! are single-threaded by construction; the wall-clock runtime needs the
//! same figures under dozens of writer threads without turning every
//! record into a lock acquisition. The primitives here shard their state
//! across cache-line-padded atomic slots: writers touch only their own
//! slot (assigned per thread, round-robin) with relaxed ordering, and
//! readers pay an explicit merge across slots. Recording is wait-free
//! and contention-free; the price is that a snapshot taken while writers
//! are mid-flight can miss in-flight increments. Totals are exact once
//! writers quiesce — the right trade for accounting figures.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use serde::{Deserialize, Serialize};

use crate::hist::Histogram;
use crate::table::render_table;

/// Round-robin source of per-thread shard slots; never reused, so two
/// live threads never collide on a slot modulo a power-of-two shard
/// count unless there are more threads than shards.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stable shard slot, assigned on first use.
#[inline]
fn thread_slot() -> usize {
    THREAD_SLOT.with(|slot| {
        let mut s = slot.get();
        if s == usize::MAX {
            s = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
            slot.set(s);
        }
        s
    })
}

/// Pads a slot to two cache lines so neighboring shards never share a
/// line (64-byte lines plus adjacent-line prefetch on x86): without the
/// padding, "sharded" counters would still bounce one line between
/// cores and perform like a single shared atomic.
#[repr(align(128))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// A monotone counter sharded across cache-padded atomic slots.
///
/// `add` is one relaxed `fetch_add` on the calling thread's own slot;
/// [`ShardedCounter::get`] sums every slot.
#[derive(Debug)]
pub struct ShardedCounter {
    shards: Box<[CachePadded<AtomicU64>]>,
    mask: usize,
}

impl ShardedCounter {
    /// A zeroed counter with `shards` slots (rounded up to a power of
    /// two, minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n).map(|_| CachePadded(AtomicU64::new(0))).collect(),
            mask: n - 1,
        }
    }

    /// Adds `n` on the calling thread's slot.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot() & self.mask]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 on the calling thread's slot.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The merged total across all slots.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable signed gauge (one atomic — gauges are read-mostly and not
/// worth sharding).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the value to `v` unless it is already higher — a monotone
    /// `set` for gauges that track an increasing series under racing
    /// writers (e.g. liveness heartbeats written by overlapping thread
    /// generations after a supervised restart: a late write from the
    /// replaced generation can never move the gauge backwards).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One `u64` bucket per binary order of magnitude plus the zero bucket —
/// the same layout as [`Histogram`], fully materialized so recording
/// never allocates.
const HIST_BUCKETS: usize = 65;

/// A lock-free log₂ histogram: the atomic twin of [`Histogram`], with
/// the identical bucketing scheme so snapshots merge into simulator
/// histograms without conversion.
///
/// The sample count is derived from the buckets at snapshot time rather
/// than kept separately, so a snapshot's `count` always equals its
/// bucket sum even when taken mid-record.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample: four relaxed atomic ops on this slot, no
    /// branches beyond the bucket index, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time [`Histogram`] snapshot (relaxed reads; see the
    /// module docs for the mid-flight caveat).
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        Histogram::from_raw(buckets, min, max, sum)
    }
}

/// A log₂ histogram sharded across cache-padded [`AtomicHistogram`]
/// slots, with an explicit merge on read — the replacement for
/// `Mutex<Histogram>` on multi-writer hot paths.
#[derive(Debug)]
pub struct ShardedHistogram {
    shards: Box<[CachePadded<AtomicHistogram>]>,
    mask: usize,
}

impl ShardedHistogram {
    /// An empty histogram with `shards` slots (rounded up to a power of
    /// two, minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        Self {
            shards: (0..n)
                .map(|_| CachePadded(AtomicHistogram::new()))
                .collect(),
            mask: n - 1,
        }
    }

    /// Records one sample on the calling thread's slot.
    #[inline]
    pub fn record(&self, v: u64) {
        self.shards[thread_slot() & self.mask].0.record(v);
    }

    /// Merges every slot into one [`Histogram`] — the explicit read-side
    /// cost that buys the wait-free write side.
    #[must_use]
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for shard in self.shards.iter() {
            out.merge(&shard.0.snapshot());
        }
        out
    }
}

/// A named registry of sharded metrics. Registration (`counter`/`gauge`/
/// `histogram`) is the cold path — a `RwLock` around name maps; callers
/// keep the returned `Arc` handle and record through it lock-free.
#[derive(Debug)]
pub struct TelemetryRegistry {
    shards: usize,
    counters: RwLock<BTreeMap<String, Arc<ShardedCounter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<ShardedHistogram>>>,
}

impl TelemetryRegistry {
    /// An empty registry whose metrics use `shards` slots each.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use. Subsequent calls
    /// with the same name return the same underlying counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<ShardedCounter> {
        get_or_insert(&self.counters, name, || ShardedCounter::new(self.shards))
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name, Gauge::new)
    }

    /// The histogram named `name`, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<ShardedHistogram> {
        get_or_insert(&self.histograms, name, || {
            ShardedHistogram::new(self.shards)
        })
    }

    /// A merged point-in-time view of every registered metric, sorted by
    /// name (the registry maps are ordered, so the JSON shape is stable).
    #[must_use]
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .counters
            .read()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, c)| CounterSample {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, g)| GaugeSample {
                name: name.clone(),
                value: g.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("telemetry registry poisoned")
            .iter()
            .map(|(name, h)| HistogramSample {
                name: name.clone(),
                hist: h.merged(),
            })
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

fn get_or_insert<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    if let Some(found) = map.read().expect("telemetry registry poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut map = map.write().expect("telemetry registry poisoned");
    Arc::clone(
        map.entry(name.to_owned())
            .or_insert_with(|| Arc::new(make())),
    )
}

/// One counter's merged value in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Registered metric name.
    pub name: String,
    /// Merged total at snapshot time.
    pub value: u64,
}

/// One gauge's value in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Registered metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One histogram's merged distribution in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Registered metric name.
    pub name: String,
    /// Merged distribution at snapshot time.
    pub hist: Histogram,
}

/// A point-in-time view of a [`TelemetryRegistry`]: every metric, merged
/// and sorted by name. Serializes to a stable JSON shape (`counters`,
/// `gauges`, `histograms` arrays of `{name, ...}` objects) that bench
/// outputs and the Prometheus endpoint both build on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetrySnapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<CounterSample>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<GaugeSample>,
    /// Merged histograms, sorted by name.
    pub histograms: Vec<HistogramSample>,
}

impl TelemetrySnapshot {
    /// The value of the counter named `name`, if registered.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The value of the gauge named `name`, if registered.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The merged histogram named `name`, if registered.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }
}

/// Renders a snapshot as aligned text tables: one for counters and
/// gauges, one for histogram summaries. Empty histograms still get a
/// row (`n=0`), so a quick glance shows which stages never ran.
#[must_use]
pub fn telemetry_table(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        let mut rows: Vec<Vec<String>> = snap
            .counters
            .iter()
            .map(|c| vec![c.name.clone(), c.value.to_string()])
            .collect();
        rows.extend(
            snap.gauges
                .iter()
                .map(|g| vec![g.name.clone(), g.value.to_string()]),
        );
        out.push_str(&render_table(&["metric", "value"], &rows));
    }
    if !snap.histograms.is_empty() {
        if !out.is_empty() {
            out.push('\n');
        }
        let rows: Vec<Vec<String>> = snap
            .histograms
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.hist.count().to_string(),
                    h.hist.p50().to_string(),
                    h.hist.p95().to_string(),
                    h.hist.p99().to_string(),
                    h.hist.max().to_string(),
                    format!("{:.1}", h.hist.mean()),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["histogram", "n", "p50", "p95", "p99", "max", "mean"],
            &rows,
        ));
    }
    out
}

/// Maps a registered metric name onto the Prometheus metric-name
/// alphabet: `prefix` + `_` + the name with every non-alphanumeric
/// character replaced by `_`.
fn prometheus_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    out.push_str(prefix);
    out.push('_');
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms
/// as summaries with `quantile` labels plus `_sum`/`_count` series.
/// Quantiles are the log₂-bucket upper bounds [`Histogram::quantile`]
/// reports — approximate by design.
#[must_use]
pub fn prometheus_text(snap: &TelemetrySnapshot, prefix: &str) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let name = prometheus_name(prefix, &c.name);
        out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.value));
    }
    for g in &snap.gauges {
        let name = prometheus_name(prefix, &g.name);
        out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.value));
    }
    for h in &snap.histograms {
        let name = prometheus_name(prefix, &h.name);
        out.push_str(&format!("# TYPE {name} summary\n"));
        for (q, v) in [
            (0.5, h.hist.p50()),
            (0.95, h.hist.p95()),
            (0.99, h.hist.p99()),
        ] {
            out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{name}_sum {}\n", h.hist.sum()));
        out.push_str(&format!("{name}_count {}\n", h.hist.count()));
    }
    out
}

/// The wall-clock runtime's per-event pipeline stages, in hot-path
/// order. `WalAppend`/`WalFsync` only fire on durable runs; `Match`
/// covers the whole state-machine step and therefore *includes* any
/// WAL append it performed (the sub-stage is also reported on its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineStage {
    /// Channel wait: frame enqueued at the sender → dequeued by the node
    /// thread.
    IngressWait,
    /// Frame deframing plus wire-payload deserialization.
    Decode,
    /// The node state-machine step: covering-filter match, table
    /// bookkeeping, fan-out cloning (excluding nested encode/send time,
    /// which is reported under `Encode`/`EgressSend`).
    Match,
    /// Wire-payload serialization plus framing of one outgoing message.
    Encode,
    /// Routing-table lookup and channel send(s) of one encoded frame.
    EgressSend,
    /// Durable-log append of one event (only on durable runs; also
    /// counted inside `Match`).
    WalAppend,
    /// Durable-log fsync batch (every batch is recorded, not sampled —
    /// syncs are rare and slow enough that the timing cost vanishes).
    WalFsync,
}

impl PipelineStage {
    /// Every stage, in pipeline order (also the `as usize` index order).
    pub const ALL: [PipelineStage; 7] = [
        PipelineStage::IngressWait,
        PipelineStage::Decode,
        PipelineStage::Match,
        PipelineStage::Encode,
        PipelineStage::EgressSend,
        PipelineStage::WalAppend,
        PipelineStage::WalFsync,
    ];

    /// The registry metric name of this stage's histogram.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            PipelineStage::IngressWait => "stage.ingress_wait_ns",
            PipelineStage::Decode => "stage.decode_ns",
            PipelineStage::Match => "stage.match_ns",
            PipelineStage::Encode => "stage.encode_ns",
            PipelineStage::EgressSend => "stage.egress_send_ns",
            PipelineStage::WalAppend => "stage.wal_append_ns",
            PipelineStage::WalFsync => "stage.wal_fsync_ns",
        }
    }
}

/// Per-stage wall-clock profiling behind a sampling knob.
///
/// Each node thread calls [`StageProfiler::tick`] once per received
/// frame; every `sample_every`-th frame is timed through all its
/// pipeline stages. With sampling off (`sample_every == 0`) the entire
/// cost on the hot path is that one relaxed load and branch.
#[derive(Debug)]
pub struct StageProfiler {
    sample_every: AtomicU64,
    stages: Vec<Arc<ShardedHistogram>>,
}

impl StageProfiler {
    /// A profiler recording into `registry` (one histogram per
    /// [`PipelineStage`], named by [`PipelineStage::metric_name`]),
    /// sampling every `sample_every`-th frame (`0` = off).
    #[must_use]
    pub fn new(registry: &TelemetryRegistry, sample_every: u64) -> Self {
        Self {
            sample_every: AtomicU64::new(sample_every),
            stages: PipelineStage::ALL
                .iter()
                .map(|s| registry.histogram(s.metric_name()))
                .collect(),
        }
    }

    /// The sampling period (`0` = off).
    #[must_use]
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Changes the sampling period at runtime (`0` turns profiling off).
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// `true` when any sampling is configured — the one-relaxed-load
    /// fast check for optional work like enqueue timestamps.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.sample_every.load(Ordering::Relaxed) != 0
    }

    /// Advances a caller-owned per-thread frame counter and decides
    /// whether this frame is sampled. The off path is one relaxed load
    /// and a branch.
    #[inline]
    pub fn tick(&self, counter: &mut u64) -> bool {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return false;
        }
        let n = *counter;
        *counter = n.wrapping_add(1);
        n.is_multiple_of(every)
    }

    /// Records one stage duration (nanoseconds) for a sampled frame.
    #[inline]
    pub fn record(&self, stage: PipelineStage, ns: u64) {
        self.stages[stage as usize].record(ns);
    }

    /// The merged distribution recorded so far for `stage`.
    #[must_use]
    pub fn stage_histogram(&self, stage: PipelineStage) -> Histogram {
        self.stages[stage as usize].merged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_counter_sums_slots() {
        let c = ShardedCounter::new(4);
        for _ in 0..10 {
            c.inc();
        }
        c.add(5);
        assert_eq!(c.get(), 15);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn atomic_histogram_matches_sequential() {
        let a = AtomicHistogram::new();
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 17, 900, 1 << 60] {
            a.record(v);
            h.record(v);
        }
        assert_eq!(a.snapshot(), h);
    }

    #[test]
    fn empty_atomic_histogram_snapshots_empty() {
        let a = AtomicHistogram::new();
        let snap = a.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap, Histogram::new());
    }

    #[test]
    fn sharded_histogram_merges_to_sequential() {
        let s = ShardedHistogram::new(8);
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            s.record(v);
            h.record(v);
        }
        assert_eq!(s.merged(), h);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let reg = TelemetryRegistry::new(4);
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x").get(), 2);
        assert_eq!(reg.counter("y").get(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = TelemetryRegistry::new(2);
        reg.counter("b.two").add(2);
        reg.counter("a.one").add(1);
        reg.gauge("depth").set(-4);
        reg.histogram("lat").record(42);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(snap.counter("b.two"), Some(2));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.histogram("lat").unwrap().count(), 1);
        assert_eq!(snap.gauge("depth"), Some(-4));
        assert_eq!(snap.gauge("lat"), None, "a histogram is not a gauge");
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let reg = TelemetryRegistry::new(2);
        reg.counter("events").add(3);
        reg.histogram("ns").record(100);
        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn table_renders_counters_and_histograms() {
        let reg = TelemetryRegistry::new(2);
        reg.counter("rt.published").add(10);
        reg.histogram("rt.latency_ns").record(1000);
        let table = telemetry_table(&reg.snapshot());
        assert!(table.contains("rt.published"));
        assert!(table.contains("10"));
        assert!(table.contains("rt.latency_ns"));
        assert!(table.contains("p95"));
    }

    #[test]
    fn prometheus_text_exposition_shape() {
        let reg = TelemetryRegistry::new(2);
        reg.counter("rt.published").add(10);
        reg.gauge("rt.uptime_us").set(5);
        reg.histogram("rt.latency_ns").record(1000);
        let text = prometheus_text(&reg.snapshot(), "layercake");
        assert!(text.contains("# TYPE layercake_rt_published counter"));
        assert!(text.contains("layercake_rt_published 10"));
        assert!(text.contains("# TYPE layercake_rt_uptime_us gauge"));
        assert!(text.contains("# TYPE layercake_rt_latency_ns summary"));
        assert!(text.contains("layercake_rt_latency_ns{quantile=\"0.5\"}"));
        assert!(text.contains("layercake_rt_latency_ns_count 1"));
        assert!(text.contains("layercake_rt_latency_ns_sum 1000"));
    }

    #[test]
    fn profiler_off_path_never_samples() {
        let reg = TelemetryRegistry::new(2);
        let p = StageProfiler::new(&reg, 0);
        assert!(!p.enabled());
        let mut counter = 0;
        for _ in 0..100 {
            assert!(!p.tick(&mut counter));
        }
        assert_eq!(counter, 0, "off path must not even advance the counter");
    }

    #[test]
    fn profiler_samples_one_in_n() {
        let reg = TelemetryRegistry::new(2);
        let p = StageProfiler::new(&reg, 4);
        let mut counter = 0;
        let sampled = (0..16).filter(|_| p.tick(&mut counter)).count();
        assert_eq!(sampled, 4);
        p.record(PipelineStage::Decode, 128);
        assert_eq!(p.stage_histogram(PipelineStage::Decode).count(), 1);
        assert_eq!(
            reg.snapshot().histogram("stage.decode_ns").unwrap().count(),
            1
        );
    }

    #[test]
    fn stage_metric_names_are_distinct() {
        let mut names: Vec<&str> = PipelineStage::ALL.iter().map(|s| s.metric_name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PipelineStage::ALL.len());
    }
}
