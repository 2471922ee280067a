//! The broker protocol machine: one intermediate node of the hierarchy.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use layercake_event::{Advertisement, ClassId, Envelope, StageMap, TypeRegistry};
use layercake_filter::{weaken_to_stage, AggDelta, AggTable, DestId, Filter, FilterTable};
use layercake_metrics::{DurabilityStats, NodeRecord, PipelineStage};
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_trace::{HopRecord, HopVerdict, TraceSink, EXTERNAL_SOURCE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::PlacementPolicy;
use crate::ctx::NodeCtx;
use crate::msg::{OverlayMsg, SubscriptionReq};
use crate::wal::{DurableLog, LogConfig, LogStorage};

/// Timer tag: lease expiry sweep (Section 4.3, "REMOVE INVALID FILTERS").
const TAG_SWEEP: u64 = 1;
/// Timer tag: renew own filters at the parent ("EXTEND THE VALIDITY").
const TAG_RENEW: u64 = 2;

/// Bound on unacknowledged durable deliveries in flight per
/// `(consumer, class)` stream, counted in deliveries: a selective
/// consumer's window spans as much of the log as it takes to find that
/// many matches. The log is the overflow buffer — a slow consumer's
/// backlog stays on disk and is paged out by its own acknowledgements,
/// so its inbox growth is bounded instead of tracking the publisher's
/// rate.
const DURABLE_WINDOW: usize = 64;

/// Most records one catch-up read reaches for, whatever the density.
const DURABLE_PAGE_MAX: u64 = 4 * DURABLE_WINDOW as u64;

/// Broker-side state of one durable stream: the subsequence of a
/// class's log that one consumer's table entries match. Volatile — a
/// restart rebuilds it from the persisted acks, and the streams restart
/// from there via `DurableBase`.
#[derive(Debug)]
struct DurableStream {
    /// Every record at or below this offset has been decided for this
    /// stream: sent, or passed over as unmatched. The stream is *caught
    /// up* while this is the log tail; otherwise the records above it
    /// wait in the log for `durable_catch_up`.
    scanned: u64,
    /// Offset of the last record sent (the stream's base before the
    /// first): the `prev` of the next delivery.
    last_sent: u64,
    /// Offsets sent and not yet acknowledged, ascending.
    in_flight: VecDeque<u64>,
    /// The log tail when the stream was last (re)opened. Catch-up sends
    /// at or below this mark are re-read history and count as replays;
    /// sends above it are first-time deliveries the window merely
    /// deferred (see [`DurableLog::note_replayed`]).
    replay_hwm: u64,
    /// The acknowledged offset as of the previous lease sweep; an ack
    /// sitting still below the log tail for a whole sweep means
    /// deliveries (or acks) were lost and the stream is restarted.
    sweep_acked: Option<u64>,
    /// The consumer is registered in a recovered log and has not
    /// re-subscribed since, so the table has no filter of its to ask: it
    /// is sent the class's whole stream and filters at stage 0, which is
    /// always safe.
    unfiltered: bool,
}

impl DurableStream {
    /// A stream (re)opening at the consumer's acknowledged offset.
    fn open(acked: u64, tail: u64, unfiltered: bool) -> Self {
        Self {
            scanned: acked,
            last_sent: acked,
            in_flight: VecDeque::new(),
            replay_hwm: tail,
            sweep_acked: None,
            unfiltered,
        }
    }

    /// Sends `off` as the stream's next delivery, chained to the last.
    fn send(&mut self, to: DestId, off: u64, mut env: Envelope, ctx: &mut dyn NodeCtx) {
        env.touch_trace(ctx.trace_now());
        ctx.send(
            actor_of(to),
            OverlayMsg::Durable {
                prev: self.last_sent,
                off,
                env,
            },
        );
        self.scanned = off;
        self.last_sent = off;
        self.in_flight.push_back(off);
    }

    /// Takes what the consumer's persisted ack covers out of the
    /// in-flight window.
    fn note_acked(&mut self, acked: u64) {
        while self.in_flight.front().is_some_and(|&off| off <= acked) {
            self.in_flight.pop_front();
        }
    }

    /// With nothing in flight, every record up to `scanned` was either
    /// acknowledged or never owed: move the persisted ack over the
    /// skipped ones, so an idle, fully served consumer neither pins
    /// segments nor looks stalled to the sweep.
    fn settle_ack(&self, wal: &mut DurableLog, dest: DestId, class: ClassId) {
        if self.in_flight.is_empty() {
            wal.ack(dest, class, self.scanned);
        }
    }
}

pub(crate) fn dest_of(actor: ActorId) -> DestId {
    DestId(actor.0 as u64)
}

// Destination ids are minted exclusively from actor ids by `dest_of`, so
// the conversion back is lossless; `as` keeps the event hot path free of
// panic branches.
pub(crate) fn actor_of(dest: DestId) -> ActorId {
    ActorId(dest.0 as usize)
}

/// Maps an actor id onto the trace wire format, folding the simulator's
/// external-sender sentinel onto the trace crate's.
pub(crate) fn trace_actor(actor: ActorId) -> u64 {
    if actor.0 == usize::MAX {
        EXTERNAL_SOURCE
    } else {
        actor.0 as u64
    }
}

/// The broker's subscription store: one entry per subscription
/// ([`FilterTable`], the paper's Figure 6 table), or the aggregated cover
/// forest ([`AggTable`]) when `OverlayConfig::aggregation_enabled` is set.
/// The wrappers present one read surface to the protocol machine; the two
/// *write* paths stay distinct because aggregation reports table changes as
/// live-entry deltas instead of a created/removed bool.
#[derive(Debug)]
enum BrokerTable {
    /// Per-subscription entries.
    Plain(Box<FilterTable>),
    /// The refcounted cover forest: covered subscriptions are bookkeeping
    /// attached to their covering root and only roots are live entries.
    Agg(Box<AggTable>),
}

impl BrokerTable {
    fn new(aggregation: bool) -> Self {
        if aggregation {
            BrokerTable::Agg(Box::default())
        } else {
            BrokerTable::Plain(Box::default())
        }
    }

    /// Live entries — the number of filters the match loop evaluates.
    fn filter_count(&self) -> usize {
        match self {
            BrokerTable::Plain(t) => t.filter_count(),
            BrokerTable::Agg(t) => t.live_entries(),
        }
    }

    /// `<filter, dest>` pairs held as covered (non-live) bookkeeping;
    /// zero for the per-subscription table by definition.
    fn covered_subs(&self) -> usize {
        match self {
            BrokerTable::Plain(_) => 0,
            BrokerTable::Agg(t) => t.covered_subs(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            BrokerTable::Plain(t) => t.is_empty(),
            BrokerTable::Agg(t) => t.is_empty(),
        }
    }

    /// Whether the table stores any filter for `dest` (live or covered).
    fn has_dest(&self, dest: DestId) -> bool {
        match self {
            BrokerTable::Plain(t) => t.filters_for(dest).next().is_some(),
            BrokerTable::Agg(t) => t.has_dest(dest),
        }
    }

    /// The filters stored for `dest` — exactly the forms a removal must
    /// name (weakened-to-this-stage; original even when covered).
    fn filters_for(&self, dest: DestId) -> Box<dyn Iterator<Item = &Filter> + '_> {
        match self {
            BrokerTable::Plain(t) => Box::new(t.filters_for(dest)),
            BrokerTable::Agg(t) => Box::new(t.filters_for(dest)),
        }
    }

    /// Live `<filter, id-list>` entries. Id-lists are materialized because
    /// the aggregated table derives them from refcounts on read.
    fn entries(&self) -> Box<dyn Iterator<Item = (&Filter, Vec<DestId>)> + '_> {
        match self {
            BrokerTable::Plain(t) => Box::new(t.iter().map(|(f, d)| (f, d.to_vec()))),
            BrokerTable::Agg(t) => Box::new(t.iter()),
        }
    }

    /// Strongest live filter covering `f`, with its destinations.
    fn find_cover(
        &mut self,
        f: &Filter,
        registry: &TypeRegistry,
    ) -> Option<(&Filter, Vec<DestId>)> {
        match self {
            BrokerTable::Plain(t) => t.find_cover(f, registry).map(|(c, d)| (c, d.to_vec())),
            BrokerTable::Agg(t) => t.find_cover(f, registry),
        }
    }

    /// Evaluates an event against the live entries (Figure 6's match loop).
    fn matches(
        &mut self,
        class: ClassId,
        meta: &layercake_event::EventData,
        registry: &TypeRegistry,
        out: &mut Vec<DestId>,
    ) {
        match self {
            BrokerTable::Plain(t) => t.matches(class, meta, registry, out),
            BrokerTable::Agg(t) => t.matches(class, meta, registry, out),
        }
    }
}

/// A broker node at stage ≥ 1 of the hierarchy.
///
/// Brokers store weakened filters in a `<filter, id-list>` table
/// ([`FilterTable`]), place incoming subscriptions per Figure 5(b), forward
/// events per Figure 6, and maintain soft-state leases for the filters their
/// children registered.
#[derive(Debug)]
pub struct Broker {
    label: String,
    stage: usize,
    parent: Option<ActorId>,
    children: Vec<ActorId>,
    children_set: HashSet<ActorId>,
    registry: Arc<TypeRegistry>,
    stage_maps: HashMap<ClassId, StageMap>,
    table: BrokerTable,
    /// Aggregation mode only: refcounts over the parent-stage weakened
    /// forms of the table's *live* roots. Two roots can weaken to the same
    /// upstream filter, so announcements are sent on the 0→1 edge and
    /// withdrawn on the 1→0 edge — the aggregated analogue of the plain
    /// table's `parent_needs` set difference.
    up_refs: HashMap<Filter, u32>,
    placement: PlacementPolicy,
    wildcard_stage_placement: bool,
    leases_enabled: bool,
    ttl: SimDuration,
    leases: HashMap<DestId, SimTime>,
    /// Buffered events for detached durable subscribers.
    parked: HashMap<DestId, Vec<Envelope>>,
    timers_started: bool,
    rng: StdRng,
    received: u64,
    matched: u64,
    evaluations: u64,
    bytes_received: u64,
    scratch: Vec<DestId>,
    /// Shared trace collector; `None` when tracing is disabled for the run.
    trace: Option<Arc<TraceSink>>,
    /// The durable segmented event log; `Some` when durability is enabled
    /// for this broker. Unlike every other field, the log's *storage*
    /// survives `on_restart` — that is the whole point.
    wal: Option<DurableLog>,
    /// One stream per durable consumer registration in the log, keyed
    /// `(class, dest)` like the log's offset table so a class's streams
    /// are one range.
    durable: BTreeMap<(u32, u64), DurableStream>,
}

/// Construction parameters for a [`Broker`] (set by the overlay builder).
#[derive(Debug, Clone)]
pub(crate) struct BrokerSetup {
    pub label: String,
    pub stage: usize,
    pub parent: Option<ActorId>,
    pub children: Vec<ActorId>,
    pub registry: Arc<TypeRegistry>,
    pub placement: PlacementPolicy,
    pub aggregation_enabled: bool,
    pub wildcard_stage_placement: bool,
    pub leases_enabled: bool,
    pub ttl: SimDuration,
    pub seed: u64,
    pub trace: Option<Arc<TraceSink>>,
}

impl Broker {
    pub(crate) fn new(setup: BrokerSetup) -> Self {
        Self {
            rng: StdRng::seed_from_u64(setup.seed),
            children_set: setup.children.iter().copied().collect(),
            label: setup.label,
            stage: setup.stage,
            parent: setup.parent,
            children: setup.children,
            registry: setup.registry,
            stage_maps: HashMap::new(),
            table: BrokerTable::new(setup.aggregation_enabled),
            up_refs: HashMap::new(),
            placement: setup.placement,
            wildcard_stage_placement: setup.wildcard_stage_placement,
            leases_enabled: setup.leases_enabled,
            ttl: setup.ttl,
            leases: HashMap::new(),
            parked: HashMap::new(),
            timers_started: false,
            received: 0,
            matched: 0,
            evaluations: 0,
            bytes_received: 0,
            scratch: Vec::new(),
            trace: setup.trace,
            wal: None,
            durable: BTreeMap::new(),
        }
    }

    /// Attaches a durable event log backed by `storage` (opened and
    /// recovered immediately). Called by the drivers after construction,
    /// because the storage flavor is theirs to choose: the simulator's
    /// deterministic in-memory model, or real files under the runtime.
    pub fn enable_durability(&mut self, storage: Box<dyn LogStorage>, cfg: LogConfig) {
        self.wal = Some(DurableLog::open(storage, cfg));
        self.recover_durable_streams();
    }

    /// Resets the stream table to what a (re)opened log knows: one stream
    /// per recovered consumer registration, at its persisted ack. The
    /// table holds none of their filters yet, so they are `unfiltered`
    /// until each re-subscribes.
    fn recover_durable_streams(&mut self) {
        self.durable.clear();
        let Some(wal) = self.wal.as_ref() else {
            return;
        };
        for dest in wal.consumer_dests() {
            for class in wal.consumer_classes(dest) {
                self.durable.insert(
                    (class.0, dest.0),
                    DurableStream::open(wal.acked_upto(dest, class), wal.tail_off(class), true),
                );
            }
        }
    }

    /// Ends a consumer's durable contract (explicit unsubscription or
    /// lease expiry): its offsets go, which is what lets the log compact
    /// segments nobody else still needs, and its streams with them.
    fn drop_durable_consumer(&mut self, dest: DestId) {
        if let Some(wal) = self.wal.as_mut() {
            wal.drop_consumer(dest);
        }
        self.durable.retain(|&(_, d), _| d != dest.0);
    }

    /// The durable log's activity counters, when durability is enabled.
    #[must_use]
    pub fn durability(&self) -> Option<&DurabilityStats> {
        self.wal.as_ref().map(DurableLog::stats)
    }

    /// Read access to the durable log, when durability is enabled.
    #[must_use]
    pub fn wal(&self) -> Option<&DurableLog> {
        self.wal.as_ref()
    }

    /// Forces the durable log's unsynced tail and offset table to disk
    /// (a final fsync batch). Drivers call this at shutdown and before
    /// reading results, so records below the `wal_flush_every` threshold
    /// are not silently volatile.
    pub fn flush_wal(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.flush();
        }
    }

    /// Ends the durable log's life in the driver: after a final
    /// [`Broker::flush_wal`] and a [`crate::wal::drain`] when `flush`
    /// (a graceful shutdown: everything is on disk on return), else by
    /// abandoning what its storage has not run yet (a kill). A no-op on
    /// volatile brokers.
    pub fn close_wal(&mut self, flush: bool) {
        if let Some(wal) = self.wal.as_mut() {
            if flush {
                wal.flush();
                crate::wal::drain();
            } else {
                wal.abandon();
            }
        }
    }

    /// Applies a subscriber's final contiguous cursor as an out-of-band
    /// acknowledgement. Drivers call this at *graceful* shutdown, after
    /// the wires are down: batched acks still sitting at the subscriber
    /// (waiting on `ACK_EVERY` or the flush timer) would otherwise be
    /// abandoned and force a spurious replay on the next start; and an
    /// idle stream is settled as on the live path, or the next start
    /// would re-scan the tail this consumer was never owed. A no-op for
    /// unregistered consumers, and clamped to the log tail like any
    /// other ack. Call [`Broker::flush_wal`] afterwards to persist.
    pub fn apply_final_ack(&mut self, subscriber: ActorId, class: ClassId, upto: u64) {
        let dest = dest_of(subscriber);
        if let Some(wal) = self.wal.as_mut() {
            if wal.is_class_consumer(dest, class) {
                wal.ack(dest, class, upto);
                if let Some(stream) = self.durable.get_mut(&(class.0, dest.0)) {
                    stream.note_acked(wal.acked_upto(dest, class));
                    stream.settle_ack(wal, dest, class);
                }
            }
        }
    }

    /// The broker's stage (≥ 1).
    #[must_use]
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// The broker's display label, e.g. `"N2.1"`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of filters currently stored.
    #[must_use]
    pub fn filter_count(&self) -> usize {
        self.table.filter_count()
    }

    /// Whether this broker is the hierarchy root.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The broker's parent node, if any.
    #[must_use]
    pub fn parent(&self) -> Option<ActorId> {
        self.parent
    }

    /// Iterates over the broker's live `<filter, id-list>` entries (for
    /// introspection and debugging dumps). Id-lists are materialized
    /// because the aggregated table derives them from refcounts on read.
    pub fn table_entries(&self) -> impl Iterator<Item = (&Filter, Vec<DestId>)> {
        self.table.entries()
    }

    /// `<filter, dest>` pairs currently held as covered bookkeeping under
    /// an aggregation root — subscriptions the table tracks without
    /// spending a live entry on them. Always zero when
    /// `aggregation_enabled` is off.
    #[must_use]
    pub fn covered_subs(&self) -> usize {
        self.table.covered_subs()
    }

    /// The broker's counters as a metrics record.
    #[must_use]
    pub fn record(&self) -> NodeRecord {
        NodeRecord {
            node: self.label.clone(),
            stage: self.stage,
            filters: self.table.filter_count(),
            received: self.received,
            matched: self.matched,
            evaluations: self.evaluations,
            bytes_received: self.bytes_received,
        }
    }

    pub(crate) fn handle(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        if let Some(wal) = &self.wal {
            wal.check_storage();
        }
        self.maybe_start_timers(ctx);
        match msg {
            OverlayMsg::Advertise(adv) => {
                self.stage_maps.insert(adv.class, adv.stage_map.clone());
                for child in &self.children {
                    ctx.send(*child, OverlayMsg::Advertise(adv.clone()));
                }
            }
            OverlayMsg::Subscribe(req) => self.place_subscription(req, ctx),
            OverlayMsg::ReqInsert { filter, child } => self.insert_child_filter(filter, child, ctx),
            OverlayMsg::Publish(env) => {
                self.bytes_received += env.wire_size() as u64;
                self.forward_event(from, &env, ctx);
            }
            OverlayMsg::Renew => {
                let dest = dest_of(from);
                self.leases.insert(dest, ctx.now() + self.ttl * 3);
                let known = self.table.has_dest(dest);
                if self.children_set.contains(&from) {
                    // A child broker only renews while it holds filters; if
                    // we store none for it, our table lost them (crash, or a
                    // dropped req-Insert) — ask the child to re-register.
                    if !known {
                        ctx.send(from, OverlayMsg::Reannounce);
                    }
                } else if known {
                    ctx.send(from, OverlayMsg::RenewAck);
                }
                // An unknown subscriber gets no ack: silence tells it to
                // re-subscribe from the root.
            }
            OverlayMsg::Unsubscribe { filter, subscriber } => {
                let dest = dest_of(subscriber);
                let weakened = self.weaken(&filter, self.stage);
                self.remove_with_upstream(&weakened, dest, ctx);
                if !self.table.has_dest(dest) {
                    self.leases.remove(&dest);
                    self.parked.remove(&dest);
                    self.drop_durable_consumer(dest);
                }
            }
            OverlayMsg::ReqRemove { filter, child } => {
                self.remove_with_upstream(&filter, dest_of(child), ctx);
            }
            OverlayMsg::Detach { subscriber } => {
                self.parked.entry(dest_of(subscriber)).or_default();
                // A detaching durable consumer's history lives in the
                // log, not the parked buffer — make the tail durable now
                // so a crash during the absence loses nothing flushed.
                if self
                    .wal
                    .as_ref()
                    .is_some_and(|w| w.is_consumer(dest_of(subscriber)))
                {
                    self.flush_wal();
                }
            }
            OverlayMsg::Attach { subscriber } => {
                let dest = dest_of(subscriber);
                let buffered = self.parked.remove(&dest);
                if self.wal.as_ref().is_some_and(|w| w.is_consumer(dest)) {
                    // Durable: the log is authoritative; the parked buffer
                    // stayed empty while detached (forwarding skipped it).
                    self.replay_to(subscriber, ctx);
                } else if let Some(buffered) = buffered {
                    for env in buffered {
                        self.transmit(subscriber, env, ctx);
                    }
                }
            }
            OverlayMsg::AckUpto { class, upto } => {
                let dest = dest_of(from);
                if let Some(wal) = self.wal.as_mut() {
                    wal.ack(dest, class, upto);
                }
                // The ack freed in-flight window room: page the next
                // stretch of this consumer's backlog out of the log.
                self.durable_catch_up(dest, class, ctx);
            }
            OverlayMsg::Rejoin => {
                if self.children_set.contains(&from) {
                    // A restarted child lost its stage maps; re-flood our
                    // advertisements to it (deterministic class order).
                    let mut classes: Vec<ClassId> = self.stage_maps.keys().copied().collect();
                    classes.sort_unstable_by_key(|c| c.0);
                    for class in classes {
                        let map = self.stage_maps[&class].clone();
                        ctx.send(from, OverlayMsg::Advertise(Advertisement::new(class, map)));
                    }
                } else if Some(from) == self.parent {
                    // A restarted parent lost our filters; re-register them.
                    self.reannounce_to_parent(ctx);
                }
            }
            OverlayMsg::Reannounce => {
                debug_assert_eq!(Some(from), self.parent, "re-announce comes from the parent");
                self.reannounce_to_parent(ctx);
            }
            OverlayMsg::JoinAt { .. }
            | OverlayMsg::AcceptedAt { .. }
            | OverlayMsg::Deliver(_)
            | OverlayMsg::Durable { .. }
            | OverlayMsg::DurableBase { .. }
            | OverlayMsg::RenewAck => {
                debug_assert!(
                    false,
                    "subscriber-bound message delivered to broker {}",
                    self.label
                );
            }
        }
    }

    /// Handles a crash-restart: every piece of soft state is gone. Ask the
    /// parent for the advertisement flood and tell both parent and children
    /// to reset their link state toward us; children lease renewals and
    /// re-announcements then rebuild the routing table (Section 4.3's
    /// soft-state recovery argument).
    pub(crate) fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        // The durable log is the one thing a crash does NOT wipe: it
        // re-opens from storage, losing only the unsynced tail, with the
        // persisted consumer offsets intact. Durable subscribers notice
        // the crash through unacknowledged renewals, re-subscribe, and
        // replay from those offsets.
        if let Some(wal) = self.wal.as_mut() {
            wal.crash_restart();
        }
        self.table = BrokerTable::new(matches!(self.table, BrokerTable::Agg(_)));
        self.recover_durable_streams();
        self.up_refs.clear();
        self.stage_maps.clear();
        self.leases.clear();
        self.parked.clear();
        if self.leases_enabled {
            self.timers_started = true;
            ctx.set_timer(self.ttl, TAG_SWEEP);
            ctx.set_timer(self.ttl, TAG_RENEW);
        } else {
            self.timers_started = false;
        }
        if let Some(parent) = self.parent {
            ctx.send(parent, OverlayMsg::Rejoin);
        }
        for child in &self.children {
            ctx.send(*child, OverlayMsg::Rejoin);
        }
    }

    /// Re-sends every weakened filter the parent should hold for this node
    /// (in a deterministic order, so fault-injection RNG streams line up
    /// across identically-seeded runs).
    fn reannounce_to_parent(&mut self, ctx: &mut dyn NodeCtx) {
        let Some(parent) = self.parent else {
            return;
        };
        let mut needs: Vec<Filter> = self.parent_needs().into_iter().collect();
        needs.sort_by_cached_key(|f| format!("{f:?}"));
        for filter in needs {
            ctx.send(
                parent,
                OverlayMsg::ReqInsert {
                    filter,
                    child: ctx.me(),
                },
            );
        }
    }

    /// Sends one event downstream: `Publish` to a child broker, `Deliver`
    /// to a directly-attached subscriber.
    fn transmit(&mut self, to: ActorId, env: Envelope, ctx: &mut dyn NodeCtx) {
        if self.children_set.contains(&to) {
            ctx.send(to, OverlayMsg::Publish(env));
        } else {
            ctx.send(to, OverlayMsg::Deliver(env));
        }
    }

    pub(crate) fn timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        match tag {
            TAG_SWEEP => {
                let now = ctx.now();
                let expired: Vec<DestId> = self
                    .leases
                    .iter()
                    .filter(|(_, &expiry)| expiry <= now)
                    .map(|(&d, _)| d)
                    .collect();
                for dest in expired {
                    self.leases.remove(&dest);
                    self.parked.remove(&dest);
                    self.drop_durable_consumer(dest);
                    // Remove filter by filter so that weakened forms the
                    // node no longer needs are withdrawn from the parent
                    // (the per-filter granularity of the paper's renewals).
                    let filters: Vec<Filter> = self.table.filters_for(dest).cloned().collect();
                    for f in filters {
                        self.remove_with_upstream(&f, dest, ctx);
                    }
                }
                self.durable_anti_entropy(ctx);
                ctx.set_timer(self.ttl, TAG_SWEEP);
            }
            TAG_RENEW => {
                if let Some(parent) = self.parent {
                    if !self.table.is_empty() {
                        ctx.send(parent, OverlayMsg::Renew);
                    }
                }
                ctx.set_timer(self.ttl, TAG_RENEW);
            }
            _ => debug_assert!(false, "unknown broker timer tag {tag}"),
        }
    }

    fn maybe_start_timers(&mut self, ctx: &mut dyn NodeCtx) {
        if self.leases_enabled && !self.timers_started {
            self.timers_started = true;
            ctx.set_timer(self.ttl, TAG_SWEEP);
            ctx.set_timer(self.ttl, TAG_RENEW);
        }
    }

    /// Figure 5(b): place a subscription request at this node or redirect
    /// the subscriber to a child.
    fn place_subscription(&mut self, req: SubscriptionReq, ctx: &mut dyn NodeCtx) {
        if self.stage == 1 {
            self.insert_subscriber(req, ctx);
            return;
        }
        // 1. Wildcard handling (Section 4.4/4.5): anchor subscriptions with
        //    unspecified attributes at the stage just above the topmost
        //    stage still using their most general wildcarded attribute.
        //    This check precedes the similarity search — otherwise a
        //    covering filter at the anchor node would redirect the
        //    subscription down to a stage-1 node, exactly the overload
        //    Section 4.4 warns about.
        if self.wildcard_stage_placement {
            if let Some(top) = self.wildcard_top_stage(&req.filter) {
                if self.stage == top + 1 || (self.is_root() && self.stage <= top + 1) {
                    self.insert_subscriber(req, ctx);
                    return;
                }
            }
        }
        // 2. Similarity search: redirect towards the strongest covering
        //    filter already stored here (Section 4.2).
        if self.placement == PlacementPolicy::Similarity {
            let target =
                self.table
                    .find_cover(&req.filter, &self.registry)
                    .and_then(|(_, dests)| {
                        dests
                            .iter()
                            .map(|d| actor_of(*d))
                            .find(|a| self.children_set.contains(a))
                    });
            if let Some(node) = target {
                ctx.send(req.subscriber, OverlayMsg::JoinAt { req, node });
                return;
            }
        }
        // 3. Fall back to a random child. A broker with no children (a
        //    degenerate topology, or one mid-reconfiguration) hosts the
        //    subscription itself instead of panicking on the empty range.
        let Some(&node) = self
            .children
            .get(self.rng.gen_range(0..self.children.len().max(1)))
        else {
            self.insert_subscriber(req, ctx);
            return;
        };
        ctx.send(req.subscriber, OverlayMsg::JoinAt { req, node });
    }

    /// For a wildcard subscription, the topmost stage `j` at which its most
    /// general wildcarded attribute is still used (HANDLE-WILDCARD-SUBS).
    fn wildcard_top_stage(&self, filter: &Filter) -> Option<usize> {
        let class_id = filter.class()?;
        let class = self.registry.class(class_id)?;
        let g = self.stage_maps.get(&class_id)?;
        let attr_mg = filter
            .wildcard_constraints()
            .filter_map(|c| class.attr_index(c.name()))
            .min()?;
        g.top_stage_using(attr_mg)
    }

    /// Stores a `<filter, dest>` pair (already weakened to this stage) and
    /// sends the parent whatever announcements the insertion requires. `up`
    /// is the parent-stage form the per-subscription path announces when a
    /// new entry appears; the aggregated path ignores it and derives
    /// announcements from the forest's live-entry delta instead, so a
    /// covered insert stays entirely local to this broker.
    fn insert_with_upstream(
        &mut self,
        filter: Filter,
        up: Filter,
        dest: DestId,
        ctx: &mut dyn NodeCtx,
    ) {
        let created = match &mut self.table {
            BrokerTable::Agg(table) => {
                let delta = table.insert(filter, dest, &self.registry);
                self.apply_agg_delta(delta, ctx);
                return;
            }
            BrokerTable::Plain(table) => table.insert(filter, dest),
        };
        if created {
            if let Some(parent) = self.parent {
                ctx.send(
                    parent,
                    OverlayMsg::ReqInsert {
                        filter: up,
                        child: ctx.me(),
                    },
                );
            }
        }
    }

    /// Applies a live-entry delta from the aggregated table to the
    /// refcounted upstream view: newly-live roots are announced to the
    /// parent, roots that lost their live entry are withdrawn. Additions
    /// are processed *before* removals — when one operation promotes one
    /// root and demotes another that weakens to the same upstream form,
    /// the refcount dips through the insert, never through a coverage gap.
    fn apply_agg_delta(&mut self, delta: AggDelta, ctx: &mut dyn NodeCtx) {
        let Some(parent) = self.parent else {
            return;
        };
        for f in delta.added {
            let up = self.weaken(&f, self.stage + 1).normalized();
            let count = self.up_refs.entry(up.clone()).or_insert(0);
            *count += 1;
            if *count == 1 {
                ctx.send(
                    parent,
                    OverlayMsg::ReqInsert {
                        filter: up,
                        child: ctx.me(),
                    },
                );
            }
        }
        for f in delta.removed {
            let up = self.weaken(&f, self.stage + 1).normalized();
            match self.up_refs.get_mut(&up) {
                Some(count) if *count > 1 => *count -= 1,
                Some(_) => {
                    self.up_refs.remove(&up);
                    ctx.send(
                        parent,
                        OverlayMsg::ReqRemove {
                            filter: up,
                            child: ctx.me(),
                        },
                    );
                }
                None => debug_assert!(false, "withdrawn upstream filter was never announced"),
            }
        }
    }

    /// INSERT-SUBSCRIBER: store the subscription (weakened to this stage)
    /// for the subscriber, acknowledge, and propagate a further weakened
    /// filter to the parent.
    fn insert_subscriber(&mut self, req: SubscriptionReq, ctx: &mut dyn NodeCtx) {
        let weakened = self.weaken(&req.filter, self.stage);
        let dest = dest_of(req.subscriber);
        // Propagate upward *before* acknowledging: the ack is what
        // releases a blocked `add_subscriber` caller, so the weakened
        // filter must already be enqueued at the parent when the caller
        // wakes — otherwise an immediate publish can overtake the
        // req-Insert into the parent's inbox and miss this subscription.
        let up = self.weaken(&req.filter, self.stage + 1);
        self.insert_with_upstream(weakened, up, dest, ctx);
        self.leases.insert(dest, ctx.now() + self.ttl * 3);
        // A durable subscription registers a per-class consumer offset in
        // the log and replays the gap past it. A first-time registration
        // starts at the tail (empty replay); a re-subscription — after a
        // lost renewal, or after this broker crashed and restarted with
        // nothing but its log — finds its persisted offset and replays
        // the unacknowledged suffix. Durability needs a class to key the
        // offsets; class-less (pure wildcard) subscriptions fall back to
        // the volatile path. The registration is queued before the
        // acknowledgement goes out, so a caller woken by it can wait for
        // it to be durable.
        let durable = req.filter.class().filter(|_| req.durable);
        if let (Some(wal), Some(class)) = (self.wal.as_mut(), durable) {
            wal.register_consumer(dest, class);
        }
        ctx.send(
            req.subscriber,
            OverlayMsg::AcceptedAt {
                id: req.id,
                node: ctx.me(),
            },
        );
        if let Some(class) = durable.filter(|_| self.wal.is_some()) {
            self.open_durable_stream(dest, class, true, ctx);
        }
    }

    /// "Upon Receiving req-Insert": store a child's weakened filter and
    /// propagate upward unless it collapsed into an existing entry.
    fn insert_child_filter(&mut self, filter: Filter, child: ActorId, ctx: &mut dyn NodeCtx) {
        let dest = dest_of(child);
        let up = self.weaken(&filter, self.stage + 1);
        self.insert_with_upstream(filter, up, dest, ctx);
        self.leases.insert(dest, ctx.now() + self.ttl * 3);
    }

    /// Figure 6: evaluate the event against every stored filter and forward
    /// to the associated children (or deliver to directly-attached
    /// subscribers). Bandwidth is accounted at the arrival site, so parked
    /// and duplicate-suppressed events still count their bytes.
    fn forward_event(&mut self, from: ActorId, env: &Envelope, ctx: &mut dyn NodeCtx) {
        self.received += 1;
        self.evaluations += self.table.filter_count() as u64;
        let mut dests = std::mem::take(&mut self.scratch);
        self.table
            .matches(env.class(), env.meta(), &self.registry, &mut dests);
        if !dests.is_empty() {
            self.matched += 1;
        }
        // Sampled tracing: unsampled envelopes carry no context, so this
        // costs one `Option` check on the hot path.
        if let Some(tc) = env.trace() {
            if let Some(sink) = &self.trace {
                let now = ctx.trace_now();
                sink.record_hop(
                    &tc,
                    HopRecord {
                        node: self.label.clone(),
                        node_id: trace_actor(ctx.me()),
                        from_id: trace_actor(from),
                        stage: self.stage,
                        shard: ctx.shard(),
                        arrival: SimTime::from_ticks(now),
                        hop_latency: now.saturating_sub(tc.last_hop_at),
                        verdict: if dests.is_empty() {
                            HopVerdict::NoMatch
                        } else {
                            HopVerdict::Forwarded {
                                dests: dests.len() as u32,
                            }
                        },
                    },
                );
            }
        }
        // Durable path. The log holds what this broker owes someone: the
        // event is appended, ONCE, only when a durable consumer of its
        // class is among `dests` (a parked one keeps its table entries,
        // so it counts) or is `unfiltered`; an event no durable consumer
        // wants is not logged at all. Each stream that is caught up then
        // decides the stamped offset: sent to the consumer if it is
        // owed, attached and inside its in-flight window, passed over if
        // its filters reject it. A stream that cannot take an owed
        // record now falls behind, and `durable_catch_up` pages it out
        // of the log when acks (or a re-attach) make room — it scans
        // from `scanned`, so a stream already behind is left alone here.
        // Durable deliveries are not `Publish`/`Deliver`, so a simulated
        // link layer passes them by — loss is repaired by offset replay
        // instead of NACKs. Matching here is as weak as this stage's
        // table; the consumer finishes with its own perfect filtering,
        // exactly like any stage-0 subscriber.
        let class = env.class();
        if let Some(wal) = self.wal.as_mut() {
            let streams = (class.0, 0)..=(class.0, u64::MAX);
            let owed = |dest: u64, stream: &DurableStream| {
                stream.unfiltered || dests.contains(&DestId(dest))
            };
            if self
                .durable
                .range(streams.clone())
                .any(|(&(_, dest), stream)| owed(dest, stream))
            {
                let append_timer = ctx.stage_sampled().then(std::time::Instant::now);
                let off = wal.append(env);
                if let Some(t0) = append_timer {
                    ctx.record_stage(
                        PipelineStage::WalAppend,
                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                let (mut sent, mut skipped) = (0, 0);
                for (&(_, dest), stream) in self.durable.range_mut(streams) {
                    if stream.scanned + 1 != off {
                        continue;
                    }
                    let to = DestId(dest);
                    if !owed(dest, stream) {
                        stream.scanned = off;
                        skipped += 1;
                        stream.settle_ack(wal, to, class);
                    } else if stream.in_flight.len() < DURABLE_WINDOW
                        && !self.parked.contains_key(&to)
                    {
                        stream.send(to, off, env.clone(), ctx);
                        sent += 1;
                    }
                }
                wal.note_streamed(sent, skipped);
            }
        }
        for dest in &dests {
            // Durable consumers of this class were served from the log
            // above; sending the volatile copy too would only burn the
            // dedup window.
            if self
                .wal
                .as_ref()
                .is_some_and(|w| w.is_class_consumer(*dest, class))
            {
                continue;
            }
            let mut fwd = env.clone();
            fwd.touch_trace(ctx.trace_now());
            if let Some(buffer) = self.parked.get_mut(dest) {
                buffer.push(fwd);
                continue;
            }
            self.transmit(actor_of(*dest), fwd, ctx);
        }
        dests.clear();
        self.scratch = dests;
    }

    /// Re-opens every durable stream the broker's recovered log holds
    /// consumer offsets for — the restart-reattach seam drivers use
    /// after rebuilding this broker's volatile state over an existing
    /// log directory (e.g. the runtime supervisor replacing a crashed
    /// matcher shard in place). Each consumer's streams restart with a
    /// `DurableBase` at the persisted acknowledged offset, so subscriber
    /// contiguity cursors rebase before any fresh deliveries flow; the
    /// re-sent unacknowledged suffix is replay the `(class, seq)` dedup
    /// absorbs. Consumers are visited in deterministic id order. A no-op
    /// on volatile brokers.
    pub fn reopen_durable_streams(&mut self, ctx: &mut dyn NodeCtx) {
        let mut dests = match self.wal.as_ref() {
            Some(wal) => wal.consumer_dests(),
            None => return,
        };
        dests.sort_unstable_by_key(|d| d.0);
        for dest in dests {
            self.replay_to(actor_of(dest), ctx);
        }
    }

    /// Restarts every durable stream a consumer holds offsets for (used
    /// on re-attach, and on a subscriber-requested gap repair).
    fn replay_to(&mut self, subscriber: ActorId, ctx: &mut dyn NodeCtx) {
        let dest = dest_of(subscriber);
        let classes = match self.wal.as_ref() {
            Some(wal) => wal.consumer_classes(dest),
            None => return,
        };
        for class in classes {
            self.open_durable_stream(dest, class, false, ctx);
        }
    }

    /// (Re)opens one durable stream at the consumer's acknowledged
    /// offset: the `DurableBase` seeds the subscriber's cursor, then the
    /// first in-flight window of what the consumer is owed past it goes
    /// out (acks pull the rest). Everything logged before this moment is
    /// history: the catch-up sends up to the current tail were (or could
    /// have been) sent before and count as replays, not as deferred
    /// first deliveries. `subscribed` says the consumer's filter has
    /// just gone into the table; otherwise the stream stays as filtered
    /// as it was.
    fn open_durable_stream(
        &mut self,
        dest: DestId,
        class: ClassId,
        subscribed: bool,
        ctx: &mut dyn NodeCtx,
    ) {
        let Some(wal) = self.wal.as_ref() else {
            return;
        };
        let acked = wal.acked_upto(dest, class);
        ctx.send(
            actor_of(dest),
            OverlayMsg::DurableBase { class, base: acked },
        );
        let key = (class.0, dest.0);
        let old = self.durable.get(&key);
        let mut stream = DurableStream::open(
            acked,
            wal.tail_off(class),
            !subscribed && old.is_none_or(|old| old.unfiltered),
        );
        // The sweep's memory outlives the restart, or a stream it keeps
        // restarting would never look stalled twice in a row.
        stream.sweep_acked = old.and_then(|old| old.sweep_acked);
        self.durable.insert(key, stream);
        self.durable_catch_up(dest, class, ctx);
    }

    /// Sends the next stretch of one durable stream out of the log: from
    /// the last record decided, window after window, the records the
    /// table matches for this consumer — until the in-flight window is
    /// full or the tail is reached, so a stretch that matched nothing
    /// never leaves the stream waiting for an ack that is not coming.
    /// Called when a stream (re)starts and whenever an acknowledgement
    /// frees window room, so a consumer drains its backlog at its own
    /// acknowledged pace with the log as the buffer.
    fn durable_catch_up(&mut self, dest: DestId, class: ClassId, ctx: &mut dyn NodeCtx) {
        if self.parked.contains_key(&dest) {
            return;
        }
        let (Some(wal), Some(stream)) =
            (self.wal.as_mut(), self.durable.get_mut(&(class.0, dest.0)))
        else {
            return;
        };
        stream.note_acked(wal.acked_upto(dest, class));
        let tail = wal.tail_off(class);
        let mut matched = std::mem::take(&mut self.scratch);
        let (mut sent, mut skipped, mut replayed) = (0u64, 0u64, 0u64);
        while stream.scanned < tail && stream.in_flight.len() < DURABLE_WINDOW {
            // Read as many records as should fill the window at the
            // density this call has seen so far: a consumer matching one
            // record in four reads four windows' worth in one go, not in
            // ever smaller ones. Reading is all that is speculative —
            // decoding stops at the delivery that fills the window.
            let room = (DURABLE_WINDOW - stream.in_flight.len()) as u64;
            let page = (room * (sent + skipped).max(1) / sent.max(1)).min(DURABLE_PAGE_MAX);
            let at_tail = wal.replay_scan(class, stream.scanned, page as usize, |off, env| {
                let owed = stream.unfiltered || {
                    matched.clear();
                    self.table
                        .matches(class, env.meta(), &self.registry, &mut matched);
                    matched.contains(&dest)
                };
                if !owed {
                    stream.scanned = off;
                    skipped += 1;
                    return true;
                }
                // Only records the stream had already passed when it was
                // last (re)opened count as replays; the rest is backlog
                // the window deferred, now going out for the first time.
                replayed += u64::from(off <= stream.replay_hwm);
                stream.send(dest, off, env, ctx);
                sent += 1;
                stream.in_flight.len() < DURABLE_WINDOW
            });
            if at_tail {
                // Records damaged since open are left out of a scan, and
                // passed over with the rest.
                stream.scanned = tail;
            }
        }
        matched.clear();
        self.scratch = matched;
        wal.note_streamed(sent, skipped);
        wal.note_replayed(replayed);
        stream.settle_ack(wal, dest, class);
    }

    /// Lease-cadence anti-entropy for durable streams: an attached
    /// consumer whose acknowledged offset sat still below the log tail
    /// for a whole sweep interval has lost deliveries or acks on the
    /// lossy durable path (e.g. the *last* event of a burst was
    /// dropped, which no later arrival can expose as a gap). Restart the
    /// stream from the acknowledged offset; the subscriber's cursor and
    /// `(class, seq)` dedup absorb anything re-sent by a false positive.
    /// An idle stream is not one: with nothing in flight its ack already
    /// sits at the tail.
    fn durable_anti_entropy(&mut self, ctx: &mut dyn NodeCtx) {
        let Some(wal) = self.wal.as_ref() else {
            return;
        };
        let mut stalled: Vec<(DestId, ClassId)> = Vec::new();
        for (&(class, dest), stream) in &mut self.durable {
            let (dest, class) = (DestId(dest), ClassId(class));
            let acked = wal.acked_upto(dest, class);
            if acked < wal.tail_off(class)
                && stream.sweep_acked == Some(acked)
                && !self.parked.contains_key(&dest)
            {
                stalled.push((dest, class));
            }
            stream.sweep_acked = Some(acked);
        }
        for (dest, class) in stalled {
            self.open_durable_stream(dest, class, false, ctx);
        }
    }

    /// Removes a `<filter, dest>` pair and tells the parent about any
    /// weakened filter this node no longer needs because of it.
    fn remove_with_upstream(
        &mut self,
        filter: &Filter,
        dest: DestId,
        ctx: &mut dyn NodeCtx,
    ) -> bool {
        if let BrokerTable::Agg(table) = &mut self.table {
            let delta = table.remove(filter, dest, &self.registry);
            let removed = delta.changed;
            self.apply_agg_delta(delta, ctx);
            return removed;
        }
        let before = self.parent_needs();
        let BrokerTable::Plain(table) = &mut self.table else {
            unreachable!()
        };
        let removed = table.remove(filter, dest);
        if removed {
            if let Some(parent) = self.parent {
                let after = self.parent_needs();
                for gone in before.difference(&after) {
                    ctx.send(
                        parent,
                        OverlayMsg::ReqRemove {
                            filter: gone.clone(),
                            child: ctx.me(),
                        },
                    );
                }
            }
        }
        removed
    }

    /// The set of parent-stage weakened filters this node's table requires
    /// (normalized for set comparison). In aggregation mode this is the
    /// refcounted upstream view — one form per announced live root.
    fn parent_needs(&self) -> std::collections::HashSet<Filter> {
        if self.parent.is_none() {
            return std::collections::HashSet::new();
        }
        match &self.table {
            BrokerTable::Plain(table) => table
                .iter()
                .map(|(f, _)| self.weaken(f, self.stage + 1).normalized())
                .collect(),
            BrokerTable::Agg(_) => self.up_refs.keys().cloned().collect(),
        }
    }

    /// Weakens a filter to the format of `stage`, using the class's
    /// advertised stage map. Without an advertisement the filter passes
    /// through unweakened (still sound: any filter covers itself).
    fn weaken(&self, filter: &Filter, stage: usize) -> Filter {
        let Some(class_id) = filter.class() else {
            return filter.clone();
        };
        let (Some(class), Some(g)) = (
            self.registry.class(class_id),
            self.stage_maps.get(&class_id),
        ) else {
            return filter.clone();
        };
        weaken_to_stage(filter, class, g, stage)
    }
}
