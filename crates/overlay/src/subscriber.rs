//! The subscriber runtime: perfect end-to-end filtering at stage 0.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use layercake_event::{ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::{DestId, Filter, FilterId, FilterTable};
use layercake_metrics::NodeRecord;
use layercake_sim::{ActorId, SimDuration, SimTime};
use layercake_trace::{HopRecord, HopVerdict, TraceSink};

use crate::ctx::NodeCtx;
use crate::msg::{OverlayMsg, SubscriptionReq};

/// Timer tag: renew the subscription lease at the hosting node.
const TAG_RENEW: u64 = 3;
/// Timer tag: flush batched durable acks once the streams go quiet (and
/// re-request stalled replays). One-shot, armed while durable progress
/// is unacknowledged.
const TAG_ACK_FLUSH: u64 = 4;
/// Timer tag base: re-subscription backoff check for branch
/// `tag - TAG_RESUB_BASE` (one tag per branch).
const TAG_RESUB_BASE: u64 = 1_000;
/// Cap on the re-subscription backoff exponent (`ttl × 2^attempt`).
const MAX_BACKOFF_EXP: u32 = 5;
/// Durable-ack batching: acknowledge after this many deliveries have
/// advanced the contiguity cursor since the last ack (the flush timer
/// covers the remainder), instead of one `AckUpto` per delivery.
/// Counted in deliveries, not offsets: a filtered stream's offsets are
/// sparse, and its acks should be no more frequent for that.
const ACK_EVERY: u64 = 8;

/// Subscriber-side state of one durable stream (one class at one host).
#[derive(Debug, Default)]
struct DurableRx {
    /// Offset of the last delivery received *in chain* — the only value
    /// ever acknowledged. Seeded by the host's `DurableBase` (`None`
    /// until one arrives); a delivery whose `prev` lies beyond it
    /// exposes a lost predecessor and never advances it, so the broker
    /// can never compact a record this subscriber is owed and has not
    /// received.
    cursor: Option<u64>,
    /// Last offset actually acknowledged (acks are batched).
    acked: u64,
    /// Deliveries that advanced the cursor since the last ack.
    unacked: u64,
    /// A hole was detected and a replay requested at this cursor
    /// position — one `Attach` per hole, not one per out-of-order
    /// arrival; the flush timer re-requests if the stream stays
    /// stalled.
    repair: Option<u64>,
}

/// A stateful subscriber-side predicate that brokers cannot evaluate —
/// the paper's arbitrary filter code (e.g. `BuyFilter`), applied only at
/// the subscriber runtime after the declarative filter passed.
pub trait ResidualFilter: Send {
    /// Evaluates the residual predicate; may mutate internal state.
    fn matches(&mut self, env: &Envelope) -> bool;
}

impl<F: FnMut(&Envelope) -> bool + Send> ResidualFilter for F {
    fn matches(&mut self, env: &Envelope) -> bool {
        self(env)
    }
}

/// One routed branch of a subscription: a standardized conjunction filter
/// plus the node hosting it once placement completed.
#[derive(Debug, Clone)]
pub struct Branch {
    id: FilterId,
    filter: Filter,
    host: Option<ActorId>,
}

impl Branch {
    /// The branch's filter id.
    #[must_use]
    pub fn id(&self) -> FilterId {
        self.id
    }

    /// The standardized branch filter.
    #[must_use]
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// The hosting node, once placed.
    #[must_use]
    pub fn host(&self) -> Option<ActorId> {
        self.host
    }
}

/// A stage-0 subscriber runtime.
///
/// The subscriber drives its own placement (re-sending the subscription on
/// every `join-At` redirect, per Figure 5(a)), applies the *original*
/// filter — declarative part plus optional residual — to every delivered
/// event, and renews its lease while active.
///
/// A subscription may consist of several *branches* (a disjunction of
/// conjunction filters — the "conjunctions/disjunctions" expressiveness
/// level of the paper's Figure 2). Each branch is routed and hosted
/// independently; the subscriber deduplicates events that arrive via more
/// than one branch, so delivery stays exactly-once.
pub struct SubscriberNode {
    label: String,
    branches: Vec<Branch>,
    /// The branch filters again, as the table a broker would keep them in:
    /// "does any branch match" is then one index lookup per delivery, not a
    /// scan of the branches.
    table: FilterTable,
    /// Branches still without a host.
    unplaced: usize,
    residual: Option<Box<dyn ResidualFilter>>,
    registry: Arc<TypeRegistry>,
    root: ActorId,
    leases_enabled: bool,
    ttl: SimDuration,
    active: bool,
    timer_started: bool,
    redirects: u32,
    received: u64,
    matched: u64,
    bytes_received: u64,
    deliveries: Vec<EventSeq>,
    seen: std::collections::HashSet<EventSeq>,
    store_envelopes: bool,
    inbox: Vec<Envelope>,
    /// Hosts renewed since the last renewal timer, still unacknowledged.
    unacked: Vec<ActorId>,
    /// Per-branch re-subscription attempt counters (reset on acceptance).
    resub_attempts: Vec<u32>,
    resubscriptions: u64,
    /// Shared trace collector; `None` when tracing is disabled for the run.
    trace: Option<Arc<TraceSink>>,
    /// Whether this subscription is durable: the hosting broker logs the
    /// matched classes and replays past the last acknowledged offset on
    /// re-subscription, so broker crashes lose no accepted history.
    durable: bool,
    /// Events received over the durable replay/delivery path.
    durable_received: u64,
    /// Durable stream state per `(host, class)`.
    durable_rx: HashMap<(ActorId, u32), DurableRx>,
    ack_timer_armed: bool,
    /// When an event was last delivered for the first time. The ack-flush
    /// timer waits for a `ttl` without one; re-sent history does not
    /// count, or a host restarting a stream every sweep would hold its
    /// own acks off forever.
    last_delivery_at: SimTime,
    /// Replay requests sent after detecting a hole in a durable stream.
    gap_repairs: u64,
}

impl fmt::Debug for SubscriberNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubscriberNode")
            .field("label", &self.label)
            .field("branches", &self.branches)
            .field("has_residual", &self.residual.is_some())
            .field("received", &self.received)
            .field("matched", &self.matched)
            .finish_non_exhaustive()
    }
}

/// Construction parameters for a [`SubscriberNode`] (mirrors the broker's
/// setup struct to keep the constructor signature flat).
pub(crate) struct SubscriberSetup {
    pub label: String,
    pub branches: Vec<(FilterId, Filter)>,
    pub residual: Option<Box<dyn ResidualFilter>>,
    pub registry: Arc<TypeRegistry>,
    pub root: ActorId,
    pub leases_enabled: bool,
    pub ttl: SimDuration,
    pub trace: Option<Arc<TraceSink>>,
    pub durable: bool,
}

impl SubscriberNode {
    pub(crate) fn new(setup: SubscriberSetup) -> Self {
        let SubscriberSetup {
            label,
            branches,
            residual,
            registry,
            root,
            leases_enabled,
            ttl,
            trace,
            durable,
        } = setup;
        debug_assert!(
            !branches.is_empty(),
            "a subscription needs at least one branch"
        );
        let branch_count = branches.len();
        let mut table = FilterTable::default();
        for (_, filter) in &branches {
            // Only "does any branch match" is ever asked, so every branch
            // stands for the same destination: the subscriber.
            table.insert(filter.clone(), DestId(0));
        }
        Self {
            label,
            table,
            unplaced: branch_count,
            branches: branches
                .into_iter()
                .map(|(id, filter)| Branch {
                    id,
                    filter,
                    host: None,
                })
                .collect(),
            residual,
            registry,
            root,
            leases_enabled,
            ttl,
            active: true,
            timer_started: false,
            redirects: 0,
            received: 0,
            matched: 0,
            bytes_received: 0,
            deliveries: Vec::new(),
            seen: std::collections::HashSet::new(),
            store_envelopes: false,
            inbox: Vec::new(),
            unacked: Vec::new(),
            resub_attempts: vec![0; branch_count],
            resubscriptions: 0,
            trace,
            durable,
            durable_received: 0,
            durable_rx: HashMap::new(),
            ack_timer_armed: false,
            last_delivery_at: SimTime::ZERO,
            gap_repairs: 0,
        }
    }

    /// Whether this subscription was created durable.
    #[must_use]
    pub fn is_durable(&self) -> bool {
        self.durable
    }

    /// Events that arrived over the durable delivery/replay path.
    #[must_use]
    pub fn durable_received(&self) -> u64 {
        self.durable_received
    }

    /// Replay requests this subscriber issued after detecting a hole in
    /// a durable stream (a delivery was lost in flight).
    #[must_use]
    pub fn gap_repairs(&self) -> u64 {
        self.gap_repairs
    }

    /// The offset of the last durable delivery received in chain from
    /// `host` for `class` — what the subscriber acknowledges (test
    /// introspection).
    #[must_use]
    pub fn durable_cursor(&self, host: ActorId, class: ClassId) -> Option<u64> {
        self.durable_rx.get(&(host, class.0))?.cursor
    }

    /// Every durable stream's contiguous cursor: `(host, class, cursor)`,
    /// sorted for determinism. This is exactly what the subscriber is
    /// entitled to acknowledge; drivers drain it at graceful shutdown to
    /// persist acks still waiting on the batch threshold or flush timer.
    #[must_use]
    pub fn durable_cursors(&self) -> Vec<(ActorId, ClassId, u64)> {
        let mut out: Vec<(ActorId, ClassId, u64)> = self
            .durable_rx
            .iter()
            .filter_map(|(&(host, class), rx)| Some((host, ClassId(class), rx.cursor?)))
            .collect();
        out.sort_unstable_by_key(|&(host, class, _)| (host.0, class.0));
        out
    }

    /// Enables buffering of accepted envelopes for later draining with
    /// [`SubscriberNode::take_inbox`] (used by the typed facade).
    pub fn set_store_envelopes(&mut self, store: bool) {
        self.store_envelopes = store;
    }

    /// Drains the buffered envelopes accepted since the last call.
    pub fn take_inbox(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.inbox)
    }

    /// The buffered envelopes accepted so far, without draining them.
    #[must_use]
    pub fn inbox(&self) -> &[Envelope] {
        &self.inbox
    }

    /// The subscriber's display label, e.g. `"sub-0005"`.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The subscription id (of the first branch).
    #[must_use]
    pub fn id(&self) -> FilterId {
        self.branches[0].id
    }

    /// The standardized subscription filter (of the first branch).
    #[must_use]
    pub fn filter(&self) -> &Filter {
        &self.branches[0].filter
    }

    /// All branches of this subscription.
    #[must_use]
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    /// The stage-1 (or higher, for wildcard subscriptions) node hosting the
    /// first branch, once placement completed.
    #[must_use]
    pub fn host(&self) -> Option<ActorId> {
        self.branches[0].host
    }

    /// Whether every branch has completed placement.
    #[must_use]
    pub fn fully_placed(&self) -> bool {
        self.unplaced == 0
    }

    /// Number of branches currently hosted.
    #[must_use]
    pub fn placed_branches(&self) -> usize {
        self.branches.len() - self.unplaced
    }

    /// Number of `join-At` redirects the placement walk took.
    #[must_use]
    pub fn redirects(&self) -> u32 {
        self.redirects
    }

    /// Sequence numbers of events that passed the full original filter.
    #[must_use]
    pub fn deliveries(&self) -> &[EventSeq] {
        &self.deliveries
    }

    /// Stops renewing the lease: the soft-state unsubscription of
    /// Section 4.3.
    pub fn deactivate(&mut self) {
        self.active = false;
    }

    /// The subscriber's counters as a metrics record (stage 0). Every
    /// delivered event is evaluated against each branch of the original
    /// subscription.
    #[must_use]
    pub fn record(&self) -> NodeRecord {
        NodeRecord {
            node: self.label.clone(),
            stage: 0,
            filters: self.branches.len(),
            received: self.received,
            matched: self.matched,
            evaluations: self.received * self.branches.len() as u64,
            bytes_received: self.bytes_received,
        }
    }

    /// Re-subscriptions issued after a host stopped acknowledging renewals.
    #[must_use]
    pub fn resubscriptions(&self) -> u64 {
        self.resubscriptions
    }

    pub(crate) fn handle(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        match msg {
            OverlayMsg::JoinAt { req, node } => {
                self.redirects += 1;
                ctx.send(node, OverlayMsg::Subscribe(req));
            }
            OverlayMsg::AcceptedAt { id, node } => {
                // A stale acceptance (e.g. a duplicated message from a
                // placement walk restarted since) names no current branch;
                // ignore it rather than panic.
                let Some(branch_idx) = self.branches.iter().position(|b| b.id == id) else {
                    return;
                };
                if self.branches[branch_idx].host.replace(node).is_none() {
                    self.unplaced -= 1;
                }
                self.resub_attempts[branch_idx] = 0;
                if self.leases_enabled && !self.timer_started {
                    self.timer_started = true;
                    ctx.set_timer(self.ttl, TAG_RENEW);
                }
            }
            OverlayMsg::Deliver(env) => {
                self.bytes_received += env.wire_size() as u64;
                self.accept(from, env, ctx);
            }
            OverlayMsg::DurableBase { class, base } => {
                // The host (re)opens the durable stream of a class: the
                // next delivery names `base` as its predecessor.
                // Resetting the cursor — downward too — is what keeps
                // acks honest across a broker crash that regressed the
                // log's offsets; re-sent events fall through `(class,
                // seq)` dedup.
                self.durable_rx.insert(
                    (from, class.0),
                    DurableRx {
                        cursor: Some(base),
                        acked: base,
                        ..DurableRx::default()
                    },
                );
            }
            OverlayMsg::Durable { prev, off, env } => {
                // The ack — per class, cumulative — is what advances the
                // broker's persisted offset and unpins log segments, so it
                // must only ever name a delivery received *in chain*:
                // acking across a hole would let compaction delete a
                // record this subscriber never received. The stream is
                // filtered at the broker, so offsets between `prev` and
                // `off` are not holes — they were never owed.
                self.bytes_received += env.wire_size() as u64;
                self.durable_received += 1;
                let class = env.class();
                let key = (from, class.0);
                // Every arm delivers: `(class, seq)` dedup keeps delivery
                // exact whatever the stream's state.
                self.accept(from, env, ctx);
                let rx = self.durable_rx.entry(key).or_default();
                match rx.cursor {
                    // The stream's `DurableBase` never arrived (lost, or
                    // reordered behind this delivery): acknowledge
                    // nothing and ask the host to restart the stream.
                    None => self.request_repair(key, u64::MAX, ctx),
                    Some(cursor) if off <= cursor => {
                        // A duplicate, or a re-send after the host
                        // restarted a stalled stream: re-ack the cursor
                        // immediately — the host resending means it may
                        // have lost our ack.
                        self.ack_cursor(key, ctx);
                    }
                    Some(cursor) if prev <= cursor => {
                        // In chain. Acks are batched: one goes out per
                        // `ACK_EVERY` deliveries, and the flush timer
                        // sweeps up a shorter remainder, so the broker's
                        // persisted offset (and compaction) lags by a
                        // bounded amount only.
                        rx.cursor = Some(off);
                        rx.unacked += 1;
                        rx.repair = None;
                        if rx.unacked >= ACK_EVERY {
                            self.ack_cursor(key, ctx);
                        } else {
                            self.arm_ack_timer(self.ttl, ctx);
                        }
                    }
                    // A hole: the delivery at `prev` (and perhaps more
                    // before it) never arrived. Never ack past it; have
                    // the host replay from our acknowledged offset
                    // instead (the replayed copy of this event dedups).
                    Some(cursor) => self.request_repair(key, cursor, ctx),
                }
            }
            OverlayMsg::RenewAck => {
                self.unacked.retain(|&h| h != from);
            }
            other => {
                debug_assert!(
                    matches!(other, OverlayMsg::Advertise(_)),
                    "unexpected message at subscriber {}: {other:?}",
                    self.label
                );
            }
        }
    }

    /// Acknowledges a stream's cursor, whether or not it moved since the
    /// last ack.
    fn ack_cursor(&mut self, key: (ActorId, u32), ctx: &mut dyn NodeCtx) {
        let Some(rx) = self.durable_rx.get_mut(&key) else {
            return;
        };
        let Some(cursor) = rx.cursor else {
            return;
        };
        rx.acked = cursor;
        rx.unacked = 0;
        ctx.send(
            key.0,
            OverlayMsg::AckUpto {
                class: ClassId(key.1),
                upto: cursor,
            },
        );
    }

    /// Asks a stream's host to restart it: `Attach` makes the host send
    /// a fresh `DurableBase` and replay everything past our acknowledged
    /// offset, filling the hole. One request per cursor position —
    /// further out-of-order arrivals at the same cursor are already
    /// covered by the pending replay; the flush timer re-requests if the
    /// stream stays stalled (the request or its replay got lost too).
    fn request_repair(&mut self, key: (ActorId, u32), cursor: u64, ctx: &mut dyn NodeCtx) {
        let rx = self.durable_rx.entry(key).or_default();
        if rx.repair != Some(cursor) {
            rx.repair = Some(cursor);
            self.gap_repairs += 1;
            ctx.send(
                key.0,
                OverlayMsg::Attach {
                    subscriber: ctx.me(),
                },
            );
        }
        self.arm_ack_timer(self.ttl, ctx);
    }

    fn arm_ack_timer(&mut self, delay: SimDuration, ctx: &mut dyn NodeCtx) {
        if !self.ack_timer_armed {
            self.ack_timer_armed = true;
            ctx.set_timer(delay, TAG_ACK_FLUSH);
        }
    }

    /// The ack-flush timer. Once no new delivery has arrived for a `ttl`
    /// it flushes every pending batched ack; while deliveries flow,
    /// [`ACK_EVERY`] paces the acks and the remainder stays batched, so
    /// an ack trails its cursor by fewer than `ACK_EVERY` deliveries, or
    /// by one `ttl` once the stream stops. Quiet or not, it re-requests
    /// replays for streams still waiting on one, and it re-arms itself
    /// until the flush is done and no repair is outstanding, so a lost
    /// `Attach` (or a lost replay) cannot stall a durable stream forever.
    fn flush_durable_acks(&mut self, ctx: &mut dyn NodeCtx) {
        let due = self.last_delivery_at + self.ttl;
        let quiet = ctx.now() >= due;
        // Deterministic send order: identically-seeded runs must replay
        // byte-identically, and HashMap iteration order is not stable.
        let mut keys: Vec<(ActorId, u32)> = self.durable_rx.keys().copied().collect();
        keys.sort_unstable();
        if quiet {
            for &key in &keys {
                let rx = &self.durable_rx[&key];
                if rx.cursor.is_some_and(|cursor| cursor > rx.acked) {
                    self.ack_cursor(key, ctx);
                }
            }
        }
        let mut stalled = false;
        for key in keys {
            if self.durable_rx[&key].repair.is_some() {
                stalled = true;
                self.gap_repairs += 1;
                ctx.send(
                    key.0,
                    OverlayMsg::Attach {
                        subscriber: ctx.me(),
                    },
                );
            }
        }
        if !quiet {
            self.arm_ack_timer(due - ctx.now(), ctx);
        } else if stalled {
            self.arm_ack_timer(self.ttl, ctx);
        }
    }

    /// Applies the full original filter (declarative branches plus residual)
    /// to one arriving event and records exactly-once deliveries.
    fn accept(&mut self, from: ActorId, env: Envelope, ctx: &mut dyn NodeCtx) {
        self.received += 1;
        let declarative = self
            .table
            .matches_any(env.class(), env.meta(), &self.registry);
        let full = declarative
            && match &mut self.residual {
                Some(r) => r.matches(&env),
                None => true,
            };
        // Stage-0 is where an upstream covering filter's verdict can turn
        // out to have been a false positive: record which part of the
        // original filter decided.
        if let Some(tc) = env.trace() {
            if let Some(sink) = &self.trace {
                let now = ctx.trace_now();
                let verdict = if !declarative {
                    HopVerdict::RejectedByOriginal
                } else if !full {
                    HopVerdict::RejectedByResidual
                } else if self.seen.contains(&env.seq()) {
                    HopVerdict::Duplicate
                } else {
                    HopVerdict::Delivered
                };
                sink.record_hop(
                    &tc,
                    HopRecord {
                        node: self.label.clone(),
                        node_id: crate::broker::trace_actor(ctx.me()),
                        from_id: crate::broker::trace_actor(from),
                        stage: 0,
                        shard: ctx.shard(),
                        arrival: SimTime::from_ticks(now),
                        hop_latency: now.saturating_sub(tc.last_hop_at),
                        verdict,
                    },
                );
            }
        }
        if full {
            self.matched += 1;
            // The same event may arrive once per branch; record it
            // exactly once.
            if self.seen.insert(env.seq()) {
                self.last_delivery_at = ctx.now();
                self.deliveries.push(env.seq());
                if self.store_envelopes {
                    self.inbox.push(env);
                }
            }
        }
    }

    pub(crate) fn timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        if tag >= TAG_RESUB_BASE {
            // A tag minted for a branch that no longer exists (or a
            // corrupted tag) is ignored instead of indexing out of bounds.
            let branch_idx = (tag - TAG_RESUB_BASE) as usize;
            let needs_host = self
                .branches
                .get(branch_idx)
                .is_some_and(|b| b.host.is_none());
            if self.active && needs_host {
                self.resubscribe(branch_idx, ctx);
            }
            return;
        }
        if tag == TAG_ACK_FLUSH {
            self.ack_timer_armed = false;
            self.flush_durable_acks(ctx);
            return;
        }
        debug_assert_eq!(tag, TAG_RENEW);
        if !self.active {
            return;
        }
        // Hosts that never acknowledged the previous renewal have lost our
        // filters (crash): drop them and re-subscribe from the root.
        let mut suspects = std::mem::take(&mut self.unacked);
        suspects.sort_unstable();
        suspects.dedup();
        for host in suspects {
            self.suspect_host(host, ctx);
        }
        let mut renewed: Vec<ActorId> = Vec::new();
        for b in &self.branches {
            if let Some(host) = b.host {
                if !renewed.contains(&host) {
                    ctx.send(host, OverlayMsg::Renew);
                    renewed.push(host);
                }
            }
        }
        self.unacked = renewed;
        ctx.set_timer(self.ttl, TAG_RENEW);
    }

    /// A host stopped acknowledging renewals: forget it (and its link
    /// state) and start the re-subscription walk for every branch it held.
    fn suspect_host(&mut self, host: ActorId, ctx: &mut dyn NodeCtx) {
        ctx.peer_lost(host);
        // Durable stream state for the dead host is stale: the
        // re-subscription's `DurableBase` re-seeds the cursor from the
        // broker's (possibly recovered-and-regressed) offset table.
        self.durable_rx.retain(|&(h, _), _| h != host);
        for i in 0..self.branches.len() {
            if self.branches[i].host == Some(host) {
                self.branches[i].host = None;
                self.unplaced += 1;
                self.resubscribe(i, ctx);
            }
        }
    }

    /// Re-sends one branch's subscription to the root (a fresh placement
    /// walk) and arms an exponentially backed-off retry timer.
    fn resubscribe(&mut self, branch_idx: usize, ctx: &mut dyn NodeCtx) {
        let attempt = self.resub_attempts[branch_idx];
        self.resub_attempts[branch_idx] = attempt.saturating_add(1);
        self.resubscriptions += 1;
        let branch = &self.branches[branch_idx];
        ctx.send(
            self.root,
            OverlayMsg::Subscribe(SubscriptionReq {
                id: branch.id,
                filter: branch.filter.clone(),
                subscriber: ctx.me(),
                durable: self.durable,
            }),
        );
        let backoff = self.ttl * (1u64 << attempt.min(MAX_BACKOFF_EXP));
        ctx.set_timer(backoff, TAG_RESUB_BASE + branch_idx as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::{AttributeDecl, EventData, ValueKind};

    const HOST: ActorId = ActorId(1);
    const ME: ActorId = ActorId(9);

    /// A clock set by hand, and a record of what the node sent and of
    /// the timers it armed, as `(delay, tag)`.
    #[derive(Default)]
    struct Outbox {
        now: u64,
        sent: Vec<(ActorId, OverlayMsg)>,
        timers: Vec<(u64, u64)>,
    }

    impl NodeCtx for Outbox {
        fn now(&self) -> SimTime {
            SimTime::from_ticks(self.now)
        }
        fn me(&self) -> ActorId {
            ME
        }
        fn send(&mut self, to: ActorId, msg: OverlayMsg) {
            self.sent.push((to, msg));
        }
        fn set_timer(&mut self, delay: SimDuration, tag: u64) {
            self.timers.push((delay.ticks(), tag));
        }
    }

    impl Outbox {
        /// The offsets acknowledged since the last call, in order.
        fn take_acks(&mut self) -> Vec<u64> {
            let acks = self
                .sent
                .iter()
                .filter_map(|(_, m)| match m {
                    OverlayMsg::AckUpto { upto, .. } => Some(*upto),
                    _ => None,
                })
                .collect();
            self.sent.clear();
            acks
        }

        fn repairs(&self) -> usize {
            self.sent
                .iter()
                .filter(|(_, m)| matches!(m, OverlayMsg::Attach { .. }))
                .count()
        }
    }

    /// A durable subscriber to every `level` of one class, with its
    /// stream from `HOST` opened at `base`.
    fn subscriber(base: u64) -> (SubscriberNode, ClassId, Outbox) {
        let mut registry = TypeRegistry::new();
        let class = registry
            .register(
                "Sensor",
                None,
                vec![AttributeDecl::new("level", ValueKind::Int)],
            )
            .unwrap();
        let mut node = SubscriberNode::new(SubscriberSetup {
            label: "sub".into(),
            branches: vec![(FilterId(0), Filter::for_class(class).ge("level", 0i64))],
            residual: None,
            registry: Arc::new(registry),
            root: HOST,
            leases_enabled: false,
            ttl: SimDuration::from_ticks(100),
            trace: None,
            durable: true,
        });
        let mut out = Outbox::default();
        node.handle(HOST, OverlayMsg::DurableBase { class, base }, &mut out);
        (node, class, out)
    }

    /// The record at `off` carries sequence number `off`.
    fn durable(class: ClassId, prev: u64, off: u64) -> OverlayMsg {
        let mut meta = EventData::new();
        meta.insert("level", off as i64);
        OverlayMsg::Durable {
            prev,
            off,
            env: Envelope::from_meta(class, "Sensor", EventSeq(off), meta),
        }
    }

    #[test]
    fn a_delivery_chained_to_the_cursor_advances_it_over_unowed_offsets() {
        let (mut node, class, mut out) = subscriber(10);
        // Offsets 11..=13 matched someone else's filter: no hole.
        node.handle(HOST, durable(class, 10, 14), &mut out);
        assert_eq!(node.durable_cursor(HOST, class), Some(14));
        // The broker's `prev` may trail the cursor (its ack ran ahead of
        // a restarted stream's base): still in chain.
        node.handle(HOST, durable(class, 12, 20), &mut out);
        assert_eq!(node.durable_cursor(HOST, class), Some(20));
        assert_eq!(node.deliveries(), &[EventSeq(14), EventSeq(20)]);
        assert_eq!(node.gap_repairs(), 0);
        assert!(out.take_acks().is_empty(), "two deliveries are a batch yet");
    }

    #[test]
    fn a_predecessor_beyond_the_cursor_is_a_hole_and_is_never_acked_past() {
        let (mut node, class, mut out) = subscriber(10);
        // The delivery at 12 was lost; 15 names it as its predecessor.
        node.handle(HOST, durable(class, 12, 15), &mut out);
        assert_eq!(
            node.durable_cursor(HOST, class),
            Some(10),
            "held at the hole"
        );
        assert_eq!(node.deliveries(), &[EventSeq(15)], "delivered all the same");
        assert_eq!(out.repairs(), 1, "the host is asked to restart the stream");
        // More arrivals behind the same hole ride on the pending repair.
        node.handle(HOST, durable(class, 15, 16), &mut out);
        assert_eq!(out.repairs(), 1);
        assert!(out.take_acks().is_empty());
        // The restarted stream replays the hole and what followed; the
        // copies already delivered fall to `(class, seq)` dedup.
        node.handle(HOST, OverlayMsg::DurableBase { class, base: 10 }, &mut out);
        for (prev, off) in [(10, 12), (12, 15), (15, 16)] {
            node.handle(HOST, durable(class, prev, off), &mut out);
        }
        assert_eq!(node.durable_cursor(HOST, class), Some(16));
        assert_eq!(
            node.deliveries(),
            &[EventSeq(15), EventSeq(16), EventSeq(12)]
        );
    }

    #[test]
    fn a_duplicate_is_re_acked_at_the_cursor_at_once() {
        let (mut node, class, mut out) = subscriber(10);
        node.handle(HOST, durable(class, 10, 14), &mut out);
        node.handle(HOST, durable(class, 10, 14), &mut out);
        node.handle(HOST, durable(class, 3, 9), &mut out);
        assert_eq!(node.durable_cursor(HOST, class), Some(14));
        assert_eq!(out.take_acks(), vec![14, 14]);
        assert_eq!(node.deliveries(), &[EventSeq(14), EventSeq(9)]);
    }

    #[test]
    fn a_stale_frame_behind_a_rebased_stream_cannot_move_the_cursor() {
        let (mut node, class, mut out) = subscriber(10);
        node.handle(HOST, durable(class, 10, 14), &mut out);
        // The host crashed, lost its unsynced tail and reopened the
        // stream lower; frames of the old incarnation are still in flight.
        node.handle(HOST, OverlayMsg::DurableBase { class, base: 8 }, &mut out);
        assert_eq!(
            node.durable_cursor(HOST, class),
            Some(8),
            "rebased downward"
        );
        node.handle(HOST, durable(class, 14, 17), &mut out);
        assert_eq!(
            node.durable_cursor(HOST, class),
            Some(8),
            "chained to a delivery this stream never made"
        );
        assert_eq!(out.repairs(), 1);
        node.handle(HOST, durable(class, 5, 8), &mut out);
        assert_eq!(
            out.take_acks(),
            vec![8],
            "at or below the base: a duplicate"
        );
        assert_eq!(node.durable_cursor(HOST, class), Some(8));
    }

    #[test]
    fn a_delivery_on_a_stream_never_opened_asks_for_its_base() {
        let (mut node, class, mut out) = subscriber(0);
        let other = ActorId(2);
        node.handle(other, durable(class, 30, 31), &mut out);
        assert_eq!(node.durable_cursor(other, class), None);
        assert_eq!(node.deliveries(), &[EventSeq(31)]);
        assert_eq!(out.repairs(), 1);
        assert!(out.take_acks().is_empty());
    }

    #[test]
    fn acks_batch_by_deliveries_and_the_timer_flushes_once_quiet() {
        let (mut node, class, mut out) = subscriber(0);
        // A sparse stream: every fourth offset. Eight deliveries make an
        // ack, however many offsets they span.
        let mut prev = 0;
        for off in (4..=32).step_by(4) {
            assert!(out.take_acks().is_empty(), "no ack before delivery {off}");
            node.handle(HOST, durable(class, prev, off), &mut out);
            prev = off;
        }
        assert_eq!(out.take_acks(), vec![32]);
        assert_eq!(out.timers, vec![(100, TAG_ACK_FLUSH)], "armed once");

        // The timer finds a delivery 40 ticks old: the remainder stays
        // batched and the timer comes back when that one is a `ttl` old.
        out.now = 60;
        node.handle(HOST, durable(class, 32, 36), &mut out);
        out.now = 100;
        node.timer(TAG_ACK_FLUSH, &mut out);
        assert!(out.take_acks().is_empty());
        assert_eq!(out.timers.last(), Some(&(60, TAG_ACK_FLUSH)));
        // The host restarts the stream and re-sends history meanwhile:
        // not a new delivery, so the flush comes when it was due.
        out.now = 150;
        node.handle(HOST, OverlayMsg::DurableBase { class, base: 32 }, &mut out);
        node.handle(HOST, durable(class, 32, 36), &mut out);
        out.now = 160;
        node.timer(TAG_ACK_FLUSH, &mut out);
        assert_eq!(out.take_acks(), vec![36]);
        assert_eq!(out.timers.len(), 2, "flushed and quiet: left unarmed");
    }
}
