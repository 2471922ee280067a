//! The simulator's link layer: hop-by-hop reliable sequencing and credit
//! flow control as a property of the *edge*, not of the node.
//!
//! The paper's broker places subscriptions and matches-and-forwards; it
//! assumes its links are reliable and its peers keep up. [`Linked`] wraps
//! any [`Node`] and supplies both assumptions over the fault-injecting
//! simulation substrate ([`layercake_sim::FaultPlan`]) without the node
//! knowing. On the way **out** it intercepts the node's `Publish` /
//! `Deliver` sends, passes them through the downstream's credit window
//! and bounded egress queue (`flow.rs`) — where they may be shed — and
//! stamps them [`LinkMsg::Sequenced`] into the retransmission ring
//! (`reliability.rs`). On the way **in** it consumes the rest of
//! [`LinkMsg`]'s own vocabulary: repairs gaps, suppresses duplicates,
//! grants credit, and hands released envelopes to the node as the plain
//! `Publish` (stage ≥ 1) or `Deliver` (stage 0) it expects. Every
//! [`OverlayMsg`] passes through untouched — durable deliveries too: the
//! log is their buffer and offset replay their repair.
//!
//! This is the experiment baseline of E13 (chaos), E14 (latency) and E15
//! (overload). Only [`with_links`] turns it on; the production overlay
//! never builds a `Linked` node (in the wall-clock runtime per-link state
//! would diverge across matcher shards), and the link vocabulary is not
//! part of the production protocol: [`OverlayMsg`] has no variant for it
//! and the wire no tag.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use layercake_event::{Envelope, TraceContext, TypeRegistry};
use layercake_metrics::{OverloadStats, RunMetrics};
use layercake_overlay::{
    Host, Node, NodeActor, NodeCtx, OverlayConfig, OverlayError, OverlayMsg, OverlaySim,
};
use layercake_sim::{Actor, ActorId, Ctx, SimDuration, SimTime};
use layercake_trace::{HopRecord, HopVerdict, TraceSink};

use crate::flow::{FlowRx, FlowTx, Offer, Queued, Tick};
use crate::reliability::{LinkRx, LinkTx, RxOutcome};

/// Bound, in events, of each link's retransmission ring and `(class,
/// seq)` dedup window; the sender concedes sequence numbers evicted from
/// the ring instead of retransmitting them.
const RELIABILITY_WINDOW: usize = 256;
/// Period, in ticks, of the flow-maintenance timer: a sender stalled on
/// zero credit probes its downstream once per tick, and breaker state
/// advances on the same clock.
const FLOW_TICK: u64 = 32;
/// Consecutive unanswered credit probes before a downstream's circuit
/// breaker trips open.
const BREAKER_FAILURE_THRESHOLD: u32 = 4;
/// Initial backoff, in ticks, of an open breaker before its half-open
/// probe; doubles on every failed recovery attempt (capped at 64×).
const BREAKER_BACKOFF: u64 = 128;
/// Timer tag of the flow-maintenance clock. Armed on demand — only while
/// some egress queue is non-empty or a breaker is mid-recovery — so
/// quiescent overlays still drain fully. Node tags start at 1.
const TAG_FLOW: u64 = 0;

/// What of the link layer a simulation turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Per-link reliable sequencing: gap detection, NACK-driven
    /// retransmission, duplicate suppression. Required for exactly-once
    /// delivery over faulty links.
    pub reliable: bool,
    /// Overload protection: credit-based hop-by-hop backpressure, bounded
    /// egress queues, load shedding (data only — control always bypasses
    /// the queues), and per-downstream circuit breakers.
    pub flow_control: bool,
    /// Bound, in events, of each directed link's egress queue — and the
    /// link's credit window: a sender never has more than this many
    /// unconsumed data messages outstanding toward one downstream.
    pub queue_capacity: usize,
}

impl Default for LinkConfig {
    /// Both mechanisms off (the wrapper is transparent), 64-event queues.
    fn default() -> Self {
        Self {
            reliable: false,
            flow_control: false,
            queue_capacity: 64,
        }
    }
}

impl LinkConfig {
    /// Checks the flow-control bound: a non-zero queue, and under
    /// reliable links one that holds a full retransmission window (NACK
    /// bursts are never shed, so a smaller queue could grow unboundedly).
    ///
    /// # Errors
    ///
    /// [`LinkError::ZeroQueueCapacity`] or
    /// [`LinkError::WindowExceedsQueue`].
    pub fn validate(&self) -> Result<(), LinkError> {
        if self.flow_control && self.queue_capacity == 0 {
            return Err(LinkError::ZeroQueueCapacity);
        }
        if self.flow_control && self.reliable && RELIABILITY_WINDOW > self.queue_capacity {
            return Err(LinkError::WindowExceedsQueue {
                window: RELIABILITY_WINDOW,
                capacity: self.queue_capacity,
            });
        }
        Ok(())
    }
}

/// Why [`with_links`] refused to build an overlay. Every variant names
/// the knob to change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The overlay configuration was rejected.
    Overlay(OverlayError),
    /// Flow control is enabled but the egress queues hold zero events, so
    /// every data message would be shed immediately.
    ZeroQueueCapacity,
    /// The reliable-link retransmission window is larger than the egress
    /// queue, so a single NACK burst could overflow the bounded queue with
    /// unsheddable retransmissions.
    WindowExceedsQueue {
        /// The link layer's retransmission window.
        window: usize,
        /// Configured `queue_capacity`.
        capacity: usize,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overlay(e) => e.fmt(f),
            Self::ZeroQueueCapacity => write!(
                f,
                "flow control is enabled with queue_capacity = 0, which sheds every event; \
                 set `queue_capacity` >= 1 or turn `flow_control` off"
            ),
            Self::WindowExceedsQueue { window, capacity } => write!(
                f,
                "the retransmission window ({window}) exceeds queue_capacity ({capacity}); \
                 retransmissions are never shed, so the bounded egress queue must be able \
                 to hold a full NACK burst — raise `queue_capacity`"
            ),
        }
    }
}

impl Error for LinkError {}

impl From<OverlayError> for LinkError {
    fn from(e: OverlayError) -> Self {
        LinkError::Overlay(e)
    }
}

/// An overlay simulation with every node behind the link layer.
pub type LinkedSim = OverlaySim<Linked<NodeActor>>;

/// Builds the hierarchy with every node, broker or subscriber, behind the
/// link layer: reliable sequencing and/or credit flow control on each
/// hop, as `link` says. With [`LinkConfig::default`] the layer is
/// transparent, and the run equals [`OverlaySim::new`]'s.
///
/// # Errors
///
/// [`LinkConfig::validate`]'s, then [`OverlaySim::try_new`]'s.
pub fn with_links(
    cfg: OverlayConfig,
    link: LinkConfig,
    registry: Arc<TypeRegistry>,
) -> Result<LinkedSim, LinkError> {
    link.validate()?;
    Ok(OverlaySim::hosting(cfg, registry, move |node, trace| {
        let (label, stage) = match &node {
            NodeActor::Broker(b) => (b.label().to_owned(), b.stage()),
            NodeActor::Subscriber(s) => (s.label().to_owned(), 0),
        };
        Linked::new(node, link, label, stage, trace.cloned())
    })?)
}

/// Sets (or clears, with `None`) the per-data-message service time of
/// one broker. A broker with a service time is a finite-capacity
/// server: data messages queue behind its busy clock, which is what
/// makes a stage saturate under overload. Control messages are always
/// free so credit grants and probes never queue behind the backlog
/// they are meant to drain.
pub fn set_broker_service_time(sim: &mut LinkedSim, id: ActorId, per_message: Option<SimDuration>) {
    sim.host_mut(id).set_service_time(per_message);
}

/// What travels between two [`Linked`] nodes: a message of the production
/// protocol, or the link layer's own vocabulary, which no bare node ever
/// sees.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkMsg {
    /// A production message, for the wrapped node.
    Overlay(OverlayMsg),
    /// An event under per-link reliable sequencing (what a `Publish` or
    /// `Deliver` travels as on a link with [`LinkConfig::reliable`] set).
    Sequenced {
        /// The sender's sequence number for this `(sender, receiver)` link.
        link_seq: u64,
        /// The event itself.
        env: Envelope,
    },
    /// The receiver of a reliable link detected a gap: it asks the sender
    /// to retransmit link sequence numbers in `from_seq..to_seq`.
    Nack {
        /// First missing link sequence number.
        from_seq: u64,
        /// One past the last missing link sequence number.
        to_seq: u64,
    },
    /// The sender of a reliable link concedes that everything below `to`
    /// was evicted from its retransmission buffer; the receiver should
    /// skip ahead rather than stall on the unrecoverable gap.
    Advance {
        /// The new lower bound for the receiver's expected link sequence.
        to: u64,
    },
    /// Credit probe: a sender stalled on zero flow-control credit asks its
    /// downstream for an immediate [`LinkMsg::CreditGrant`]. Also the
    /// liveness probe of a half-open circuit breaker.
    Credit,
    /// Credit grant: the receiver reports how many data messages it has
    /// consumed from this link **in total**. Grants are absolute (not
    /// deltas), so duplicated, reordered or lost grants never corrupt the
    /// sender's credit window — the sender simply keeps the maximum.
    CreditGrant {
        /// Cumulative count of data messages the receiver has consumed on
        /// this directed link.
        consumed_total: u64,
    },
}

impl From<OverlayMsg> for LinkMsg {
    fn from(msg: OverlayMsg) -> Self {
        LinkMsg::Overlay(msg)
    }
}

impl LinkMsg {
    /// Whether this message carries an event: a data-plane
    /// [`OverlayMsg`], or one under reliable sequencing.
    fn is_data(&self) -> bool {
        match self {
            LinkMsg::Overlay(msg) => msg.is_data(),
            LinkMsg::Sequenced { .. } => true,
            _ => false,
        }
    }
}

/// The plain form an envelope travels in on an unsequenced link:
/// `Publish` toward a broker, `Deliver` toward a subscriber.
type Plain = fn(Envelope) -> OverlayMsg;

/// A [`Node`] behind the link layer (see the [module docs](self)), as the
/// simulator runs it.
#[derive(Debug)]
pub struct Linked<N> {
    /// The wrapped node.
    pub node: N,
    link: LinkState,
    /// Virtual service time charged per data message (`None` = infinitely
    /// fast): see [`Linked::set_service_time`].
    service_time: Option<SimDuration>,
}

/// Everything link-level at one node: per-peer protocol state, the
/// counters, and the identity sheds and throttles are booked under.
#[derive(Debug, Default)]
struct LinkState {
    cfg: LinkConfig,
    label: String,
    stage: usize,
    trace: Option<Arc<TraceSink>>,
    /// Receiver state of reliable links, keyed by the upstream sender.
    rx: HashMap<ActorId, LinkRx>,
    /// Sender state of reliable links, keyed by the downstream receiver.
    tx: HashMap<ActorId, LinkTx>,
    /// Credit window, egress queue and breaker per downstream, with the
    /// plain form the node addressed it in (restored when a queued event
    /// finally goes out unsequenced).
    flow_tx: HashMap<ActorId, (FlowTx, Plain)>,
    /// Consumed counter and grant batching per upstream.
    flow_rx: HashMap<ActorId, FlowRx>,
    flow_timer_armed: bool,
    retransmitted: u64,
    duplicates_suppressed: u64,
    nacks_sent: u64,
    overload: OverloadStats,
}

impl<N: Node> Linked<N> {
    /// Puts `node` behind the link layer. `stage` decides how released
    /// envelopes are handed over (`Deliver` at stage 0, the subscriber
    /// runtime; `Publish` above it) and, with `label`, where sheds and
    /// throttles are booked and traced.
    pub fn new(
        node: N,
        cfg: LinkConfig,
        label: String,
        stage: usize,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        let link = LinkState {
            cfg,
            label,
            stage,
            trace,
            ..LinkState::default()
        };
        Self {
            node,
            link,
            service_time: None,
        }
    }

    /// Makes the node a finite-capacity server: the engine serializes
    /// data arrivals behind a busy clock, `per_message` apart, so offered
    /// load beyond `1 / per_message` builds a backlog — the overload the
    /// flow layer defends against. Control is free, so grants and leases
    /// never queue behind a saturated data plane.
    pub fn set_service_time(&mut self, per_message: Option<SimDuration>) {
        self.service_time = per_message;
    }

    /// Adds what the link layer did at this node to a run's metrics.
    pub fn absorb_into(&self, m: &mut RunMetrics) {
        m.chaos.retransmitted += self.link.retransmitted;
        m.chaos.duplicates_suppressed += self.link.duplicates_suppressed;
        m.chaos.nacks += self.link.nacks_sent;
        m.overload.absorb(&self.link.overload);
    }

    /// Runs `f` on the node with its data sends entering the link layer.
    fn with_node(&mut self, raw: &mut Ctx<'_, LinkMsg>, f: impl FnOnce(&mut N, &mut dyn NodeCtx)) {
        let link = &mut self.link;
        f(&mut self.node, &mut LinkCtx { link, raw });
    }

    /// Applies the receiver-side outcome of one reliable-link arrival:
    /// NACK any exposed gap, hand the released events to the node.
    fn apply_rx(&mut self, from: ActorId, outcome: RxOutcome, ctx: &mut Ctx<'_, LinkMsg>) {
        self.link.duplicates_suppressed += outcome.duplicates_suppressed;
        if let Some((from_seq, to_seq)) = outcome.nack {
            self.link.nacks_sent += 1;
            ctx.send(from, LinkMsg::Nack { from_seq, to_seq });
        }
        let release: Plain = match self.link.stage {
            0 => OverlayMsg::Deliver,
            _ => OverlayMsg::Publish,
        };
        for env in outcome.released {
            self.with_node(ctx, |n, c| n.on_message(from, release(env), c));
        }
    }
}

impl Host for Linked<NodeActor> {
    fn node(&self) -> &NodeActor {
        &self.node
    }

    fn node_mut(&mut self) -> &mut NodeActor {
        &mut self.node
    }

    fn absorb_into(&self, m: &mut RunMetrics) {
        Linked::absorb_into(self, m);
    }
}

impl<N: Node> Actor for Linked<N> {
    type Msg = LinkMsg;

    fn on_message(&mut self, from: ActorId, msg: LinkMsg, ctx: &mut Ctx<'_, LinkMsg>) {
        let link = &mut self.link;
        let msg = match msg {
            LinkMsg::Overlay(msg) => msg,
            LinkMsg::Sequenced { link_seq, env } => {
                link.note_data_arrival(from, ctx);
                let rx = link.rx.entry(from).or_default();
                let outcome = rx.on_event(link_seq, env, RELIABILITY_WINDOW);
                return self.apply_rx(from, outcome, ctx);
            }
            LinkMsg::Advance { to } => {
                let rx = link.rx.entry(from).or_default();
                let outcome = rx.on_advance(to, RELIABILITY_WINDOW);
                return self.apply_rx(from, outcome, ctx);
            }
            LinkMsg::Nack { from_seq, to_seq } => {
                return link.on_nack(from, from_seq, to_seq, ctx);
            }
            LinkMsg::Credit => return link.on_probe(from, ctx),
            LinkMsg::CreditGrant { consumed_total } => {
                return link.on_grant(from, consumed_total, ctx);
            }
        };
        match msg {
            OverlayMsg::Publish(_) | OverlayMsg::Deliver(_) => link.note_data_arrival(from, ctx),
            // A restarted neighbor: its link sequence and credit state
            // are gone, so reset ours to match before the node helps it
            // rebuild (a fresh credit epoch starts at full window).
            OverlayMsg::Rejoin => link.reset_peer(from),
            _ => {}
        }
        self.with_node(ctx, |n, c| n.on_message(from, msg, c));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, LinkMsg>) {
        if tag == TAG_FLOW {
            self.link.on_flow_tick(ctx);
        } else {
            self.with_node(ctx, |n, c| n.on_timer(tag, c));
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_, LinkMsg>) {
        // A crash wipes every link's state (and purged the flow timer);
        // the node's `Rejoin`s tell the neighbors to reset theirs.
        let link = &mut self.link;
        link.rx.clear();
        link.tx.clear();
        link.flow_tx.clear();
        link.flow_rx.clear();
        link.flow_timer_armed = false;
        self.with_node(ctx, |n, c| n.on_restart(c));
    }

    fn service_cost(&self, msg: &LinkMsg) -> Option<SimDuration> {
        self.service_time.filter(|_| msg.is_data())
    }
}

/// The [`NodeCtx`] a wrapped node runs under: data sends enter the link
/// layer, everything else goes to the transport as is. (A simulator
/// context: the runtime's profiling hooks keep their off defaults.)
struct LinkCtx<'a, 'w> {
    link: &'a mut LinkState,
    raw: &'a mut Ctx<'w, LinkMsg>,
}

impl NodeCtx for LinkCtx<'_, '_> {
    fn now(&self) -> SimTime {
        self.raw.now()
    }

    fn me(&self) -> ActorId {
        self.raw.me()
    }

    fn send(&mut self, to: ActorId, msg: OverlayMsg) {
        let (link, raw) = (&mut *self.link, &mut *self.raw);
        match msg {
            OverlayMsg::Publish(env) => link.send_event(to, env, OverlayMsg::Publish, raw),
            OverlayMsg::Deliver(env) => link.send_event(to, env, OverlayMsg::Deliver, raw),
            other => raw.send(to, LinkMsg::Overlay(other)),
        }
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.raw.set_timer(delay, tag);
    }

    fn peer_lost(&mut self, peer: ActorId) {
        self.link.reset_peer(peer);
    }
}

impl LinkState {
    /// Forgets everything about the links to and from `peer`. A reset
    /// that supersedes a tripped breaker *is* the recovery — count it as
    /// a close.
    fn reset_peer(&mut self, peer: ActorId) {
        self.rx.remove(&peer);
        self.tx.remove(&peer);
        if self.flow_tx.remove(&peer).is_some_and(|l| l.0.is_broken()) {
            self.overload.breaker_closed += 1;
        }
        self.flow_rx.remove(&peer);
    }

    /// Sends one event to a downstream node. With flow control enabled
    /// the event passes through the link's credit window and bounded
    /// egress queue — and may be shed there; otherwise it transmits
    /// directly.
    fn send_event(&mut self, to: ActorId, env: Envelope, plain: Plain, ctx: &mut Ctx<'_, LinkMsg>) {
        if !self.cfg.flow_control {
            return self.transmit(to, env, plain, ctx);
        }
        let tc = env.trace();
        let capacity = self.cfg.queue_capacity;
        let (link, _) = self.flow_tx.entry(to).or_insert_with(|| {
            let backoff = SimDuration::from_ticks(BREAKER_BACKOFF);
            let tx = FlowTx::new(capacity, BREAKER_FAILURE_THRESHOLD, backoff);
            (tx, plain)
        });
        let overload = &mut self.overload;
        match link.offer(env) {
            Offer::Send(env) => self.transmit(to, env, plain, ctx),
            Offer::Queued { depth } => {
                overload.credit_stalls += 1;
                overload.egress_depth.record(depth as u64);
                overload.peak_egress_depth = overload.peak_egress_depth.max(depth as u64);
                let depth = depth.min(u32::MAX as usize) as u32;
                self.record_flow_hop(tc, ctx, HopVerdict::Throttled { depth });
            }
            Offer::ShedQueueFull(dropped) => self.shed(to, &dropped, false, ctx),
            Offer::ShedBreakerOpen(dropped) => self.shed(to, &dropped, true, ctx),
        }
        self.drain_flow(to, ctx);
        self.ensure_flow_timer(ctx);
    }

    /// Books one shed event — to a full queue, or to a `breaker` that is
    /// not closed — under this node's stage and on its sampled trace.
    fn shed(&mut self, to: ActorId, dropped: &Envelope, breaker: bool, ctx: &Ctx<'_, LinkMsg>) {
        if breaker {
            self.overload.breaker_shed += 1;
        } else {
            self.overload.data_shed += 1;
        }
        self.overload.add_stage_sheds(self.stage, 1);
        let dest = to.0 as u64;
        self.record_flow_hop(dropped.trace(), ctx, HopVerdict::Shed { dest, breaker });
    }

    /// Puts one event on the wire, under reliable sequencing when enabled
    /// (its plain form otherwise). Fresh events are stamped here — after
    /// any queueing — so link sequence order always equals send order.
    fn transmit(&mut self, to: ActorId, env: Envelope, plain: Plain, ctx: &mut Ctx<'_, LinkMsg>) {
        if self.cfg.reliable {
            let link = self.tx.entry(to).or_default();
            let link_seq = link.stamp(env.clone(), RELIABILITY_WINDOW);
            ctx.send(to, LinkMsg::Sequenced { link_seq, env });
        } else {
            ctx.send(to, LinkMsg::Overlay(plain(env)));
        }
    }

    /// Transmits whatever the credit window allows from `to`'s egress
    /// queue, repairs (retransmissions) first.
    fn drain_flow(&mut self, to: ActorId, ctx: &mut Ctx<'_, LinkMsg>) {
        while let Some((link, plain)) = self.flow_tx.get_mut(&to) {
            let plain = *plain;
            match link.pop_ready() {
                None => return,
                Some(Queued::Fresh(env)) => self.transmit(to, env, plain, ctx),
                Some(Queued::Retransmit { link_seq, env }) => {
                    ctx.send(to, LinkMsg::Sequenced { link_seq, env });
                }
            }
        }
    }

    /// Counts one consumed data message from an upstream sender and emits
    /// a batched credit grant when due. External publishers (the facade)
    /// are not flow-controlled — they *are* the offered load.
    fn note_data_arrival(&mut self, from: ActorId, ctx: &mut Ctx<'_, LinkMsg>) {
        if self.cfg.flow_control && from.0 != usize::MAX {
            if let Some(consumed_total) = self.flow_rx(from).on_data() {
                self.grant(from, consumed_total, ctx);
            }
        }
    }

    /// The receiver-side flow state toward `from`, created on first use.
    fn flow_rx(&mut self, from: ActorId) -> &mut FlowRx {
        let capacity = self.cfg.queue_capacity;
        self.flow_rx
            .entry(from)
            .or_insert_with(|| FlowRx::new(capacity))
    }

    fn grant(&mut self, to: ActorId, consumed_total: u64, ctx: &mut Ctx<'_, LinkMsg>) {
        self.overload.grants_sent += 1;
        ctx.send(to, LinkMsg::CreditGrant { consumed_total });
    }

    /// An upstream sender stalled on zero credit (or a breaker probing
    /// our liveness): answer with the consumed total immediately,
    /// bypassing every queue.
    fn on_probe(&mut self, from: ActorId, ctx: &mut Ctx<'_, LinkMsg>) {
        if self.cfg.flow_control {
            let consumed_total = self.flow_rx(from).grant_now();
            self.grant(from, consumed_total, ctx);
        }
    }

    /// Merges a downstream's grant and sends what it freed. Stray grants
    /// (e.g. after a `Rejoin` reset the link) are ignored rather than
    /// asserted on: the next epoch starts clean.
    fn on_grant(&mut self, from: ActorId, consumed_total: u64, ctx: &mut Ctx<'_, LinkMsg>) {
        if let Some((link, _)) = self.flow_tx.get_mut(&from) {
            self.overload.grants_received += 1;
            let closed = link.on_grant(consumed_total).closed_breaker;
            self.overload.breaker_closed += u64::from(closed);
            self.drain_flow(from, ctx);
        }
    }

    /// Serves the NACK of `from`, the downstream receiver of a link we
    /// send on: retransmit what the ring still holds, concede the rest.
    fn on_nack(&mut self, from: ActorId, from_seq: u64, to_seq: u64, ctx: &mut Ctx<'_, LinkMsg>) {
        let Some(link) = self.tx.get_mut(&from) else {
            return;
        };
        let (resend, advance) = link.handle_nack(from_seq, to_seq);
        self.retransmitted += resend.len() as u64;
        if let Some((flow, _)) = self.flow_tx.get_mut(&from) {
            // Retransmissions respect the credit window but jump the
            // egress queue: push them to the front in reverse so the
            // lowest sequence leads the repair.
            for (link_seq, env) in resend.into_iter().rev() {
                if !flow.push_retransmit(link_seq, env) {
                    self.overload.breaker_shed += 1;
                    self.overload.add_stage_sheds(self.stage, 1);
                }
            }
            self.drain_flow(from, ctx);
            self.ensure_flow_timer(ctx);
        } else {
            for (link_seq, env) in resend {
                ctx.send(from, LinkMsg::Sequenced { link_seq, env });
            }
        }
        if let Some(to) = advance {
            ctx.send(from, LinkMsg::Advance { to });
        }
    }

    /// Arms the flow-maintenance timer iff some link still needs it.
    fn ensure_flow_timer(&mut self, ctx: &mut Ctx<'_, LinkMsg>) {
        if !self.flow_timer_armed && self.flow_tx.values().any(|l| l.0.needs_tick()) {
            self.flow_timer_armed = true;
            ctx.set_timer(SimDuration::from_ticks(FLOW_TICK), TAG_FLOW);
        }
    }

    /// One flow-maintenance tick: probe stalled links, advance breaker
    /// clocks, shed what an opening breaker flushed, and re-arm the timer
    /// while any link still needs it.
    fn on_flow_tick(&mut self, ctx: &mut Ctx<'_, LinkMsg>) {
        self.flow_timer_armed = false;
        let now = ctx.now();
        // HashMap iteration order is randomly seeded per process; sends
        // must happen in a deterministic order for reproducible runs.
        let mut downs: Vec<ActorId> = self.flow_tx.keys().copied().collect();
        downs.sort_unstable();
        for down in downs {
            let Some((link, _)) = self.flow_tx.get_mut(&down) else {
                continue;
            };
            let overload = &mut self.overload;
            match link.on_tick(now) {
                Tick::Idle => {}
                Tick::Probe => {
                    overload.probes_sent += 1;
                    ctx.send(down, LinkMsg::Credit);
                }
                Tick::Opened { flushed } => {
                    overload.breaker_opened += 1;
                    for entry in &flushed {
                        let (Queued::Fresh(env) | Queued::Retransmit { env, .. }) = entry;
                        self.shed(down, env, true, ctx);
                    }
                }
                Tick::HalfOpenProbe => {
                    overload.breaker_half_opened += 1;
                    overload.probes_sent += 1;
                    ctx.send(down, LinkMsg::Credit);
                }
                // Leaked credit written off: the parked events can go.
                Tick::Resync => self.drain_flow(down, ctx),
            }
        }
        self.ensure_flow_timer(ctx);
    }

    /// Records a flow event (throttle or shed) on a sampled trace. Flow
    /// events describe what happened to one *outgoing copy*; the trace
    /// aggregation layer keeps them out of the arrival statistics.
    fn record_flow_hop(
        &self,
        tc: Option<TraceContext>,
        ctx: &Ctx<'_, LinkMsg>,
        verdict: HopVerdict,
    ) {
        let (Some(tc), Some(sink)) = (tc, self.trace.as_ref()) else {
            return;
        };
        // A node's own id is never the external sender's sentinel, so it
        // is its trace id as is.
        let me = ctx.me().0 as u64;
        let hop = HopRecord {
            node: self.label.clone(),
            node_id: me,
            from_id: me,
            stage: self.stage,
            shard: 0,
            arrival: ctx.now(),
            hop_latency: 0,
            verdict,
        };
        sink.record_hop(&tc, hop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_inconsistent_flow_knobs() {
        let base = LinkConfig {
            flow_control: true,
            ..LinkConfig::default()
        };
        assert!(base.validate().is_ok());

        let zero_queue = LinkConfig {
            queue_capacity: 0,
            ..base
        };
        assert_eq!(zero_queue.validate(), Err(LinkError::ZeroQueueCapacity));

        let narrow_queue = LinkConfig {
            reliable: true,
            ..base
        };
        assert_eq!(
            narrow_queue.validate(),
            Err(LinkError::WindowExceedsQueue {
                window: 256,
                capacity: 64,
            })
        );
        // The same knobs are fine with flow control off…
        let fc_off = LinkConfig {
            flow_control: false,
            ..narrow_queue
        };
        assert!(fc_off.validate().is_ok());
        // …or with a queue wide enough for the window.
        let wide_queue = LinkConfig {
            queue_capacity: 256,
            ..narrow_queue
        };
        assert!(wide_queue.validate().is_ok());
    }

    #[test]
    fn messages_name_the_knob_to_change() {
        let cases = [
            (LinkError::ZeroQueueCapacity, "queue_capacity"),
            (
                LinkError::WindowExceedsQueue {
                    window: 256,
                    capacity: 64,
                },
                "window (256)",
            ),
            (LinkError::Overlay(OverlayError::ZeroTtl), "`ttl`"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
