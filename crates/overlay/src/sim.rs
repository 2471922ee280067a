//! The overlay simulation facade: topology construction and run control.

use std::sync::Arc;

use layercake_event::{Advertisement, Envelope, EventSeq, TraceId, TypeRegistry};
use layercake_filter::{Filter, FilterError};
use layercake_metrics::{LatencyMetrics, RunMetrics};
use layercake_sim::{ActorId, FaultPlan, SimDuration, SimTime, World};
use layercake_trace::{EventTrace, TraceSink};

use crate::broker::Broker;
use crate::config::OverlayConfig;
use crate::error::OverlayError;
use crate::link::{LinkConfig, Linked};
use crate::msg::{OverlayMsg, SubscriptionReq};
use crate::node::NodeActor;
use crate::subscriber::{ResidualFilter, SubscriberNode};

/// Handle to a subscriber created with [`OverlaySim::add_subscriber`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubscriberHandle(ActorId);

/// A multi-stage filtering overlay running inside a deterministic
/// discrete-event world.
///
/// The facade builds the broker hierarchy described by an
/// [`OverlayConfig`], then drives the protocol: advertisements flood from
/// the root, subscriptions walk down per Figure 5, events publish at the
/// root and filter down per Figure 6. After (or between) runs, node
/// counters aggregate into the paper's metrics via
/// [`OverlaySim::metrics`].
pub struct OverlaySim {
    world: World<Linked<NodeActor>>,
    registry: Arc<TypeRegistry>,
    cfg: OverlayConfig,
    link: LinkConfig,
    root: ActorId,
    brokers: Vec<ActorId>,
    subscribers: Vec<ActorId>,
    advertisements: Vec<Advertisement>,
    next_filter: u64,
    published: u64,
    delivered_messages: u64,
    fired_timers: u64,
    /// Shared trace collector, created when
    /// [`OverlayConfig::trace_sample_every`] is non-zero.
    trace: Option<Arc<TraceSink>>,
}

impl OverlaySim {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`OverlayConfig::validate`].
    /// Use [`OverlaySim::try_new`] to handle invalid configurations
    /// gracefully.
    #[must_use]
    pub fn new(cfg: OverlayConfig, registry: Arc<TypeRegistry>) -> Self {
        Self::try_new(cfg, registry).expect("invalid overlay configuration")
    }

    /// Builds the hierarchy, reporting configuration problems as typed
    /// errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`OverlayError`] produced by [`OverlayConfig::validate`],
    /// with a message naming the offending knob and how to fix it.
    pub fn try_new(cfg: OverlayConfig, registry: Arc<TypeRegistry>) -> Result<Self, OverlayError> {
        Self::with_links(cfg, LinkConfig::default(), registry)
    }

    /// Builds the hierarchy with every node behind the simulator's link
    /// layer ([`crate::link`]): reliable sequencing and/or credit flow
    /// control on each hop, as `link` says.
    ///
    /// # Errors
    ///
    /// As [`OverlaySim::try_new`], plus [`LinkConfig::validate`]'s.
    pub fn with_links(
        cfg: OverlayConfig,
        link: LinkConfig,
        registry: Arc<TypeRegistry>,
    ) -> Result<Self, OverlayError> {
        link.validate()?;
        let trace =
            (cfg.trace_sample_every > 0).then(|| Arc::new(TraceSink::new(cfg.trace_sample_every)));
        let mut world = World::with_latency(SimDuration::from_ticks(1));

        // The shared topology builder numbers brokers level by level from
        // stage 1 upward; inserting them in order makes the world assign
        // exactly those ids.
        let mut brokers = Vec::new();
        for node in crate::topology::build_brokers(&cfg, &registry, trace.as_ref())? {
            let mut broker = node.broker;
            if cfg.durability_enabled {
                // Each broker gets a deterministic in-memory log whose
                // synced/unsynced split models a page cache: crash_restart
                // loses the unsynced tail, exactly like the file-backed
                // storage of the wall-clock runtime.
                broker.enable_durability(Box::new(crate::wal::MemStorage::new()), cfg.log_config());
            }
            let label = broker.label().to_owned();
            let linked = Linked::new(
                NodeActor::Broker(broker),
                link,
                label,
                node.stage,
                trace.clone(),
            );
            let id = world.add_actor(linked);
            debug_assert_eq!(id, node.id, "world id assignment diverged from topology");
            brokers.push(id);
        }
        let root = *brokers.last().expect("validated topology has a root");

        Ok(Self {
            world,
            registry,
            cfg,
            link,
            root,
            brokers,
            subscribers: Vec::new(),
            advertisements: Vec::new(),
            next_filter: 0,
            published: 0,
            delivered_messages: 0,
            fired_timers: 0,
            trace,
        })
    }

    /// The shared type registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        &self.registry
    }

    /// The root broker's actor id.
    #[must_use]
    pub fn root(&self) -> ActorId {
        self.root
    }

    /// All broker actor ids, stage 1 first.
    #[must_use]
    pub fn brokers(&self) -> &[ActorId] {
        &self.brokers
    }

    /// Number of subscribers added so far.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Floods an event-class advertisement (with its stage map) from the
    /// root (Section 4.1). Call [`OverlaySim::settle`] before subscribing.
    ///
    /// # Panics
    ///
    /// Panics if the advertised class is not registered or its stage map
    /// references attribute indices outside the class schema — such an
    /// advertisement would silently disable weakening for the class.
    pub fn advertise(&mut self, adv: Advertisement) {
        let class = self
            .registry
            .class(adv.class)
            .unwrap_or_else(|| panic!("advertised {} is not registered", adv.class));
        adv.stage_map
            .check_arity(class.arity())
            .expect("stage map fits the class schema");
        self.advertisements.push(adv.clone());
        self.world
            .send_external(self.root, OverlayMsg::Advertise(adv).into());
    }

    /// Adds a subscriber with a declarative filter only.
    ///
    /// The filter must name an event class; it is converted to the standard
    /// subscription filter format (Section 4.4) before placement.
    ///
    /// # Errors
    ///
    /// * [`FilterError::MissingClass`] if the filter has no class constraint.
    /// * [`FilterError::UnknownClass`] if the class is not registered.
    /// * Standardization errors for unknown attributes or kind mismatches.
    pub fn add_subscriber(&mut self, filter: Filter) -> Result<SubscriberHandle, FilterError> {
        self.add_subscriber_with(filter, None)
    }

    /// Adds a subscriber whose subscription carries a stateful residual
    /// predicate evaluated only at the subscriber runtime (the paper's
    /// expressive, type-safe filters such as `BuyFilter`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`OverlaySim::add_subscriber`].
    pub fn add_subscriber_with(
        &mut self,
        filter: Filter,
        residual: Option<Box<dyn ResidualFilter>>,
    ) -> Result<SubscriberHandle, FilterError> {
        self.add_subscriber_any(vec![filter], residual)
    }

    /// Adds a subscriber with a *disjunctive* subscription: the event is
    /// delivered when any of the branch filters matches (and the optional
    /// residual accepts it). Each branch is standardized, routed and hosted
    /// independently; events arriving via several branches are delivered
    /// exactly once.
    ///
    /// # Errors
    ///
    /// Same conditions as [`OverlaySim::add_subscriber`], checked per
    /// branch; also rejects an empty branch list with
    /// [`FilterError::MissingClass`].
    pub fn add_subscriber_any(
        &mut self,
        filters: Vec<Filter>,
        residual: Option<Box<dyn ResidualFilter>>,
    ) -> Result<SubscriberHandle, FilterError> {
        self.add_subscriber_inner(filters, residual, false)
    }

    /// Adds a *durable* subscriber: its hosting broker appends the
    /// subscription's event class to its durable log and replays past the
    /// subscriber's last acknowledged offset on every re-subscription —
    /// including after the broker itself crashed and restarted with
    /// nothing but the log. Requires
    /// [`OverlayConfig::durability_enabled`]; without it the subscription
    /// behaves like [`OverlaySim::add_subscriber`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`OverlaySim::add_subscriber`].
    pub fn add_durable_subscriber(
        &mut self,
        filter: Filter,
    ) -> Result<SubscriberHandle, FilterError> {
        self.add_subscriber_inner(vec![filter], None, true)
    }

    fn add_subscriber_inner(
        &mut self,
        filters: Vec<Filter>,
        residual: Option<Box<dyn ResidualFilter>>,
        durable: bool,
    ) -> Result<SubscriberHandle, FilterError> {
        let branches =
            crate::topology::standardize_branches(&self.registry, filters, self.next_filter)?;
        self.next_filter += branches.len() as u64;
        let label = format!("sub-{:04}", self.subscribers.len());
        let node = crate::topology::build_subscriber(
            &self.cfg,
            &self.registry,
            self.root,
            label.clone(),
            branches.clone(),
            residual,
            self.trace.as_ref(),
            durable,
        );
        let node = NodeActor::Subscriber(node);
        let actor =
            self.world
                .add_actor(Linked::new(node, self.link, label, 0, self.trace.clone()));
        self.subscribers.push(actor);
        for (id, filter) in branches {
            self.world.send_external(
                self.root,
                OverlayMsg::Subscribe(SubscriptionReq {
                    id,
                    filter,
                    subscriber: actor,
                    durable,
                })
                .into(),
            );
        }
        Ok(SubscriberHandle(actor))
    }

    /// Publishes an event at the root. With tracing enabled
    /// ([`OverlayConfig::trace_sample_every`] > 0), every N-th event is
    /// stamped with a trace context before it enters the overlay.
    pub fn publish(&mut self, mut env: Envelope) {
        self.published += 1;
        if let Some(sink) = &self.trace {
            if let Some(tc) = sink.begin_trace(env.class_name(), env.seq().0, self.world.now()) {
                env.set_trace(Some(tc));
            }
        }
        self.world
            .send_external(self.root, OverlayMsg::Publish(env).into());
    }

    /// Publishes a batch of events.
    pub fn publish_all(&mut self, envs: impl IntoIterator<Item = Envelope>) {
        for env in envs {
            self.publish(env);
        }
    }

    /// Runs the world until in-flight protocol traffic drains.
    ///
    /// With leases enabled the lease timers keep the queue non-empty
    /// forever, so this advances a bounded window large enough for any
    /// placement walk or event delivery, leaving future timers queued.
    pub fn settle(&mut self) {
        let report = if self.cfg.leases_enabled {
            let window = SimDuration::from_ticks(16 * (self.cfg.stages() as u64 + 2));
            let deadline = self.world.now() + window;
            self.world.run_until(deadline)
        } else {
            self.world.run()
        };
        self.account(report);
    }

    /// Advances virtual time by `d`, processing lease traffic and anything
    /// else that comes due.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.world.now() + d;
        let report = self.world.run_until(deadline);
        self.account(report);
    }

    fn account(&mut self, report: layercake_sim::RunReport) {
        self.delivered_messages += report.delivered_messages;
        self.fired_timers += report.fired_timers;
    }

    /// Total protocol messages delivered so far (subscription walks, filter
    /// maintenance, event forwarding, renewals) — the network cost of the
    /// run.
    #[must_use]
    pub fn network_messages(&self) -> u64 {
        self.delivered_messages
    }

    /// Total timer firings (lease sweeps and renewal clocks).
    #[must_use]
    pub fn fired_timers(&self) -> u64 {
        self.fired_timers
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// Sequence numbers delivered to (and accepted by) a subscriber.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    #[must_use]
    pub fn deliveries(&self, handle: SubscriberHandle) -> &[EventSeq] {
        self.subscriber(handle).deliveries()
    }

    /// The subscriber node behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    #[must_use]
    pub fn subscriber(&self, handle: SubscriberHandle) -> &SubscriberNode {
        self.world
            .actor(handle.0)
            .node
            .as_subscriber()
            .expect("handle points at a subscriber")
    }

    /// The broker node behind an actor id, if it is a broker.
    #[must_use]
    pub fn broker(&self, id: ActorId) -> Option<&Broker> {
        self.world.actor(id).node.as_broker()
    }

    /// Enables envelope buffering for a subscriber, so accepted events can
    /// be drained with [`OverlaySim::take_inbox`].
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn set_store_envelopes(&mut self, handle: SubscriberHandle, store: bool) {
        self.world
            .actor_mut(handle.0)
            .node
            .as_subscriber_mut()
            .expect("handle points at a subscriber")
            .set_store_envelopes(store);
    }

    /// Drains the envelopes accepted by a subscriber since the last drain.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn take_inbox(&mut self, handle: SubscriberHandle) -> Vec<Envelope> {
        self.world
            .actor_mut(handle.0)
            .node
            .as_subscriber_mut()
            .expect("handle points at a subscriber")
            .take_inbox()
    }

    /// Soft-state unsubscription (Section 4.3): the subscriber stops
    /// renewing; its filters expire from the hierarchy after 3 × TTL.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn unsubscribe(&mut self, handle: SubscriberHandle) {
        self.world
            .actor_mut(handle.0)
            .node
            .as_subscriber_mut()
            .expect("handle points at a subscriber")
            .deactivate();
    }

    /// Explicit unsubscription (Section 4.3): the hosting node removes the
    /// subscription immediately and withdraws weakened filters that are no
    /// longer needed all the way up the hierarchy. Also stops lease
    /// renewal. Returns `false` when the subscription has not completed
    /// placement yet.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn unsubscribe_now(&mut self, handle: SubscriberHandle) -> bool {
        let node = self
            .world
            .actor_mut(handle.0)
            .node
            .as_subscriber_mut()
            .expect("handle points at a subscriber");
        if !node.fully_placed() {
            return false;
        }
        node.deactivate();
        let removals: Vec<(ActorId, Filter)> = node
            .branches()
            .iter()
            .map(|b| (b.host().expect("fully placed"), b.filter().clone()))
            .collect();
        for (host, filter) in removals {
            self.world.send_external(
                host,
                OverlayMsg::Unsubscribe {
                    filter,
                    subscriber: handle.0,
                }
                .into(),
            );
        }
        true
    }

    /// Takes a durable subscriber offline (Section 2.1): its hosting node
    /// buffers matching events until [`OverlaySim::reconnect`]. Returns
    /// `false` when placement has not completed yet.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn disconnect(&mut self, handle: SubscriberHandle) -> bool {
        self.send_host_control(handle, |subscriber| OverlayMsg::Detach { subscriber })
    }

    /// Brings a durable subscriber back online: buffered events are
    /// delivered in publication order. Returns `false` when placement has
    /// not completed yet.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    pub fn reconnect(&mut self, handle: SubscriberHandle) -> bool {
        self.send_host_control(handle, |subscriber| OverlayMsg::Attach { subscriber })
    }

    fn send_host_control(
        &mut self,
        handle: SubscriberHandle,
        make: impl Fn(ActorId) -> OverlayMsg,
    ) -> bool {
        let node = self.subscriber(handle);
        if !node.fully_placed() {
            return false;
        }
        let mut hosts: Vec<ActorId> = node
            .branches()
            .iter()
            .filter_map(crate::subscriber::Branch::host)
            .collect();
        hosts.sort();
        hosts.dedup();
        for host in hosts {
            self.world.send_external(host, make(handle.0).into());
        }
        true
    }

    /// Fault injection: drops all messages between two nodes, in both
    /// directions, until [`OverlaySim::heal_partition`].
    pub fn partition(&mut self, a: ActorId, b: ActorId) {
        self.world.block_link(a, b);
        self.world.block_link(b, a);
    }

    /// Heals a partition created with [`OverlaySim::partition`].
    pub fn heal_partition(&mut self, a: ActorId, b: ActorId) {
        self.world.unblock_link(a, b);
        self.world.unblock_link(b, a);
    }

    /// Fault injection: cuts every link touching `node`, in both
    /// directions, until [`OverlaySim::heal_node`]. Unlike
    /// [`OverlaySim::crash_broker`], the node keeps its state and timers.
    pub fn isolate(&mut self, node: ActorId) {
        self.world.partition_node(node);
    }

    /// Restores all links touching `node` (undoes [`OverlaySim::isolate`]
    /// and any [`OverlaySim::partition`] involving the node).
    pub fn heal_node(&mut self, node: ActorId) {
        self.world.heal_node(node);
    }

    /// Seeds the deterministic per-link fault streams (defaults to 0).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.world.set_fault_seed(seed);
    }

    /// Applies a fault plan to every link without an explicit per-link
    /// plan; `None` turns default faults off.
    pub fn set_default_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.world.set_default_fault_plan(plan);
    }

    /// Applies a fault plan to one directed link.
    pub fn set_link_fault_plan(&mut self, from: ActorId, to: ActorId, plan: FaultPlan) {
        self.world.set_link_fault_plan(from, to, plan);
    }

    /// Heals all link faults: clears the default and every per-link plan.
    pub fn clear_fault_plans(&mut self) {
        self.world.clear_fault_plans();
    }

    /// Crashes a broker: in-flight messages and timers addressed to it are
    /// discarded, and it stays unreachable until
    /// [`OverlaySim::restart_broker`]. Returns the number of queue entries
    /// discarded.
    pub fn crash_broker(&mut self, id: ActorId) -> u64 {
        self.world.crash(id)
    }

    /// Restarts a crashed broker. Its volatile state (filter table, stage
    /// maps, leases, link-layer state) is wiped by
    /// [`Broker::on_restart`]; the rejoin protocol rebuilds it from the
    /// parent's re-advertisements and the children's re-registrations.
    /// When the *root* restarts, the facade replays the externally-injected
    /// advertisements (in the real system the publishers would
    /// re-advertise). Returns `false` if the node was not crashed.
    ///
    /// [`Broker::on_restart`]: crate::Broker
    pub fn restart_broker(&mut self, id: ActorId) -> bool {
        if !self.world.restart(id) {
            return false;
        }
        if id == self.root {
            for adv in self.advertisements.clone() {
                self.world
                    .send_external(self.root, OverlayMsg::Advertise(adv).into());
            }
        }
        true
    }

    /// Whether a node is currently crashed.
    #[must_use]
    pub fn is_crashed(&self, id: ActorId) -> bool {
        self.world.is_crashed(id)
    }

    /// Sets (or clears, with `None`) the per-data-message service time of
    /// one broker. A broker with a service time is a finite-capacity
    /// server: data messages queue behind its busy clock, which is what
    /// makes a stage saturate under overload. Control messages are always
    /// free so credit grants and probes never queue behind the backlog
    /// they are meant to drain.
    pub fn set_broker_service_time(&mut self, id: ActorId, per_message: Option<SimDuration>) {
        self.world.actor_mut(id).set_service_time(per_message);
    }

    /// The actor id behind a subscriber handle (for fault injection).
    #[must_use]
    pub fn subscriber_actor(&self, handle: SubscriberHandle) -> ActorId {
        handle.0
    }

    /// Forces every broker's durable log to disk (final fsync batches and
    /// offset-table writes). Call before comparing durability counters or
    /// before a deliberate crash where the tail should survive. A no-op
    /// without [`OverlayConfig::durability_enabled`].
    pub fn flush_wals(&mut self) {
        for &id in &self.brokers.clone() {
            if let NodeActor::Broker(b) = &mut self.world.actor_mut(id).node {
                b.flush_wal();
            }
        }
    }

    /// Collects every node's counters into the run metrics, including the
    /// fault-injection ([`layercake_metrics::ChaosStats`]) counters.
    #[must_use]
    pub fn metrics(&self) -> RunMetrics {
        let mut m = RunMetrics::new(self.published, self.subscribers.len() as u64);
        m.chaos.dropped = self.world.fault_dropped();
        m.chaos.duplicated = self.world.fault_duplicated();
        m.chaos.crash_discarded = self.world.crash_discarded();
        for node in self.world.actors() {
            node.absorb_into(&mut m);
            match &node.node {
                NodeActor::Broker(b) => {
                    if let Some(d) = b.durability() {
                        m.durability.absorb(d);
                    }
                    m.push(b.record());
                }
                NodeActor::Subscriber(s) => {
                    m.chaos.resubscriptions += s.resubscriptions();
                    m.push(s.record());
                }
            }
        }
        for &id in &self.brokers {
            let peak = self.world.peak_inflight_of(id);
            m.overload.ingress_backlog.record(peak);
            m.overload.peak_ingress_backlog = m.overload.peak_ingress_backlog.max(peak);
        }
        if let Some(sink) = &self.trace {
            m.latency = LatencyMetrics {
                hop_by_stage: sink.hop_histograms(),
                e2e: sink.e2e_histogram(),
                traced: sink.traced_count(),
            };
            m.weakening = sink.weakening_summary();
        }
        m
    }

    /// The shared trace sink, when tracing is enabled.
    #[must_use]
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// Snapshots of all sampled event traces (empty with tracing off).
    #[must_use]
    pub fn traces(&self) -> Vec<EventTrace> {
        self.trace.as_ref().map(|s| s.traces()).unwrap_or_default()
    }

    /// The sampled traces as deterministic JSONL (one trace per line), or
    /// `None` with tracing off.
    #[must_use]
    pub fn trace_jsonl(&self) -> Option<String> {
        self.trace.as_ref().map(|s| s.to_jsonl())
    }

    /// Explains why a traced event did or did not reach a subscriber: a
    /// hop-by-hop report along the broker path from the root to the
    /// subscriber's (first-branch) host, ending with a verdict that
    /// attributes false positives to the covering-filter stage whose
    /// weakening admitted the event.
    ///
    /// Returns `None` when tracing is off or `id` names no sampled trace.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this simulation.
    #[must_use]
    pub fn explain(&self, id: TraceId, handle: SubscriberHandle) -> Option<String> {
        let sink = self.trace.as_ref()?;
        let trace = sink.trace(id)?;
        let sub = self.subscriber(handle);
        let mut labels = vec![sub.label().to_owned()];
        let mut cursor = sub.host();
        while let Some(actor) = cursor {
            let broker = self.broker(actor)?;
            labels.push(broker.label().to_owned());
            cursor = broker.parent();
        }
        labels.reverse();
        Some(trace.explain(&labels))
    }

    /// Total events published so far.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Renders every broker's filter table, root first — a debugging view
    /// of the weakening pyramid (class names resolved through the registry,
    /// destinations shown as node/subscription labels).
    #[must_use]
    pub fn dump_tables(&self) -> String {
        let mut out = String::new();
        let label_of = |actor: ActorId| -> String {
            match &self.world.actor(actor).node {
                NodeActor::Broker(b) => b.label().to_owned(),
                NodeActor::Subscriber(s) => format!("sub:{}", s.id()),
            }
        };
        for &id in self.brokers.iter().rev() {
            let Some(broker) = self.world.actor(id).node.as_broker() else {
                continue;
            };
            out.push_str(&format!(
                "{} (stage {}):{}\n",
                broker.label(),
                broker.stage(),
                if broker.filter_count() == 0 {
                    " —"
                } else {
                    ""
                }
            ));
            for (filter, dests) in broker.table_entries() {
                let targets: Vec<String> = dests
                    .iter()
                    .map(|d| label_of(crate::broker::actor_of(*d)))
                    .collect();
                out.push_str(&format!(
                    "  {} -> {}\n",
                    filter.display_with(&self.registry),
                    targets.join(", ")
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlacementPolicy;
    use layercake_event::{event_data, EventData};
    use layercake_workload::BiblioWorkload;

    fn biblio_sim(cfg: OverlayConfig) -> (OverlaySim, layercake_event::ClassId) {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = OverlaySim::new(cfg, Arc::new(registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        (sim, class)
    }

    fn biblio_event(year: i64, conf: &str, author: &str, title: &str) -> EventData {
        event_data! { "year" => year, "conference" => conf, "author" => author, "title" => title }
    }

    fn env(class: layercake_event::ClassId, seq: u64, e: EventData) -> Envelope {
        Envelope::from_meta(class, "Biblio", EventSeq(seq), e)
    }

    #[test]
    fn end_to_end_exact_delivery() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 2, 1],
            ..OverlayConfig::default()
        });
        let sub = sim
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2002)
                    .eq("conference", "icdcs")
                    .eq("author", "felber")
                    .eq("title", "tradeoffs"),
            )
            .unwrap();
        sim.settle();
        assert!(sim.subscriber(sub).host().is_some());

        sim.publish(env(
            class,
            0,
            biblio_event(2002, "icdcs", "felber", "tradeoffs"),
        ));
        sim.publish(env(
            class,
            1,
            biblio_event(2002, "icdcs", "felber", "other"),
        ));
        sim.publish(env(
            class,
            2,
            biblio_event(1999, "icdcs", "felber", "tradeoffs"),
        ));
        sim.publish(env(
            class,
            3,
            biblio_event(2002, "podc", "felber", "tradeoffs"),
        ));
        sim.settle();
        assert_eq!(sim.deliveries(sub), &[EventSeq(0)]);
    }

    #[test]
    fn partial_filters_receive_all_matching() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 1],
            ..OverlayConfig::default()
        });
        // Year-only filter (others wildcarded via standardization).
        let sub = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2000))
            .unwrap();
        sim.settle();
        for (i, year) in [2000i64, 1999, 2000, 2001].into_iter().enumerate() {
            sim.publish(env(class, i as u64, biblio_event(year, "c", "a", "t")));
        }
        sim.settle();
        assert_eq!(sim.deliveries(sub), &[EventSeq(0), EventSeq(2)]);
    }

    #[test]
    fn similarity_placement_groups_similar_subscriptions() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![50, 5, 1],
            placement: PlacementPolicy::Similarity,
            ..OverlayConfig::default()
        });
        // Many identical-prefix subscriptions: they should all land on the
        // same stage-1 node after the first one placed.
        let filter = |title: &str| {
            Filter::for_class(class)
                .eq("year", 2002)
                .eq("conference", "icdcs")
                .eq("author", "eugster")
                .eq("title", title.to_owned())
        };
        let first = sim.add_subscriber(filter("t-0")).unwrap();
        sim.settle();
        let first_host = sim.subscriber(first).host().unwrap();
        for i in 1..10 {
            let h = sim.add_subscriber(filter(&format!("t-{i}"))).unwrap();
            sim.settle();
            assert_eq!(
                sim.subscriber(h).host(),
                Some(first_host),
                "similar subscription {i} should join the same node"
            );
        }
        // The shared path means the root holds exactly one year-filter.
        let root = sim.broker(sim.root()).unwrap();
        assert_eq!(root.filter_count(), 1);
    }

    #[test]
    fn random_placement_scatters() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![50, 5, 1],
            placement: PlacementPolicy::Random,
            ..OverlayConfig::default()
        });
        let filter = |title: &str| {
            Filter::for_class(class)
                .eq("year", 2002)
                .eq("conference", "icdcs")
                .eq("author", "eugster")
                .eq("title", title.to_owned())
        };
        let mut hosts = std::collections::HashSet::new();
        for i in 0..20 {
            let h = sim.add_subscriber(filter(&format!("t-{i}"))).unwrap();
            sim.settle();
            hosts.insert(sim.subscriber(h).host().unwrap());
        }
        assert!(
            hosts.len() > 3,
            "random placement should scatter (got {})",
            hosts.len()
        );
    }

    #[test]
    fn wildcard_subscription_anchors_high() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![10, 5, 1],
            ..OverlayConfig::default()
        });
        // fy-style: year specified, everything else wildcard. The most
        // general wildcarded attribute is `conference` (index 1), whose
        // topmost using stage in the biblio map is 2 — so the subscription
        // anchors at stage 3, the root of this hierarchy, where filtering
        // happens on `year` alone.
        let sub = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2002))
            .unwrap();
        sim.settle();
        let host = sim.subscriber(sub).host().unwrap();
        let host_stage = sim.broker(host).unwrap().stage();
        assert_eq!(
            host_stage, 3,
            "wildcard subscription should anchor above stage 2"
        );
        // And it still receives exactly its events.
        sim.publish(env(class, 0, biblio_event(2002, "x", "y", "z")));
        sim.publish(env(class, 1, biblio_event(2001, "x", "y", "z")));
        sim.settle();
        assert_eq!(sim.deliveries(sub), &[EventSeq(0)]);
    }

    #[test]
    fn naive_wildcard_placement_lands_on_stage_one() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![10, 5, 1],
            wildcard_stage_placement: false,
            ..OverlayConfig::default()
        });
        let sub = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2002))
            .unwrap();
        sim.settle();
        let host = sim.subscriber(sub).host().unwrap();
        assert_eq!(sim.broker(host).unwrap().stage(), 1);
    }

    #[test]
    fn type_only_wildcard_anchors_at_root() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![10, 5, 1],
            ..OverlayConfig::default()
        });
        // Everything wildcarded: subscriber wants all Biblio events.
        let sub = sim.add_subscriber(Filter::for_class(class)).unwrap();
        sim.settle();
        let host = sim.subscriber(sub).host().unwrap();
        assert_eq!(host, sim.root());
        sim.publish(env(class, 0, biblio_event(1998, "a", "b", "c")));
        sim.settle();
        assert_eq!(sim.deliveries(sub).len(), 1);
    }

    #[test]
    fn subscription_without_class_is_rejected() {
        let (mut sim, _) = biblio_sim(OverlayConfig::default());
        let err = sim
            .add_subscriber(Filter::any().eq("year", 2002))
            .unwrap_err();
        assert!(matches!(err, FilterError::MissingClass));
    }

    #[test]
    fn unknown_attribute_is_rejected() {
        let (mut sim, class) = biblio_sim(OverlayConfig::default());
        let err = sim
            .add_subscriber(Filter::for_class(class).eq("publisher", "acm"))
            .unwrap_err();
        assert!(matches!(err, FilterError::UnknownAttribute { .. }));
    }

    #[test]
    fn events_do_not_reach_uninterested_subtrees() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![10, 2, 1],
            ..OverlayConfig::default()
        });
        let _sub = sim
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2002)
                    .eq("conference", "icdcs")
                    .eq("author", "a")
                    .eq("title", "t"),
            )
            .unwrap();
        sim.settle();
        sim.publish(env(class, 0, biblio_event(1990, "x", "y", "z")));
        sim.settle();
        // Only the root should have received the event; it matches nothing.
        let received: u64 = sim
            .brokers()
            .iter()
            .map(|&b| sim.broker(b).unwrap().record().received)
            .sum();
        assert_eq!(received, 1);
        let root_rec = sim.broker(sim.root()).unwrap().record();
        assert_eq!(root_rec.received, 1);
        assert_eq!(root_rec.matched, 0);
    }

    #[test]
    fn lease_expiry_removes_unrenewed_filters() {
        let ttl = SimDuration::from_ticks(1_000);
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 1],
            leases_enabled: true,
            ttl,
            ..OverlayConfig::default()
        });
        let keep = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "k"))
            .unwrap();
        let drop = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "d"))
            .unwrap();
        sim.settle();
        assert!(sim.subscriber(keep).host().is_some());
        assert!(sim.subscriber(drop).host().is_some());

        // Unsubscribe via lease silence, then advance past 3 × TTL (+ sweep).
        sim.unsubscribe(drop);
        sim.run_for(ttl * 6);

        sim.publish(env(class, 0, biblio_event(2000, "c", "k", "t")));
        sim.publish(env(class, 1, biblio_event(2000, "c", "d", "t")));
        sim.settle();
        // The kept subscriber still gets its event; the dropped one is gone.
        assert_eq!(sim.deliveries(keep), &[EventSeq(0)]);
        assert_eq!(sim.deliveries(drop), &[] as &[EventSeq]);
    }

    #[test]
    fn renewed_subscriptions_survive_many_ttls() {
        let ttl = SimDuration::from_ticks(1_000);
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 1],
            leases_enabled: true,
            ttl,
            ..OverlayConfig::default()
        });
        let sub = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2000).eq("author", "k"))
            .unwrap();
        sim.settle();
        sim.run_for(ttl * 20);
        sim.publish(env(class, 0, biblio_event(2000, "c", "k", "t")));
        sim.settle();
        assert_eq!(sim.deliveries(sub).len(), 1);
    }

    #[test]
    fn metrics_cover_all_nodes() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 2, 1],
            ..OverlayConfig::default()
        });
        let _s = sim
            .add_subscriber(Filter::for_class(class).eq("year", 2002).eq("author", "a"))
            .unwrap();
        sim.settle();
        sim.publish(env(class, 0, biblio_event(2002, "c", "a", "t")));
        sim.settle();
        let m = sim.metrics();
        assert_eq!(m.records.len(), 4 + 2 + 1 + 1);
        assert_eq!(m.total_events, 1);
        assert_eq!(m.total_subs, 1);
        // The root evaluated 1 event against 1 filter.
        let root_rec = m.records.iter().find(|r| r.node == "N3.1").unwrap();
        assert_eq!(root_rec.evaluations, 1);
        assert!(m.global_rlc_total() > 0.0);
    }

    #[test]
    fn dump_tables_shows_the_weakening_pyramid() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![2, 1],
            ..OverlayConfig::default()
        });
        let _sub = sim
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2002)
                    .eq("conference", "icdcs")
                    .eq("author", "felber")
                    .eq("title", "tradeoffs"),
            )
            .unwrap();
        sim.settle();
        let dump = sim.dump_tables();
        // Root first, holding the weaker (year) filter for its child…
        assert!(dump.starts_with("N2.1 (stage 2):"));
        assert!(dump.contains("(year, 2002, =) (conference, \"icdcs\", =) -> N1."));
        // …and a stage-1 node holding the stronger form for the subscriber.
        assert!(dump.contains("(author, \"felber\", =) -> sub:filter#0"));
        assert!(dump.contains("(class, \"Biblio\", =)"));
    }

    #[test]
    fn residual_filter_sees_only_prefiltered_events() {
        let (mut sim, class) = biblio_sim(OverlayConfig {
            levels: vec![4, 1],
            ..OverlayConfig::default()
        });
        // Accept every other matching event (stateful residual).
        let counter = std::cell::Cell::new(0u32);
        let residual = move |_env: &Envelope| {
            let n = counter.get();
            counter.set(n + 1);
            n.is_multiple_of(2)
        };
        let sub = sim
            .add_subscriber_with(
                Filter::for_class(class).eq("year", 2002),
                Some(Box::new(residual)),
            )
            .unwrap();
        sim.settle();
        for i in 0..4u64 {
            sim.publish(env(
                class,
                i,
                biblio_event(2002, "c", "a", &format!("t{i}")),
            ));
        }
        sim.settle();
        assert_eq!(sim.deliveries(sub), &[EventSeq(0), EventSeq(2)]);
    }
}

#[cfg(test)]
mod advertise_validation_tests {
    use super::*;
    use layercake_event::StageMap;
    use layercake_workload::BiblioWorkload;

    #[test]
    #[should_panic(expected = "not registered")]
    fn advertising_an_unknown_class_panics() {
        let registry = Arc::new(TypeRegistry::new());
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![1],
                ..OverlayConfig::default()
            },
            registry,
        );
        sim.advertise(Advertisement::new(
            layercake_event::ClassId(9),
            StageMap::from_prefixes(&[1]).unwrap(),
        ));
    }

    #[test]
    #[should_panic(expected = "stage map fits")]
    fn advertising_an_oversized_stage_map_panics() {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![1],
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        // Biblio has 4 attributes; a 9-attribute prefix is out of range.
        sim.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[9]).unwrap(),
        ));
    }

    #[test]
    fn re_advertising_updates_the_stage_map() {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![2, 1],
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        sim.advertise(Advertisement::new(
            class,
            StageMap::from_prefixes(&[4, 1]).unwrap(),
        ));
        sim.settle();
        // Re-advertise with a deeper map: later subscriptions weaken by it.
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let h = sim
            .add_subscriber(
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "c")
                    .eq("author", "a")
                    .eq("title", "t"),
            )
            .unwrap();
        sim.settle();
        assert!(sim.subscriber(h).host().is_some());
        // Root holds the stage-2 form (year, conference) of the new map.
        let dump = sim.dump_tables();
        assert!(
            dump.contains("(year, 2000, =) (conference, \"c\", =) ->"),
            "{dump}"
        );
    }
}
