//! Non-hierarchical (peer-to-peer) multi-stage filtering.
//!
//! The paper confines its presentation to hierarchies, noting that
//! "non-hierarchical configurations can also be used, but they have a
//! higher complexity" (Section 4, footnote 1). This module implements that
//! configuration: brokers form an arbitrary *acyclic, connected* peer graph
//! (no root, no stages); publishers and subscribers attach to any broker.
//!
//! Multi-stage filtering generalizes naturally: a subscription's filter is
//! weakened by *hop distance* from the subscriber's access broker — the
//! access broker holds the distance-1 form, its neighbors the distance-2
//! form, and so on, using the same attribute–stage association `G_c` that
//! drives hierarchical weakening. Events flow along the reverse paths of
//! subscription propagation, filtered at every hop against per-neighbor
//! tables, so they are pre-filtered ever more precisely as they approach
//! interested subscribers — the paper's scheme without the hierarchy.
//!
//! The "higher complexity" the paper alludes to is concrete here: every
//! broker keeps one filter table *per neighbor link* plus one for local
//! subscribers, and subscription state is flooded once through the whole
//! graph instead of along a single root path. The `exp_mesh` experiment
//! quantifies the comparison.

use std::collections::HashMap;
use std::sync::Arc;

use layercake_event::{Advertisement, ClassId, Envelope, EventSeq, StageMap, TypeRegistry};
use layercake_filter::{
    standardize, weaken_to_stage, DestId, Filter, FilterError, FilterId, FilterTable,
};
use layercake_metrics::{NodeRecord, RunMetrics};
use layercake_sim::{Actor, ActorId, Ctx, SimDuration, World};

use crate::broker::{actor_of, dest_of};

/// Messages of the mesh protocol.
#[derive(Debug, Clone)]
pub enum MeshMsg {
    /// Class advertisement, flooded through the graph.
    Advertise(Advertisement),
    /// A subscriber registers at its access broker.
    Subscribe {
        /// Subscription id.
        id: FilterId,
        /// Standardized filter.
        filter: Filter,
        /// The subscribing node.
        subscriber: ActorId,
    },
    /// Acknowledgement to the subscriber.
    Accepted {
        /// The accepted subscription.
        id: FilterId,
    },
    /// Subscription interest propagating away from its subscriber:
    /// the filter is already weakened to `distance` hops.
    Propagate {
        /// The weakened filter for this distance.
        filter: Filter,
        /// Hop distance from the access broker (the access broker itself
        /// holds distance 1).
        distance: usize,
    },
    /// An event traveling through the mesh.
    Publish(Envelope),
    /// An event delivered to a subscriber runtime.
    Deliver(Envelope),
}

/// A mesh broker: per-neighbor interest tables plus a local table for
/// directly attached subscribers.
#[derive(Debug)]
pub struct MeshBroker {
    label: String,
    neighbors: Vec<ActorId>,
    registry: Arc<TypeRegistry>,
    stage_maps: HashMap<ClassId, StageMap>,
    /// Interest of each neighbor's direction (filters received from it).
    links: HashMap<ActorId, FilterTable>,
    /// Filters of locally attached subscribers.
    local: FilterTable,
    received: u64,
    matched: u64,
    evaluations: u64,
    bytes_received: u64,
    /// Reused per-event buffer of local match results, so the publish hot
    /// path does not allocate per event.
    dest_scratch: Vec<DestId>,
}

impl MeshBroker {
    fn new(label: String, registry: Arc<TypeRegistry>) -> Self {
        Self {
            label,
            neighbors: Vec::new(),
            registry,
            stage_maps: HashMap::new(),
            links: HashMap::new(),
            local: FilterTable::default(),
            received: 0,
            matched: 0,
            evaluations: 0,
            bytes_received: 0,
            dest_scratch: Vec::new(),
        }
    }

    /// The broker's display label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total filters stored (local + all links).
    #[must_use]
    pub fn filter_count(&self) -> usize {
        self.local.filter_count()
            + self
                .links
                .values()
                .map(FilterTable::filter_count)
                .sum::<usize>()
    }

    /// Counters as a metrics record. Mesh brokers have no stage; they are
    /// reported at stage 1 (the broker tier).
    #[must_use]
    pub fn record(&self) -> NodeRecord {
        NodeRecord {
            node: self.label.clone(),
            stage: 1,
            filters: self.filter_count(),
            received: self.received,
            matched: self.matched,
            evaluations: self.evaluations,
            bytes_received: self.bytes_received,
        }
    }

    fn weaken(&self, filter: &Filter, distance: usize) -> Filter {
        let Some(class_id) = filter.class() else {
            return filter.clone();
        };
        let (Some(class), Some(g)) = (
            self.registry.class(class_id),
            self.stage_maps.get(&class_id),
        ) else {
            return filter.clone();
        };
        weaken_to_stage(filter, class, g, distance)
    }

    fn handle(&mut self, from: ActorId, msg: MeshMsg, ctx: &mut Ctx<'_, MeshMsg>) {
        match msg {
            MeshMsg::Advertise(adv) => {
                if self
                    .stage_maps
                    .insert(adv.class, adv.stage_map.clone())
                    .is_none()
                {
                    for &n in &self.neighbors {
                        if n != from {
                            ctx.send(n, MeshMsg::Advertise(adv.clone()));
                        }
                    }
                }
            }
            MeshMsg::Subscribe {
                id,
                filter,
                subscriber,
            } => {
                let weakened = self.weaken(&filter, 1);
                self.local.insert(weakened, dest_of(subscriber));
                ctx.send(subscriber, MeshMsg::Accepted { id });
                let next = self.weaken(&filter, 2);
                for &n in &self.neighbors {
                    ctx.send(
                        n,
                        MeshMsg::Propagate {
                            filter: next.clone(),
                            distance: 2,
                        },
                    );
                }
            }
            MeshMsg::Propagate { filter, distance } => {
                let table = self.links.entry(from).or_default();
                let created = table.insert(filter.clone(), dest_of(from));
                if created {
                    let next = self.weaken(&filter, distance + 1);
                    for &n in &self.neighbors {
                        if n != from {
                            ctx.send(
                                n,
                                MeshMsg::Propagate {
                                    filter: next.clone(),
                                    distance: distance + 1,
                                },
                            );
                        }
                    }
                }
            }
            MeshMsg::Publish(env) => {
                self.received += 1;
                self.evaluations += self.filter_count() as u64;
                self.bytes_received += env.wire_size() as u64;
                let mut forwarded = false;
                // Local subscribers. The envelope clone per delivery is an
                // `Arc` bump: all copies share one body.
                let mut dests = std::mem::take(&mut self.dest_scratch);
                self.local
                    .matches(env.class(), env.meta(), &self.registry, &mut dests);
                for d in &dests {
                    ctx.send(actor_of(*d), MeshMsg::Deliver(env.clone()));
                    forwarded = true;
                }
                self.dest_scratch = dests;
                // Interested neighbor directions (never back the way the
                // event came; the graph is acyclic so this terminates).
                let neighbors = self.neighbors.clone();
                for n in neighbors {
                    if n == from {
                        continue;
                    }
                    if let Some(table) = self.links.get_mut(&n) {
                        if table.matches_any(env.class(), env.meta(), &self.registry) {
                            ctx.send(n, MeshMsg::Publish(env.clone()));
                            forwarded = true;
                        }
                    }
                }
                if forwarded {
                    self.matched += 1;
                }
            }
            MeshMsg::Accepted { .. } | MeshMsg::Deliver(_) => {
                debug_assert!(
                    false,
                    "subscriber-bound mesh message at broker {}",
                    self.label
                );
            }
        }
    }
}

/// A mesh subscriber runtime: receives deliveries from its access broker
/// and applies the exact original filter.
#[derive(Debug)]
pub struct MeshSubscriber {
    label: String,
    filter: Filter,
    registry: Arc<TypeRegistry>,
    accepted: bool,
    received: u64,
    matched: u64,
    bytes_received: u64,
    deliveries: Vec<EventSeq>,
}

impl MeshSubscriber {
    /// Sequence numbers of accepted events.
    #[must_use]
    pub fn deliveries(&self) -> &[EventSeq] {
        &self.deliveries
    }

    /// Whether the access broker acknowledged the subscription.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.accepted
    }

    /// Counters as a stage-0 metrics record.
    #[must_use]
    pub fn record(&self) -> NodeRecord {
        NodeRecord {
            node: self.label.clone(),
            stage: 0,
            filters: 1,
            received: self.received,
            matched: self.matched,
            evaluations: self.received,
            bytes_received: self.bytes_received,
        }
    }
}

/// A node of the mesh simulation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum MeshNode {
    /// A peer broker.
    Broker(MeshBroker),
    /// A subscriber runtime.
    Subscriber(MeshSubscriber),
}

impl Actor for MeshNode {
    type Msg = MeshMsg;

    fn on_message(&mut self, from: ActorId, msg: MeshMsg, ctx: &mut Ctx<'_, MeshMsg>) {
        match self {
            MeshNode::Broker(b) => b.handle(from, msg, ctx),
            MeshNode::Subscriber(s) => match msg {
                MeshMsg::Accepted { .. } => s.accepted = true,
                MeshMsg::Deliver(env) => {
                    s.received += 1;
                    s.bytes_received += env.wire_size() as u64;
                    if s.filter.matches_envelope(&env, &s.registry) {
                        s.matched += 1;
                        s.deliveries.push(env.seq());
                    }
                }
                other => {
                    debug_assert!(false, "unexpected mesh message at subscriber: {other:?}");
                }
            },
        }
    }
}

/// Configuration of a peer mesh.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Number of brokers.
    pub brokers: usize,
    /// Undirected broker-graph edges; the graph must be connected and
    /// acyclic (a free tree — no designated root).
    pub edges: Vec<(usize, usize)>,
}

impl MeshConfig {
    /// A line (path) topology of `n` brokers.
    #[must_use]
    pub fn line(n: usize) -> Self {
        Self {
            brokers: n,
            edges: (1..n).map(|i| (i - 1, i)).collect(),
        }
    }

    /// A star topology: broker 0 in the middle.
    #[must_use]
    pub fn star(n: usize) -> Self {
        Self {
            brokers: n,
            edges: (1..n).map(|i| (0, i)).collect(),
        }
    }

    /// Validates connectivity and acyclicity.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.brokers == 0 {
            return Err("mesh needs at least one broker".to_owned());
        }
        if self.edges.len() != self.brokers - 1 {
            return Err(format!(
                "a free tree over {} brokers needs exactly {} edges (got {})",
                self.brokers,
                self.brokers - 1,
                self.edges.len()
            ));
        }
        // Union-find for connectivity + cycle detection.
        let mut parent: Vec<usize> = (0..self.brokers).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &(a, b) in &self.edges {
            if a >= self.brokers || b >= self.brokers {
                return Err(format!("edge ({a}, {b}) references an unknown broker"));
            }
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return Err(format!("edge ({a}, {b}) closes a cycle"));
            }
            parent[ra] = rb;
        }
        Ok(())
    }
}

/// Handle to a mesh subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshSubscriberHandle(ActorId);

/// A peer-to-peer multi-stage filtering overlay.
pub struct MeshSim {
    world: World<MeshNode>,
    registry: Arc<TypeRegistry>,
    brokers: Vec<ActorId>,
    subscribers: Vec<ActorId>,
    next_filter: u64,
    published: u64,
}

impl MeshSim {
    /// Builds the mesh.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MeshConfig::validate`].
    #[must_use]
    pub fn new(cfg: MeshConfig, registry: Arc<TypeRegistry>) -> Self {
        cfg.validate().expect("invalid mesh configuration");
        let mut world = World::with_latency(SimDuration::from_ticks(1));
        let brokers: Vec<ActorId> = (0..cfg.brokers)
            .map(|i| {
                world.add_actor(MeshNode::Broker(MeshBroker::new(
                    format!("P{i}"),
                    Arc::clone(&registry),
                )))
            })
            .collect();
        for &(a, b) in &cfg.edges {
            let (ia, ib) = (brokers[a], brokers[b]);
            if let MeshNode::Broker(x) = world.actor_mut(ia) {
                x.neighbors.push(ib);
            }
            if let MeshNode::Broker(x) = world.actor_mut(ib) {
                x.neighbors.push(ia);
            }
        }
        Self {
            world,
            registry,
            brokers,
            subscribers: Vec::new(),
            next_filter: 0,
            published: 0,
        }
    }

    /// Floods an advertisement from broker 0.
    pub fn advertise(&mut self, adv: Advertisement) {
        self.world
            .send_external(self.brokers[0], MeshMsg::Advertise(adv));
    }

    /// Attaches a subscriber to the broker at `broker_idx`.
    ///
    /// # Errors
    ///
    /// Standardization errors as in the hierarchical overlay.
    ///
    /// # Panics
    ///
    /// Panics if `broker_idx` is out of range.
    pub fn add_subscriber_at(
        &mut self,
        broker_idx: usize,
        filter: Filter,
    ) -> Result<MeshSubscriberHandle, FilterError> {
        let class_id = filter.class().ok_or(FilterError::MissingClass)?;
        let class = self
            .registry
            .class(class_id)
            .ok_or(FilterError::UnknownClass)?;
        let standardized = standardize(&filter, class)?;
        let id = FilterId(self.next_filter);
        self.next_filter += 1;
        let actor = self.world.add_actor(MeshNode::Subscriber(MeshSubscriber {
            label: format!("msub-{:04}", self.subscribers.len()),
            filter: standardized.clone(),
            registry: Arc::clone(&self.registry),
            accepted: false,
            received: 0,
            matched: 0,
            bytes_received: 0,
            deliveries: Vec::new(),
        }));
        self.subscribers.push(actor);
        self.world.send_external(
            self.brokers[broker_idx],
            MeshMsg::Subscribe {
                id,
                filter: standardized,
                subscriber: actor,
            },
        );
        Ok(MeshSubscriberHandle(actor))
    }

    /// Publishes an event at the broker at `broker_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `broker_idx` is out of range.
    pub fn publish_at(&mut self, broker_idx: usize, env: Envelope) {
        self.published += 1;
        self.world
            .send_external(self.brokers[broker_idx], MeshMsg::Publish(env));
    }

    /// Drains in-flight traffic.
    pub fn settle(&mut self) {
        self.world.run();
    }

    /// Sequence numbers accepted by a subscriber.
    ///
    /// # Panics
    ///
    /// Panics if the handle does not belong to this mesh.
    #[must_use]
    pub fn deliveries(&self, handle: MeshSubscriberHandle) -> &[EventSeq] {
        match self.world.actor(handle.0) {
            MeshNode::Subscriber(s) => s.deliveries(),
            MeshNode::Broker(_) => panic!("handle points at a broker"),
        }
    }

    /// The broker at an index.
    #[must_use]
    pub fn broker(&self, idx: usize) -> &MeshBroker {
        match self.world.actor(self.brokers[idx]) {
            MeshNode::Broker(b) => b,
            MeshNode::Subscriber(_) => unreachable!("broker ids point at brokers"),
        }
    }

    /// Number of brokers.
    #[must_use]
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }

    /// Collects run metrics (brokers at stage 1, subscribers at stage 0).
    #[must_use]
    pub fn metrics(&self) -> RunMetrics {
        let mut m = RunMetrics::new(self.published, self.subscribers.len() as u64);
        for node in self.world.actors() {
            match node {
                MeshNode::Broker(b) => m.push(b.record()),
                MeshNode::Subscriber(s) => m.push(s.record()),
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::event_data;
    use layercake_workload::BiblioWorkload;

    fn mesh(cfg: MeshConfig) -> (MeshSim, ClassId) {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = MeshSim::new(cfg, Arc::new(registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        (sim, class)
    }

    fn env(class: ClassId, seq: u64, year: i64, conf: &str, author: &str, title: &str) -> Envelope {
        Envelope::from_meta(
            class,
            "Biblio",
            EventSeq(seq),
            event_data! { "year" => year, "conference" => conf, "author" => author, "title" => title },
        )
    }

    #[test]
    fn config_validation() {
        assert!(MeshConfig::line(5).validate().is_ok());
        assert!(MeshConfig::star(5).validate().is_ok());
        let mut bad = MeshConfig::line(4);
        bad.edges.push((0, 3)); // closes a cycle
        assert!(bad.validate().is_err());
        let mut missing = MeshConfig::line(4);
        missing.edges.pop(); // disconnects
        assert!(missing.validate().is_err());
        assert!(MeshConfig {
            brokers: 0,
            edges: vec![],
        }
        .validate()
        .is_err());
        let oob = MeshConfig {
            brokers: 2,
            edges: vec![(0, 5)],
        };
        assert!(oob.validate().is_err());
    }

    #[test]
    fn delivery_across_a_line() {
        // Subscriber at one end, publisher at the other: the event crosses
        // every broker, each filtering with a progressively weaker filter.
        let (mut sim, class) = mesh(MeshConfig::line(5));
        let sub = sim
            .add_subscriber_at(
                0,
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "icdcs")
                    .eq("author", "a")
                    .eq("title", "t"),
            )
            .unwrap();
        sim.settle();
        sim.publish_at(4, env(class, 0, 2000, "icdcs", "a", "t"));
        sim.publish_at(4, env(class, 1, 1999, "icdcs", "a", "t"));
        sim.settle();
        assert_eq!(sim.deliveries(sub), &[EventSeq(0)]);
    }

    #[test]
    fn far_events_are_prefiltered_by_weak_filters() {
        let (mut sim, class) = mesh(MeshConfig::line(4));
        let _sub = sim
            .add_subscriber_at(
                0,
                Filter::for_class(class)
                    .eq("year", 2000)
                    .eq("conference", "icdcs")
                    .eq("author", "a")
                    .eq("title", "t"),
            )
            .unwrap();
        sim.settle();
        // Wrong *year*: even the weakest (most distant) filter rejects it,
        // so it dies at the entry broker.
        sim.publish_at(3, env(class, 0, 1812, "icdcs", "a", "t"));
        sim.settle();
        assert_eq!(sim.broker(3).record().received, 1);
        for idx in 0..3 {
            assert_eq!(
                sim.broker(idx).record().received,
                0,
                "broker {idx} saw the event"
            );
        }
        // Wrong *author* only: passes the distant (year) and (year, conf)
        // filters all the way to the access broker, whose strong distance-1
        // filter finally rejects it — the subscriber never sees it.
        sim.publish_at(3, env(class, 1, 2000, "icdcs", "zzz", "t"));
        sim.settle();
        assert_eq!(
            sim.broker(1).record().received,
            1,
            "distance-2 filter admits it"
        );
        let access = sim.broker(0).record();
        assert_eq!(access.received, 1, "the access broker evaluates it");
        assert_eq!(access.matched, 0, "…and rejects it before delivery");
        assert_eq!(sim.deliveries(_sub), &[] as &[EventSeq]);
    }

    #[test]
    fn star_fanout_only_to_interested_arms() {
        let (mut sim, class) = mesh(MeshConfig::star(6));
        let s1 = sim
            .add_subscriber_at(1, Filter::for_class(class).eq("year", 2000))
            .unwrap();
        let s2 = sim
            .add_subscriber_at(2, Filter::for_class(class).eq("year", 2001))
            .unwrap();
        sim.settle();
        sim.publish_at(3, env(class, 0, 2000, "c", "a", "t"));
        sim.settle();
        assert_eq!(sim.deliveries(s1), &[EventSeq(0)]);
        assert!(sim.deliveries(s2).is_empty());
        // Uninterested arms never see the event.
        for idx in [4usize, 5] {
            assert_eq!(sim.broker(idx).record().received, 0, "arm {idx}");
        }
        // The hub forwarded only towards broker 1.
        assert_eq!(sim.broker(2).record().received, 0);
    }

    #[test]
    fn publisher_and_subscriber_on_same_broker() {
        let (mut sim, class) = mesh(MeshConfig::line(3));
        let sub = sim
            .add_subscriber_at(1, Filter::for_class(class).eq("year", 2000))
            .unwrap();
        sim.settle();
        sim.publish_at(1, env(class, 0, 2000, "c", "a", "t"));
        sim.settle();
        assert_eq!(sim.deliveries(sub).len(), 1);
        // No echo to the other brokers beyond interest (none subscribed).
        assert_eq!(sim.broker(0).record().received, 0);
        assert_eq!(sim.broker(2).record().received, 0);
    }

    #[test]
    fn multiple_subscribers_share_propagated_interest() {
        let (mut sim, class) = mesh(MeshConfig::line(3));
        let a = sim
            .add_subscriber_at(
                0,
                Filter::for_class(class).eq("year", 2000).eq("author", "x"),
            )
            .unwrap();
        let b = sim
            .add_subscriber_at(
                0,
                Filter::for_class(class).eq("year", 2000).eq("author", "y"),
            )
            .unwrap();
        sim.settle();
        sim.publish_at(2, env(class, 0, 2000, "c", "x", "t"));
        sim.publish_at(2, env(class, 1, 2000, "c", "y", "t"));
        sim.settle();
        assert_eq!(sim.deliveries(a), &[EventSeq(0)]);
        assert_eq!(sim.deliveries(b), &[EventSeq(1)]);
    }

    #[test]
    fn mesh_zero_loss_against_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut registry = TypeRegistry::new();
        let mut rng = StdRng::seed_from_u64(5);
        let workload = layercake_workload::BiblioWorkload::new(
            layercake_workload::BiblioConfig {
                subscriptions: 30,
                conferences: 5,
                authors: 20,
                titles: 40,
                ..Default::default()
            },
            &mut registry,
            &mut rng,
        );
        let class = workload.class();
        let registry = Arc::new(registry);
        let mut sim = MeshSim::new(MeshConfig::line(6), Arc::clone(&registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let handles: Vec<_> = workload
            .subscriptions()
            .iter()
            .map(|f| {
                let at = rng.gen_range(0..6);
                let h = sim.add_subscriber_at(at, f.clone()).unwrap();
                sim.settle();
                h
            })
            .collect();
        let stream: Vec<Envelope> = (0..400).map(|s| workload.envelope(s, &mut rng)).collect();
        for e in &stream {
            let at = rng.gen_range(0..6);
            sim.publish_at(at, e.clone());
        }
        sim.settle();
        for (h, f) in handles.iter().zip(workload.subscriptions()) {
            let oracle: Vec<EventSeq> = stream
                .iter()
                .filter(|e| f.matches_envelope(e, &registry))
                .map(Envelope::seq)
                .collect();
            let mut got = sim.deliveries(*h).to_vec();
            got.sort();
            assert_eq!(got, oracle, "mesh delivery mismatch for {f}");
        }
    }

    #[test]
    fn metrics_cover_brokers_and_subscribers() {
        let (mut sim, class) = mesh(MeshConfig::star(4));
        let _s = sim
            .add_subscriber_at(1, Filter::for_class(class).eq("year", 2000))
            .unwrap();
        sim.settle();
        sim.publish_at(2, env(class, 0, 2000, "c", "a", "t"));
        sim.settle();
        let m = sim.metrics();
        assert_eq!(m.records.len(), 5);
        assert_eq!(m.total_events, 1);
        assert!(m.global_rlc_total() > 0.0);
        assert_eq!(sim.broker_count(), 4);
    }
}
