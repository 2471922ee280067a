//! The typed event-system facade.

use std::collections::HashSet;
use std::marker::PhantomData;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use layercake_event::{
    Advertisement, ClassId, Envelope, EventSeq, StageMap, TypeRegistry, TypedEvent,
};
use layercake_filter::Filter;
use layercake_metrics::RunMetrics;
use layercake_overlay::{OverlayConfig, OverlaySim, PlacementPolicy, SubscriberHandle};
use layercake_sim::SimDuration;

use crate::error::CoreError;
use crate::subscription::Subscription;

/// Builder for an [`EventSystem`].
///
/// All event types must be registered here, before the broker hierarchy is
/// built (brokers share an immutable view of the type registry, mirroring
/// the paper's assumption that type information is globally available for
/// reflection).
#[derive(Debug)]
pub struct EventSystemBuilder {
    overlay: OverlayConfig,
    registry: TypeRegistry,
}

impl Default for EventSystemBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSystemBuilder {
    /// Starts a builder with the paper's default topology (100/10/1).
    #[must_use]
    pub fn new() -> Self {
        Self {
            overlay: OverlayConfig::default(),
            registry: TypeRegistry::new(),
        }
    }

    /// Sets the broker counts per stage, from stage 1 up to the root
    /// (which must be 1). See [`OverlayConfig::levels`].
    #[must_use]
    pub fn levels(mut self, levels: &[usize]) -> Self {
        self.overlay.levels = levels.to_vec();
        self
    }

    /// Registers an event type (and requires its parent type, if any, to be
    /// registered first).
    ///
    /// # Errors
    ///
    /// Propagates registration conflicts from the type registry.
    pub fn with_event<E: TypedEvent>(mut self) -> Result<Self, CoreError> {
        self.registry.register_event::<E>()?;
        Ok(self)
    }

    /// Sets the subscription placement policy.
    #[must_use]
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.overlay.placement = placement;
        self
    }

    /// Enables the soft-state lease machinery with the given TTL.
    #[must_use]
    pub fn leases(mut self, ttl: SimDuration) -> Self {
        self.overlay.leases_enabled = true;
        self.overlay.ttl = ttl;
        self
    }

    /// Enables or disables stage-aware wildcard placement (Section 4.4).
    #[must_use]
    pub fn wildcard_stage_placement(mut self, enabled: bool) -> Self {
        self.overlay.wildcard_stage_placement = enabled;
        self
    }

    /// Seeds the brokers' random placement decisions.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.overlay.seed = seed;
        self
    }

    /// Builds the broker hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the topology is invalid (see
    /// [`OverlayConfig::validate`]).
    #[must_use]
    pub fn build(self) -> EventSystem {
        let registry = Arc::new(self.registry);
        EventSystem {
            sim: OverlaySim::new(self.overlay, registry),
            advertised: HashSet::new(),
            next_seq: 0,
            dispatchers: Vec::new(),
        }
    }
}

type Dispatcher = Box<dyn FnMut(Envelope) + Send>;

/// A type-safe publish/subscribe system running over a simulated
/// multi-stage filtering overlay.
///
/// See the [crate docs](crate) for a quickstart. The system is
/// deterministic: publications and subscriptions become effective when
/// [`EventSystem::settle`] drains the in-flight protocol traffic.
pub struct EventSystem {
    sim: OverlaySim,
    advertised: HashSet<ClassId>,
    next_seq: u64,
    dispatchers: Vec<(SubscriberHandle, Dispatcher)>,
}

impl std::fmt::Debug for EventSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSystem")
            .field("subscribers", &self.sim.subscriber_count())
            .field("published", &self.sim.published())
            .field("advertised", &self.advertised)
            .finish_non_exhaustive()
    }
}

impl EventSystem {
    /// Starts building an event system.
    #[must_use]
    pub fn builder() -> EventSystemBuilder {
        EventSystemBuilder::new()
    }

    /// The shared type registry.
    #[must_use]
    pub fn registry(&self) -> &Arc<TypeRegistry> {
        self.sim.registry()
    }

    /// The class id of a registered event type.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotRegistered`] if the type was not registered
    /// with the builder.
    pub fn class_of<E: TypedEvent>(&self) -> Result<ClassId, CoreError> {
        self.registry()
            .id_of(E::CLASS_NAME)
            .ok_or_else(|| CoreError::NotRegistered(E::CLASS_NAME.to_owned()))
    }

    /// Advertises an event class, flooding its attribute–stage association
    /// to every broker (Section 4.1). `stage_map: None` derives a stepped
    /// default: each stage above 0 drops one more least-general attribute.
    ///
    /// Publishing requires a prior advertisement; subscribing does not, but
    /// subscriptions placed before the advertisement are stored unweakened.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotRegistered`] for unregistered types.
    /// * Stage-map arity errors via [`CoreError::Event`].
    pub fn advertise<E: TypedEvent>(
        &mut self,
        stage_map: Option<StageMap>,
    ) -> Result<ClassId, CoreError> {
        let class = self.class_of::<E>()?;
        let arity = self
            .registry()
            .class(class)
            .expect("registered class exists")
            .arity();
        let map = match stage_map {
            Some(m) => {
                m.check_arity(arity)?;
                m
            }
            None => StageMap::stepped(arity, self.sim.registry().len().max(1))
                .and_then(|_| StageMap::stepped(arity, self.stages() + 1))?,
        };
        self.sim.advertise(Advertisement::new(class, map));
        self.sim.settle();
        self.advertised.insert(class);
        Ok(class)
    }

    /// Number of broker stages in the hierarchy.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.sim
            .brokers()
            .iter()
            .filter_map(|&b| self.sim.broker(b))
            .map(layercake_overlay::Broker::stage)
            .max()
            .unwrap_or(1)
    }

    /// Subscribes to events of type `E` (and subtypes) with a declarative
    /// filter. The closure receives a filter already scoped to `E`'s class
    /// and adds attribute constraints:
    ///
    /// ```ignore
    /// system.subscribe::<Stock>(|f| f.eq("symbol", "Foo").lt("price", 10.0))?;
    /// ```
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotRegistered`] for unregistered types.
    /// * [`CoreError::ClassMismatch`] if the closure rescoped the filter to
    ///   a class that is not `E` or a subtype.
    /// * Filter validation errors via [`CoreError::Filter`].
    pub fn subscribe<E: TypedEvent>(
        &mut self,
        build: impl FnOnce(Filter) -> Filter,
    ) -> Result<Subscription<E>, CoreError> {
        let class = self.class_of::<E>()?;
        self.subscribe_any_with::<E>(vec![build(Filter::for_class(class))], None)
    }

    /// Subscribes with a declarative filter *plus* a stateful typed residual
    /// predicate, evaluated only at the subscriber runtime — the paper's
    /// expressive filters (Section 3.4's `BuyFilter`):
    ///
    /// ```ignore
    /// let mut buy = BuyFilter::new("Foo", 10.0, 0.95);
    /// system.subscribe_with::<Stock, _>(
    ///     |f| f.eq("symbol", "Foo").lt("price", 10.0),
    ///     move |quote| buy.matches(quote),
    /// )?;
    /// ```
    ///
    /// Events whose meta-data does not rebuild an `E`
    /// ([`layercake_event::Envelope::decode`]) are rejected by the residual
    /// stage.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventSystem::subscribe`].
    pub fn subscribe_with<E: TypedEvent, R>(
        &mut self,
        build: impl FnOnce(Filter) -> Filter,
        mut residual: R,
    ) -> Result<Subscription<E>, CoreError>
    where
        R: FnMut(&E) -> bool + Send + 'static,
    {
        let wrapped = move |env: &Envelope| -> bool {
            env.decode::<E>().map(|e| residual(&e)).unwrap_or(false)
        };
        let class = self.class_of::<E>()?;
        self.subscribe_any_with::<E>(
            vec![build(Filter::for_class(class))],
            Some(Box::new(wrapped)),
        )
    }

    /// Subscribes with a *disjunction* of declarative filters: an event is
    /// delivered when any branch matches (the "conjunctions/disjunctions"
    /// expressiveness level of the paper's Figure 2). Branches without a
    /// class constraint are scoped to `E`'s class; each branch is routed
    /// independently, and events are delivered exactly once.
    ///
    /// ```ignore
    /// system.subscribe_any::<Stock>(vec![
    ///     Filter::any().eq("symbol", "Foo"),
    ///     Filter::any().lt("price", 1.0),
    /// ])?;
    /// ```
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventSystem::subscribe`], checked per branch;
    /// an empty branch list is a filter error.
    pub fn subscribe_any<E: TypedEvent>(
        &mut self,
        branches: Vec<Filter>,
    ) -> Result<Subscription<E>, CoreError> {
        self.subscribe_any_with::<E>(branches, None)
    }

    /// [`EventSystem::subscribe_any`] with a stateful typed residual
    /// predicate applied after the disjunction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`EventSystem::subscribe_any`].
    pub fn subscribe_any_with<E: TypedEvent>(
        &mut self,
        branches: Vec<Filter>,
        residual: Option<Box<dyn layercake_overlay::ResidualFilter>>,
    ) -> Result<Subscription<E>, CoreError> {
        let class = self.class_of::<E>()?;
        let mut scoped = Vec::with_capacity(branches.len());
        for branch in branches {
            let branch = if branch.class().is_none() {
                branch.with_class(Some(class))
            } else {
                branch
            };
            match branch.class() {
                Some(c) if self.registry().is_subtype(c, class) => {}
                other => {
                    let filter_class = other
                        .and_then(|c| self.registry().class(c).map(|cl| cl.name().to_owned()))
                        .unwrap_or_else(|| "<none>".to_owned());
                    return Err(CoreError::ClassMismatch {
                        subscribed: E::CLASS_NAME.to_owned(),
                        filter_class,
                    });
                }
            }
            scoped.push(branch);
        }
        let handle = self.sim.add_subscriber_any(scoped, residual)?;
        self.sim.set_store_envelopes(handle, true);
        // Complete the placement walk before returning so that the
        // subscription is immediately effective for subsequent publishes.
        self.sim.settle();
        Ok(Subscription::new(handle))
    }

    /// Publishes a typed event: its meta-data is extracted once at this
    /// edge — it is all that travels; subscribers rebuild the object from
    /// it — and the envelope enters the hierarchy at the root.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotRegistered`] / [`CoreError::NotAdvertised`] if the
    ///   type is unknown or was never advertised.
    /// * [`CoreError::Event`] with `EventError::NonFiniteAttr` when a float
    ///   field is NaN or infinite.
    pub fn publish<E: TypedEvent>(&mut self, event: &E) -> Result<EventSeq, CoreError> {
        let class = self.class_of::<E>()?;
        if !self.advertised.contains(&class) {
            return Err(CoreError::NotAdvertised(E::CLASS_NAME.to_owned()));
        }
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        let env = Envelope::encode(class, seq, event)?;
        self.sim.publish(env);
        Ok(seq)
    }

    /// Drains in-flight protocol traffic: placements complete, published
    /// events are filtered down and delivered, channel subscriptions
    /// receive their events.
    pub fn settle(&mut self) {
        self.sim.settle();
        for (handle, dispatch) in &mut self.dispatchers {
            for env in self.sim.take_inbox(*handle) {
                dispatch(env);
            }
        }
    }

    /// Advances virtual time by `d` (lease renewals and expiries included).
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Drains the typed events accepted by a subscription since the last
    /// poll.
    ///
    /// # Errors
    ///
    /// Returns a decode error if a delivered event's meta-data does not
    /// rebuild an `E` (cannot happen for events published through
    /// [`EventSystem::publish`] with a correctly-registered hierarchy).
    pub fn poll<E: TypedEvent>(&mut self, sub: &Subscription<E>) -> Result<Vec<E>, CoreError> {
        self.sim
            .take_inbox(sub.handle)
            .into_iter()
            .map(|env| env.decode::<E>().map_err(CoreError::from))
            .collect()
    }

    /// Exchanges a subscription for a typed channel: every event accepted
    /// after this call is decoded and pushed into the returned receiver on
    /// [`EventSystem::settle`]. Don't combine with [`EventSystem::poll`]
    /// on the same subscription — whichever drains first wins.
    pub fn channel<E: TypedEvent>(&mut self, sub: &Subscription<E>) -> Receiver<E> {
        let (tx, rx) = channel();
        let dispatch = move |env: Envelope| {
            if let Ok(event) = env.decode::<E>() {
                let _ = tx.send(event);
            }
        };
        self.dispatchers.push((sub.handle, Box::new(dispatch)));
        let _marker: PhantomData<E> = PhantomData;
        rx
    }

    /// Soft-state unsubscription: stops lease renewal for the subscription
    /// (effective once 3 × TTL pass; requires leases to be enabled).
    pub fn unsubscribe<E: TypedEvent>(&mut self, sub: &Subscription<E>) {
        self.sim.unsubscribe(sub.handle);
    }

    /// Explicit unsubscription (Section 4.3): removes the subscription from
    /// its hosting node immediately and withdraws no-longer-needed weakened
    /// filters up the hierarchy. Takes effect at the next
    /// [`EventSystem::settle`].
    pub fn unsubscribe_now<E: TypedEvent>(&mut self, sub: &Subscription<E>) -> bool {
        self.sim.unsubscribe_now(sub.handle)
    }

    /// Takes a durable subscription offline: its hosting broker buffers
    /// matching events until [`EventSystem::reconnect`] (Section 2.1's
    /// "durable subscriptions" for temporarily disconnected subscribers).
    pub fn disconnect<E: TypedEvent>(&mut self, sub: &Subscription<E>) -> bool {
        self.sim.disconnect(sub.handle)
    }

    /// Brings a durable subscription back online; buffered events are
    /// delivered in publication order at the next settle.
    pub fn reconnect<E: TypedEvent>(&mut self, sub: &Subscription<E>) -> bool {
        self.sim.reconnect(sub.handle)
    }

    /// Per-node filtering metrics of everything run so far.
    #[must_use]
    pub fn metrics(&self) -> RunMetrics {
        self.sim.metrics()
    }

    /// Total events published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.sim.published()
    }

    /// Direct access to the underlying overlay simulation (for evaluation
    /// harnesses that need broker-level introspection).
    #[must_use]
    pub fn overlay(&self) -> &OverlaySim {
        &self.sim
    }

    /// Mutable access to the underlying overlay simulation.
    pub fn overlay_mut(&mut self) -> &mut OverlaySim {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::typed_event;
    use layercake_workload::stock::{BuyFilter, Stock, VolumeStock};

    fn stock_system() -> EventSystem {
        let mut system = EventSystem::builder()
            .levels(&[4, 2, 1])
            .with_event::<Stock>()
            .unwrap()
            .with_event::<VolumeStock>()
            .unwrap()
            .build();
        system.advertise::<Stock>(None).unwrap();
        system.advertise::<VolumeStock>(None).unwrap();
        system
    }

    #[test]
    fn typed_end_to_end() {
        let mut system = stock_system();
        let sub = system
            .subscribe::<Stock>(|f| f.eq("symbol", "Foo").lt("price", 10.0))
            .unwrap();
        system.settle();
        system.publish(&Stock::new("Foo".into(), 9.0)).unwrap();
        system.publish(&Stock::new("Foo".into(), 12.0)).unwrap();
        system.publish(&Stock::new("Bar".into(), 5.0)).unwrap();
        system.settle();
        let got = system.poll(&sub).unwrap();
        assert_eq!(got, vec![Stock::new("Foo".into(), 9.0)]);
        // Poll drains: a second poll is empty.
        assert!(system.poll(&sub).unwrap().is_empty());
    }

    #[test]
    fn polymorphic_delivery_of_subtypes() {
        let mut system = stock_system();
        let base_sub = system
            .subscribe::<Stock>(|f| f.eq("symbol", "Neo"))
            .unwrap();
        system.settle();
        system
            .publish(&VolumeStock::new("Neo".into(), 42.0, 1_000))
            .unwrap();
        system.settle();
        // The subtype event decodes into the supertype view.
        let got = system.poll(&base_sub).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].symbol(), "Neo");
        assert_eq!(*got[0].price(), 42.0);
    }

    #[test]
    fn subtype_subscription_ignores_base_events() {
        let mut system = stock_system();
        let sub = system.subscribe::<VolumeStock>(|f| f).unwrap();
        system.settle();
        system.publish(&Stock::new("Foo".into(), 1.0)).unwrap();
        system
            .publish(&VolumeStock::new("Foo".into(), 1.0, 10))
            .unwrap();
        system.settle();
        let got = system.poll(&sub).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0].volume(), 10);
    }

    #[test]
    fn stateful_residual_buy_filter() {
        let mut system = stock_system();
        let mut buy = BuyFilter::new("Foo", 10.0, 0.95);
        let sub = system
            .subscribe_with::<Stock, _>(
                |f| f.eq("symbol", "Foo").lt("price", 10.0),
                move |quote| buy.matches(quote),
            )
            .unwrap();
        system.settle();
        // 9.0 primes `last` without matching; 8.0 is a >5% drop: match.
        system.publish(&Stock::new("Foo".into(), 9.0)).unwrap();
        system.publish(&Stock::new("Foo".into(), 8.0)).unwrap();
        system.publish(&Stock::new("Foo".into(), 8.3)).unwrap();
        system.settle();
        let got = system.poll(&sub).unwrap();
        assert_eq!(got, vec![Stock::new("Foo".into(), 8.0)]);
    }

    #[test]
    fn publish_requires_advertisement() {
        typed_event! {
            pub struct Lonely: "Lonely" { x: i64 }
        }
        let mut system = EventSystem::builder()
            .levels(&[2, 1])
            .with_event::<Lonely>()
            .unwrap()
            .build();
        let err = system.publish(&Lonely::new(1)).unwrap_err();
        assert!(matches!(err, CoreError::NotAdvertised(_)));
        system.advertise::<Lonely>(None).unwrap();
        assert!(system.publish(&Lonely::new(1)).is_ok());
    }

    #[test]
    fn unregistered_type_is_rejected() {
        typed_event! {
            pub struct Ghost: "Ghost" { x: i64 }
        }
        let mut system = stock_system();
        assert!(matches!(
            system.publish(&Ghost::new(1)),
            Err(CoreError::NotRegistered(_))
        ));
        assert!(matches!(
            system.subscribe::<Ghost>(|f| f),
            Err(CoreError::NotRegistered(_))
        ));
    }

    #[test]
    fn class_mismatch_in_filter_is_rejected() {
        let mut system = stock_system();
        let auction_like = system.class_of::<VolumeStock>().unwrap();
        // Rescoping a VolumeStock filter onto a Stock subscription is fine
        // (subtype)…
        assert!(system
            .subscribe::<Stock>(|f| f.with_class(Some(auction_like)))
            .is_ok());
        // …but scoping a VolumeStock subscription at the Stock class is not.
        let stock_class = system.class_of::<Stock>().unwrap();
        let err = system
            .subscribe::<VolumeStock>(|f| f.with_class(Some(stock_class)))
            .unwrap_err();
        assert!(matches!(err, CoreError::ClassMismatch { .. }));
    }

    #[test]
    fn channel_subscription_receives_on_settle() {
        let mut system = stock_system();
        let sub = system
            .subscribe::<Stock>(|f| f.eq("symbol", "Foo"))
            .unwrap();
        let rx = system.channel(&sub);
        system.settle();
        system.publish(&Stock::new("Foo".into(), 3.0)).unwrap();
        system.publish(&Stock::new("Bar".into(), 3.0)).unwrap();
        system.settle();
        let got: Vec<Stock> = rx.try_iter().collect();
        assert_eq!(got, vec![Stock::new("Foo".into(), 3.0)]);
    }

    #[test]
    fn metrics_expose_broker_work() {
        let mut system = stock_system();
        let _sub = system
            .subscribe::<Stock>(|f| f.eq("symbol", "Foo"))
            .unwrap();
        system.settle();
        system.publish(&Stock::new("Foo".into(), 1.0)).unwrap();
        system.settle();
        let m = system.metrics();
        assert_eq!(m.total_events, 1);
        assert_eq!(m.total_subs, 1);
        assert!(m.records.len() >= 8);
        assert!(m.global_rlc_total() > 0.0);
    }

    #[test]
    fn builder_knobs_compose() {
        let system = EventSystem::builder()
            .levels(&[2, 1])
            .placement(PlacementPolicy::Random)
            .wildcard_stage_placement(false)
            .seed(7)
            .with_event::<Stock>()
            .unwrap()
            .build();
        assert_eq!(system.stages(), 2);
        assert!(!format!("{system:?}").is_empty());
    }
}
