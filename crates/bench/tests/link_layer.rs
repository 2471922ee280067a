//! The simulator's link layer on its own: two trivial nodes behind
//! `Linked`, no broker hierarchy. The nodes panic when handed anything
//! but the plain `Publish`/`Deliver`/`Rejoin` they speak, so every run
//! also checks what the wrapper releases to them.

use std::sync::Arc;

use layercake_bench::link::{with_links, LinkConfig, Linked};
use layercake_event::{
    Advertisement, AttributeDecl, BinCodec, ClassId, CodecError, DecodeDict, DictMode, Envelope,
    EventData, EventSeq, TypeRegistry, ValueKind, WireReader,
};
use layercake_filter::{Filter, FilterId};
use layercake_metrics::RunMetrics;
use layercake_overlay::topology::build_subscriber;
use layercake_overlay::{
    Host, Node, NodeCtx, OverlayConfig, OverlayMsg, OverlaySim, SubscriberNode,
};
use layercake_sim::{ActorId, FaultPlan, SimDuration, SimTime, World};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FORWARDER: ActorId = ActorId(0);
const RECORDER: ActorId = ActorId(1);

#[derive(Debug)]
enum Fake {
    /// Forwards what it is given to the recorder, and tells it when it
    /// has restarted.
    Forwarder,
    /// Records what it is given.
    Recorder { seen: Vec<u64>, rejoins: u32 },
}

impl Node for Fake {
    fn on_message(&mut self, _from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        match (self, msg) {
            (Fake::Forwarder, OverlayMsg::Publish(env)) => {
                ctx.send(RECORDER, OverlayMsg::Deliver(env));
            }
            (Fake::Recorder { seen, .. }, OverlayMsg::Deliver(env)) => seen.push(env.seq().0),
            (Fake::Recorder { rejoins, .. }, OverlayMsg::Rejoin) => *rejoins += 1,
            (node, other) => panic!("{node:?} was handed {other:?}"),
        }
    }

    fn on_timer(&mut self, tag: u64, _ctx: &mut dyn NodeCtx) {
        panic!("the fake nodes arm no timers, yet {tag} fired");
    }

    fn on_restart(&mut self, ctx: &mut dyn NodeCtx) {
        ctx.send(RECORDER, OverlayMsg::Rejoin);
    }
}

struct Pair {
    world: World<Linked<Fake>>,
    next_seq: u64,
}

impl Pair {
    fn new(link: LinkConfig) -> Self {
        link.validate().unwrap();
        let mut world = World::with_latency(SimDuration::from_ticks(1));
        let recorder = Fake::Recorder {
            seen: Vec::new(),
            rejoins: 0,
        };
        let forwarder = Linked::new(Fake::Forwarder, link, "fwd".into(), 1, None);
        assert_eq!(world.add_actor(forwarder), FORWARDER);
        let recorder = Linked::new(recorder, link, "rec".into(), 0, None);
        assert_eq!(world.add_actor(recorder), RECORDER);
        Pair { world, next_seq: 0 }
    }

    /// What the link layer did at `node`.
    fn link_metrics(&self, node: ActorId) -> RunMetrics {
        let mut m = RunMetrics::new(0, 0);
        self.world.actor(node).absorb_into(&mut m);
        m
    }

    /// Hands the forwarder `n` more events, `per_tick` of them a tick.
    fn publish(&mut self, n: u64, per_tick: u64) {
        let now = self.world.now().ticks();
        for i in 0..n {
            let env =
                Envelope::from_meta(ClassId(0), "C", EventSeq(self.next_seq), EventData::new());
            self.next_seq += 1;
            let at = SimTime::from_ticks(now + 1 + i / per_tick);
            self.world
                .send_external_at(FORWARDER, OverlayMsg::Publish(env).into(), at);
        }
    }

    fn seen(&self) -> &[u64] {
        match &self.world.actor(RECORDER).node {
            Fake::Recorder { seen, .. } => seen,
            Fake::Forwarder => unreachable!(),
        }
    }
}

/// Reliable links, with and without credit flow on top, over a wire that
/// drops, duplicates and reorders in both directions: once the wire heals
/// and a little more traffic exposes the last gap, the recorder has been
/// handed every event exactly once, in order. Under credit flow the
/// storm's retransmissions (never shed) can crowd fresh events out of the
/// bounded queue; those are booked as shed, and nothing else is missing.
#[test]
fn faulty_wire_still_releases_in_order_exactly_once() {
    let storm = FaultPlan {
        drop_probability: 0.2,
        dup_probability: 0.2,
        max_jitter: SimDuration::from_ticks(6),
    };
    let (mut retransmitted, mut suppressed) = (0, 0);
    for seed in 0..16 {
        let link = LinkConfig {
            reliable: true,
            flow_control: seed % 2 == 1,
            // With both on, the queue must hold a retransmission window.
            queue_capacity: 256,
        };
        let mut pair = Pair::new(link);
        pair.world.set_fault_seed(seed);
        pair.world.set_default_fault_plan(Some(storm));
        pair.publish(200, 4);
        pair.world.run();
        pair.world.clear_fault_plans();
        pair.publish(4, 1);
        pair.world.run();

        let sent = pair.link_metrics(FORWARDER);
        let seen = pair.seen();
        assert!(
            seen.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: {seen:?}"
        );
        let shed = sent.overload.total_shed();
        assert_eq!(seen.len() as u64 + shed, 204, "seed {seed}: {seen:?}");
        assert!(link.flow_control || shed == 0);
        retransmitted += sent.chaos.retransmitted;
        suppressed += pair.link_metrics(RECORDER).chaos.duplicates_suppressed;
    }
    assert!(retransmitted > 0, "the storm dropped nothing");
    assert!(suppressed > 0, "the storm duplicated nothing");
}

/// A forwarder in front of a real subscriber node.
#[allow(clippy::large_enum_variant)]
enum Hop {
    Forwarder,
    Subscriber(SubscriberNode),
}

impl Node for Hop {
    fn on_message(&mut self, from: ActorId, msg: OverlayMsg, ctx: &mut dyn NodeCtx) {
        match (self, msg) {
            (Hop::Forwarder, OverlayMsg::Publish(env)) => {
                ctx.send(RECORDER, OverlayMsg::Deliver(env));
            }
            (Hop::Subscriber(sub), msg) => sub.on_message(from, msg, ctx),
            (Hop::Forwarder, other) => panic!("the forwarder was handed {other:?}"),
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn NodeCtx) {
        if let Hop::Subscriber(sub) = self {
            sub.on_timer(tag, ctx);
        }
    }
}

/// What a subscriber books as bytes received is the wire size of each
/// event the link layer hands it: the duplicates a storm makes are
/// suppressed below the node, so they cost its byte count nothing, and
/// the count equals what the runtime would have put on the wire for the
/// events received — once each.
#[test]
fn suppressed_duplicates_are_not_bytes_received() {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register("C", None, vec![AttributeDecl::new("x", ValueKind::Int)])
        .unwrap();
    let registry = Arc::new(registry);
    let cfg = OverlayConfig {
        levels: vec![1],
        ..OverlayConfig::default()
    };
    let link = LinkConfig {
        reliable: true,
        ..LinkConfig::default()
    };
    let subscriber = build_subscriber(
        &cfg,
        &registry,
        FORWARDER,
        "sub".into(),
        vec![(FilterId(0), Filter::for_class(class))],
        None,
        None,
        false,
    );
    let mut world = World::with_latency(SimDuration::from_ticks(1));
    world.add_actor(Linked::new(Hop::Forwarder, link, "fwd".into(), 1, None));
    world.add_actor(Linked::new(
        Hop::Subscriber(subscriber),
        link,
        "sub".into(),
        0,
        None,
    ));
    world.set_fault_seed(7);
    world.set_default_fault_plan(Some(FaultPlan {
        drop_probability: 0.1,
        dup_probability: 0.3,
        max_jitter: SimDuration::from_ticks(3),
    }));
    let events: Vec<Envelope> = (0..300u64)
        .map(|seq| {
            let mut meta = EventData::new();
            meta.insert("x", seq as i64 * 1_000);
            Envelope::from_meta(class, "C", EventSeq(seq), meta)
        })
        .collect();
    for (i, env) in events.iter().enumerate() {
        let at = SimTime::from_ticks(1 + i as u64 / 4);
        world.send_external_at(FORWARDER, OverlayMsg::Publish(env.clone()).into(), at);
    }
    world.run();
    world.clear_fault_plans();
    world.run();

    let mut link_metrics = RunMetrics::new(0, 0);
    world.actor(RECORDER).absorb_into(&mut link_metrics);
    assert!(
        link_metrics.chaos.duplicates_suppressed > 0,
        "the storm duplicated nothing"
    );
    let Hop::Subscriber(sub) = &world.actor(RECORDER).node else {
        unreachable!()
    };
    let record = sub.record();
    assert_eq!(record.received, events.len() as u64, "each event once");
    let sizes: u64 = events.iter().map(|e| e.wire_size() as u64).sum();
    assert_eq!(record.bytes_received, sizes);
}

/// Credit flow toward a recorder eight times too slow: never more than
/// the queue bound on the wire or in the queue, fresh events shed beyond
/// it, survivors in order, and every event either delivered or booked as
/// shed.
#[test]
fn credit_window_bounds_what_is_in_flight() {
    const CAPACITY: usize = 8;
    let link = LinkConfig {
        reliable: false,
        flow_control: true,
        queue_capacity: CAPACITY,
    };
    let mut pair = Pair::new(link);
    let slow = Some(SimDuration::from_ticks(8));
    pair.world.actor_mut(RECORDER).set_service_time(slow);
    pair.publish(120, 1);
    pair.world.run();

    let stats = pair.link_metrics(FORWARDER).overload;
    // The window's worth of data, plus the one probe a stalled sender
    // may have on the wire.
    let in_flight = pair.world.peak_inflight_of(RECORDER);
    assert!(in_flight <= CAPACITY as u64 + 1, "{in_flight} in flight");
    assert!(stats.peak_egress_depth <= CAPACITY as u64);
    assert!(stats.credit_stalls > 0 && stats.data_shed > 0);
    assert_eq!(stats.breaker_opened, 0, "a granting downstream never trips");
    let seen = pair.seen();
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
    assert_eq!(seen.len() as u64 + stats.total_shed(), 120);
}

/// A restarted sender numbers its link from zero again. Its `Rejoin`
/// makes the receiving wrapper forget the old sequence space first — or
/// everything sent after the restart would look like a duplicate.
#[test]
fn rejoin_restarts_the_sequence_space() {
    let link = LinkConfig {
        reliable: true,
        ..LinkConfig::default()
    };
    let mut pair = Pair::new(link);
    pair.publish(5, 1);
    pair.world.run();
    pair.world.crash(FORWARDER);
    assert!(pair.world.restart(FORWARDER));
    pair.publish(3, 1);
    pair.world.run();

    assert_eq!(pair.seen(), [0, 1, 2, 3, 4, 5, 6, 7]);
    let link = pair.link_metrics(RECORDER).chaos;
    assert_eq!((link.duplicates_suppressed, link.nacks), (0, 0));
    let Fake::Recorder { rejoins, .. } = &pair.world.actor(RECORDER).node else {
        unreachable!()
    };
    assert_eq!(*rejoins, 1, "the node still hears of the restart itself");
}

/// Link-layer frames cannot reach a bare broker or subscriber — the only
/// kind the runtime builds, though a socket can deliver any bytes: their
/// tags are unassigned in the production protocol, so each decodes to a
/// typed error, never to a message a node would be handed.
#[test]
fn unwrapped_nodes_ignore_link_layer_frames() {
    let dict = DecodeDict::new(DictMode::Shared);
    // `Sequenced`, `Nack`, `Advance`, `Credit`, `CreditGrant`, each with
    // a varint of the payload it used to carry.
    for tag in [12u8, 13, 14, 18, 19] {
        let frame = [tag, 3];
        assert_eq!(
            OverlayMsg::decode_bin(&mut WireReader::new(&frame), &dict),
            Err(CodecError::Tag(tag))
        );
    }
}

/// One Biblio run, with leases, full tracing and both kinds of
/// unsubscription, whatever the world hosts at each node: what every
/// subscriber got, the message count, the metrics and the trace log.
fn biblio_run<H: Host>(
    build: impl FnOnce(OverlayConfig, Arc<TypeRegistry>) -> OverlaySim<H>,
) -> (Vec<Vec<EventSeq>>, u64, RunMetrics, Option<String>)
where
    H::Msg: From<OverlayMsg> + Clone,
{
    const TTL: u64 = 500;
    let cfg = OverlayConfig {
        levels: vec![8, 2, 1],
        leases_enabled: true,
        ttl: SimDuration::from_ticks(TTL),
        trace_sample_every: 1,
        seed: 3,
        ..OverlayConfig::default()
    };
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(7);
    let biblio = BiblioConfig {
        subscriptions: 30,
        ..BiblioConfig::default()
    };
    let workload = BiblioWorkload::new(biblio, &mut registry, &mut rng);
    let mut sim = build(cfg, Arc::new(registry));
    sim.advertise(Advertisement::new(
        workload.class(),
        BiblioWorkload::stage_map(),
    ));
    sim.settle();
    let handles: Vec<_> = workload
        .subscriptions()
        .iter()
        .map(|f| sim.add_subscriber(f.clone()).unwrap())
        .collect();
    sim.settle();

    let mut seq = 0;
    let mut publish = |sim: &mut OverlaySim<H>, n: u64| {
        for _ in 0..n {
            sim.publish(workload.envelope(seq, &mut rng));
            seq += 1;
        }
        sim.settle();
    };
    publish(&mut sim, 200);
    for (i, &h) in handles.iter().enumerate() {
        match i % 5 {
            0 => assert!(sim.unsubscribe_now(h)),
            1 => sim.unsubscribe(h),
            _ => {}
        }
    }
    sim.run_for(SimDuration::from_ticks(TTL * 4));
    publish(&mut sim, 200);

    let deliveries = handles
        .iter()
        .map(|&h| sim.deliveries(h).to_vec())
        .collect();
    (
        deliveries,
        sim.network_messages(),
        sim.metrics(),
        sim.trace_jsonl(),
    )
}

/// The simulator runs bare nodes; the link layer with both mechanisms off
/// must be a transparent wrapper around them, message for message.
#[test]
fn transparent_links_equal_the_bare_simulator() {
    let bare = biblio_run(OverlaySim::new);
    let linked =
        biblio_run(|cfg, registry| with_links(cfg, LinkConfig::default(), registry).unwrap());
    assert!(bare.0.iter().any(|d| !d.is_empty()), "the run delivers");
    assert!(
        bare.3.as_deref().is_some_and(|log| !log.is_empty()),
        "the run traces"
    );
    assert_eq!(bare.0, linked.0, "per-subscriber deliveries");
    assert_eq!(bare.1, linked.1, "network messages");
    assert_eq!(bare.2, linked.2, "run metrics");
    assert_eq!(bare.3, linked.3, "trace log");
}
