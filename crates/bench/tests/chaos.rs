//! Fault-injection (chaos) suite: the overlay must deliver exactly-once
//! once faults heal, no matter what the fault layer did while it was
//! active — message drops, duplications, jitter, and a mid-run broker
//! crash/restart. Everything is seeded, so every failure reproduces.

use std::sync::Arc;

use layercake_bench::link::{with_links, LinkConfig, LinkedSim};
use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, OverlaySim, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_workload::BiblioWorkload;
use proptest::prelude::*;

const TTL: u64 = 200;
/// Generous recovery budget: lease silence detection needs two renewal
/// cycles and the re-subscription walk a few more, plus backoff retries
/// when the Subscribe message itself is unlucky.
const MAX_RECONVERGE_ROUNDS: u64 = 20;

struct Chaos {
    sim: LinkedSim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
    next_seq: u64,
}

impl Chaos {
    /// A `[4, 2, 1]` biblio overlay with reliability and leases on, plus
    /// `n` subscribers whose filters wildcard only the title (anchoring
    /// them on stage-1 brokers).
    fn new(n: usize, seed: u64) -> Self {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![4, 2, 1],
                leases_enabled: true,
                ttl: SimDuration::from_ticks(TTL),
                seed,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: true,
                ..LinkConfig::default()
            },
            Arc::new(registry),
        )
        .unwrap();
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let mut subs = Vec::new();
        for i in 0..n {
            let h = sim
                .add_subscriber(
                    Filter::for_class(class)
                        .eq("year", 2000 + (i % 2) as i64)
                        .eq("conference", format!("c{}", i % 2))
                        .eq("author", format!("a{i}")),
                )
                .expect("valid subscription");
            subs.push(h);
        }
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        for &h in &subs {
            assert!(sim.subscriber(h).host().is_some(), "placement completed");
        }
        Chaos {
            sim,
            class,
            subs,
            next_seq: 0,
        }
    }

    /// Publishes one event matching exactly subscriber `i`'s filter and
    /// returns its sequence number.
    fn publish_for(&mut self, i: usize) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        let data = event_data! {
            "year" => 2000 + (i % 2) as i64,
            "conference" => format!("c{}", i % 2),
            "author" => format!("a{i}"),
            "title" => format!("t{}", seq.0),
        };
        self.sim
            .publish(Envelope::from_meta(self.class, "Biblio", seq, data));
        seq
    }

    fn delivered(&self, i: usize, seq: EventSeq) -> bool {
        self.sim.deliveries(self.subs[i]).contains(&seq)
    }

    /// Publishes one fresh probe per subscriber and advances until every
    /// probe arrived (or the round budget runs out). Returns the virtual
    /// ticks it took.
    fn reconverge(&mut self) -> Option<u64> {
        let start = self.sim.now();
        let mut outstanding: Vec<(usize, EventSeq)> = Vec::new();
        for round in 0..MAX_RECONVERGE_ROUNDS {
            let _ = round;
            for i in 0..self.subs.len() {
                let seq = self.publish_for(i);
                outstanding.push((i, seq));
            }
            self.sim.run_for(SimDuration::from_ticks(2 * TTL));
            // A subscriber is live again once its *latest* probe arrived;
            // earlier probes may be lost to the pre-heal gap forever.
            let n = self.subs.len();
            let latest = &outstanding[outstanding.len() - n..];
            if latest.iter().all(|&(i, seq)| self.delivered(i, seq)) {
                return Some((self.sim.now() - start).ticks());
            }
        }
        None
    }
}

/// The full scenario: clean traffic, then drops + duplication + jitter
/// with a mid-run crash/restart of a subscriber-hosting broker, then heal
/// and verify exactly-once on fresh traffic. Returns the final deliveries
/// (for determinism comparison) and the reconvergence time.
fn run_scenario(
    seed: u64,
    drop_p: f64,
    dup_p: f64,
    jitter: u64,
    subs: usize,
) -> (Vec<Vec<EventSeq>>, u64) {
    let mut c = Chaos::new(subs, seed);

    // Phase 1: fault-free traffic delivers immediately.
    let clean: Vec<(usize, EventSeq)> = (0..subs).map(|i| (i, c.publish_for(i))).collect();
    c.sim.run_for(SimDuration::from_ticks(TTL / 2));
    for &(i, seq) in &clean {
        assert!(c.delivered(i, seq), "clean-phase event lost (sub {i})");
    }

    // Phase 2: turn on link faults, crash the broker hosting subscriber 0
    // mid-traffic, keep publishing, then restart it.
    c.sim.set_fault_seed(seed ^ 0x5EED);
    c.sim.set_default_fault_plan(Some(FaultPlan {
        drop_probability: drop_p,
        dup_probability: dup_p,
        max_jitter: SimDuration::from_ticks(jitter),
    }));
    let victim = c.sim.subscriber(c.subs[0]).host().expect("placed");
    for i in 0..subs {
        c.publish_for(i);
    }
    c.sim.run_for(SimDuration::from_ticks(TTL / 4));
    c.sim.crash_broker(victim);
    assert!(c.sim.is_crashed(victim));
    for i in 0..subs {
        c.publish_for(i);
    }
    c.sim.run_for(SimDuration::from_ticks(TTL));
    assert!(c.sim.restart_broker(victim), "victim was crashed");
    c.sim.run_for(SimDuration::from_ticks(TTL / 4));

    // Phase 3: heal all link faults and wait for reconvergence.
    c.sim.clear_fault_plans();
    let reconverge_ticks = c
        .reconverge()
        .expect("overlay reconverges within the round budget");

    // Phase 4: fresh post-heal traffic is delivered exactly once.
    let fresh: Vec<(usize, EventSeq)> = (0..subs).map(|i| (i, c.publish_for(i))).collect();
    c.sim.run_for(SimDuration::from_ticks(2 * TTL));
    for &(i, seq) in &fresh {
        let count = c
            .sim
            .deliveries(c.subs[i])
            .iter()
            .filter(|&&s| s == seq)
            .count();
        assert_eq!(count, 1, "post-heal event for sub {i} not exactly-once");
    }

    // Global invariant: no subscriber ever records a duplicate delivery.
    let mut all = Vec::new();
    for &h in &c.subs {
        let d = c.sim.deliveries(h).to_vec();
        let mut uniq = d.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), d.len(), "duplicate delivery recorded");
        all.push(d);
    }
    (all, reconverge_ticks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn exactly_once_survives_faults_and_a_broker_crash(
        seed in 0u64..1_000,
        drop_p in 0.0f64..=0.2,
        dup_p in 0.0f64..=0.1,
        jitter in 0u64..=3,
        subs in 2usize..6,
    ) {
        let (_, reconverge) = run_scenario(seed, drop_p, dup_p, jitter, subs);
        prop_assert!(reconverge < MAX_RECONVERGE_ROUNDS * 2 * TTL);
    }
}

#[test]
fn chaos_scenario_is_deterministic() {
    let a = run_scenario(42, 0.2, 0.1, 3, 4);
    let b = run_scenario(42, 0.2, 0.1, 3, 4);
    assert_eq!(a.0, b.0, "same seed must reproduce identical deliveries");
    assert_eq!(a.1, b.1, "same seed must reproduce the reconvergence time");
}

#[test]
fn lossy_links_force_retransmissions_that_reliability_recovers() {
    let mut c = Chaos::new(3, 7);
    c.sim.set_fault_seed(0xBAD);
    c.sim.set_default_fault_plan(Some(FaultPlan {
        drop_probability: 0.25,
        dup_probability: 0.1,
        max_jitter: SimDuration::from_ticks(2),
    }));
    for _ in 0..40 {
        for i in 0..3 {
            c.publish_for(i);
        }
        c.sim.run_for(SimDuration::from_ticks(4));
    }
    c.sim.clear_fault_plans();
    assert!(c.reconverge().is_some(), "reconverges after heavy loss");
    let m = c.sim.metrics();
    assert!(
        m.chaos.dropped > 0,
        "fault layer dropped messages: {:?}",
        m.chaos
    );
    assert!(m.chaos.duplicated > 0, "fault layer duplicated messages");
    assert!(m.chaos.retransmitted > 0, "NACKs triggered retransmissions");
    assert!(m.chaos.nacks > 0, "receivers detected gaps");
    assert!(
        m.chaos.duplicates_suppressed > 0,
        "duplicate arrivals were suppressed"
    );
}

/// The E13 reliability ring and the parked buffer are volatile: a broker
/// crash erases the history a detached subscriber was owed. The durable
/// log closes exactly that gap. Run the same detach → publish → crash →
/// restart → reattach scenario twice — ring-only and with the log — and
/// the logged variant alone recovers the events from the outage window.
#[test]
fn crashes_erase_ring_history_but_not_the_durable_log() {
    let run = |durable: bool| -> Vec<EventSeq> {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![1],
                leases_enabled: true,
                durability_enabled: durable,
                ttl: SimDuration::from_ticks(TTL),
                seed: 5,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: true,
                ..LinkConfig::default()
            },
            Arc::new(registry),
        )
        .unwrap();
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let filter = Filter::for_class(class).eq("year", 2002);
        let sub = if durable {
            sim.add_durable_subscriber(filter).unwrap()
        } else {
            sim.add_subscriber(filter).unwrap()
        };
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        let host = sim.subscriber(sub).host().expect("placed");

        let publish = |sim: &mut LinkedSim, seq: u64| {
            let data = event_data! {
                "year" => 2002i64,
                "conference" => "icdcs",
                "author" => "eugster",
                "title" => format!("t{seq}"),
            };
            sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), data));
        };

        // Online traffic, then a detach with events published into the
        // outage window: ring-only parks them in broker memory, the
        // durable variant appends them to the log.
        for seq in 0..3 {
            publish(&mut sim, seq);
        }
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        assert!(sim.disconnect(sub));
        sim.run_for(SimDuration::from_ticks(4));
        for seq in 3..8 {
            publish(&mut sim, seq);
        }
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        sim.flush_wals();

        // Crash + restart wipes all volatile broker state.
        sim.crash_broker(host);
        sim.run_for(SimDuration::from_ticks(TTL));
        assert!(sim.restart_broker(host));
        for _ in 0..MAX_RECONVERGE_ROUNDS {
            sim.run_for(SimDuration::from_ticks(2 * TTL));
            if sim.deliveries(sub).len() >= 8 {
                break;
            }
        }
        // Fresh post-recovery traffic must flow either way.
        publish(&mut sim, 100);
        for _ in 0..MAX_RECONVERGE_ROUNDS {
            sim.run_for(SimDuration::from_ticks(2 * TTL));
            if sim.deliveries(sub).contains(&EventSeq(100)) {
                break;
            }
        }
        assert!(
            sim.deliveries(sub).contains(&EventSeq(100)),
            "post-recovery traffic must deliver (durable = {durable})"
        );
        sim.deliveries(sub).to_vec()
    };

    let ring_only = run(false);
    let with_log = run(true);
    let outage: Vec<EventSeq> = (3..8).map(EventSeq).collect();
    assert!(
        outage.iter().all(|s| !ring_only.contains(s)),
        "ring-only history should die with the broker: {ring_only:?}"
    );
    assert!(
        outage.iter().all(|s| with_log.contains(s)),
        "the durable log must replay the outage window: {with_log:?}"
    );
    for d in [&ring_only, &with_log] {
        let mut uniq = d.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), d.len(), "no duplicate deliveries");
    }
}

/// Durable deliveries dropped *in flight* — no detach, no crash — must
/// never be acknowledged past: a subscriber that acked a later offset
/// across the hole would advance the broker's cumulative ack, compaction
/// would delete the segment, and the dropped event would be gone for
/// good. The contiguity cursor holds the ack at the hole, the gap-repair
/// `Attach` re-opens the stream behind it, and the broker's sweep
/// anti-entropy restarts streams whose *trailing* events were dropped
/// (a gap no later arrival can expose). Exactly-once, eventually.
#[test]
fn dropped_durable_deliveries_are_replayed_not_acked_past() {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels: vec![1],
            leases_enabled: true,
            durability_enabled: true,
            ttl: SimDuration::from_ticks(TTL),
            seed: 9,
            ..OverlayConfig::default()
        },
        Arc::new(registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();
    let sub = sim
        .add_durable_subscriber(Filter::for_class(class).eq("year", 2002))
        .unwrap();
    sim.run_for(SimDuration::from_ticks(TTL / 2));
    let host = sim.subscriber(sub).host().expect("placed");
    let sub_actor = sim.subscriber_actor(sub);

    // Faults only on the host → subscriber direction: durable deliveries
    // (and stream-open frames) get dropped, while acks, lease renewals
    // and repair requests flow clean — isolating exactly the loss mode
    // the ack protocol must survive.
    sim.set_fault_seed(0xD0_D0);
    sim.set_link_fault_plan(
        host,
        sub_actor,
        FaultPlan {
            drop_probability: 0.3,
            dup_probability: 0.0,
            max_jitter: SimDuration::from_ticks(0),
        },
    );

    let total = 40u64;
    for seq in 0..total {
        let data = event_data! {
            "year" => 2002i64,
            "conference" => "icdcs",
            "author" => "eugster",
            "title" => format!("t{seq}"),
        };
        sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(seq), data));
        sim.run_for(SimDuration::from_ticks(3));
    }
    sim.run_for(SimDuration::from_ticks(TTL));

    sim.clear_fault_plans();
    for _ in 0..MAX_RECONVERGE_ROUNDS {
        sim.run_for(SimDuration::from_ticks(2 * TTL));
        if sim.deliveries(sub).len() as u64 >= total {
            break;
        }
    }

    // Exactly-once: every published event arrived, none twice.
    let mut got = sim.deliveries(sub).to_vec();
    got.sort_unstable();
    let want: Vec<EventSeq> = (0..total).map(EventSeq).collect();
    assert_eq!(got, want, "durable stream must heal to exactly-once");

    // The scenario actually exercised the machinery it claims to cover.
    let m = sim.metrics();
    assert!(m.chaos.dropped > 0, "fault layer dropped deliveries");
    assert!(
        sim.subscriber(sub).gap_repairs() > 0,
        "mid-stream holes triggered subscriber-side repair"
    );
    let wal = sim.broker(host).expect("alive").wal().expect("durable");
    assert!(
        wal.stats().records_replayed > 0,
        "repair re-read the log, not the ether"
    );
    // And the stream fully converged: the subscriber's contiguous cursor
    // reached the log tail, so nothing is still owed (or over-acked).
    assert_eq!(
        sim.subscriber(sub).durable_cursor(host, class),
        Some(wal.tail_off(class)),
        "cursor caught up to the tail"
    );
}

#[test]
fn crash_discard_and_resubscription_show_up_in_metrics() {
    let mut c = Chaos::new(2, 11);
    let victim = c.sim.subscriber(c.subs[0]).host().expect("placed");
    c.sim.crash_broker(victim);
    // Traffic into the crashed broker is discarded while it is down.
    for i in 0..2 {
        c.publish_for(i);
    }
    c.sim.run_for(SimDuration::from_ticks(TTL));
    assert!(c.sim.restart_broker(victim));
    assert!(c.reconverge().is_some());
    let m = c.sim.metrics();
    assert!(
        m.chaos.crash_discarded > 0,
        "crash discarded in-flight work"
    );
    assert!(
        m.chaos.resubscriptions > 0,
        "subscriber 0 re-subscribed after losing its host: {:?}",
        m.chaos
    );
}
