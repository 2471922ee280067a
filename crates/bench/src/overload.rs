//! E15 (extension) — graceful degradation under overload: what the
//! flow-control layer buys when a stage saturates.
//!
//! The paper sizes its hierarchy so every stage keeps up (Section 5
//! reports throughput at equilibrium). This experiment deliberately
//! breaks that assumption: the stage-1 brokers get a fixed per-event
//! service time, and the offered load is swept from half the sustainable
//! rate to twice it, with the overload-protection layer (credit-based
//! backpressure, bounded egress queues, priority shedding, circuit
//! breakers) off and on. A final cell crashes a stage-1 broker under
//! load to exercise the breaker path.
//!
//! Measured per cell: deliveries, shed counters (data vs control), the
//! peak egress-queue depth and per-broker ingress backlog (the memory
//! the overlay would need), and the end-to-end latency of the events
//! that *were* delivered.

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::{render_table, Histogram, OverloadStats};
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::SimDuration;
use layercake_workload::BiblioWorkload;

use crate::link::{set_broker_service_time, with_links, LinkConfig, LinkedSim};
use crate::Report;

/// Per-data-event service time of every stage-1 broker, in ticks.
const SERVICE: u64 = 8;
/// Events per publication round (one per subscriber).
const SUBS: usize = 8;
/// Publication rounds per run.
const ROUNDS: u64 = 75;
const QUEUE_CAPACITY: usize = 64;
/// Round interval at which the bottleneck stage-1 broker is exactly
/// saturated. Stage weakening leaves the stage-2 broker only the `year`
/// and `conference` of each filter it holds for a leaf, and the busiest
/// leaf hosts subscribers of both years, so it receives *every*
/// published event — `SUBS` arrivals per round against a service rate of
/// `1 / SERVICE`.
const SUSTAINABLE_INTERVAL: u64 = SUBS as u64 * SERVICE;

struct Run {
    delivered: Vec<Vec<EventSeq>>,
    overload: OverloadStats,
    /// End-to-end latency of the delivered events.
    e2e: Histogram,
}

struct Rig {
    sim: LinkedSim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
}

impl Rig {
    /// A `[4, 2, 1]` biblio overlay whose stage-1 brokers are the
    /// bottleneck. Each subscriber's filter constrains `title` (a
    /// stage-1-only attribute), anchoring it on a stage-1 broker so
    /// every delivery crosses the slow stage.
    fn new(flow: bool) -> Self {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![4, 2, 1],
                trace_sample_every: 1,
                seed: 0xE15,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: false,
                flow_control: flow,
                queue_capacity: QUEUE_CAPACITY,
            },
            Arc::new(registry),
        )
        .expect("valid overlay configuration");
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let subs: Vec<SubscriberHandle> = (0..SUBS)
            .map(|i| {
                sim.add_subscriber(
                    Filter::for_class(class)
                        .eq("year", 2000 + (i % 2) as i64)
                        .eq("conference", "icdcs")
                        .eq("author", format!("a{i}"))
                        .eq("title", format!("t{i}")),
                )
                .expect("valid subscription")
            })
            .collect();
        sim.settle();
        for &h in &subs {
            assert!(sim.subscriber(h).host().is_some(), "placement completed");
        }
        for &b in &sim.brokers().to_vec()[..4] {
            set_broker_service_time(&mut sim, b, Some(SimDuration::from_ticks(SERVICE)));
        }
        Rig { sim, class, subs }
    }

    fn publish_round(&mut self, round: u64) {
        for i in 0..SUBS {
            let data = event_data! {
                "year" => 2000 + (i % 2) as i64,
                "conference" => "icdcs",
                "author" => format!("a{i}"),
                "title" => format!("t{i}"),
            };
            let seq = EventSeq(round * SUBS as u64 + i as u64);
            self.sim
                .publish(Envelope::from_meta(self.class, "Biblio", seq, data));
        }
    }

    fn finish(mut self) -> Run {
        self.sim.settle();
        let m = self.sim.metrics();
        Run {
            delivered: self
                .subs
                .iter()
                .map(|&h| self.sim.deliveries(h).to_vec())
                .collect(),
            overload: m.overload,
            e2e: m.latency.e2e,
        }
    }
}

/// One load × flow-control cell. `interval` is the gap between rounds of
/// `SUBS` events; the bottleneck stage-1 broker sees all of them (stage
/// weakening dropped the `author` its subscribers differ in), so
/// `interval = SUSTAINABLE_INTERVAL` is the saturation point.
fn run_cell(interval: u64, flow: bool) -> Run {
    let mut rig = Rig::new(flow);
    for round in 0..ROUNDS {
        rig.publish_round(round);
        rig.sim.run_for(SimDuration::from_ticks(interval));
    }
    rig.finish()
}

/// The breaker cell: overload with flow control on, and one stage-1
/// broker crashing mid-run and restarting later.
fn run_breaker_cell() -> Run {
    let mut rig = Rig::new(true);
    let victim = rig.sim.brokers()[0];
    for round in 0..ROUNDS {
        rig.publish_round(round);
        rig.sim
            .run_for(SimDuration::from_ticks(SUSTAINABLE_INTERVAL / 2));
        if round == ROUNDS / 3 {
            rig.sim.crash_broker(victim);
        }
        if round == 2 * ROUNDS / 3 {
            rig.sim.restart_broker(victim);
        }
    }
    rig.finish()
}

/// Runs E15 and reports its cells.
pub fn report() -> Report {
    let mut r = Report::new("exp_overload");
    // Double the saturation interval = half the sustainable load; half
    // the interval = twice it.
    let under_off = run_cell(2 * SUSTAINABLE_INTERVAL, false);
    let under_on = run_cell(2 * SUSTAINABLE_INTERVAL, true);
    let over_off = run_cell(SUSTAINABLE_INTERVAL / 2, false);
    let over_on = run_cell(SUSTAINABLE_INTERVAL / 2, true);
    let breaker = run_breaker_cell();

    let total = ROUNDS * SUBS as u64;
    let row = |label: &str, run: &Run| {
        let delivered: usize = run.delivered.iter().map(Vec::len).sum();
        vec![
            label.to_owned(),
            format!("{delivered}/{total}"),
            run.overload.data_shed.to_string(),
            run.overload.breaker_shed.to_string(),
            run.overload.control_shed.to_string(),
            run.overload.peak_egress_depth.to_string(),
            run.overload.peak_ingress_backlog.to_string(),
            format!("{}/{}", run.e2e.p50(), run.e2e.p99()),
        ]
    };
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Cell",
                "Delivered",
                "Shed (queue)",
                "Shed (breaker)",
                "Shed (control)",
                "Peak egress q",
                "Peak ingress q",
                "e2e p50/p99 (survivors)",
            ],
            &[
                row("0.5x load, fc off", &under_off),
                row("0.5x load, fc on", &under_on),
                row("2x load, fc off", &over_off),
                row("2x load, fc on", &over_on),
                row("2x load, fc on, crash", &breaker),
            ],
        )
    );
    writeln!(r, "flow-control detail of the overloaded cell:\n");
    writeln!(r, "{}", over_on.overload.render());
    writeln!(
        r,
        "breaker cell detail (stage-1 broker crashed mid-run, then restarted):\n"
    );
    writeln!(r, "{}", breaker.overload.render());
    writeln!(
        r,
        "the offered load is fixed per cell; \"peak ingress q\" is the largest\n\
         per-broker backlog behind the slow stage's service clock — without flow\n\
         control it grows with the run length (unbounded memory), with it the\n\
         credit window caps it. Survivor latency: with flow control the p99 of\n\
         *delivered* events stays near the queue bound instead of the full\n\
         backlog drain time. Shed counters are per-link copies: on a link whose\n\
         covering filter collapsed below the subscriber's real filter, a shed\n\
         copy does not always cost a delivery (the copy may have been destined\n\
         to fail the downstream's residual predicate anyway)."
    );

    // Under capacity, flow control must be invisible: identical events,
    // identical order, per subscriber — and nothing shed anywhere.
    r.check(
        under_on.delivered == under_off.delivered,
        "under capacity, flow control must not change deliveries",
    );
    r.check(
        under_on.overload.total_shed() == 0 && under_off.overload.total_shed() == 0,
        "under capacity nothing is shed",
    );

    // Past saturation: bounded queues, data-only shedding, and the
    // breaker quiet (a slow-but-alive downstream keeps granting).
    let (on, off) = (&over_on.overload, &over_off.overload);
    r.check(on.data_shed > 0, "2x load must shed");
    r.check(on.control_shed == 0, "control is never shed");
    r.check(
        on.peak_egress_depth <= QUEUE_CAPACITY as u64,
        "egress depth must stay within its bound",
    );
    r.check(
        on.peak_ingress_backlog < off.peak_ingress_backlog / 2,
        "the credit window must cap the slow stage's backlog",
    );

    // Survivors see bounded latency; the unprotected overlay's p99 grows
    // with the whole backlog.
    r.check(
        !over_on.e2e.is_empty() && !over_off.e2e.is_empty(),
        "both 2x cells deliver latency samples",
    );
    r.check(
        over_on.e2e.p99() < over_off.e2e.p99(),
        "survivor p99 with flow control must beat the unbounded baseline",
    );

    // The breaker cell: trips on the dead stage, recovers after restart,
    // and still never sheds control traffic.
    let crashed = &breaker.overload;
    r.check(crashed.breaker_opened >= 1, "breaker must trip");
    r.check(crashed.breaker_closed >= 1, "breaker must recover");
    r.check(
        crashed.control_shed == 0,
        "control is never shed on a crash",
    );
    r.finish("acceptance checks passed.")
}
