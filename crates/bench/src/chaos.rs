//! E13 (extension) — fault injection: what reliability buys under chaos.
//!
//! The paper assumes reliable links and stable brokers. This experiment
//! drops that assumption: seeded per-link faults (drops, duplications,
//! jitter) plus one mid-run crash/restart of a subscriber-hosting broker,
//! swept over the drop probability with per-link reliability on and off.
//! Measured per cell: deliveries of the events published *while* faults
//! were active, the repair traffic (NACKs, retransmissions, suppressed
//! duplicates, re-subscriptions), and the time from heal to reconvergence.

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::{render_table, RunMetrics};
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_workload::BiblioWorkload;

use crate::link::{with_links, LinkConfig, LinkedSim};
use crate::Report;

const TTL: u64 = 400;
const SUBS: usize = 12;
const FAULT_EVENTS: u64 = 150;
const MAX_RECONVERGE_ROUNDS: u64 = 25;

/// One drop-probability × reliability cell of the sweep.
struct Cell {
    drop_p: f64,
    reliability: bool,
    delivered_under_fault: u64,
    reconverge_ticks: Option<u64>,
    metrics: RunMetrics,
}

struct Rig {
    sim: LinkedSim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
    next_seq: u64,
}

impl Rig {
    fn new(reliability: bool, seed: u64) -> Self {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![8, 2, 1],
                leases_enabled: true,
                ttl: SimDuration::from_ticks(TTL),
                seed,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: reliability,
                ..LinkConfig::default()
            },
            Arc::new(registry),
        )
        .expect("valid overlay configuration");
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let mut subs = Vec::new();
        for i in 0..SUBS {
            let h = sim
                .add_subscriber(
                    Filter::for_class(class)
                        .eq("year", 2000 + (i % 3) as i64)
                        .eq("conference", format!("c{}", i % 3))
                        .eq("author", format!("a{i}")),
                )
                .expect("valid subscription");
            subs.push(h);
        }
        sim.run_for(SimDuration::from_ticks(TTL / 2));
        Rig {
            sim,
            class,
            subs,
            next_seq: 0,
        }
    }

    fn publish_for(&mut self, i: usize) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        let data = event_data! {
            "year" => 2000 + (i % 3) as i64,
            "conference" => format!("c{}", i % 3),
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
}

fn run_cell(drop_p: f64, reliability: bool, seed: u64) -> Cell {
    let mut rig = Rig::new(reliability, seed);

    // Fault window: link faults on every link, plus a crash/restart of
    // subscriber 0's host in the middle of the publication burst.
    rig.sim.set_fault_seed(seed ^ 0xC4A05);
    rig.sim.set_default_fault_plan(Some(FaultPlan {
        drop_probability: drop_p,
        dup_probability: 0.05,
        max_jitter: SimDuration::from_ticks(2),
    }));
    let victim = rig.sim.subscriber(rig.subs[0]).host().expect("placed");
    let mut under_fault = Vec::new();
    for k in 0..FAULT_EVENTS {
        let i = (k as usize) % SUBS;
        under_fault.push((i, rig.publish_for(i)));
        rig.sim.run_for(SimDuration::from_ticks(4));
        if k == FAULT_EVENTS / 3 {
            rig.sim.crash_broker(victim);
        }
        if k == 2 * FAULT_EVENTS / 3 {
            rig.sim.restart_broker(victim);
        }
    }
    rig.sim.run_for(SimDuration::from_ticks(TTL));

    // Heal and measure reconvergence: rounds of one fresh probe per
    // subscriber until a full round arrives.
    rig.sim.clear_fault_plans();
    let start = rig.sim.now();
    let mut reconverge_ticks = None;
    for _ in 0..MAX_RECONVERGE_ROUNDS {
        let probes: Vec<(usize, EventSeq)> = (0..SUBS).map(|i| (i, rig.publish_for(i))).collect();
        rig.sim.run_for(SimDuration::from_ticks(2 * TTL));
        if probes.iter().all(|&(i, s)| rig.delivered(i, s)) {
            reconverge_ticks = Some((rig.sim.now() - start).ticks());
            break;
        }
    }

    let delivered_under_fault = under_fault
        .iter()
        .filter(|&&(i, s)| rig.delivered(i, s))
        .count() as u64;
    Cell {
        drop_p,
        reliability,
        delivered_under_fault,
        reconverge_ticks,
        metrics: rig.sim.metrics(),
    }
}

/// Runs E13 and reports its sweep and the worst cell's per-node load.
pub fn report() -> Report {
    let mut r = Report::new("exp_chaos");
    let cells: Vec<Cell> = [0.0, 0.05, 0.15]
        .into_iter()
        .flat_map(|drop_p| [false, true].map(|rel| run_cell(drop_p, rel, 0xE12)))
        .collect();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let chaos = &c.metrics.chaos;
            vec![
                format!("{:.2}", c.drop_p),
                if c.reliability { "on" } else { "off" }.to_owned(),
                format!("{}/{FAULT_EVENTS}", c.delivered_under_fault),
                chaos.retransmitted.to_string(),
                chaos.nacks.to_string(),
                chaos.duplicates_suppressed.to_string(),
                chaos.resubscriptions.to_string(),
                c.reconverge_ticks
                    .map_or_else(|| "never".to_owned(), |t| t.to_string()),
            ]
        })
        .collect();

    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Drop p",
                "Reliability",
                "Under-fault delivered",
                "Retransmits",
                "NACKs",
                "Dups suppressed",
                "Re-subs",
                "Reconverge (ticks)",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "per-node load of the worst cell (drop 0.15, reliability on), with the\n\
         run's fault counters in the footer:\n"
    );
    // The last cell is the worst: drop 0.15, reliability on.
    writeln!(r, "{}", cells[5].metrics.rlc_table());
    writeln!(
        r,
        "every cell also crashes and restarts a subscriber-hosting broker mid-burst;\n\
         \"under-fault delivered\" counts events published while faults were active\n\
         (events traversing the crashed broker can be irrecoverably lost — the\n\
         reliability layer guarantees exactly-once for traffic after recovery)."
    );

    for c in &cells {
        let at = format!("drop={}, rel={}", c.drop_p, c.reliability);
        let chaos = &c.metrics.chaos;
        r.check(
            c.reconverge_ticks.is_some(),
            format!("overlay must reconverge after heal ({at})"),
        );
        if c.reliability && c.drop_p > 0.0 {
            r.check(
                chaos.retransmitted > 0 && chaos.nacks > 0,
                format!("lossy links must trigger NACK-driven retransmission ({at})"),
            );
        }
        if !c.reliability {
            r.check(
                chaos.retransmitted == 0,
                format!("no repair traffic without reliability ({at})"),
            );
        }
    }
    // Cells 4 and 5: drop 0.15 with reliability off and on.
    r.check(
        cells[5].delivered_under_fault > cells[4].delivered_under_fault,
        "reliability must recover more under-fault events than best-effort",
    );
    r.finish("shape checks passed.")
}
