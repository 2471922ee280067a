//! E13 (extension) — fault injection: what reliability buys under chaos.
//!
//! The paper assumes reliable links and stable brokers. This experiment
//! drops that assumption: seeded per-link faults (drops, duplications,
//! jitter) plus one mid-run crash/restart of a subscriber-hosting broker,
//! swept over the drop probability with per-link reliability on and off.
//! Measured per cell: deliveries of the events published *while* faults
//! were active, the repair traffic (NACKs, retransmissions, suppressed
//! duplicates, re-subscriptions), and the time from heal to reconvergence.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_chaos`

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::{render_table, RunMetrics};
use layercake_overlay::{LinkConfig, OverlayConfig, OverlaySim, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_workload::BiblioWorkload;

const TTL: u64 = 400;
const SUBS: usize = 12;
const FAULT_EVENTS: u64 = 150;
const MAX_RECONVERGE_ROUNDS: u64 = 25;

struct Cell {
    delivered_under_fault: u64,
    published_under_fault: u64,
    retransmitted: u64,
    nacks: u64,
    dup_suppressed: u64,
    resubscriptions: u64,
    reconverge_ticks: Option<u64>,
}

struct Rig {
    sim: OverlaySim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
    next_seq: u64,
}

impl Rig {
    fn new(reliability: bool, seed: u64) -> Self {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = OverlaySim::with_links(
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

fn run_cell(drop_p: f64, reliability: bool, seed: u64) -> (Cell, RunMetrics) {
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
    let m = rig.sim.metrics();
    let cell = Cell {
        delivered_under_fault,
        published_under_fault: FAULT_EVENTS,
        retransmitted: m.chaos.retransmitted,
        nacks: m.chaos.nacks,
        dup_suppressed: m.chaos.duplicates_suppressed,
        resubscriptions: m.chaos.resubscriptions,
        reconverge_ticks,
    };
    (cell, m)
}

fn main() {
    eprintln!("running E13: fault sweep × reliability on/off (seeded, deterministic)…");

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut worst_metrics = None;
    for &drop_p in &[0.0f64, 0.05, 0.15] {
        for &reliability in &[false, true] {
            let (cell, metrics) = run_cell(drop_p, reliability, 0xE12);
            if drop_p == 0.15 && reliability {
                worst_metrics = Some(metrics);
            }
            rows.push(vec![
                format!("{drop_p:.2}"),
                if reliability { "on" } else { "off" }.to_owned(),
                format!(
                    "{}/{}",
                    cell.delivered_under_fault, cell.published_under_fault
                ),
                cell.retransmitted.to_string(),
                cell.nacks.to_string(),
                cell.dup_suppressed.to_string(),
                cell.resubscriptions.to_string(),
                cell.reconverge_ticks
                    .map_or_else(|| "never".to_owned(), |t| t.to_string()),
            ]);
            cells.push((drop_p, reliability, cell));
        }
    }

    println!(
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
    println!("per-node load of the worst cell (drop 0.15, reliability on), with the");
    println!("run's fault counters in the footer:\n");
    println!(
        "{}",
        worst_metrics
            .expect("sweep covers the worst cell")
            .rlc_table()
    );
    println!("every cell also crashes and restarts a subscriber-hosting broker mid-burst;");
    println!("\"under-fault delivered\" counts events published while faults were active");
    println!("(events traversing the crashed broker can be irrecoverably lost — the");
    println!("reliability layer guarantees exactly-once for traffic after recovery).");

    // Shape checks.
    for (drop_p, reliability, cell) in &cells {
        assert!(
            cell.reconverge_ticks.is_some(),
            "overlay must reconverge after heal (drop={drop_p}, rel={reliability})"
        );
        if *reliability && *drop_p > 0.0 {
            assert!(
                cell.retransmitted > 0 && cell.nacks > 0,
                "lossy links must trigger NACK-driven retransmission"
            );
        }
        if !*reliability {
            assert_eq!(
                cell.retransmitted, 0,
                "no repair traffic without reliability"
            );
        }
    }
    let lossy = |rel: bool| {
        cells
            .iter()
            .find(|(d, r, _)| *d == 0.15 && *r == rel)
            .map(|(_, _, c)| c.delivered_under_fault)
            .unwrap()
    };
    assert!(
        lossy(true) > lossy(false),
        "reliability must recover more under-fault events than best-effort ({} vs {})",
        lossy(true),
        lossy(false)
    );
    println!("\nshape checks passed.");
}
