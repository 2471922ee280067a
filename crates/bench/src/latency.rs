//! E14 (extension) — observability: virtual-time latency and the empirical
//! cost of filter weakening.
//!
//! The paper's Proposition 1 prices multi-stage filtering in *false
//! positives*: a weakened covering filter at stage k may admit events the
//! original subscription rejects at stage 0. This experiment instruments
//! the overlay with sampled per-event traces and measures both sides of
//! that trade, in virtual time:
//!
//!   · per-stage hop latency and end-to-end publish→deliver latency as
//!     log-bucketed histograms (p50/p95/p99/max), fault-free and under a
//!     seeded `FaultPlan` (drops, duplicates, jitter) with per-link
//!     reliability repairing the damage;
//!   · per-stage weakening false positives: traced arrivals, matches, and
//!     the admitted-but-never-delivered counts per covering-filter stage;
//!   · a provenance report (`OverlaySim::explain`) for one injected false
//!     positive, attributing the wasted forwarding to the weakening stage
//!     that let the event through.
//!
//! The workload makes the false positives exact: each subscriber pins all
//! four `Biblio` attributes, and every round publishes one exact match
//! (delivered), one near miss with a wrong `title` (passes every covering
//! stage — they only see `year`/`conference`/`author` prefixes — and dies
//! at stage 0), and one total miss with an unadvertised `year` (rejected
//! at the root). Fault-free with full sampling, the stage-1 false-positive
//! count therefore equals the near-miss count exactly.
//!
//! A sampled run's JSONL trace log is the report's second file,
//! `exp_latency_traces.jsonl`.

use std::sync::Arc;

use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_metrics::{render_histogram, RunMetrics};
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_trace::TraceId;
use layercake_workload::BiblioWorkload;

use crate::link::{with_links, LinkConfig, LinkedSim};
use crate::Report;

const TTL: u64 = 400;
const SUBS: usize = 12;
const ROUNDS: usize = 50;
const SEED: u64 = 0xE14;
const JSONL_SAMPLE_EVERY: u64 = 5;
const JSONL_FILE: &str = "exp_latency_traces.jsonl";

struct Rig {
    sim: LinkedSim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
    next_seq: u64,
}

impl Rig {
    fn new(trace_sample_every: u64, fault: Option<FaultPlan>, seed: u64) -> Self {
        let mut registry = TypeRegistry::new();
        let class = BiblioWorkload::register(&mut registry);
        let mut sim = with_links(
            OverlayConfig {
                levels: vec![8, 2, 1],
                ttl: SimDuration::from_ticks(TTL),
                seed,
                trace_sample_every,
                ..OverlayConfig::default()
            },
            LinkConfig {
                reliable: fault.is_some(),
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
                        .eq("author", format!("a{i}"))
                        .eq("title", format!("t{i}")),
                )
                .expect("valid subscription");
            subs.push(h);
        }
        sim.settle();
        if let Some(plan) = fault {
            sim.set_fault_seed(seed ^ 0xC4A05);
            sim.set_default_fault_plan(Some(plan));
        }
        Rig {
            sim,
            class,
            subs,
            next_seq: 0,
        }
    }

    fn publish(&mut self, year: i64, conf: &str, author: &str, title: &str) -> EventSeq {
        let seq = EventSeq(self.next_seq);
        self.next_seq += 1;
        let data = event_data! {
            "year" => year,
            "conference" => conf.to_owned(),
            "author" => author.to_owned(),
            "title" => title.to_owned(),
        };
        self.sim
            .publish(Envelope::from_meta(self.class, "Biblio", seq, data));
        seq
    }
}

struct Run {
    metrics: RunMetrics,
    /// `(seq, target subscriber)` of each near-miss publication.
    near_misses: Vec<(EventSeq, usize)>,
    rig: Rig,
}

/// One round per subscriber index: an exact match, a near miss (wrong
/// title — the stage-0 attribute no covering stage sees), and a total
/// miss (year outside every subscription).
fn run_scenario(trace_sample_every: u64, fault: Option<FaultPlan>) -> Run {
    let mut rig = Rig::new(trace_sample_every, fault, SEED);
    let mut near_misses = Vec::new();
    for round in 0..ROUNDS {
        let i = round % SUBS;
        let (year, conf, author) = (
            2000 + (i % 3) as i64,
            format!("c{}", i % 3),
            format!("a{i}"),
        );
        rig.publish(year, &conf, &author, &format!("t{i}"));
        let seq = rig.publish(year, &conf, &author, "no-such-title");
        near_misses.push((seq, i));
        rig.publish(1900, &conf, &author, "out-of-range-year");
        rig.sim.run_for(SimDuration::from_ticks(6));
    }
    rig.sim.run_for(SimDuration::from_ticks(2 * TTL));
    Run {
        metrics: rig.sim.metrics(),
        near_misses,
        rig,
    }
}

fn stage_fp(m: &RunMetrics, stage: usize) -> u64 {
    m.weakening
        .iter()
        .find(|w| w.stage == stage)
        .map_or(0, |w| w.false_positives)
}

/// Runs E14 and reports its tables, plus the sampled run's JSONL log.
pub fn report() -> Report {
    let mut r = Report::new("exp_latency");

    // ── Fault-free, every event traced ───────────────────────────────────
    let clean = run_scenario(1, None);
    writeln!(r, "=== fault-free (trace every event) ===\n");
    writeln!(r, "{}", clean.metrics.latency_table());
    writeln!(r, "{}", clean.metrics.weakening_table());
    if let Some(sh) = clean
        .metrics
        .latency
        .hop_by_stage
        .iter()
        .find(|s| s.stage == 1)
    {
        writeln!(
            r,
            "{}",
            render_histogram("stage 1 hop latency (ticks)", &sh.hist, 40)
        );
    }
    writeln!(
        r,
        "{}",
        render_histogram(
            "end-to-end publish→deliver latency (ticks)",
            &clean.metrics.latency.e2e,
            40
        )
    );

    // Provenance: explain one injected false positive end to end.
    let (fp_seq, fp_sub) = clean.near_misses[0];
    let fp_trace: TraceId = clean
        .rig
        .sim
        .traces()
        .iter()
        .find(|t| t.seq == fp_seq.0)
        .map(|t| t.id)
        .expect("near miss is traced at sample_every=1");
    let explained = clean
        .rig
        .sim
        .explain(fp_trace, clean.rig.subs[fp_sub])
        .expect("tracing is on and the trace exists");
    writeln!(r, "=== provenance: one near miss, explained ===\n");
    writeln!(r, "{explained}");

    // ── Same workload under link chaos, reliability on ───────────────────
    let chaos = run_scenario(
        1,
        Some(FaultPlan {
            drop_probability: 0.05,
            dup_probability: 0.02,
            max_jitter: SimDuration::from_ticks(3),
        }),
    );
    writeln!(
        r,
        "=== chaotic links (drop 5%, dup 2%, jitter ≤3; reliability on) ===\n"
    );
    writeln!(r, "{}", chaos.metrics.latency_table());
    writeln!(r, "{}", chaos.metrics.weakening_table());
    writeln!(r, "{}", chaos.metrics.rlc_table());

    // ── Sampled run: 1-in-N tracing, JSONL export ────────────────────────
    let sampled = run_scenario(JSONL_SAMPLE_EVERY, None);
    let jsonl = sampled.rig.sim.trace_jsonl().expect("tracing is on");
    writeln!(r, "=== sampled run (1 in {JSONL_SAMPLE_EVERY}) ===\n");
    writeln!(
        r,
        "traced {} of {} published events; JSONL log → {JSONL_FILE} ({} lines)",
        sampled.metrics.latency.traced,
        3 * ROUNDS,
        jsonl.lines().count()
    );
    r.files.push((JSONL_FILE, jsonl));

    // ── Tracing off: the hot path does no tracing work ───────────────────
    let off = run_scenario(0, None);

    let e2e = &clean.metrics.latency.e2e;
    r.check(
        e2e.p50() <= e2e.p95() && e2e.p95() <= e2e.p99() && e2e.p99() <= e2e.max(),
        "e2e quantiles must be monotone",
    );
    r.check(
        stage_fp(&clean.metrics, 1) == clean.near_misses.len() as u64,
        "fault-free with full sampling, every near miss is exactly one stage-1 false positive",
    );
    r.check(
        stage_fp(&clean.metrics, 0) >= clean.near_misses.len() as u64,
        "every near miss is rejected by the original filter at stage 0",
    );
    r.check(
        explained.contains("false positive") && explained.contains("stage 1"),
        "explain() must attribute the near miss to the stage-1 weakening",
    );
    r.check(
        chaos.metrics.latency.e2e.p95() >= clean.metrics.latency.e2e.p50(),
        "jitter and retransmission must not make the chaotic tail faster than the clean median",
    );
    r.check(
        sampled.metrics.latency.traced == (3 * ROUNDS as u64).div_ceil(JSONL_SAMPLE_EVERY),
        "counter-based sampling traces exactly ceil(published / N) events",
    );
    r.check(
        off.metrics.latency.traced == 0,
        "sampling off traces nothing",
    );
    r.check(
        off.rig.sim.trace_jsonl().is_none() && off.metrics.weakening.is_empty(),
        "sampling off allocates no sink and no per-event state",
    );
    r.finish("shape checks passed.")
}
