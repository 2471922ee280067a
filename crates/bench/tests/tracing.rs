//! Observability suite: sampled per-event traces through the overlay —
//! hop provenance, verdicts, latency/weakening aggregation, `explain()`
//! reports, and byte-identical JSONL logs under identical seeds and
//! fault plans.

use std::sync::Arc;

use layercake_bench::link::{with_links, LinkConfig, LinkedSim};
use layercake_event::{event_data, Advertisement, ClassId, Envelope, EventSeq, TypeRegistry};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, SubscriberHandle};
use layercake_sim::{FaultPlan, SimDuration};
use layercake_trace::HopVerdict;
use layercake_workload::BiblioWorkload;

const TTL: u64 = 200;

struct Rig {
    sim: LinkedSim,
    class: ClassId,
    subs: Vec<SubscriberHandle>,
    next_seq: u64,
}

/// A `[4, 2, 1]` biblio overlay with `n` subscribers pinning all four
/// attributes, so a wrong `title` is an exact injected false positive:
/// every covering stage sees only `year`/`conference`/`author` prefixes.
fn build(n: usize, trace_sample_every: u64, reliability: bool, seed: u64) -> Rig {
    let mut registry = TypeRegistry::new();
    let class = BiblioWorkload::register(&mut registry);
    let mut sim = with_links(
        OverlayConfig {
            levels: vec![4, 2, 1],
            ttl: SimDuration::from_ticks(TTL),
            seed,
            trace_sample_every,
            ..OverlayConfig::default()
        },
        LinkConfig {
            reliable: reliability,
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
                    .eq("author", format!("a{i}"))
                    .eq("title", format!("t{i}")),
            )
            .expect("valid subscription");
        subs.push(h);
    }
    sim.settle();
    Rig {
        sim,
        class,
        subs,
        next_seq: 0,
    }
}

impl Rig {
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

    /// Exact match for subscriber `i`.
    fn publish_hit(&mut self, i: usize) -> EventSeq {
        let (year, conf) = (2000 + (i % 2) as i64, format!("c{}", i % 2));
        self.publish(year, &conf, &format!("a{i}"), &format!("t{i}"))
    }

    /// Wrong title: passes every covering stage, dies at stage 0.
    fn publish_near_miss(&mut self, i: usize) -> EventSeq {
        let (year, conf) = (2000 + (i % 2) as i64, format!("c{}", i % 2));
        self.publish(year, &conf, &format!("a{i}"), "no-such-title")
    }
}

#[test]
fn delivered_event_leaves_full_hop_trail() {
    let mut rig = build(4, 1, false, 7);
    rig.sim.set_store_envelopes(rig.subs[0], true);
    let seq = rig.publish_hit(0);
    rig.sim.run_for(SimDuration::from_ticks(50));

    assert!(rig.sim.deliveries(rig.subs[0]).contains(&seq));
    let traces = rig.sim.traces();
    assert_eq!(traces.len(), 1);
    let t = &traces[0];
    assert_eq!(t.seq, seq.0);
    assert!(t.delivered());
    // Root (stage 3) down to the subscriber (stage 0), one hop per stage.
    let stages: Vec<usize> = t.hops.iter().map(|h| h.stage).collect();
    assert!(stages.contains(&3) && stages.contains(&0));
    assert!(t
        .hops
        .iter()
        .any(|h| h.verdict == HopVerdict::Delivered && h.stage == 0));
    assert!(t.e2e_latency().is_some());
    // The delivered envelope still carries the sampled context.
    for env in rig.sim.take_inbox(rig.subs[0]) {
        assert_eq!(env.trace().map(|tc| tc.id), Some(t.id));
    }
}

#[test]
fn explain_attributes_injected_false_positive_to_weakening_stage() {
    let mut rig = build(4, 1, false, 7);
    let seq = rig.publish_near_miss(0);
    rig.sim.run_for(SimDuration::from_ticks(50));

    assert!(!rig.sim.deliveries(rig.subs[0]).contains(&seq));
    let traces = rig.sim.traces();
    let t = traces.iter().find(|t| t.seq == seq.0).expect("traced");
    assert!(!t.false_positive_hops().is_empty());

    let report = rig
        .sim
        .explain(t.id, rig.subs[0])
        .expect("trace exists and tracing is on");
    assert!(report.contains("false positive"), "report: {report}");
    assert!(
        report.contains("the weakening applied at stage 1 let it through"),
        "report: {report}"
    );
    assert!(
        report.contains("REJECTED by the original subscription"),
        "report: {report}"
    );
}

#[test]
fn explain_reports_clean_delivery() {
    let mut rig = build(4, 1, false, 7);
    let seq = rig.publish_hit(1);
    rig.sim.run_for(SimDuration::from_ticks(50));

    let traces = rig.sim.traces();
    let t = traces.iter().find(|t| t.seq == seq.0).expect("traced");
    let report = rig.sim.explain(t.id, rig.subs[1]).expect("explainable");
    assert!(report.contains("delivered"), "report: {report}");
    assert!(!report.contains("false positive"), "report: {report}");
}

#[test]
fn weakening_summary_counts_injected_false_positives() {
    let mut rig = build(4, 1, false, 7);
    for round in 0..8 {
        let i = round % 4;
        rig.publish_hit(i);
        rig.publish_near_miss(i);
        rig.sim.run_for(SimDuration::from_ticks(10));
    }
    rig.sim.run_for(SimDuration::from_ticks(100));

    let m = rig.sim.metrics();
    assert_eq!(m.latency.traced, 16);
    let stage = |k: usize| {
        m.weakening
            .iter()
            .find(|w| w.stage == k)
            .expect("stage row")
    };
    // Every near miss is rejected by the original filter at stage 0 and
    // was admitted by exactly one stage-1 covering filter.
    assert_eq!(stage(0).false_positives, 8);
    assert_eq!(stage(1).false_positives, 8);
    assert_eq!(stage(0).matched, 8);
    // Latency histograms cover the hits end to end.
    assert_eq!(m.latency.e2e.count(), 8);
    assert!(m.latency.e2e.p50() <= m.latency.e2e.p99());
    assert!(m
        .latency
        .hop_by_stage
        .iter()
        .any(|s| s.stage == 1 && !s.hist.is_empty()));
}

#[test]
fn sampling_traces_one_in_n_deterministically() {
    let mut rig = build(2, 3, false, 7);
    for _ in 0..9 {
        rig.publish_hit(0);
    }
    rig.sim.run_for(SimDuration::from_ticks(100));

    let sink = rig.sim.trace_sink().expect("tracing on");
    assert_eq!(sink.published_count(), 9);
    // Publishes 0, 3, 6 fall on the sampling grid.
    assert_eq!(sink.traced_count(), 3);
    assert_eq!(rig.sim.metrics().latency.traced, 3);
}

#[test]
fn sampling_off_leaves_envelopes_untraced_and_metrics_empty() {
    let mut rig = build(2, 0, false, 7);
    rig.sim.set_store_envelopes(rig.subs[0], true);
    let seq = rig.publish_hit(0);
    rig.sim.run_for(SimDuration::from_ticks(50));

    assert!(rig.sim.deliveries(rig.subs[0]).contains(&seq));
    assert!(rig.sim.trace_sink().is_none());
    assert!(rig.sim.trace_jsonl().is_none());
    assert!(rig.sim.traces().is_empty());
    let m = rig.sim.metrics();
    assert_eq!(m.latency.traced, 0);
    assert!(m.latency.e2e.is_empty());
    assert!(m.weakening.is_empty());
    // The delivered payload never carried a context.
    let inbox = rig.sim.take_inbox(rig.subs[0]);
    assert!(!inbox.is_empty());
    for env in inbox {
        assert!(env.trace().is_none());
    }
}

/// Satellite: identical seeds + fault plans ⇒ byte-identical JSONL logs,
/// even with drops, duplicates, jitter, and reliability repair in play.
#[test]
fn jsonl_log_is_byte_identical_across_identical_chaotic_runs() {
    let run = || {
        let mut rig = build(4, 2, true, 42);
        rig.sim.set_fault_seed(0xFA0173);
        rig.sim.set_default_fault_plan(Some(FaultPlan {
            drop_probability: 0.10,
            dup_probability: 0.05,
            max_jitter: SimDuration::from_ticks(3),
        }));
        for round in 0..10 {
            let i = round % 4;
            rig.publish_hit(i);
            rig.publish_near_miss(i);
            rig.sim.run_for(SimDuration::from_ticks(8));
        }
        rig.sim.run_for(SimDuration::from_ticks(4 * TTL));
        rig.sim.trace_jsonl().expect("tracing on")
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same seed + fault plan must reproduce the trace log byte-for-byte"
    );
}

/// A different fault seed must actually change what the traces record —
/// otherwise the determinism test above would be vacuous.
#[test]
fn different_fault_seed_changes_the_trace_log() {
    let run = |fault_seed: u64| {
        let mut rig = build(4, 1, true, 42);
        rig.sim.set_fault_seed(fault_seed);
        rig.sim.set_default_fault_plan(Some(FaultPlan {
            drop_probability: 0.25,
            dup_probability: 0.10,
            max_jitter: SimDuration::from_ticks(4),
        }));
        for round in 0..10 {
            rig.publish_hit(round % 4);
            rig.sim.run_for(SimDuration::from_ticks(8));
        }
        rig.sim.run_for(SimDuration::from_ticks(4 * TTL));
        rig.sim.trace_jsonl().expect("tracing on")
    };
    assert_ne!(run(1), run(2));
}
