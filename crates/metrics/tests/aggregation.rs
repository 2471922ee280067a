//! Property tests for metric aggregation invariants, plus edge-case unit
//! tests for degenerate runs (no traffic, no subscribers, empty record
//! sets) and serde round-trips of the full [`RunMetrics`] payload.

use layercake_metrics::{
    ChaosStats, Histogram, LatencyMetrics, NodeRecord, RunMetrics, StageHistogram, StageWeakening,
};
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (0usize..4, 0usize..50, 0u64..10_000, 0u64..10_000).prop_map(
        |(stage, filters, received, matched_raw)| {
            let matched = matched_raw.min(received);
            NodeRecord {
                node: format!("n{stage}-{filters}"),
                stage,
                filters,
                received,
                matched,
                evaluations: received * filters as u64,
                bytes_received: received * 48,
            }
        },
    )
}

proptest! {
    /// The global RLC total equals the sum of the per-stage totals, and
    /// each stage total equals node-average × node-count.
    #[test]
    fn stage_totals_sum_to_global(
        records in proptest::collection::vec(arb_record(), 1..40),
        total_events in 1u64..10_000,
        total_subs in 1u64..1_000,
    ) {
        let mut m = RunMetrics::new(total_events, total_subs);
        for r in records {
            m.push(r);
        }
        let summary = m.stage_summary();
        let stage_sum: f64 = summary.iter().map(|s| s.total_rlc).sum();
        prop_assert!((stage_sum - m.global_rlc_total()).abs() < 1e-9);
        for s in &summary {
            prop_assert!((s.total_rlc - s.avg_rlc * s.nodes as f64).abs() < 1e-9);
            prop_assert!(s.active_nodes <= s.nodes);
            prop_assert!((0.0..=1.0).contains(&s.avg_mr), "MR {}", s.avg_mr);
        }
        // Summary covers every record exactly once.
        let total_nodes: usize = summary.iter().map(|s| s.nodes).sum();
        prop_assert_eq!(total_nodes, m.records.len());
    }

    /// MR is always within [0, 1] and RLC is non-negative; both are zero
    /// for idle nodes.
    #[test]
    fn per_node_metric_bounds(r in arb_record(), events in 1u64..1_000, subs in 1u64..100) {
        prop_assert!((0.0..=1.0).contains(&r.mr()));
        prop_assert!(r.rlc(events, subs) >= 0.0);
        let idle = NodeRecord::new("idle", r.stage);
        prop_assert_eq!(idle.mr(), 0.0);
        prop_assert_eq!(idle.rlc(events, subs), 0.0);
    }

    /// The rendered RLC table lists exactly one row per stage.
    #[test]
    fn rendering_row_counts(records in proptest::collection::vec(arb_record(), 1..20)) {
        let mut m = RunMetrics::new(100, 10);
        for r in records {
            m.push(r);
        }
        let stages = m.stage_summary().len();
        let table = m.rlc_table();
        // header + separator + stage rows + global line
        prop_assert_eq!(table.lines().count(), stages + 3);
    }
}

#[test]
fn mr_and_rlc_survive_zero_denominators() {
    // Zero received ⇒ MR is 0, not NaN.
    let idle = NodeRecord::new("idle", 1);
    assert_eq!(idle.mr(), 0.0);

    // Zero subscribers or zero events ⇒ RLC is 0, not a division by zero.
    let mut busy = NodeRecord::new("busy", 1);
    busy.received = 10;
    busy.matched = 10;
    busy.evaluations = 100;
    assert_eq!(busy.rlc(100, 0), 0.0);
    assert_eq!(busy.rlc(0, 10), 0.0);
    assert!(busy.rlc(100, 10) > 0.0);
}

#[test]
fn empty_run_aggregates_to_nothing() {
    let m = RunMetrics::new(0, 0);
    assert_eq!(m.stage_records(0).count(), 0);
    assert_eq!(m.stage_records(3).count(), 0);
    assert!(m.stage_summary().is_empty());
    assert_eq!(m.global_rlc_total(), 0.0);
    // Rendering still produces the table skeleton without panicking.
    assert!(m.rlc_table().contains("global RLC total"));
    assert!(m.latency_table().contains("tracing disabled"));
    assert!(m.weakening_table().contains("tracing disabled"));
}

#[test]
fn stage_records_filters_by_stage() {
    let mut m = RunMetrics::new(10, 2);
    m.push(NodeRecord::new("a", 0));
    m.push(NodeRecord::new("b", 1));
    m.push(NodeRecord::new("c", 1));
    assert_eq!(m.stage_records(0).count(), 1);
    assert_eq!(m.stage_records(1).count(), 2);
    assert_eq!(m.stage_records(2).count(), 0);
}

#[test]
fn run_metrics_round_trip_through_json() {
    let mut m = RunMetrics::new(500, 20);
    let mut r = NodeRecord::new("N1.1", 1);
    r.filters = 3;
    r.received = 40;
    r.matched = 25;
    r.evaluations = 120;
    r.bytes_received = 1920;
    m.push(r);
    m.chaos = ChaosStats {
        dropped: 7,
        duplicated: 2,
        crash_discarded: 1,
        retransmitted: 9,
        duplicates_suppressed: 4,
        nacks: 5,
        resubscriptions: 3,
        reconverge_ticks: Some(800),
    };
    let mut hist = Histogram::new();
    for v in [1, 2, 3, 100] {
        hist.record(v);
    }
    m.latency = LatencyMetrics {
        hop_by_stage: vec![StageHistogram {
            stage: 1,
            hist: hist.clone(),
        }],
        e2e: hist,
        traced: 4,
    };
    m.weakening = vec![StageWeakening {
        stage: 1,
        arrivals: 40,
        matched: 25,
        false_positives: 15,
    }];

    let json = serde_json::to_string(&m).expect("serialize");
    let back: RunMetrics = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, m);
    // The chaos footer reflects the non-quiet counters after the round trip.
    assert!(back.rlc_table().contains("chaos counters:"));
    assert!(back.rlc_table().contains("reconverge_ticks"));
}

#[test]
fn quiet_chaos_keeps_the_table_footer_free() {
    let m = RunMetrics::new(10, 2);
    assert!(m.chaos.is_quiet());
    assert!(!m.rlc_table().contains("chaos counters"));
}
