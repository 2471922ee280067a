//! Per-node counters and their per-stage aggregation.

use serde::{Deserialize, Serialize};

use crate::chaos::ChaosStats;
use crate::durability::DurabilityStats;
use crate::hist::Histogram;
use crate::overload::OverloadStats;
use crate::table::{format_ratio, render_table};

/// Hop-latency histogram for one stage of the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageHistogram {
    /// The stage whose incoming-hop latencies are recorded.
    pub stage: usize,
    /// Virtual-time latency (ticks) of arrivals at this stage, measured
    /// from the previous hop's forwarding tick.
    pub hist: Histogram,
}

/// Virtual-time latency observations aggregated from sampled event traces.
///
/// All durations are integer ticks of the deterministic simulator; an
/// empty collection (every histogram at `n=0`) means tracing was disabled
/// for the run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencyMetrics {
    /// Per-stage incoming-hop latency, ordered by stage ascending
    /// (stage 0 = subscriber runtimes).
    pub hop_by_stage: Vec<StageHistogram>,
    /// End-to-end publish→deliver latency, one sample per delivery of a
    /// traced event.
    pub e2e: Histogram,
    /// Number of events that carried a trace context (the sampled subset
    /// of `total_events`).
    pub traced: u64,
}

/// Per-stage weakening cost observed on sampled traces: arrivals admitted
/// by a stage's covering filters versus those the stage-0 original filter
/// later rejected (Proposition 1's false-positive traffic).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageWeakening {
    /// The stage number (0 = subscriber runtime).
    pub stage: usize,
    /// Traced arrivals at this stage.
    pub arrivals: u64,
    /// Arrivals the stage's filters admitted (forwarded, or accepted by
    /// the original filter at stage 0).
    pub matched: u64,
    /// Stage ≥ 1: admitted arrivals that never produced a stage-0
    /// delivery downstream — traffic that exists only because the
    /// covering filter is weaker than the original. Stage 0: arrivals the
    /// original subscription rejected outright.
    pub false_positives: u64,
}

impl StageWeakening {
    /// False positives as a fraction of traced arrivals; 0 when the stage
    /// saw no traffic.
    #[must_use]
    pub fn fp_rate(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.arrivals as f64
        }
    }
}

/// Filtering counters for one node (broker or subscriber runtime) over a
/// simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeRecord {
    /// Human-readable node label, e.g. `"N2.1"` or `"sub-042"`.
    pub node: String,
    /// The node's stage in the hierarchy (0 = subscriber level).
    pub stage: usize,
    /// Number of filters stored at the end of the run.
    pub filters: usize,
    /// Events received for filtering.
    pub received: u64,
    /// Events that matched at least one stored filter (and were forwarded
    /// or delivered).
    pub matched: u64,
    /// Exact filtering work: the sum over received events of the filter
    /// table size at evaluation time (the time-integral of LC).
    pub evaluations: u64,
    /// Approximate bytes received with those events (meta-data + payload),
    /// for bandwidth accounting.
    pub bytes_received: u64,
}

impl NodeRecord {
    /// Creates a zeroed record.
    #[must_use]
    pub fn new(node: impl Into<String>, stage: usize) -> Self {
        Self {
            node: node.into(),
            stage,
            filters: 0,
            received: 0,
            matched: 0,
            evaluations: 0,
            bytes_received: 0,
        }
    }

    /// Matching rate `MR = matched / received`; 0 when nothing was received.
    #[must_use]
    pub fn mr(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.matched as f64 / self.received as f64
        }
    }

    /// Relative load complexity over the run:
    /// `RLC = evaluations / (total_events × total_subs)`.
    #[must_use]
    pub fn rlc(&self, total_events: u64, total_subs: u64) -> f64 {
        let denom = total_events as f64 * total_subs as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.evaluations as f64 / denom
        }
    }
}

/// Aggregated metrics for all nodes of one stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSummary {
    /// The stage number.
    pub stage: usize,
    /// Number of nodes at this stage.
    pub nodes: usize,
    /// Nodes that received at least one event (pre-filtering keeps
    /// uninterested nodes entirely idle).
    pub active_nodes: usize,
    /// Node average of RLC (the paper's second column).
    pub avg_rlc: f64,
    /// Sum of RLC over the stage's nodes (the paper's "total node avg of
    /// RLC" column: per-node average × node count).
    pub total_rlc: f64,
    /// Node average of MR.
    pub avg_mr: f64,
    /// Node average filter count.
    pub avg_filters: f64,
    /// Node average of received events.
    pub avg_received: f64,
}

/// All per-node records of a run plus the run-wide totals needed to
/// normalize them.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-node records.
    pub records: Vec<NodeRecord>,
    /// Total events published into the system.
    pub total_events: u64,
    /// Total subscriptions in the system.
    pub total_subs: u64,
    /// Fault-injection and recovery counters (all zero for fault-free
    /// runs).
    pub chaos: ChaosStats,
    /// Virtual-time latency histograms from sampled traces (empty when
    /// tracing is disabled).
    pub latency: LatencyMetrics,
    /// Per-stage weakening false-positive counts from sampled traces
    /// (empty when tracing is disabled).
    pub weakening: Vec<StageWeakening>,
    /// Flow-control and load-shedding counters (all zero when flow
    /// control is disabled or the run never saturated).
    pub overload: OverloadStats,
    /// Durable-log counters (all zero when durability is disabled).
    pub durability: DurabilityStats,
}

impl RunMetrics {
    /// Creates an empty collection with the run totals.
    #[must_use]
    pub fn new(total_events: u64, total_subs: u64) -> Self {
        Self {
            records: Vec::new(),
            total_events,
            total_subs,
            chaos: ChaosStats::default(),
            latency: LatencyMetrics::default(),
            weakening: Vec::new(),
            overload: OverloadStats::default(),
            durability: DurabilityStats::default(),
        }
    }

    /// Adds a node record.
    pub fn push(&mut self, record: NodeRecord) {
        self.records.push(record);
    }

    /// Records for one stage.
    pub fn stage_records(&self, stage: usize) -> impl Iterator<Item = &NodeRecord> {
        self.records.iter().filter(move |r| r.stage == stage)
    }

    /// Aggregates records per stage, ordered by stage number ascending.
    #[must_use]
    pub fn stage_summary(&self) -> Vec<StageSummary> {
        let mut stages: Vec<usize> = self.records.iter().map(|r| r.stage).collect();
        stages.sort_unstable();
        stages.dedup();
        stages
            .into_iter()
            .map(|stage| {
                let recs: Vec<&NodeRecord> = self.stage_records(stage).collect();
                let n = recs.len() as f64;
                let sum_rlc: f64 = recs
                    .iter()
                    .map(|r| r.rlc(self.total_events, self.total_subs))
                    .sum();
                let active: Vec<&&NodeRecord> = recs.iter().filter(|r| r.received > 0).collect();
                let avg_mr = if active.is_empty() {
                    0.0
                } else {
                    active.iter().map(|r| r.mr()).sum::<f64>() / active.len() as f64
                };
                StageSummary {
                    stage,
                    nodes: recs.len(),
                    active_nodes: active.len(),
                    avg_rlc: sum_rlc / n,
                    total_rlc: sum_rlc,
                    avg_mr,
                    avg_filters: recs.iter().map(|r| r.filters as f64).sum::<f64>() / n,
                    avg_received: recs.iter().map(|r| r.received as f64).sum::<f64>() / n,
                }
            })
            .collect()
    }

    /// Sum of RLC over *all* nodes — the paper's "global total of RLCs",
    /// which multi-stage filtering keeps around 1 (no more total work than
    /// one centralized server).
    #[must_use]
    pub fn global_rlc_total(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.rlc(self.total_events, self.total_subs))
            .sum()
    }

    /// Average MR over the *active* nodes (received > 0) of one stage;
    /// idle nodes never evaluate anything, so they carry no matching rate.
    #[must_use]
    pub fn avg_mr_at(&self, stage: usize) -> f64 {
        let recs: Vec<&NodeRecord> = self
            .stage_records(stage)
            .filter(|r| r.received > 0)
            .collect();
        if recs.is_empty() {
            return 0.0;
        }
        recs.iter().map(|r| r.mr()).sum::<f64>() / recs.len() as f64
    }

    /// Renders the Section 5.3 RLC table.
    #[must_use]
    pub fn rlc_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .stage_summary()
            .iter()
            .map(|s| {
                vec![
                    s.stage.to_string(),
                    s.nodes.to_string(),
                    format_ratio(s.avg_rlc),
                    format_ratio(s.total_rlc),
                ]
            })
            .collect();
        let mut out = render_table(
            &[
                "Stage",
                "Nodes",
                "Node avg. of RLC",
                "Total node avg. of RLC",
            ],
            &rows,
        );
        out.push_str(&format!(
            "global RLC total = {}\n",
            format_ratio(self.global_rlc_total())
        ));
        if !self.chaos.is_quiet() {
            out.push_str("chaos counters:\n");
            for line in self.chaos.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        if !self.overload.is_quiet() {
            out.push_str("overload counters:\n");
            for line in self.overload.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        if !self.durability.is_quiet() {
            out.push_str("durability counters:\n");
            for line in self.durability.render().lines() {
                out.push_str("  ");
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// Renders the durable-log counters in the chaos/overload table style;
    /// a one-line placeholder when the run logged nothing durably.
    #[must_use]
    pub fn durability_table(&self) -> String {
        if self.durability.is_quiet() {
            return String::from("(durability disabled — no log activity)\n");
        }
        let mut out = String::from("durability counters:\n");
        for line in self.durability.render().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// Renders the virtual-time latency table: one row per stage with
    /// incoming-hop latency quantiles, plus a final end-to-end
    /// publish→deliver row. All values are ticks.
    #[must_use]
    pub fn latency_table(&self) -> String {
        if self.latency.traced == 0 {
            return String::from("(tracing disabled — no latency samples)\n");
        }
        let quant_row = |label: String, h: &Histogram| {
            vec![
                label,
                h.count().to_string(),
                h.p50().to_string(),
                h.p95().to_string(),
                h.p99().to_string(),
                h.max().to_string(),
                format!("{:.1}", h.mean()),
            ]
        };
        let mut rows: Vec<Vec<String>> = self
            .latency
            .hop_by_stage
            .iter()
            .map(|s| quant_row(format!("stage {} hop", s.stage), &s.hist))
            .collect();
        rows.push(quant_row(String::from("end-to-end"), &self.latency.e2e));
        let mut out = render_table(
            &[
                "Latency (ticks)",
                "Samples",
                "p50",
                "p95",
                "p99",
                "max",
                "mean",
            ],
            &rows,
        );
        out.push_str(&format!(
            "traced events = {} of {}\n",
            self.latency.traced, self.total_events
        ));
        out
    }

    /// Renders the per-stage weakening false-positive table — the
    /// empirical read on Proposition 1's cost: how much traffic each
    /// stage's weakened covering filters admit that the stage-0 original
    /// filter ultimately rejects.
    #[must_use]
    pub fn weakening_table(&self) -> String {
        if self.weakening.is_empty() {
            return String::from("(tracing disabled — no weakening samples)\n");
        }
        let rows: Vec<Vec<String>> = self
            .weakening
            .iter()
            .map(|w| {
                vec![
                    w.stage.to_string(),
                    w.arrivals.to_string(),
                    w.matched.to_string(),
                    w.false_positives.to_string(),
                    format_ratio(w.fp_rate()),
                ]
            })
            .collect();
        render_table(
            &[
                "Stage",
                "Traced arrivals",
                "Matched",
                "False positives",
                "FP rate",
            ],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(node: &str, stage: usize, filters: usize, received: u64, matched: u64) -> NodeRecord {
        NodeRecord {
            node: node.to_owned(),
            stage,
            filters,
            received,
            matched,
            evaluations: received * filters as u64,
            bytes_received: received * 64,
        }
    }

    #[test]
    fn mr_and_rlc_basics() {
        let r = rec("n", 1, 10, 100, 87);
        assert!((r.mr() - 0.87).abs() < 1e-12);
        // RLC = (100*10)/(100*100) = 0.1
        assert!((r.rlc(100, 100) - 0.1).abs() < 1e-12);
        let empty = NodeRecord::new("e", 0);
        assert_eq!(empty.mr(), 0.0);
        assert_eq!(empty.rlc(0, 0), 0.0);
    }

    #[test]
    fn centralized_server_has_rlc_one() {
        // One node receiving all events, holding all subscriptions.
        let r = rec("central", 0, 500, 1000, 1000);
        assert!((r.rlc(1000, 500) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stage_summary_groups_and_averages() {
        let mut m = RunMetrics::new(1000, 100);
        m.push(rec("a", 1, 2, 100, 50));
        m.push(rec("b", 1, 4, 200, 200));
        m.push(rec("root", 2, 10, 1000, 900));
        let summary = m.stage_summary();
        assert_eq!(summary.len(), 2);
        let s1 = &summary[0];
        assert_eq!(s1.stage, 1);
        assert_eq!(s1.nodes, 2);
        // RLCs: 200/1e5 = 2e-3 and 800/1e5 = 8e-3 → avg 5e-3, total 1e-2.
        assert!((s1.avg_rlc - 5e-3).abs() < 1e-12);
        assert!((s1.total_rlc - 1e-2).abs() < 1e-12);
        assert!((s1.avg_mr - (0.5 + 1.0) / 2.0).abs() < 1e-12);
        assert!((s1.avg_filters - 3.0).abs() < 1e-12);
        assert!((s1.avg_received - 150.0).abs() < 1e-12);
        let s2 = &summary[1];
        assert_eq!(s2.nodes, 1);
        assert!((s2.total_rlc - 0.1).abs() < 1e-12);
        // Global total sums both stages.
        assert!((m.global_rlc_total() - (1e-2 + 0.1)).abs() < 1e-12);
    }

    #[test]
    fn rlc_table_renders() {
        let mut m = RunMetrics::new(1000, 100);
        m.push(rec("a", 0, 1, 10, 9));
        m.push(rec("root", 3, 3, 1000, 950));
        let table = m.rlc_table();
        assert!(table.contains("Stage"));
        assert!(table.contains("global RLC total"));
        assert!(table.lines().count() >= 4);
    }

    #[test]
    fn durability_table_renders_when_active() {
        let mut m = RunMetrics::new(10, 1);
        assert!(m.durability_table().contains("durability disabled"));
        assert!(!m.rlc_table().contains("durability counters"));
        m.durability.records_appended = 12;
        m.durability.fsync_batches = 2;
        let table = m.durability_table();
        assert!(table.contains("records_appended   = 12"));
        assert!(m.rlc_table().contains("durability counters:"));
    }

    #[test]
    fn avg_mr_at_missing_stage_is_zero() {
        let m = RunMetrics::new(1, 1);
        assert_eq!(m.avg_mr_at(7), 0.0);
    }
}
