//! E5 — wildcard subscription placement (Sections 4.4–4.5).
//!
//! The paper warns that naively attaching wildcard subscriptions (filters
//! with unspecified attributes) to stage-1 nodes overloads those nodes —
//! they would receive every event of the class. The stage-aware scheme
//! instead anchors such subscriptions above the topmost stage still using
//! their most general wildcarded attribute. This experiment sweeps the
//! wildcard rate with the scheme on and off over 5 000 events and reports
//! the hottest stage-1 node.

use layercake_metrics::render_table;
use layercake_overlay::OverlayConfig;
use layercake_workload::BiblioConfig;

use crate::{run_biblio, Report};

/// Runs E5 and reports its sweep.
pub fn report() -> Report {
    let mut r = Report::new("exp_wildcard");
    let mut rows = Vec::new();
    let mut hottest = Vec::new();
    for wildcard_rate in [0.0, 0.2, 0.5] {
        for stage_aware in [true, false] {
            let overlay = OverlayConfig {
                levels: vec![50, 5, 1],
                wildcard_stage_placement: stage_aware,
                ..OverlayConfig::default()
            };
            let biblio = BiblioConfig {
                wildcard_rate,
                subscriptions: 150,
                ..BiblioConfig::default()
            };
            let run = run_biblio(overlay, biblio, 5_000, 7);
            let stage1: Vec<_> = run.metrics.stage_records(1).collect();
            let hottest_recv = stage1.iter().map(|r| r.received).max().unwrap_or(0);
            let hottest_evals = stage1.iter().map(|r| r.evaluations).max().unwrap_or(0);
            let avg_recv =
                stage1.iter().map(|r| r.received as f64).sum::<f64>() / stage1.len() as f64;
            hottest.push(hottest_recv);
            rows.push(vec![
                format!("{wildcard_rate:.1}"),
                if stage_aware {
                    "stage-aware"
                } else {
                    "naive stage-1"
                }
                .to_owned(),
                hottest_recv.to_string(),
                format!("{avg_recv:.1}"),
                hottest_evals.to_string(),
            ]);
        }
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Wildcard rate",
                "Placement",
                "Hottest stage-1 node (events)",
                "Avg stage-1 node (events)",
                "Hottest stage-1 node (LC)",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: with naive placement, wildcard subscriptions drag the full class\n\
         volume down to single stage-1 nodes; the stage-aware scheme keeps them cool."
    );

    // Shape check: at a high wildcard rate (the last two rows) the naive
    // scheme's hottest stage-1 node must be strictly hotter than under the
    // stage-aware one.
    let (aware, naive) = (hottest[4], hottest[5]);
    r.check(naive > aware, "naive placement must overload stage-1 nodes");
    r.finish(&format!(
        "shape checks passed: naive hottest = {naive}, stage-aware hottest = {aware}."
    ))
}
