//! E2 — Figure 7: "Matching rate of the nodes".
//!
//! Same setup as E1; plots the per-node matching rate for level-0
//! (subscribers), level-1 and level-2 nodes.

use layercake_metrics::{Scatter, Series};

use crate::{paper_biblio, paper_overlay, run_biblio, Report};

/// Runs E2 and reports its scatter plot.
pub fn report() -> Report {
    let mut r = Report::new("exp_fig7_mr");
    let run = run_biblio(paper_overlay(), paper_biblio(), 20_000, 2002);

    // The paper plots 150 level-0, 100 level-1 and 10 level-2 processes on
    // a shared process-id axis.
    let mut plot = Scatter::new("Matching rate of the nodes (Figure 7)", 75, 18)
        .with_axes("Process Id", "Matching Rate (MR)")
        .with_y_range(0.0, 1.2);
    for (stage, marker) in [(2usize, 'x'), (1, '+'), (0, '*')] {
        // Idle nodes (received = 0) have no matching rate — pre-filtering
        // kept them entirely out of the event flow — so only active nodes
        // are plotted, as in the paper's figure.
        let points: Vec<(f64, f64)> = run
            .metrics
            .stage_records(stage)
            .filter(|r| r.received > 0)
            .enumerate()
            .map(|(i, r)| (i as f64, r.mr()))
            .collect();
        plot = plot.with_series(Series::new(
            format!("MR of Level {stage} Nodes"),
            marker,
            points,
        ));
    }
    writeln!(r, "{}", plot.render());

    for stage in [0usize, 1, 2] {
        writeln!(
            r,
            "average MR of level-{stage} nodes: {:.3}",
            run.metrics.avg_mr_at(stage)
        );
    }
    writeln!(
        r,
        "paper: average subscriber MR = 0.87, lower-stage nodes close to 1."
    );

    let sub_mr = run.metrics.avg_mr_at(0);
    r.check(
        (0.80..=0.95).contains(&sub_mr),
        format!("subscriber MR {sub_mr} should sit near the paper's 0.87"),
    );
    r.finish("shape checks passed: subscriber MR within [0.80, 0.95].")
}
