//! E1 — Section 5.3 RLC table at the paper's scale.
//!
//! Topology: 1 stage-3 root, 10 stage-2 nodes, 100 stage-1 nodes,
//! 150 subscribers; bibliographic workload, 20 000 events. Prints the
//! per-stage RLC table next to the paper's reported values.

use layercake_metrics::{format_ratio, render_table};

use crate::{paper_biblio, paper_overlay, run_biblio, Report};

/// Runs E1 and reports its table.
pub fn report() -> Report {
    let mut r = Report::new("exp_rlc_table");
    let run = run_biblio(paper_overlay(), paper_biblio(), 20_000, 2002);

    // The paper's reported values (Section 5.3).
    let paper: &[(usize, &str, &str)] = &[
        (0, "2e-7", "2e-4"),
        (1, "2e-4", "2e-1"),
        (2, "0.1", "1"),
        (3, "0.02", "0.02"),
    ];

    let summary = run.metrics.stage_summary();
    let rows: Vec<Vec<String>> = summary
        .iter()
        .map(|s| {
            let (p_avg, p_tot) = paper
                .iter()
                .find(|(st, ..)| *st == s.stage)
                .map_or(("-", "-"), |(_, a, t)| (*a, *t));
            vec![
                s.stage.to_string(),
                s.nodes.to_string(),
                format_ratio(s.avg_rlc),
                format_ratio(s.total_rlc),
                p_avg.to_owned(),
                p_tot.to_owned(),
            ]
        })
        .collect();
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Stage",
                "Nodes",
                "Node avg. RLC (measured)",
                "Stage total RLC (measured)",
                "Node avg. RLC (paper)",
                "Stage total RLC (paper)",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "global RLC total (measured) = {}   — paper: ≈ 1 (no more total work than a centralized server)",
        format_ratio(run.metrics.global_rlc_total())
    );
    writeln!(
        r,
        "average subscriber MR = {:.2}        — paper: 0.87",
        run.metrics.avg_mr_at(0)
    );

    // Shape checks the reproduction stands on (`summary` lists stages 0–3
    // in order).
    r.check(
        summary[0].avg_rlc < summary[1].avg_rlc,
        "per-node load must shrink towards the subscribers",
    );
    r.check(
        summary[1].avg_rlc < summary[2].avg_rlc,
        "stage-2 nodes carry more load per node than stage-1 nodes",
    );
    r.check(
        summary.iter().all(|s| s.avg_rlc < 1.0),
        "every node must be loaded below the centralized server",
    );
    r.finish("shape checks passed: per-node RLC ≪ 1 and decreasing towards stage 0.")
}
