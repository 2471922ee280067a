//! E8 (extension) — hierarchy-depth ablation.
//!
//! The paper fixes a 4-stage hierarchy; this ablation sweeps the depth
//! over 5 000 events to expose the tradeoff multi-stage filtering makes:
//! deeper hierarchies spread the filtering load over more, cooler nodes
//! (lower max per-node RLC) at the price of more hops per delivered event.
//!
//! Its last shape check fails today: the 5-stage hierarchy's hottest
//! broker is hotter than the 4-stage one's, because placement always
//! follows a covering filter (ROADMAP 12).

use layercake_metrics::{format_ratio, render_table};
use layercake_overlay::OverlayConfig;
use layercake_workload::BiblioConfig;

use crate::{broker_hops, max_broker_rlc, run_biblio, Report};

/// Runs E8 and reports its sweep.
pub fn report() -> Report {
    let mut r = Report::new("exp_depth");
    let topologies: &[&[usize]] = &[
        &[1],
        &[10, 1],
        &[50, 10, 1],
        &[100, 50, 10, 1],
        &[100, 50, 25, 10, 1],
    ];

    let mut rows = Vec::new();
    let mut max_rlcs = Vec::new();
    for levels in topologies {
        let run = run_biblio(
            OverlayConfig {
                levels: levels.to_vec(),
                ..OverlayConfig::default()
            },
            BiblioConfig::default(),
            5_000,
            13,
        );
        let m = &run.metrics;
        max_rlcs.push(max_broker_rlc(m));
        rows.push(vec![
            format!("{levels:?}"),
            levels.len().to_string(),
            format_ratio(max_broker_rlc(m)),
            format_ratio(m.global_rlc_total()),
            format!("{:.2}", broker_hops(m)),
            format!("{:.2}", m.avg_mr_at(0)),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Hierarchy",
                "Stages",
                "Max broker RLC",
                "Global RLC total",
                "Broker hops per delivery",
                "Subscriber MR",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: one broker stage is the centralized server (RLC = 1); each\n\
         added stage cuts the hottest node's load, paying one extra hop per event."
    );

    // A single broker approximates the centralized server (slightly below
    // RLC 1 because identical weakened filters share one table entry
    // even there).
    r.check(max_rlcs[0] > 0.8, "single broker ≈ centralized");
    // Depth pays off steeply at first…
    r.check(
        max_rlcs[1] < max_rlcs[0] / 2.0 && max_rlcs[2] < max_rlcs[1],
        "each early stage must cut the hottest node's load",
    );
    // …and deep hierarchies run an order of magnitude cooler overall
    // (returns flatten once the stage map's attribute prefixes are
    // exhausted and extra levels are pass-through).
    r.check(
        max_rlcs[3..].iter().all(|&x| x < max_rlcs[0] / 10.0),
        "4- and 5-stage hierarchies must run an order of magnitude cooler than one broker",
    );
    r.finish("shape checks passed.")
}
