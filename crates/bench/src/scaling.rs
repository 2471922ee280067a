//! E6 — scalability in the number of subscribers (Section 5.3 claim).
//!
//! "By adding a few intermediate nodes, the number of subscribers can be
//! increased significantly without increasing the required computational
//! power at any node." This experiment grows the subscriber population
//! from 150 to 2 400 over 5 000 events, first on a fixed hierarchy, then on
//! a proportionally grown one, always comparing against the centralized
//! server whose load is the full `events × subscriptions` product.
//!
//! Its shape checks fail today: placement always follows a covering
//! filter, so the grown hierarchy's added brokers stay idle (ROADMAP 12).

use layercake_metrics::render_table;
use layercake_overlay::OverlayConfig;
use layercake_workload::BiblioConfig;

use crate::{run_biblio, Report};

const EVENTS: u64 = 5_000;

/// Runs E6 and reports its sweep.
pub fn report() -> Report {
    let mut r = Report::new("exp_scaling");
    // (subs, levels) pairs: the first three share a topology, the last two
    // grow it with the population.
    let sweeps: &[(usize, &[usize], &str)] = &[
        (150, &[50, 5, 1], "fixed"),
        (600, &[50, 5, 1], "fixed"),
        (2_400, &[50, 5, 1], "fixed"),
        (600, &[200, 20, 1], "grown"),
        (2_400, &[800, 80, 1], "grown"),
    ];

    let mut rows = Vec::new();
    let mut hottest_by_row = Vec::new();
    for &(subs, levels, kind) in sweeps {
        let overlay = OverlayConfig {
            levels: levels.to_vec(),
            ..OverlayConfig::default()
        };
        let biblio = BiblioConfig {
            subscriptions: subs,
            authors: 200,
            ..BiblioConfig::default()
        };
        let run = run_biblio(overlay, biblio, EVENTS, 11);
        // Per-event filtering work at the hottest non-root broker: the
        // "computational power requirement" the paper talks about.
        let hottest: f64 = run
            .metrics
            .records
            .iter()
            .filter(|r| r.stage >= 1 && r.stage < levels.len())
            .map(|r| r.evaluations as f64 / EVENTS as f64)
            .fold(0.0, f64::max);
        let central = subs as f64; // centralized server: filters/event = subs
        hottest_by_row.push(hottest);
        rows.push(vec![
            subs.to_string(),
            format!("{levels:?}"),
            kind.to_owned(),
            format!("{hottest:.2}"),
            format!("{central:.0}"),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Subscribers",
                "Hierarchy",
                "Scaling",
                "Max broker LC per event (below root)",
                "Centralized LC per event",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: the centralized server's per-event work grows linearly with the\n\
         population; growing the hierarchy keeps the hottest broker's work flat."
    );

    // Shape checks: at equal population (rows 1 and 3, rows 2 and 4), the
    // grown hierarchy's hottest node does less work than the fixed one's,
    // and stays far below centralized.
    let h = &hottest_by_row;
    for (subs, fixed, grown) in [(600, h[1], h[3]), (2_400, h[2], h[4])] {
        let at = format!("{grown:.2} vs {fixed:.2} at {subs} subs");
        r.check(
            grown <= fixed,
            format!("grown hierarchy must not be hotter ({at})"),
        );
        r.check(
            grown < f64::from(subs) / 10.0,
            format!("hottest broker must stay an order of magnitude below centralized ({at})"),
        );
    }
    r.finish("shape checks passed.")
}
