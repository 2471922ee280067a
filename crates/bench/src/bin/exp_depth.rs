//! E8 (extension) — hierarchy-depth ablation.
//!
//! The paper fixes a 4-stage hierarchy; this ablation sweeps the depth to
//! expose the tradeoff multi-stage filtering makes: deeper hierarchies
//! spread the filtering load over more, cooler nodes (lower max per-node
//! RLC) at the price of more hops per delivered event.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_depth`

use layercake_bench::run_biblio;
use layercake_metrics::{format_ratio, render_table};
use layercake_overlay::OverlayConfig;
use layercake_workload::BiblioConfig;

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    eprintln!("running E8: hierarchy depth sweep, {events} events…");

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
            events,
            13,
        );
        let m = &run.metrics;
        let max_broker_rlc = m
            .records
            .iter()
            .filter(|r| r.stage > 0)
            .map(|r| r.rlc(m.total_events, m.total_subs))
            .fold(0.0f64, f64::max);
        // Average hops a delivered event travels: broker receptions per
        // subscriber delivery.
        let broker_recv: u64 = m
            .records
            .iter()
            .filter(|r| r.stage > 0)
            .map(|r| r.received)
            .sum();
        let delivered: u64 = m.stage_records(0).map(|r| r.received).sum();
        let hops = if delivered == 0 {
            0.0
        } else {
            broker_recv as f64 / delivered as f64
        };
        max_rlcs.push(max_broker_rlc);
        rows.push(vec![
            format!("{levels:?}"),
            levels.len().to_string(),
            format_ratio(max_broker_rlc),
            format_ratio(m.global_rlc_total()),
            format!("{hops:.2}"),
            format!("{:.2}", m.avg_mr_at(0)),
        ]);
    }
    println!(
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
    println!("reading guide: one broker stage is the centralized server (RLC = 1); each");
    println!("added stage cuts the hottest node's load, paying one extra hop per event.");

    // A single broker approximates the centralized server (slightly below
    // RLC 1 because identical weakened filters share one table entry
    // even there).
    assert!(
        max_rlcs[0] > 0.8,
        "single broker ≈ centralized: {max_rlcs:?}"
    );
    // Depth pays off steeply at first…
    assert!(
        max_rlcs[1] < max_rlcs[0] / 2.0 && max_rlcs[2] < max_rlcs[1],
        "each early stage must cut the hottest node's load: {max_rlcs:?}"
    );
    // …and deep hierarchies run an order of magnitude cooler overall
    // (returns flatten once the stage map's attribute prefixes are
    // exhausted and extra levels are pass-through).
    assert!(
        max_rlcs[3..].iter().all(|&r| r < max_rlcs[0] / 10.0),
        "deep hierarchies run cool: {max_rlcs:?}"
    );
    println!("\nshape checks passed.");
}
