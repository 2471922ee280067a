//! E3 — architecture comparison (Sections 2.1 and 5.1).
//!
//! Runs the same bibliographic workload through the three architectures
//! the paper discusses: a centralized filtering server (RLC ≡ 1),
//! broadcast-with-local-filtering, and the multi-stage hierarchy, over
//! 20 000 events. Reports the per-node load and the traffic each
//! subscriber has to process.

use layercake_metrics::{format_ratio, render_table};

use crate::baseline::{broadcast_run, centralized_run};
use crate::{biblio_stream, max_broker_rlc, paper_biblio, paper_overlay, run_biblio, Report};

const EVENTS: u64 = 20_000;

/// Runs E3 and reports its comparison table.
pub fn report() -> Report {
    let mut r = Report::new("exp_arch_compare");

    // Multi-stage run (also yields the workload we replay on the baselines).
    let run = run_biblio(paper_overlay(), paper_biblio(), EVENTS, 2002);

    // Replay the identical subscription set and event stream through the
    // baselines.
    let (registry, workload, stream) = biblio_stream(paper_biblio(), EVENTS, 2002);
    let subs = workload.subscriptions();

    let rows = [
        ("centralized", centralized_run(subs, &stream, &registry)),
        ("broadcast", broadcast_run(subs, &stream, &registry)),
        ("multi-stage", run.metrics),
    ];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(arch, m)| {
            let (sub_recv_avg, sub_kb_avg) = {
                let recs: Vec<_> = m.stage_records(0).collect();
                let n = recs.len().max(1) as f64;
                (
                    recs.iter().map(|r| r.received as f64).sum::<f64>() / n,
                    recs.iter().map(|r| r.bytes_received as f64).sum::<f64>() / n / 1024.0,
                )
            };
            vec![
                (*arch).to_owned(),
                format_ratio(max_broker_rlc(m)),
                format_ratio(m.global_rlc_total()),
                format!("{sub_recv_avg:.1}"),
                format!("{sub_kb_avg:.1}"),
                format!("{:.3}", m.avg_mr_at(0)),
            ]
        })
        .collect();

    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Architecture",
                "Max broker-node RLC",
                "Global RLC total",
                "Avg events/subscriber",
                "Avg KiB/subscriber",
                "Subscriber MR",
            ],
            &table,
        )
    );
    writeln!(
        r,
        "reading guide:\n  \
         · centralized: one node carries RLC = 1 (the bottleneck of Section 2.1);\n  \
         · broadcast: no broker load, but every subscriber downloads and filters the full stream;\n  \
         · multi-stage: every node far below 1, subscribers see almost only relevant events."
    );

    let [(_, central), (_, broadcast), (_, multi)] = &rows;
    r.check(
        (max_broker_rlc(central) - 1.0).abs() < 1e-9,
        "centralized server RLC must be 1",
    );
    r.check(
        max_broker_rlc(multi) < 0.5,
        "multi-stage max node RLC must be well below centralized",
    );
    let broadcast_sub_recv = broadcast.stage_records(0).next().map_or(0, |r| r.received);
    r.check(
        broadcast_sub_recv == EVENTS,
        "broadcast floods every subscriber",
    );
    r.check(
        multi.avg_mr_at(0) > 0.5,
        "multi-stage subscribers mostly see relevant events",
    );
    r.finish("shape checks passed.")
}
