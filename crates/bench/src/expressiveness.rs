//! E9 (extension) — subscription expressiveness vs delivered irrelevant
//! traffic (Section 2.2: "As expressiveness increases, so does selectivity
//! and less irrelevant events have to be delivered to subscribers").
//!
//! The same subscriber interest ("papers by my author at my conference in
//! my year") is expressed at the paper's increasing expressiveness levels —
//! type-only (topic-based), one equality, full conjunction — and we measure
//! what reaches the subscriber runtime versus what it actually wants, over
//! 10 000 events.

use std::sync::Arc;

use layercake_event::Advertisement;
use layercake_filter::Filter;
use layercake_metrics::render_table;
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_workload::{BiblioConfig, BiblioWorkload};

use crate::{biblio_stream, Report};

const EVENTS: u64 = 10_000;

/// Runs E9 and reports its table.
pub fn report() -> Report {
    let mut r = Report::new("exp_expressiveness");
    let biblio = BiblioConfig {
        subscriptions: 50,
        ..BiblioConfig::default()
    };
    let (registry, workload, stream) = biblio_stream(biblio, EVENTS, 17);
    let class = workload.class();
    let registry = Arc::new(registry);

    let mut sim = OverlaySim::new(
        OverlayConfig {
            levels: vec![20, 4, 1],
            ..OverlayConfig::default()
        },
        Arc::clone(&registry),
    );
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    // The interest, expressed at four levels. The most expressive filter is
    // the "ground truth" of what the subscriber wants.
    let year = 2000i64;
    let conf = "conf-000";
    let author = "author-0000";
    let levels: Vec<(&str, Filter)> = vec![
        ("type-only (topic)", Filter::for_class(class)),
        ("+ year equality", Filter::for_class(class).eq("year", year)),
        (
            "+ conference",
            Filter::for_class(class)
                .eq("year", year)
                .eq("conference", conf),
        ),
        (
            "+ author (full)",
            Filter::for_class(class)
                .eq("year", year)
                .eq("conference", conf)
                .eq("author", author),
        ),
    ];
    let truth = levels.last().expect("four levels").1.clone();

    let handles: Vec<_> = levels
        .iter()
        .map(|(_, f)| {
            let h = sim.add_subscriber(f.clone()).expect("valid filter");
            sim.settle();
            h
        })
        .collect();
    // Background population so the event stream is realistic.
    for f in workload.subscriptions() {
        sim.add_subscriber(f.clone()).expect("valid filter");
        sim.settle();
    }

    let wanted = stream
        .iter()
        .filter(|e| truth.matches_envelope(e, &registry))
        .count() as u64;
    for env in &stream {
        sim.publish(env.clone());
    }
    sim.settle();

    let mut rows = Vec::new();
    let mut received_by_level = Vec::new();
    for ((name, _), h) in levels.iter().zip(&handles) {
        let rec = sim.subscriber(*h).record();
        let irrelevant = rec.received.saturating_sub(wanted);
        received_by_level.push(rec.received);
        rows.push(vec![
            (*name).to_owned(),
            rec.received.to_string(),
            wanted.to_string(),
            irrelevant.to_string(),
            format!("{:.4}", wanted as f64 / rec.received.max(1) as f64),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Expressiveness level",
                "Events delivered",
                "Events wanted",
                "Irrelevant deliveries",
                "Useful fraction",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: every added constraint cuts the irrelevant traffic a\n\
         low-bandwidth subscriber (the paper's wireless phones and pagers) must absorb."
    );

    r.check(
        received_by_level.windows(2).all(|w| w[1] <= w[0]),
        "delivered traffic must shrink as expressiveness grows",
    );
    r.check(
        received_by_level[0] == EVENTS,
        "the topic subscriber receives the full class stream",
    );
    r.check(
        received_by_level[3] < EVENTS / 10,
        "the full filter must cut traffic by more than 10x",
    );
    r.finish("shape checks passed.")
}
