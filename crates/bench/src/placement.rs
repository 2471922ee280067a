//! E4 — subscription placement policies (Section 4.2).
//!
//! The paper argues that arranging *similar* subscriptions together (by
//! walking down covering filters) beats locality/random attachment: fewer
//! covering filters stored in the system, fewer forwarding paths per event.
//! This experiment sweeps the similarity of the subscription population and
//! compares the two policies over 5 000 events, then shows what
//! subscription aggregation folds on a range-filter workload.

use std::sync::Arc;

use layercake_event::{Advertisement, Envelope, EventSeq, TypeRegistry};
use layercake_metrics::render_table;
use layercake_overlay::{OverlayConfig, OverlaySim, PlacementPolicy};
use layercake_workload::stock::{StockConfig, StockWorkload};
use layercake_workload::BiblioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{broker_filters, run_biblio, Report};

const EVENTS: u64 = 5_000;

/// Runs E4 and reports its two tables.
pub fn report() -> Report {
    let mut r = Report::new("exp_placement");
    // Author-pool size controls how many "similar" subscriptions exist:
    // fewer authors → more subscriptions share their (year, conf, author)
    // prefix, which is exactly what similarity placement exploits.
    let sweeps = [(500usize, "low"), (50, "medium"), (10, "high")];

    let mut rows = Vec::new();
    // (broker filters stored, event hops below the root) per row.
    let mut cost = Vec::new();
    for &(authors, similarity) in &sweeps {
        for policy in [PlacementPolicy::Similarity, PlacementPolicy::Random] {
            let overlay = OverlayConfig {
                levels: vec![50, 5, 1],
                placement: policy,
                ..OverlayConfig::default()
            };
            let biblio = BiblioConfig {
                authors,
                conferences: 10,
                subscriptions: 150,
                ..BiblioConfig::default()
            };
            let run = run_biblio(overlay, biblio, EVENTS, 42);
            // Forwarding cost: broker-to-broker + broker-to-subscriber hops.
            let broker_recv: u64 = run
                .metrics
                .records
                .iter()
                .filter(|r| r.stage > 0 && r.node != "N3.1")
                .map(|r| r.received)
                .sum();
            let sub_recv: u64 = run.metrics.stage_records(0).map(|r| r.received).sum();
            let redirects: u32 = run
                .handles
                .iter()
                .map(|&h| run.sim.subscriber(h).redirects())
                .sum();
            let (filters, hops) = (broker_filters(&run.metrics), broker_recv + sub_recv);
            cost.push((filters, hops));
            rows.push(vec![
                similarity.to_owned(),
                format!("{policy:?}"),
                filters.to_string(),
                hops.to_string(),
                format!("{:.1}", f64::from(redirects) / 150.0),
            ]);
        }
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Sub similarity",
                "Placement",
                "Filters stored (brokers)",
                "Event hops below root",
                "Avg redirects/sub",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: with similar subscriptions, similarity placement stores fewer\n\
         covering filters and forwards each event along fewer paths (Section 4.2)."
    );

    // Part 2 — subscription aggregation (paper Example 5's "keep only g1")
    // on a workload with covering *chains*: stock subscriptions share symbols
    // but differ in price ceilings, so weaker ceilings cover stronger ones.
    writeln!(
        r,
        "\nsubscription aggregation on range-filter subscriptions (Example 5):"
    );
    let mut rows2 = Vec::new();
    let mut counts = Vec::new();
    for aggregation in [false, true] {
        let mut registry = TypeRegistry::new();
        let workload = StockWorkload::new(
            StockConfig {
                symbols: 10,
                ..Default::default()
            },
            &mut registry,
        );
        let class = workload.class();
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![10, 1],
                aggregation_enabled: aggregation,
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        sim.advertise(Advertisement::new(class, StockWorkload::stage_map()));
        sim.settle();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..150 {
            let f = workload.subscription(&mut rng);
            sim.add_subscriber(f).expect("valid subscription");
            sim.settle();
        }
        let mut quotes = workload.clone();
        for seq in 0..EVENTS {
            let q = quotes.next_quote(&mut rng);
            sim.publish(Envelope::encode(class, EventSeq(seq), &q).expect("quotes encode"));
        }
        sim.settle();
        let m = sim.metrics();
        let delivered: u64 = m.stage_records(0).map(|r| r.received).sum();
        let matched: u64 = m.stage_records(0).map(|r| r.matched).sum();
        counts.push((broker_filters(&m), matched));
        rows2.push(vec![
            format!("aggregation {}", if aggregation { "on" } else { "off" }),
            broker_filters(&m).to_string(),
            delivered.to_string(),
            matched.to_string(),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "Mode",
                "Broker filters stored",
                "Events delivered to subs",
                "Events accepted by subs",
            ],
            &rows2,
        )
    );
    writeln!(
        r,
        "reading guide: aggregation folds stronger price ceilings under the weaker\n\
         covering roots — fewer filters, some extra deliveries, identical accepted sets."
    );
    r.check(
        counts[1].0 < counts[0].0,
        "aggregation must shrink broker tables",
    );
    r.check(
        counts[1].1 == counts[0].1,
        "accepted event sets must be identical",
    );

    // Shape check at high similarity (the last two rows): similarity
    // placement stores fewer filters and forwards along fewer paths than
    // random placement.
    let ((sim_filters, sim_hops), (rand_filters, rand_hops)) = (cost[4], cost[5]);
    r.check(
        sim_filters < rand_filters,
        "similarity placement must store fewer broker filters under similar subscriptions",
    );
    r.check(
        sim_hops <= rand_hops,
        "similarity placement must not forward along more paths",
    );
    r.finish("shape checks passed.")
}
