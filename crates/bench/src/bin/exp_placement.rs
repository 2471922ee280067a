//! E4 — subscription placement policies (Section 4.2).
//!
//! The paper argues that arranging *similar* subscriptions together (by
//! walking down covering filters) beats locality/random attachment: fewer
//! covering filters stored in the system, fewer forwarding paths per event.
//! This experiment sweeps the similarity of the subscription population and
//! compares the two policies.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_placement`

use layercake_bench::run_biblio;
use layercake_metrics::render_table;
use layercake_overlay::{OverlayConfig, PlacementPolicy};
use layercake_workload::BiblioConfig;

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    // Author-pool size controls how many "similar" subscriptions exist:
    // fewer authors → more subscriptions share their (year, conf, author)
    // prefix, which is exactly what similarity placement exploits.
    let sweeps = [(500usize, "low"), (50, "medium"), (10, "high")];
    eprintln!("running E4: placement policy × subscription similarity, {events} events…");

    let mut rows = Vec::new();
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
            let run = run_biblio(overlay, biblio, events, 42);
            let broker_filters: usize = run
                .metrics
                .records
                .iter()
                .filter(|r| r.stage > 0)
                .map(|r| r.filters)
                .sum();
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
            rows.push(vec![
                similarity.to_owned(),
                format!("{policy:?}"),
                broker_filters.to_string(),
                (broker_recv + sub_recv).to_string(),
                format!("{:.1}", f64::from(redirects) / 150.0),
            ]);
        }
    }
    println!(
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
    println!("reading guide: with similar subscriptions, similarity placement stores fewer");
    println!("covering filters and forwards each event along fewer paths (Section 4.2).");

    // Part 2 — subscription aggregation (paper Example 5's "keep only g1")
    // on a workload with covering *chains*: stock subscriptions share symbols
    // but differ in price ceilings, so weaker ceilings cover stronger ones.
    println!("\nsubscription aggregation on range-filter subscriptions (Example 5):");
    let mut rows2 = Vec::new();
    let mut counts = Vec::new();
    for aggregation in [false, true] {
        let mut registry = layercake_event::TypeRegistry::new();
        let workload = layercake_workload::stock::StockWorkload::new(
            layercake_workload::stock::StockConfig {
                symbols: 10,
                ..Default::default()
            },
            &mut registry,
        );
        let class = workload.class();
        let mut sim = layercake_overlay::OverlaySim::new(
            OverlayConfig {
                levels: vec![10, 1],
                aggregation_enabled: aggregation,
                ..OverlayConfig::default()
            },
            std::sync::Arc::new(registry),
        );
        sim.advertise(layercake_event::Advertisement::new(
            class,
            layercake_workload::stock::StockWorkload::stage_map(),
        ));
        sim.settle();
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut handles = Vec::new();
        for _ in 0..150 {
            let f = workload.subscription(&mut rng);
            handles.push(sim.add_subscriber(f).unwrap());
            sim.settle();
        }
        let mut quotes = workload.clone();
        for seq in 0..events {
            let q = quotes.next_quote(&mut rng);
            let env = layercake_event::Envelope::encode(class, layercake_event::EventSeq(seq), &q)
                .unwrap();
            sim.publish(env);
        }
        sim.settle();
        let m = sim.metrics();
        let broker_filters: usize = m
            .records
            .iter()
            .filter(|r| r.stage > 0)
            .map(|r| r.filters)
            .sum();
        let delivered: u64 = m.stage_records(0).map(|r| r.received).sum();
        let matched: u64 = m.stage_records(0).map(|r| r.matched).sum();
        counts.push((broker_filters, matched));
        rows2.push(vec![
            if aggregation {
                "aggregation on"
            } else {
                "aggregation off"
            }
            .to_owned(),
            broker_filters.to_string(),
            delivered.to_string(),
            matched.to_string(),
        ]);
    }
    println!(
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
    println!("reading guide: aggregation folds stronger price ceilings under the weaker");
    println!("covering roots — fewer filters, some extra deliveries, identical accepted sets.");
    assert!(
        counts[1].0 < counts[0].0,
        "aggregation must shrink broker tables: {counts:?}"
    );
    assert_eq!(
        counts[1].1, counts[0].1,
        "accepted event sets must be identical"
    );

    // Shape check at high similarity: similarity placement stores fewer
    // filters and forwards along fewer paths than random placement.
    let pick = |sim: &str, pol: &str, col: usize| -> f64 {
        rows.iter()
            .find(|r| r[0] == sim && r[1].contains(pol))
            .map(|r| r[col].parse::<f64>().unwrap())
            .expect("row exists")
    };
    assert!(
        pick("high", "Similarity", 2) < pick("high", "Random", 2),
        "similarity placement must store fewer broker filters under similar subscriptions"
    );
    assert!(
        pick("high", "Similarity", 3) <= pick("high", "Random", 3),
        "similarity placement must not forward along more paths"
    );
    println!("\nshape checks passed.");
}
