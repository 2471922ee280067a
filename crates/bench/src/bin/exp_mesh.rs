//! E10 (extension) — hierarchical vs non-hierarchical configurations.
//!
//! The paper's footnote 1: "Non-hierarchical configurations can also be
//! used, but they have a higher complexity and are not described in this
//! paper." We built them anyway (`layercake_overlay::mesh`) and measure
//! that complexity: same workload, same broker count, hierarchy vs a
//! balanced peer tree vs a star vs a line.
//!
//! Run with: `cargo run --release -p layercake-bench --bin exp_mesh`

use std::sync::Arc;

use layercake_event::{Advertisement, Envelope, TypeRegistry};
use layercake_metrics::{format_ratio, render_table, RunMetrics};
use layercake_overlay::mesh::{MeshConfig, MeshSim};
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BROKERS: usize = 21;

fn workload_and_stream(events: u64) -> (TypeRegistry, BiblioWorkload, Vec<Envelope>) {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(23);
    let workload = BiblioWorkload::new(
        BiblioConfig {
            subscriptions: 100,
            ..BiblioConfig::default()
        },
        &mut registry,
        &mut rng,
    );
    let stream = (0..events)
        .map(|s| workload.envelope(s, &mut rng))
        .collect();
    (registry, workload, stream)
}

fn summarize(name: &str, m: &RunMetrics) -> Vec<String> {
    let broker_filters: usize = m
        .records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.filters)
        .sum();
    let max_rlc = m
        .records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.rlc(m.total_events, m.total_subs))
        .fold(0.0f64, f64::max);
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
    vec![
        name.to_owned(),
        broker_filters.to_string(),
        format_ratio(max_rlc),
        format_ratio(m.global_rlc_total()),
        format!("{hops:.2}"),
    ]
}

fn main() {
    let events: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000);
    eprintln!("running E10: hierarchy vs peer meshes, {BROKERS} brokers, {events} events…");

    let mut rows = Vec::new();
    let mut stored = std::collections::HashMap::new();

    // Hierarchy: 16 + 4 + 1 = 21 brokers.
    {
        let (registry, workload, stream) = workload_and_stream(events);
        let class = workload.class();
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![16, 4, 1],
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        for f in workload.subscriptions() {
            sim.add_subscriber(f.clone()).unwrap();
            sim.settle();
        }
        for e in stream {
            sim.publish(e);
        }
        sim.settle();
        let m = sim.metrics();
        stored.insert("hierarchy", broker_filter_total(&m));
        rows.push(summarize("hierarchy 16/4/1", &m));
    }

    // Peer meshes with the same broker count; subscribers and publishers
    // attach to uniformly random brokers.
    let balanced = {
        // A balanced binary tree over 21 nodes.
        let edges: Vec<(usize, usize)> = (1..BROKERS).map(|i| ((i - 1) / 2, i)).collect();
        MeshConfig {
            brokers: BROKERS,
            edges,
        }
    };
    for (name, cfg) in [
        ("mesh: balanced tree", balanced),
        ("mesh: star", MeshConfig::star(BROKERS)),
        ("mesh: line", MeshConfig::line(BROKERS)),
    ] {
        let (registry, workload, stream) = workload_and_stream(events);
        let class = workload.class();
        let mut sim = MeshSim::new(cfg, Arc::new(registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let mut rng = StdRng::seed_from_u64(31);
        for f in workload.subscriptions() {
            let at = rng.gen_range(0..BROKERS);
            sim.add_subscriber_at(at, f.clone()).unwrap();
            sim.settle();
        }
        for e in stream {
            let at = rng.gen_range(0..BROKERS);
            sim.publish_at(at, e);
        }
        sim.settle();
        let m = sim.metrics();
        stored.insert(name, broker_filter_total(&m));
        rows.push(summarize(name, &m));
    }

    println!(
        "{}",
        render_table(
            &[
                "Configuration",
                "Broker filters stored",
                "Max broker RLC",
                "Global RLC total",
                "Broker hops per delivery",
            ],
            &rows,
        )
    );
    println!("reading guide: the footnote's \"higher complexity\" is visible in the filter");
    println!("state — meshes flood per-link interest through the whole graph — while the");
    println!("hierarchy funnels all state along root paths.");

    assert!(
        stored["mesh: line"] > stored["hierarchy"],
        "per-link flooding must store more filter state than the hierarchy"
    );
    println!("\nshape checks passed.");
}

fn broker_filter_total(m: &RunMetrics) -> usize {
    m.records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.filters)
        .sum()
}
