//! E10 (extension) — hierarchical vs non-hierarchical configurations.
//!
//! The paper's footnote 1: "Non-hierarchical configurations can also be
//! used, but they have a higher complexity and are not described in this
//! paper." We built them anyway (`layercake_overlay::mesh`) and measure
//! that complexity: same workload (5 000 events), same broker count,
//! hierarchy vs a balanced peer tree vs a star vs a line.

use std::sync::Arc;

use layercake_event::Advertisement;
use layercake_metrics::{format_ratio, render_table, RunMetrics};
use layercake_overlay::mesh::{MeshConfig, MeshSim};
use layercake_overlay::OverlayConfig;
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{biblio_stream, broker_filters, broker_hops, max_broker_rlc, run_biblio, Report};

const BROKERS: usize = 21;
const EVENTS: u64 = 5_000;
const SEED: u64 = 23;

fn biblio() -> BiblioConfig {
    BiblioConfig {
        subscriptions: 100,
        ..BiblioConfig::default()
    }
}

fn summarize(name: &str, m: &RunMetrics) -> Vec<String> {
    vec![
        name.to_owned(),
        broker_filters(m).to_string(),
        format_ratio(max_broker_rlc(m)),
        format_ratio(m.global_rlc_total()),
        format!("{:.2}", broker_hops(m)),
    ]
}

/// Runs E10 and reports its table.
pub fn report() -> Report {
    let mut r = Report::new("exp_mesh");
    // Hierarchy: 16 + 4 + 1 = 21 brokers, on the meshes' workload and stream.
    let hierarchy = OverlayConfig {
        levels: vec![16, 4, 1],
        ..OverlayConfig::default()
    };
    let m = run_biblio(hierarchy, biblio(), EVENTS, SEED).metrics;
    let mut rows = vec![summarize("hierarchy 16/4/1", &m)];
    // Broker filters stored per row: the hierarchy first, the line mesh last.
    let mut stored = vec![broker_filters(&m)];

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
        let (registry, workload, stream) = biblio_stream(biblio(), EVENTS, SEED);
        let class = workload.class();
        let mut sim = MeshSim::new(cfg, Arc::new(registry));
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        let mut rng = StdRng::seed_from_u64(31);
        for f in workload.subscriptions() {
            let at = rng.gen_range(0..BROKERS);
            sim.add_subscriber_at(at, f.clone())
                .expect("valid subscription");
            sim.settle();
        }
        for e in stream {
            let at = rng.gen_range(0..BROKERS);
            sim.publish_at(at, e);
        }
        sim.settle();
        let m = sim.metrics();
        stored.push(broker_filters(&m));
        rows.push(summarize(name, &m));
    }

    writeln!(
        r,
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
    writeln!(
        r,
        "reading guide: the footnote's \"higher complexity\" is visible in the filter\n\
         state — meshes flood per-link interest through the whole graph — while the\n\
         hierarchy funnels all state along root paths."
    );

    r.check(
        stored[3] > stored[0],
        "per-link flooding must store more filter state than the hierarchy",
    );
    r.finish("shape checks passed.")
}
