//! E11 (extension) — soft-state lease overhead (Section 4.3).
//!
//! TTL-based unsubscription trades network traffic for staleness: short
//! TTLs clean up dead subscriptions quickly but cost renewal messages every
//! TTL; long TTLs are quiet but leave orphaned filters (and their useless
//! event traffic) alive for up to 3 × TTL. This ablation sweeps the TTL at
//! a fixed event rate and measures both sides of the trade.

use std::sync::Arc;

use layercake_event::Advertisement;
use layercake_metrics::render_table;
use layercake_overlay::{OverlayConfig, OverlaySim};
use layercake_sim::SimDuration;
use layercake_workload::{BiblioConfig, BiblioWorkload};

use crate::{biblio_stream, Report};

/// Virtual run length and event cadence.
const RUN_TICKS: u64 = 120_000;
const EVENT_EVERY: u64 = 60;

/// Runs E11 and reports its sweep.
pub fn report() -> Report {
    let mut r = Report::new("exp_lease");
    let mut rows = Vec::new();
    let mut overhead_by_ttl = Vec::new();
    for ttl_ticks in [2_000u64, 8_000, 32_000] {
        let biblio = BiblioConfig {
            subscriptions: 50,
            ..BiblioConfig::default()
        };
        let (registry, workload, stream) = biblio_stream(biblio, RUN_TICKS / EVENT_EVERY, 29);
        let class = workload.class();
        let mut sim = OverlaySim::new(
            OverlayConfig {
                levels: vec![20, 4, 1],
                leases_enabled: true,
                ttl: SimDuration::from_ticks(ttl_ticks),
                ..OverlayConfig::default()
            },
            Arc::new(registry),
        );
        sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
        sim.settle();
        for f in workload.subscriptions() {
            sim.add_subscriber(f.clone()).expect("valid subscription");
            sim.settle();
        }
        let after_setup = sim.network_messages();

        // Publish at a steady cadence across the whole run.
        for env in stream {
            sim.publish(env);
            sim.run_for(SimDuration::from_ticks(EVENT_EVERY));
        }

        let delivered: u64 = sim.metrics().stage_records(0).map(|r| r.received).sum();
        let event_traffic: u64 = sim
            .metrics()
            .records
            .iter()
            .filter(|r| r.stage > 0)
            .map(|r| r.received)
            .sum::<u64>()
            + delivered;
        let total = sim.network_messages() - after_setup;
        let lease_overhead = total.saturating_sub(event_traffic);
        overhead_by_ttl.push(lease_overhead);
        rows.push(vec![
            ttl_ticks.to_string(),
            (3 * ttl_ticks).to_string(),
            event_traffic.to_string(),
            lease_overhead.to_string(),
            format!("{:.3}", lease_overhead as f64 / delivered.max(1) as f64),
        ]);
    }
    writeln!(
        r,
        "{}",
        render_table(
            &[
                "TTL (ticks)",
                "Max staleness (3×TTL)",
                "Event messages",
                "Lease messages",
                "Lease msgs per delivery",
            ],
            &rows,
        )
    );
    writeln!(
        r,
        "reading guide: renewal traffic scales inversely with the TTL, while the window\n\
         in which a dead subscription keeps attracting traffic scales linearly with it."
    );

    r.check(
        overhead_by_ttl.windows(2).all(|w| w[1] < w[0]),
        "longer TTLs must cost fewer lease messages",
    );
    r.finish("shape checks passed.")
}
