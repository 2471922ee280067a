//! Placement is pinned: a fixed-seed Zipf subscription run through
//! `OverlaySim` must host every branch of every subscriber where it did
//! before subscription tables answered the covering search from their
//! index, with the same number of redirects and network messages.
//!
//! Figure 5(b)'s similarity search decides placement, and it is the tables'
//! `find_cover` — including *which* of several covering entries it returns.
//! `docs/results` and the benchmark's `rt.frames_per_event` are functions of
//! these decisions, so a change that moves one of them is not an
//! optimisation of the same system. The expected values were recorded on the
//! commit before the index answered `find_cover` (linear scan, entry order).

use std::sync::Arc;

use layercake_event::{Advertisement, TypeRegistry};
use layercake_overlay::{OverlayConfig, OverlaySim, SubscriberHandle};
use layercake_workload::{StockConfig, StockWorkload, SubsConfig, ZipfSubs};

/// One placement run: 120 single-filter subscribers — a quarter of the first
/// 60 unsubscribing halfway, so later searches run over tables that have
/// lost entries — then 12 with five branches each, all drawn from a
/// Zipf-popular pool in which wider price buckets cover narrower ones, over
/// a 4-2-1 hierarchy.
fn run(cfg: OverlayConfig) -> (OverlaySim, Vec<SubscriberHandle>) {
    let mut registry = TypeRegistry::new();
    let class = StockWorkload::new(StockConfig::default(), &mut registry).class();
    let mut sim = OverlaySim::new(cfg, Arc::new(registry));
    sim.advertise(Advertisement::new(class, StockWorkload::stage_map()));
    sim.settle();
    let mut pool = ZipfSubs::new(
        SubsConfig {
            groups: 12,
            buckets: 6,
            seed: 0x0051_ACED,
            ..SubsConfig::default()
        },
        class,
    );
    let mut handles = Vec::new();
    for i in 0..120 {
        handles.push(
            sim.add_subscriber(pool.next_filter())
                .expect("valid filter"),
        );
        sim.settle();
        if i == 59 {
            for h in handles.iter().skip(1).step_by(4) {
                assert!(sim.unsubscribe_now(*h));
            }
            sim.settle();
        }
    }
    for _ in 0..12 {
        let branches = (0..5).map(|_| pool.next_filter()).collect();
        handles.push(
            sim.add_subscriber_any(branches, None)
                .expect("valid filters"),
        );
        sim.settle();
    }
    (sim, handles)
}

/// Every branch's host, one character per branch (the broker's id in base
/// 36), subscribers separated by `.` where the branch count changes.
fn hosts(sim: &OverlaySim, handles: &[SubscriberHandle]) -> String {
    let mut out = String::new();
    for h in handles {
        let node = sim.subscriber(*h);
        assert!(node.fully_placed(), "{} is not fully placed", node.label());
        if node.branches().len() > 1 {
            out.push('.');
        }
        for b in node.branches() {
            let host = b.host().expect("placed branch").0;
            out.push(char::from_digit(host as u32, 36).expect("broker id below 36"));
        }
    }
    out
}

fn config() -> OverlayConfig {
    OverlayConfig {
        levels: vec![4, 2, 1],
        seed: 7,
        ..OverlayConfig::default()
    }
}

/// Where every branch was hosted at the recording commit: the stage-1
/// broker is chosen at the root and at stage 2, from symbol-only filters, so
/// it is the same whatever the stage-1 tables do with what they are given.
const HOSTS: &str = "221021222122212322223222222121022233220222220223222222121013\
222222132012223122332212323310213321222223323122122322222222\
.22122.23322.21222.12222.22222.22221.23223.22312.12222.32122.23223.23222";

/// Checks one configuration against the recording: every host, every
/// subscriber's redirects (two per branch: root to stage 2 to stage 1) and
/// the run's network messages, which count every `req-Insert` and
/// `req-Remove` a table's inserts and removals sent upstream.
fn check(cfg: OverlayConfig, messages: u64) {
    let (sim, handles) = run(cfg);
    assert_eq!(hosts(&sim, &handles), HOSTS);
    for h in &handles {
        let node = sim.subscriber(*h);
        assert_eq!(
            node.redirects() as usize,
            2 * node.branches().len(),
            "{}",
            node.label()
        );
    }
    assert_eq!(sim.network_messages(), messages);
}

#[test]
fn similarity_placement_is_unchanged() {
    check(config(), 1168);
}

#[test]
fn similarity_placement_is_unchanged_with_aggregation() {
    check(
        OverlayConfig {
            aggregation_enabled: true,
            ..config()
        },
        1126,
    );
}

#[test]
fn similarity_placement_is_unchanged_with_covering_collapse() {
    check(
        OverlayConfig {
            covering_collapse: true,
            ..config()
        },
        1143,
    );
}
