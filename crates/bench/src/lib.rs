//! Shared experiment harness for regenerating the paper's evaluation.
//!
//! Every deterministic experiment (E1–E6, E8–E11, E13–E15) is a module
//! here, named after its binary `exp_<module>` and documented by its
//! experiment id and paper artifact. Its `report()` runs it at its
//! documented settings and returns a [`Report`]: the exact text of its
//! results file in `docs/results/` and the shape checks that failed. Its
//! binary in `src/bin/` prints that report, and the golden test
//! (`tests/goldens.rs`) compares it with the committed file.
//!
//! The wall-clock experiments (`exp_aggregation`, `exp_durability`,
//! `exp_selfheal`) measure the host, so they stay binaries with their own
//! settings. Micro-benchmarks (Criterion, `cargo bench`) cover the
//! mechanisms: weakening/merging, covering checks, and the typed
//! end-to-end path (E7/M1, M2, M4 in `DESIGN.md`).
//!
//! The experiment baselines that only run in the simulator live here too,
//! outside the production crates: the link layer ([`link`]: reliable
//! sequencing and credit flow control around each node, for E13–E15),
//! the peer mesh ([`mesh`], E10), and the Section 2.1 centralized and
//! broadcast architectures ([`baseline`], E3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use layercake_event::{Advertisement, Envelope, TypeRegistry};
use layercake_metrics::RunMetrics;
use layercake_overlay::{OverlayConfig, OverlaySim, SubscriberHandle};
use layercake_workload::{BiblioConfig, BiblioWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod arch_compare;
pub mod baseline;
pub mod chaos;
pub mod depth;
pub mod expressiveness;
pub mod fig7_mr;
mod flow;
pub mod latency;
pub mod lease;
pub mod link;
pub mod mesh;
pub mod overload;
pub mod placement;
mod reliability;
pub mod rlc_table;
pub mod scaling;
pub mod wildcard;

/// What one deterministic experiment produced.
#[must_use]
#[derive(Default)]
pub struct Report {
    /// The experiment's binary, and the stem of its results file.
    pub name: &'static str,
    /// The exact text of `docs/results/<name>.txt`.
    pub text: String,
    /// Further results files, as `(file name, contents)`.
    pub files: Vec<(&'static str, String)>,
    /// One line per failed shape check; empty when the reproduction holds.
    pub failed: Vec<String>,
}

impl Report {
    fn new(name: &'static str) -> Self {
        Report {
            name,
            ..Report::default()
        }
    }

    /// Appends to the text, so `writeln!(report, …)` reads like
    /// `println!` and cannot fail.
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        self.text += &args.to_string();
    }

    /// Records a shape check; `what` names it when it fails.
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed.push(what.into());
        }
    }

    /// Ends the text with `passed`, or with one line per failed check.
    fn finish(mut self, passed: &str) -> Self {
        writeln!(self);
        if self.failed.is_empty() {
            writeln!(self, "{passed}");
        }
        for what in &self.failed {
            self.text += &format!("shape check failed: {what}\n");
        }
        self
    }

    /// Prints the text, writes the further files into [`RESULTS_DIR`], and
    /// fails when a shape check did.
    #[must_use]
    pub fn emit(&self) -> ExitCode {
        for (file, contents) in &self.files {
            std::fs::write(Path::new(RESULTS_DIR).join(file), contents)
                .expect("write results file");
        }
        print!("{}", self.text);
        if self.failed.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The repository's `docs/results/`, wherever the binary runs from.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/results");

/// Everything produced by one bibliographic-workload overlay run.
pub struct BiblioRun {
    /// Per-node metrics of the run.
    pub metrics: RunMetrics,
    /// The simulation, for further inspection.
    pub sim: OverlaySim,
    /// Subscriber handles, in creation order.
    pub handles: Vec<SubscriberHandle>,
}

/// The bibliographic workload `seed` draws, with its class registered, and
/// the first `events` events it publishes.
fn biblio_stream(
    biblio: BiblioConfig,
    events: u64,
    seed: u64,
) -> (TypeRegistry, BiblioWorkload, Vec<Envelope>) {
    let mut registry = TypeRegistry::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workload = BiblioWorkload::new(biblio, &mut registry, &mut rng);
    let stream = (0..events)
        .map(|seq| workload.envelope(seq, &mut rng))
        .collect();
    (registry, workload, stream)
}

/// Runs the paper's Section 5 experiment: build the hierarchy, advertise
/// the bibliographic class, place the workload's subscriptions one by one,
/// publish `events` events, and collect metrics.
#[must_use]
pub fn run_biblio(
    overlay: OverlayConfig,
    biblio: BiblioConfig,
    events: u64,
    seed: u64,
) -> BiblioRun {
    let (registry, workload, stream) = biblio_stream(biblio, events, seed);
    let class = workload.class();

    let mut sim = OverlaySim::new(overlay, Arc::new(registry));
    sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
    sim.settle();

    let mut handles = Vec::with_capacity(workload.subscriptions().len());
    for filter in workload.subscriptions() {
        let h = sim
            .add_subscriber(filter.clone())
            .expect("workload subscriptions are schema-valid");
        sim.settle();
        handles.push(h);
    }

    for env in stream {
        sim.publish(env);
    }
    sim.settle();

    BiblioRun {
        metrics: sim.metrics(),
        sim,
        handles,
    }
}

/// The hottest broker's RLC (stage 0 is the subscribers).
fn max_broker_rlc(m: &RunMetrics) -> f64 {
    m.records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.rlc(m.total_events, m.total_subs))
        .fold(0.0, f64::max)
}

/// Filters stored across all brokers.
fn broker_filters(m: &RunMetrics) -> usize {
    m.records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.filters)
        .sum()
}

/// Broker receptions per subscriber delivery: the hops a delivered event
/// travels.
fn broker_hops(m: &RunMetrics) -> f64 {
    let broker_recv: u64 = m
        .records
        .iter()
        .filter(|r| r.stage > 0)
        .map(|r| r.received)
        .sum();
    let delivered: u64 = m.stage_records(0).map(|r| r.received).sum();
    if delivered == 0 {
        0.0
    } else {
        broker_recv as f64 / delivered as f64
    }
}

/// The paper's exact evaluation scale: 1 stage-3 node, 10 stage-2 nodes,
/// 100 stage-1 nodes, 150 subscribers.
#[must_use]
pub fn paper_overlay() -> OverlayConfig {
    OverlayConfig {
        levels: vec![100, 10, 1],
        ..OverlayConfig::default()
    }
}

/// The paper's workload scale (150 subscriptions over the 4-attribute
/// bibliographic space).
#[must_use]
pub fn paper_biblio() -> BiblioConfig {
    BiblioConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke() {
        let run = run_biblio(
            OverlayConfig {
                levels: vec![10, 2, 1],
                ..OverlayConfig::default()
            },
            BiblioConfig {
                subscriptions: 20,
                ..BiblioConfig::default()
            },
            500,
            7,
        );
        assert_eq!(run.metrics.total_events, 500);
        assert_eq!(run.metrics.total_subs, 20);
        assert_eq!(run.handles.len(), 20);
        // All subscribers got placed.
        for &h in &run.handles {
            assert!(run.sim.subscriber(h).host().is_some());
        }
        // Subscriber MR tracks 1 − title_scramble.
        let mr = run.metrics.avg_mr_at(0);
        assert!((0.7..=1.0).contains(&mr), "subscriber MR {mr}");
    }
}
