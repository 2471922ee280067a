//! `layercake-rt`: a multi-threaded wall-clock runtime for the broker
//! overlay.
//!
//! The deterministic simulator (`layercake-overlay`) is the reference
//! implementation of the protocol; this crate runs the *same* bare broker
//! and subscriber state machines through the transport-agnostic
//! [`layercake_overlay::Node`] / [`layercake_overlay::NodeCtx`] traits,
//! under real concurrency:
//!
//! * every broker matcher shard and every subscriber is a task, and at
//!   most one worker thread per core runs them; a durable log's fsyncs run
//!   on the process's one `lc-wal-sync` thread, never in a turn;
//! * nodes exchange messages — over `std::sync::mpsc` channels by
//!   default, an event crossing a hop as an `Arc` bump of its envelope, or
//!   over loopback TCP sockets ([`TransportKind::Tcp`]) that carry a
//!   handshake, then plain [`wire`] frames and nothing else, end of
//!   stream being the shutdown pill; on either transport a message enters
//!   its destination's inbox through the same router path, which picks
//!   the shard, captures control for restart replay and schedules the
//!   node on its worker;
//! * separate *processes* talk to a broker through the [`remote`]
//!   protocol: the same socket link, with a per-connection negotiated
//!   attribute dictionary;
//! * events are hashed by class across `shards` matcher shards per
//!   broker, which the workers spread across cores, scaling the dominant
//!   per-event cost (matching);
//! * wall-clock end-to-end latency is stamped at publish and recorded at
//!   delivery into the shared log₂ [`layercake_metrics::Histogram`].
//!
//! # Observability
//!
//! Every counter, gauge and histogram lives in a sharded, lock-free
//! [`layercake_metrics::TelemetryRegistry`] ([`RtStats::registry`]) under
//! one name, and flows out of one merged read, the registry's
//! [`layercake_metrics::TelemetrySnapshot`]:
//!
//! * [`Runtime::snapshot`] returns it: stable serde JSON, looked up by
//!   name, rendered as tables by [`layercake_metrics::telemetry_table`];
//! * a Prometheus text-exposition endpoint serves it
//!   ([`RtConfig::metrics_addr`], scrape with `curl`).
//!
//! Event traces are the other instrument: `overlay.trace_sample_every =
//! n` samples every n-th published event into a wall-clock
//! [`layercake_trace::TraceSink`] whose per-hop provenance (shard id,
//! covering-filter verdict) and JSONL schema match the simulator's
//! traces.
//!
//! `RtConfig::stage_sample_every` additionally times sampled frames
//! through the pipeline stages (ingress wait → match → egress send, the
//! TCP link threads' encode and decode, WAL append/fsync on durable runs);
//! with the knob at 0 the hot path pays one branch.
//!
//! # Self-healing
//!
//! Every node runs under supervision: its worker catches a panic around
//! each slice of it and runs its other nodes on. A panicking broker
//! shard is restarted in place by the `lc-supervisor` thread —
//! state machine rebuilt deterministically, durable log recovered from
//! [`RtConfig::durable_dir`], `DurableBase` re-emitted so durable
//! subscribers rebase and lose nothing, the inbox kept — under
//! a bounded, exponentially backed-off restart budget
//! ([`SupervisionConfig`]). When [`SupervisionConfig::stall_timeout`] is
//! set, a worker stuck in one slice hands its other nodes to a fresh
//! thread, and a broker shard stuck there is fenced and replaced. Crashes never panic
//! [`Runtime::shutdown`]; they surface as [`CrashEntry`] values in
//! [`RtReport::crashes`], and volatile loss lands in the
//! `rt.frames_dropped` ledger instead of disappearing. [`RtFaultPlan`]
//! injects seeded wall-clock faults (panic-at-nth-frame, stalls, link
//! drops) for chaos testing; experiment E20 (`exp_selfheal`) measures
//! MTTR and durable-loss behavior under it.
//!
//! See `DESIGN.md` ("Runtime", "Runtime observability") for the
//! threading model (nodes as tasks on workers), the leader/follower sharding contract, the shutdown
//! protocol, and the sim-vs-rt parity argument. The repository's
//! benchmark (`benchmark/`) measures capacity, CPU per event and latency
//! through this crate's public API, and reports the stage profile and
//! what the instruments cost as `rt.stage.*` and `rt.trace_overhead_pct`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use layercake_event::{typed_event, Advertisement, StageMap, TypeRegistry, TypedEvent, Envelope, EventSeq};
//! use layercake_filter::Filter;
//! use layercake_overlay::OverlayConfig;
//! use layercake_rt::{RtConfig, Runtime};
//!
//! typed_event! {
//!     pub struct Tick: "Tick" { level: i64 }
//! }
//!
//! let mut registry = TypeRegistry::new();
//! let class = registry.register_event::<Tick>().unwrap();
//! let overlay = OverlayConfig { levels: vec![1], ..OverlayConfig::default() };
//! let mut rt = Runtime::start(RtConfig::new(overlay, 2), Arc::new(registry)).unwrap();
//! rt.advertise(Advertisement::new(class, StageMap::from_prefixes(&[1]).unwrap()));
//! let sub = rt.add_subscriber(Filter::for_class(class).ge("level", 5)).unwrap();
//!
//! let publisher = rt.publisher();
//! publisher.publish(Envelope::encode(class, EventSeq(0), &Tick::new(9)).unwrap());
//! assert!(rt.wait_delivered(1, std::time::Duration::from_secs(5)));
//!
//! let report = rt.shutdown();
//! assert_eq!(report.deliveries(sub), &[EventSeq(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod error;
mod executor;
mod fault;
mod metrics_http;
pub mod remote;
mod runtime;
mod snapshot;
mod stats;
mod supervisor;
mod transport;
pub mod wire;

pub use error::RtError;
pub use fault::RtFaultPlan;
pub use runtime::{Publisher, RtConfig, RtReport, RtSubscriberHandle, Runtime};
pub use stats::RtStats;
pub use supervisor::{CrashEntry, CrashKind, SupervisionConfig};
pub use transport::TransportKind;
pub use wire::retired::*;
pub use wire::{WireCodec, WireError};
