//! Hierarchical broker overlay implementing multi-stage filtering
//! (Sections 4 and 5 of the paper).
//!
//! Brokers are arranged in an arbitrarily-deep hierarchy. Published events
//! enter at the root (the highest stage) and flow down; each broker holds a
//! `<filter, id-list>` table of *weakened* filters — the weakest (type-only)
//! filters at the root, progressively stronger ones towards the
//! subscribers, and the original subscription (including any stateful
//! residual predicate) only at the subscriber runtime itself.
//!
//! The crate provides:
//!
//! * [`Broker`] / [`SubscriberNode`] — the per-node protocol machines:
//!   subscription placement (Figure 5, including the similarity search and
//!   wildcard handling of Sections 4.2/4.4), event filtering & forwarding
//!   (Figure 6), and soft-state TTL leases (Section 4.3).
//! * [`OverlaySim`] — a facade that builds the hierarchy inside a
//!   deterministic discrete-event [`layercake_sim::World`], drives
//!   advertisements, subscriptions and publications, and extracts the
//!   paper's metrics ([`layercake_metrics::RunMetrics`]). Its world holds
//!   the bare nodes, exactly the state machines the wall-clock runtime
//!   (`layercake-rt`) runs; an experiment that wraps them ([`Host`],
//!   [`OverlaySim::hosting`]) does so from outside this crate.
//!
//! Everything here runs in the runtime too. The experiment baselines that
//! only run in the simulator — the link layer (reliable sequencing and
//! credit flow control), the peer mesh, and the Section 2.1 centralized
//! and broadcast architectures — live in `layercake-bench`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use layercake_event::{event_data, Advertisement, EventSeq, Envelope, TypeRegistry};
//! use layercake_filter::Filter;
//! use layercake_overlay::{OverlayConfig, OverlaySim};
//! use layercake_workload::BiblioWorkload;
//!
//! let mut registry = TypeRegistry::new();
//! let class = BiblioWorkload::register(&mut registry);
//! let mut sim = OverlaySim::new(OverlayConfig::default(), Arc::new(registry));
//! sim.advertise(Advertisement::new(class, BiblioWorkload::stage_map()));
//!
//! let sub = sim
//!     .add_subscriber(Filter::for_class(class).eq("year", 2002))
//!     .unwrap();
//! sim.settle();
//!
//! let hit = event_data! { "year" => 2002, "conference" => "icdcs", "author" => "x", "title" => "t" };
//! let miss = event_data! { "year" => 1999, "conference" => "icdcs", "author" => "x", "title" => "t" };
//! sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(0), hit));
//! sim.publish(Envelope::from_meta(class, "Biblio", EventSeq(1), miss));
//! sim.settle();
//!
//! assert_eq!(sim.deliveries(sub), &[EventSeq(0)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod config;
mod ctx;
mod error;
mod msg;
mod node;
mod sim;
mod subscriber;
pub mod topology;
pub mod wal;

pub use broker::Broker;
pub use config::{OverlayConfig, PlacementPolicy};
pub use ctx::{Node, NodeCtx};
pub use error::OverlayError;
pub use msg::{OverlayMsg, SubscriptionReq};
pub use node::NodeActor;
pub use sim::{Host, OverlaySim, SubscriberHandle};
pub use subscriber::{Branch, ResidualFilter, SubscriberNode};
