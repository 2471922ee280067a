//! # layercake — have your cake and eat it too
//!
//! A content-based publish/subscribe library reproducing *"Event Systems:
//! How to Have Your Cake and Eat It Too"* (Eugster, Felber, Guerraoui,
//! Handurukande, 2002): **type-safe events**, **expressive subscriptions**,
//! and **scalable multi-stage filtering**, together.
//!
//! The workspace is layered; this umbrella crate re-exports everything:
//!
//! * [`event`] — typed event model ([`typed_event!`], [`TypeRegistry`],
//!   [`StageMap`], [`Envelope`]).
//! * [`filter`] — the filter language: predicates, covering relations,
//!   weakening, merging, match indexes.
//! * [`sim`] — deterministic discrete-event simulation substrate.
//! * [`overlay`] — the broker hierarchy: subscription placement (Figure 5),
//!   forwarding (Figure 6), TTL leases, baselines.
//! * [`workload`] — bibliographic / stock / auction generators
//!   (Section 5.2).
//! * [`metrics`] — LC / RLC / MR metrics, latency histograms, and report
//!   rendering (Section 5.1).
//! * [`trace`] — sampled per-event hop provenance: latency, weakening
//!   false positives, `explain()` reports, JSONL export.
//! * [`core`] — the typed [`EventSystem`] facade tying it all together.
//!
//! # Quickstart
//!
//! ```
//! use layercake::{typed_event, EventSystem};
//!
//! typed_event! {
//!     pub struct Stock: "Stock" {
//!         symbol: String,
//!         price: f64,
//!     }
//! }
//!
//! # fn main() -> Result<(), layercake::CoreError> {
//! let mut system = EventSystem::builder()
//!     .levels(&[4, 2, 1])
//!     .with_event::<Stock>()?
//!     .build();
//! system.advertise::<Stock>(None)?;
//! let sub = system.subscribe::<Stock>(|f| f.eq("symbol", "Foo"))?;
//! system.publish(&Stock::new("Foo".into(), 9.0))?;
//! system.settle();
//! assert_eq!(system.poll(&sub)?.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use layercake_core as core;
pub use layercake_event as event;
pub use layercake_filter as filter;
pub use layercake_metrics as metrics;
pub use layercake_overlay as overlay;
pub use layercake_sim as sim;
pub use layercake_trace as trace;
pub use layercake_workload as workload;

pub use layercake_core::{
    typed_event, Advertisement, AttrValue, AttributeDecl, ClassId, CoreError, Envelope, EventData,
    EventSeq, EventSystem, EventSystemBuilder, Filter, FilterId, OverlayConfig, Predicate,
    RunMetrics, SimDuration, StageMap, Subscription, TypeRegistry, TypedEvent, ValueKind,
};
pub use layercake_overlay::{OverlaySim, PlacementPolicy, SubscriberHandle};
