//! # layercake-core — type-safe publish/subscribe with multi-stage filtering
//!
//! This crate is the paper's headline contribution as a library: an event
//! system that simultaneously provides
//!
//! * **event safety** — events are instances of application-defined Rust
//!   types (declared with [`typed_event!`]); their representation never
//!   leaves the publisher and subscriber runtimes;
//! * **subscription expressiveness** — subscriptions combine a declarative
//!   filter over any schema attribute with an arbitrary *stateful* typed
//!   predicate evaluated at the subscriber (the paper's `BuyFilter`);
//! * **filtering scalability** — between the two endpoints, a hierarchy of
//!   brokers pre-filters events using automatically *weakened* filters over
//!   extracted meta-data, so no intermediate node ever deserializes an
//!   event object or evaluates application code.
//!
//! # Quickstart
//!
//! ```
//! use layercake_core::{EventSystem, typed_event};
//!
//! typed_event! {
//!     /// The paper's Example 4 event type.
//!     pub struct Stock: "Stock" {
//!         symbol: String,
//!         price: f64,
//!     }
//! }
//!
//! # fn main() -> Result<(), layercake_core::CoreError> {
//! let mut system = EventSystem::builder()
//!     .levels(&[4, 2, 1])          // 4 edge brokers, 2 mid, 1 root
//!     .with_event::<Stock>()?
//!     .build();
//! system.advertise::<Stock>(None)?; // default stage map
//!
//! // Declarative filter + stateful residual predicate, both typed.
//! let cheap_foo = system
//!     .subscribe::<Stock>(|f| f.eq("symbol", "Foo").lt("price", 10.0))?;
//!
//! system.publish(&Stock::new("Foo".into(), 9.0))?;
//! system.publish(&Stock::new("Foo".into(), 12.0))?;
//! system.publish(&Stock::new("Bar".into(), 5.0))?;
//! system.settle();
//!
//! let got: Vec<Stock> = system.poll(&cheap_foo)?;
//! assert_eq!(got.len(), 1);
//! assert_eq!(got[0].symbol(), "Foo");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod subscription;
mod system;

pub use error::CoreError;
pub use subscription::Subscription;
pub use system::{EventSystem, EventSystemBuilder};

// One-stop re-exports of the layered API.
pub use layercake_event::{
    typed_event, Advertisement, AttrValue, AttributeDecl, ClassId, Envelope, EventData, EventSeq,
    StageMap, TypeRegistry, TypedEvent, ValueKind,
};
pub use layercake_filter::{Filter, FilterId, Predicate};
pub use layercake_metrics::RunMetrics;
pub use layercake_overlay::{OverlayConfig, PlacementPolicy};
pub use layercake_sim::SimDuration;
