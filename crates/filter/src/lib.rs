//! Filter language and matching machinery for the `layercake` event system.
//!
//! A [`Filter`] is a conjunction of per-attribute [`Predicate`]s plus an
//! optional event-class constraint (type-based filtering, subtype
//! inclusive). This crate implements the formal core of the paper:
//!
//! * **Matching** — `f(e) ∈ {true, false}` (Definition 1).
//! * **Filter covering** — `f ⊒ f'` iff every event matched by `f'` is
//!   matched by `f` (Definition 2). Our implementation is *sound and
//!   conservative*: `covers` never returns `true` wrongly, but may return
//!   `false` for exotic predicate combinations; a missed covering only
//!   reduces subscription collapsing, never correctness.
//! * **Event covering** — `e ⊒_f e'` (Definition 3), provided as
//!   [`event_covers_for`] for verification.
//! * **Weakening** — [`standardize`] (Section 4.4 standard subscription
//!   format), [`weaken_to_stage`] (Section 4.1 automated weakening driven by
//!   the attribute–stage association `G_c`), and [`merge_cover`] (the least
//!   conservative single filter covering a set of filters, used when a
//!   parent node summarizes its children's subscriptions).
//! * **Indexing** — [`FilterTable`], the per-node `<filter, id-list>` table
//!   of Figure 6, matched through a counting index (one of the "efficient
//!   indexing and matching techniques" the paper defers to related work)
//!   instead of the paper's per-filter scan.
//! * **Aggregation** — [`AggTable`], a refcounted cover forest that
//!   collapses filters subsumed by an existing cover into shared live
//!   entries, maintained incrementally under churn (see `agg`).
//!
//! # Example (paper Example 1 and 2)
//!
//! ```
//! use layercake_event::{event_data, TypeRegistry};
//! use layercake_filter::Filter;
//!
//! let e1 = event_data! { "symbol" => "Foo", "price" => 10.0, "volume" => 32_300 };
//! let e2 = event_data! { "symbol" => "Bar", "price" => 15.0, "volume" => 25_600 };
//!
//! let f = Filter::any().eq("symbol", "Foo").gt("price", 5.0);
//! assert!(f.matches_meta(&e1));
//! assert!(!f.matches_meta(&e2));
//!
//! let registry = TypeRegistry::new();
//! let f2 = Filter::any().eq("symbol", "Foo"); // covers f
//! assert!(f2.covers(&f, &registry));
//! assert!(!f.covers(&f2, &registry));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agg;
mod codec;
mod cover;
mod error;
mod filter;
mod index;
mod predicate;
mod weaken;

pub use agg::{AggDelta, AggTable};
pub use cover::{event_covers_for, merge_cover};
pub use error::FilterError;
pub use filter::{Filter, FilterId};
pub use index::{DestId, FilterTable, IndexKind};
pub use predicate::{AttrFilter, Predicate};
pub use weaken::{standardize, weaken_for_parent, weaken_to_stage};
