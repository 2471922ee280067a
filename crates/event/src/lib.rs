//! Typed event model for the `layercake` multi-stage filtering event system.
//!
//! This crate implements the *event safety* half of the tradeoff described in
//! "Event Systems: How to Have Your Cake and Eat It Too" (Eugster, Felber,
//! Guerraoui, Handurukande, 2002): events are instances of application-defined
//! types, arranged in a subtype hierarchy, and the event system derives a
//! *low-level covering representation* (flat name/value meta-data) from the
//! high-level typed view without breaking encapsulation.
//!
//! The main pieces are:
//!
//! * [`AttrValue`] / [`ValueKind`] — the scalar values attributes can take.
//! * [`AttrId`] — process-global interned attribute names, so the hot
//!   matching path compares dense ids instead of strings.
//! * [`EventData`] — the flat meta-data extracted from an event object (the
//!   paper's *covering event* `e'`, Section 3.2/3.4).
//! * [`EventClass`] / [`TypeRegistry`] — application-defined event types with
//!   single inheritance; attributes are declared from *most general* to
//!   *least general* (Section 4.1 "Grouping the attributes").
//! * [`StageMap`] — the attribute–stage association `G_c` shipped with
//!   advertisements (Section 4.1).
//! * [`TypedEvent`] and the [`typed_event!`] macro — the Rust substitute for
//!   the paper's reflection over `get`-prefixed accessors: a declarative
//!   derivation of the class name, the attribute schema, the meta-data
//!   extraction for a plain struct, and its inverse.
//! * [`Envelope`] — what actually travels through the broker overlay: the
//!   extracted meta-data, which brokers filter on and from which the
//!   subscriber rebuilds the typed event.
//!
//! # Example
//!
//! ```
//! use layercake_event::{typed_event, TypedEvent, TypeRegistry, AttrValue};
//!
//! typed_event! {
//!     /// A stock quote event (paper Example 4).
//!     pub struct Stock: "Stock" {
//!         symbol: String,
//!         price: f64,
//!     }
//! }
//!
//! let mut registry = TypeRegistry::new();
//! let class = registry.register_event::<Stock>().unwrap();
//! let quote = Stock::new("Foo".to_owned(), 9.0);
//! let meta = quote.extract();
//! assert_eq!(meta.get("symbol"), Some(&AttrValue::from("Foo")));
//! assert_eq!(registry.class(class).unwrap().name(), "Stock");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Lets the `typed_event!` macro name this crate by its external path even
// when expanded inside this crate's own tests and examples.
extern crate self as layercake_event;

#[doc(hidden)]
pub mod __private {
    pub use crate::typed::read_field;
    pub use serde;
}

mod class;
mod codec;
mod data;
mod envelope;
mod error;
mod frame;
mod intern;
mod record;
mod registry;
mod shape;
mod stage;
mod trace_ctx;
mod typed;
mod value;

pub use bytes::Bytes;
pub use class::{AttributeDecl, ClassId, EventClass};
pub use codec::{
    varint_len, write_bytes, write_str, write_varint, write_zigzag, BinCodec, CodecError,
    DecodeDict, DictMode, EncodeDict, WireReader, HELLO_MAGIC, KIND_DICT, KIND_HELLO, KIND_MSG,
};
pub use data::EventData;
pub use envelope::{Envelope, EventSeq};
pub use error::EventError;
pub use frame::{encode_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};
pub use intern::AttrId;
pub use record::{
    crc32, encode_record, encode_record_into, read_record, scan_records, RecordScan,
    RECORD_HEADER_LEN,
};
pub use registry::TypeRegistry;
pub use stage::{Advertisement, StageMap};
pub use trace_ctx::{TraceContext, TraceId};
pub use typed::{AttrField, AttrScalar, TypedEvent};
pub use value::{AttrValue, ValueKind};
