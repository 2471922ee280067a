//! Event envelopes: what travels through the broker overlay.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::class::ClassId;
use crate::data::EventData;
use crate::error::EventError;
use crate::intern::AttrId;
use crate::shape::ShapeId;
use crate::trace_ctx::TraceContext;
use crate::typed::TypedEvent;

/// Monotonic sequence number identifying a published event instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventSeq(pub u64);

/// The immutable, structurally shared part of an [`Envelope`]: everything
/// that is identical across every copy of one published event.
///
/// Fan-out to N downstreams, the reliability retransmission ring, and
/// flow-control egress queues all hold `Arc` references to one body; the
/// only per-copy state lives in the envelope header ([`Envelope::trace`]).
/// Nothing may mutate a body after construction — there is deliberately no
/// `&mut` accessor.
#[derive(Debug)]
struct EnvelopeBody {
    class: ClassId,
    class_name: &'static str,
    seq: EventSeq,
    meta: EventData,
    /// `None` for the usual empty payload, so building or decoding an
    /// envelope allocates no buffer for it.
    payload: Option<Bytes>,
    /// The interned shape id of `meta`, or [`NO_SHAPE`]: set by the
    /// decoder that read it, or by the first encode's lookup. Every later
    /// encode of the body — each hop's forward — reads it without a lock.
    /// A plain atomic, not a `OnceLock`: the id is a pure function of the
    /// other fields, so a racing second store writes the same value, and
    /// decoding — which knows the id — pays no initialization protocol.
    /// The lookup's store is `Release` and the read `Acquire`, so a thread
    /// that reads an id also sees the shape-table slot it names.
    shape: AtomicU32,
}

/// The shape cache of a body whose shape was not looked up yet.
const NO_SHAPE: u32 = u32::MAX;

/// The shape cache is derived from the other fields, so it takes no part
/// in equality.
impl PartialEq for EnvelopeBody {
    fn eq(&self, other: &Self) -> bool {
        self.class == other.class
            && self.class_name == other.class_name
            && self.seq == other.seq
            && self.meta == other.meta
            && self.payload == other.payload
    }
}

/// A published event as seen by the broker network.
///
/// The envelope's [`meta`](Envelope::meta) — the extracted name/value
/// meta-data, the covering event `e'` of the paper's Section 3.4 — is all
/// that intermediate brokers ever inspect, and for a typed event it is
/// also all that travels: [`typed_event!`](crate::typed_event) makes every
/// field an attribute, so the meta-data *is* the object, and the
/// subscriber runtime rebuilds the typed view from it
/// ([`Envelope::decode`]). Brokers still never see the type itself, only
/// a class id and name/value pairs, so per-hop filtering cost is
/// independent of the richness of the event type.
///
/// [`payload`](Envelope::payload) is an optional opaque byte string beside
/// the meta-data, for gateways that re-wrap a foreign encoding
/// ([`Envelope::from_parts`]) and for records written before typed events
/// travelled as meta-data alone. Nothing in the overlay reads it.
///
/// # Sharing contract
///
/// An envelope is a cheap header (the tracing context) plus an immutable,
/// reference-counted body (class, sequence, meta-data, payload). `clone()`
/// bumps a reference count — its cost is independent of meta and payload
/// size — so per-downstream fan-out copies, retransmission-ring entries and
/// queued envelopes all share one body. The body is never mutated after
/// construction (its shape cache only ever receives the value derived
/// from the rest); the tracing context is the only per-copy
/// mutable state ([`Envelope::set_trace`] / [`Envelope::touch_trace`]),
/// which is how each hop re-stamps `last_hop_at` on its own copy without
/// disturbing siblings.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    body: Arc<EnvelopeBody>,
    /// Tracing context, per copy. `None` (the default) is one cleared flag
    /// bit on the wire. Which events carry one is the publisher's choice:
    /// the simulator stamps only sampled events, and so does the runtime
    /// with a trace sink; the runtime's `Publisher::publish` without a
    /// sink stamps *every* event, because the stamp feeds its latency
    /// histogram. A stamp costs its publish time (≈5 bytes of nanoseconds
    /// in the runtime) plus the hop delta (1–3 bytes) on every hop; its id
    /// is free when it equals the sequence number, as the runtime's does.
    trace: Option<TraceContext>,
}

// Compile-time audit that envelopes can cross threads: the wall-clock
// runtime (`layercake-rt`) fans one `Arc<EnvelopeBody>` out to matcher
// shards running on different OS threads, which is only sound while both
// the header and the shared body are `Send + Sync`. A field that loses
// the bound (say, an `Rc` or a `Cell` slipping into `EventData`) must
// fail the build here, not deadlock or data-race at runtime.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Envelope>();
    _assert_send_sync::<EnvelopeBody>();
};

/// A class name that lives as long as the envelope: a literal as it is,
/// any other name interned (leaked once per distinct name).
fn static_name(name: Cow<'static, str>) -> &'static str {
    match name {
        Cow::Borrowed(name) => name,
        Cow::Owned(name) => AttrId::intern(&name).name(),
    }
}

impl Envelope {
    /// The one constructor; `payload` is `None` when empty, and `shape`
    /// is the interned shape of `meta` when the caller already knows it.
    pub(crate) fn new(
        class: ClassId,
        class_name: &'static str,
        seq: EventSeq,
        meta: EventData,
        payload: Option<Bytes>,
        shape: Option<ShapeId>,
    ) -> Self {
        Self {
            body: Arc::new(EnvelopeBody {
                class,
                class_name,
                seq,
                meta,
                payload,
                shape: AtomicU32::new(shape.map_or(NO_SHAPE, |id| id.0)),
            }),
            trace: None,
        }
    }

    /// The interned shape of the meta-data, looked up once per body (two
    /// threads encoding one fresh body at once may both look; they find
    /// the same id).
    pub(crate) fn shape_id(&self) -> ShapeId {
        let body = &*self.body;
        match body.shape.load(Ordering::Acquire) {
            NO_SHAPE => {
                let id = ShapeId::of(body.class, body.class_name, &body.meta);
                body.shape.store(id.0, Ordering::Release);
                id
            }
            known => ShapeId(known),
        }
    }

    /// Encodes a typed event for publication: extracts its meta-data,
    /// which is all that travels.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::NonFiniteAttr`] if a float field is NaN or
    /// infinite: meta-data would not carry it unchanged (NaN becomes
    /// `0.0`), and an event must not arrive as something the publisher did
    /// not send.
    pub fn encode<E: TypedEvent>(
        class: ClassId,
        seq: EventSeq,
        event: &E,
    ) -> Result<Self, EventError> {
        if let Some(attr) = event.non_finite_attr() {
            return Err(EventError::NonFiniteAttr {
                class: E::CLASS_NAME,
                attr,
            });
        }
        Ok(Self::new(
            class,
            E::CLASS_NAME,
            seq,
            event.extract(),
            None,
            None,
        ))
    }

    /// Creates an envelope from bare meta-data, with an empty payload.
    ///
    /// This supports simulation workloads that model only the routing layer
    /// (the paper's Section 5 setup publishes name/value "dummy" events).
    /// A `String` class name is interned; a literal is kept as it is.
    #[must_use]
    pub fn from_meta(
        class: ClassId,
        class_name: impl Into<Cow<'static, str>>,
        seq: EventSeq,
        meta: EventData,
    ) -> Self {
        Self::new(class, static_name(class_name.into()), seq, meta, None, None)
    }

    /// Creates an envelope from explicit parts, including an opaque
    /// payload. Gateways that re-wrap foreign encodings use this; typed
    /// publication goes through [`Envelope::encode`].
    #[must_use]
    pub fn from_parts(
        class: ClassId,
        class_name: impl Into<Cow<'static, str>>,
        seq: EventSeq,
        meta: EventData,
        payload: Bytes,
    ) -> Self {
        let payload = (!payload.is_empty()).then_some(payload);
        Self::new(
            class,
            static_name(class_name.into()),
            seq,
            meta,
            payload,
            None,
        )
    }

    /// Rebuilds the typed event from the meta-data
    /// ([`TypedEvent::from_meta`]); the payload, if any, is not read.
    ///
    /// Decoding into a *supertype* of the published class is allowed (the
    /// extra attributes of the subtype are ignored), which is how
    /// polymorphic, type-based subscriptions deliver subclass events.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::AttrDecode`] if a required attribute of `E` is
    /// absent, or a value does not fit its field (another kind, or an
    /// integer outside the field type's range).
    pub fn decode<E: TypedEvent>(&self) -> Result<E, EventError> {
        E::from_meta(&self.body.meta)
    }

    /// The event class id.
    #[must_use]
    pub fn class(&self) -> ClassId {
        self.body.class
    }

    /// The event class name.
    #[must_use]
    pub fn class_name(&self) -> &'static str {
        self.body.class_name
    }

    /// The publisher-assigned sequence number.
    #[must_use]
    pub fn seq(&self) -> EventSeq {
        self.body.seq
    }

    /// The routing meta-data (covering event).
    #[must_use]
    pub fn meta(&self) -> &EventData {
        &self.body.meta
    }

    /// The opaque payload: empty unless the envelope was built by
    /// [`Envelope::from_parts`] with one.
    #[must_use]
    pub fn payload(&self) -> &Bytes {
        static EMPTY: OnceLock<Bytes> = OnceLock::new();
        self.body
            .payload
            .as_ref()
            .unwrap_or_else(|| EMPTY.get_or_init(Bytes::new))
    }

    /// Whether two envelopes share one body allocation (true for clones of
    /// the same published event). Used by tests and benchmarks to verify
    /// the zero-copy fan-out contract.
    #[must_use]
    pub fn shares_body_with(&self, other: &Envelope) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// The tracing context, if the publisher stamped one (see the field
    /// docs for who stamps what).
    #[must_use]
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Attaches (or clears) the tracing context. Called once at publish
    /// time by the tracing layer; `None` is the untraced default. Per-copy:
    /// clones made afterwards inherit the context, siblings do not change.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// Re-stamps the context's `last_hop_at` before this copy is forwarded
    /// to the next hop. A no-op on untraced envelopes. Only this copy's
    /// header changes; the shared body is untouched.
    pub fn touch_trace(&mut self, now_ticks: u64) {
        if let Some(t) = &mut self.trace {
            t.last_hop_at = now_ticks;
        }
    }

    /// The exact length of this envelope's encoding on an in-process
    /// ([`DictMode::Shared`](crate::DictMode::Shared)) connection, counted
    /// without allocating: what the simulator books as bytes received, so
    /// that it and the runtime's byte counters measure the same thing.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        crate::codec::shared_len(self)
    }
}

// Hand-written because the derive macro cannot see through `Arc`; the wire
// shape is the flat six-field object the derived form used to produce, so
// serialized envelopes are indistinguishable from pre-split ones.
impl Serialize for Envelope {
    fn serialize_value(&self) -> Value {
        let mut obj = Value::object();
        obj.insert_field("class", self.body.class.serialize_value());
        obj.insert_field("class_name", self.body.class_name.serialize_value());
        obj.insert_field("seq", self.body.seq.serialize_value());
        obj.insert_field("meta", self.body.meta.serialize_value());
        obj.insert_field("payload", self.payload().serialize_value());
        obj.insert_field("trace", self.trace.serialize_value());
        obj
    }
}

impl Deserialize for Envelope {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let mut env = Envelope::from_parts(
            serde::__field(v, "class")?,
            serde::__field::<String>(v, "class_name")?,
            serde::__field(v, "seq")?,
            serde::__field(v, "meta")?,
            serde::__field(v, "payload")?,
        );
        env.trace = serde::__field(v, "trace")?;
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{BinCodec, DictMode, EncodeDict};
    use crate::typed_event;
    use crate::value::AttrValue;

    typed_event! {
        pub struct Stock: "Stock" {
            symbol: String,
            price: f64,
        }
    }

    #[test]
    fn encode_extracts_meta_and_no_payload() {
        let s = Stock::new("Foo".to_owned(), 9.0);
        let env = Envelope::encode(ClassId(1), EventSeq(7), &s).unwrap();
        assert_eq!(env.class(), ClassId(1));
        assert_eq!(env.class_name(), "Stock");
        assert_eq!(env.seq(), EventSeq(7));
        assert_eq!(env.meta().get("symbol"), Some(&AttrValue::from("Foo")));
        assert!(env.payload().is_empty());
        assert!(env.wire_size() > 0);
    }

    #[test]
    fn typed_stock_frame_is_meta_only_and_small() {
        let s = Stock::new("SYM042".to_owned(), 10.25);
        let env = Envelope::encode(ClassId(1), EventSeq(123_456), &s).unwrap();
        assert!(env.payload().is_empty());
        let mut buf = Vec::new();
        env.encode_bin(&mut buf, &mut EncodeDict::new(DictMode::Shared));
        assert!(buf.len() <= 40, "{} bytes", buf.len());
    }

    #[test]
    fn non_finite_floats_are_refused_at_encode() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = Envelope::encode(ClassId(1), EventSeq(0), &Stock::new("X".to_owned(), bad))
                .unwrap_err();
            assert_eq!(
                err,
                EventError::NonFiniteAttr {
                    class: "Stock",
                    attr: "price"
                }
            );
        }
        // Extremes that are finite travel unchanged, -0.0 included.
        for ok in [f64::MAX, f64::MIN_POSITIVE, -0.0] {
            let env =
                Envelope::encode(ClassId(1), EventSeq(0), &Stock::new("X".to_owned(), ok)).unwrap();
            let back: Stock = env.decode().unwrap();
            assert_eq!(back.price().to_bits(), ok.to_bits());
        }
    }

    #[test]
    fn string_class_names_are_interned() {
        let name = format!("Sensor{}", 7);
        let a = Envelope::from_meta(ClassId(3), name.clone(), EventSeq(1), EventData::new());
        let b = Envelope::from_meta(ClassId(3), name, EventSeq(2), EventData::new());
        assert_eq!(a.class_name(), "Sensor7");
        assert!(std::ptr::eq(a.class_name(), b.class_name()));
    }

    #[test]
    fn decode_round_trip() {
        let s = Stock::new("Bar".to_owned(), 15.0);
        let env = Envelope::encode(ClassId(0), EventSeq(0), &s).unwrap();
        let back: Stock = env.decode().unwrap();
        assert_eq!(back, s);
        assert_eq!(back.symbol(), "Bar");
        assert_eq!(*back.price(), 15.0);
    }

    #[test]
    fn meta_only_envelope_has_no_payload() {
        let meta = crate::event_data! { "year" => 2002 };
        let env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        assert!(env.payload().is_empty());
        let err = env.decode::<Stock>().unwrap_err();
        assert_eq!(
            err,
            EventError::AttrDecode {
                class: "Stock",
                attr: "symbol",
                found: None
            }
        );
    }

    #[test]
    fn decode_type_mismatch_reports_error() {
        typed_event! {
            pub struct Strict: "Strict" {
                mandatory: i64,
            }
        }
        assert_eq!(*Strict::new(3).mandatory(), 3);
        let s = Stock::new("Foo".to_owned(), 1.0);
        let env = Envelope::encode(ClassId(0), EventSeq(0), &s).unwrap();
        // `Strict` requires a field the Stock meta-data lacks.
        assert!(env.decode::<Strict>().is_err());
        // A slot of another kind is refused, not coerced.
        let meta = crate::event_data! { "mandatory" => "3" };
        let env = Envelope::from_meta(ClassId(0), "Strict", EventSeq(0), meta);
        assert_eq!(
            env.decode::<Strict>().unwrap_err(),
            EventError::AttrDecode {
                class: "Strict",
                attr: "mandatory",
                found: Some(AttrValue::from("3"))
            }
        );
    }

    #[test]
    fn clones_share_one_body() {
        let meta = crate::event_data! { "year" => 2002 };
        let env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        let copy = env.clone();
        assert!(env.shares_body_with(&copy));
        // Distinct publishes do not share.
        let other = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(2), EventData::new());
        assert!(!env.shares_body_with(&other));
    }

    #[test]
    fn trace_stamping_is_per_copy() {
        use crate::trace_ctx::{TraceContext, TraceId};
        let meta = crate::event_data! { "year" => 2002 };
        let mut env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        env.set_trace(Some(TraceContext::new(TraceId(5), 7)));
        let mut fwd = env.clone();
        fwd.touch_trace(42);
        // The forwarded copy re-stamped its own header; the original copy
        // and the shared body are untouched.
        assert_eq!(fwd.trace().unwrap().last_hop_at, 42);
        assert_eq!(env.trace().unwrap().last_hop_at, 7);
        assert!(env.shares_body_with(&fwd));
    }

    #[test]
    fn trace_context_stamping() {
        use crate::trace_ctx::{TraceContext, TraceId};
        let meta = crate::event_data! { "year" => 2002 };
        let mut env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        assert_eq!(env.trace(), None);
        // touch_trace on an untraced envelope is a no-op.
        env.touch_trace(10);
        assert_eq!(env.trace(), None);
        env.set_trace(Some(TraceContext::new(TraceId(5), 7)));
        env.touch_trace(12);
        let ctx = env.trace().unwrap();
        assert_eq!(ctx.id, TraceId(5));
        assert_eq!(ctx.published_at, 7);
        assert_eq!(ctx.last_hop_at, 12);
        // The context survives a serde round trip with the envelope.
        let back: Envelope = serde_json::from_slice(&serde_json::to_vec(&env).unwrap()).unwrap();
        assert_eq!(back, env);
    }

    #[test]
    fn envelope_serde_round_trip() {
        let s = Stock::new("Baz".to_owned(), 1.25);
        let env = Envelope::encode(ClassId(2), EventSeq(9), &s).unwrap();
        let bytes = serde_json::to_vec(&env).unwrap();
        let back: Envelope = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(env, back);
        assert_eq!(back.decode::<Stock>().unwrap(), s);
    }
}
