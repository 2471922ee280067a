//! The overlay's wire protocol (Figures 5 and 6).
//!
//! Besides the in-memory message enum, this module defines its *wire
//! encoding* ([`BinCodec`]), used by the wall-clock runtime to put every
//! hop through a real serialize → frame → deframe → deserialize cycle.
//! Node addresses ([`ActorId`]) travel as plain integers — the id space
//! is runtime-local, exactly as in the simulator — and all payload types
//! (filters, advertisements, envelopes) reuse their own binary
//! encodings. `Debug` is the pretty-printer.

use layercake_event::{
    write_varint, Advertisement, BinCodec, ClassId, CodecError, DecodeDict, EncodeDict, Envelope,
    WireReader,
};
use layercake_filter::{Filter, FilterId};
use layercake_sim::ActorId;

/// A subscription request as it travels down the hierarchy looking for its
/// insertion point (Figure 5(a): `Subscription(f_sub)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionReq {
    /// Unique id of this subscription.
    pub id: FilterId,
    /// The standardized subscription filter.
    pub filter: Filter,
    /// The subscribing node.
    pub subscriber: ActorId,
    /// Durable subscription: the hosting broker logs every matching
    /// event to its durable log and replays the unacknowledged suffix
    /// when the subscriber re-attaches or re-subscribes — even across a
    /// broker crash (Section 2.1's durable subscriptions, backed by the
    /// write-ahead log instead of the in-memory `parked` buffer).
    pub durable: bool,
}

/// Messages exchanged between overlay nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum OverlayMsg {
    /// Event-class advertisement carrying the attribute–stage association
    /// `G_c`; flooded down from the root (Section 4.1).
    Advertise(Advertisement),
    /// A subscription request (sent to the root first, then re-sent to the
    /// node named by each `JoinAt` redirect).
    Subscribe(SubscriptionReq),
    /// Redirect: the subscriber should re-send its request to `node`
    /// (Figure 5(b): `join-At(id_node)`).
    JoinAt {
        /// The original request, echoed back.
        req: SubscriptionReq,
        /// The node to try next.
        node: ActorId,
    },
    /// The subscription was inserted at `node` (Figure 5(b):
    /// `accepted-At(node_i)`).
    AcceptedAt {
        /// The subscription that was accepted.
        id: FilterId,
        /// The node now hosting it.
        node: ActorId,
    },
    /// A child asks its parent to store a weakened filter for it
    /// (Figure 5(b): `req-Insert(f_c, id_c)`).
    ReqInsert {
        /// The weakened filter (already at the receiving node's stage).
        filter: Filter,
        /// The requesting child node.
        child: ActorId,
    },
    /// An event traveling down the broker hierarchy.
    Publish(Envelope),
    /// An event delivered to a subscriber runtime for final, perfect
    /// filtering.
    Deliver(Envelope),
    /// Lease renewal: the sender refreshes the validity of all filters it
    /// has registered at the receiver (Section 4.3).
    Renew,
    /// Explicit unsubscription (Section 4.3: the soft-state scheme "can be
    /// combined with explicit unsubscription for efficiency"): the hosting
    /// node removes the subscriber's filter immediately.
    Unsubscribe {
        /// The standardized original subscription filter.
        filter: Filter,
        /// The unsubscribing node.
        subscriber: ActorId,
    },
    /// A child no longer needs a weakened filter stored at its parent
    /// (the upstream propagation of explicit unsubscription).
    ReqRemove {
        /// The weakened filter (in the receiving node's stage format).
        filter: Filter,
        /// The requesting child node.
        child: ActorId,
    },
    /// Durable subscription going offline (Section 2.1: nodes store events
    /// "for temporarily disconnected subscribers with durable
    /// subscriptions"): the hosting node starts buffering the subscriber's
    /// matching events.
    Detach {
        /// The disconnecting subscriber.
        subscriber: ActorId,
    },
    /// The durable subscriber is back: the hosting node flushes the
    /// buffered events in publication order.
    Attach {
        /// The reconnecting subscriber.
        subscriber: ActorId,
    },
    /// Positive acknowledgement of a [`OverlayMsg::Renew`]: the hosting
    /// node confirms it still holds filters for the renewing subscriber.
    /// A renewal that goes unacknowledged tells the subscriber its host
    /// lost state (crash) and it must re-subscribe.
    RenewAck,
    /// A restarted broker announces itself to its parent; the parent
    /// re-sends its advertisements so the child can rebuild its stage maps.
    Rejoin,
    /// A broker asks a child to re-register the weakened filters the child
    /// needs stored here (sent by a restarted broker rebuilding its table,
    /// and to children whose renewals reference unknown filters).
    Reannounce,
    /// An event delivered from a broker's durable log to a durable
    /// subscriber, stamped with its per-class log offset. Durable
    /// deliveries bypass the simulator's flow-control egress queues and
    /// retransmission ring ([`crate::link`]): the log itself is the
    /// buffer, and loss is repaired by offset replay rather than NACKs.
    ///
    /// A stream carries only the records the consumer's filters match,
    /// so its offsets are not dense. `prev` chains each delivery to the
    /// one before it: a subscriber whose cursor is below `prev` lost a
    /// delivery, one whose cursor is in `prev..off` lost nothing — the
    /// offsets in between were never owed to it.
    Durable {
        /// Offset of the previous record sent on this stream, or the
        /// stream's [`OverlayMsg::DurableBase`] for the first one.
        prev: u64,
        /// The event's per-class durable log offset (1-based, monotone).
        off: u64,
        /// The event itself.
        env: Envelope,
    },
    /// A durable subscriber acknowledges everything of `class` up to and
    /// including log offset `upto`; the hosting broker persists the
    /// offset and may compact segments all consumers have passed.
    /// Subscribers only ever acknowledge the last offset received *in
    /// chain* (see [`OverlayMsg::Durable`]) — a hole in the durable
    /// stream is repaired by replay, never acked over, so compaction
    /// can't outrun delivery.
    AckUpto {
        /// The event class being acknowledged.
        class: ClassId,
        /// Offset of the last in-chain delivery received for that class.
        upto: u64,
    },
    /// Opens (or re-opens) the durable stream of one class toward a
    /// subscriber: the first [`OverlayMsg::Durable`] delivery that
    /// follows names `base` as its `prev`. Sent by the hosting broker
    /// on durable registration, on re-attach, and whenever it restarts a
    /// stalled stream from the consumer's acknowledged offset. The
    /// subscriber resets its contiguity cursor to `base` — which is what
    /// lets it detect a genuine hole (and request replay) instead of
    /// guessing where the stream begins.
    DurableBase {
        /// The event class whose stream is (re)starting.
        class: ClassId,
        /// The offset the stream resumes after (the consumer's
        /// acknowledged offset as persisted at the broker).
        base: u64,
    },
}

impl OverlayMsg {
    /// Whether this message carries event payload (the *data plane*).
    /// Data messages are what injected faults drop and what the
    /// simulator's flow control queues and sheds under overload.
    /// Everything else is *control plane* — placement, leases,
    /// acknowledgements — and always bypasses the queues, so the overlay
    /// can heal while saturated.
    #[must_use]
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            OverlayMsg::Publish(_) | OverlayMsg::Deliver(_) | OverlayMsg::Durable { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Wire encoding
// ---------------------------------------------------------------------------
//
// A single tag byte per variant, varints for every integer,
// attribute/class names through the per-connection dictionary. `ActorId`
// travels as a varint `u64`, so the external-sender sentinel
// `ActorId(usize::MAX)` survives the trip.

fn write_actor(out: &mut Vec<u8>, a: ActorId) {
    write_varint(out, a.0 as u64);
}

fn read_actor(r: &mut WireReader<'_>) -> Result<ActorId, CodecError> {
    let raw = r.varint()?;
    usize::try_from(raw)
        .map(ActorId)
        .map_err(|_| CodecError::Invalid("actor id exceeds usize"))
}

impl BinCodec for SubscriptionReq {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        self.id.encode_bin(out, dict);
        self.filter.encode_bin(out, dict);
        write_actor(out, self.subscriber);
        out.push(u8::from(self.durable));
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let id = FilterId::decode_bin(r, dict)?;
        let filter = Filter::decode_bin(r, dict)?;
        let subscriber = read_actor(r)?;
        let durable = match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(CodecError::Tag(t)),
        };
        Ok(SubscriptionReq {
            id,
            filter,
            subscriber,
            durable,
        })
    }
}

// Variant tag bytes. Stable wire constants: append, never renumber. Tags
// 12, 13, 14, 18 and 19 named the simulator's link-layer frames (now
// `link::LinkMsg`, which never reaches a wire) and stay unassigned.
const T_ADVERTISE: u8 = 0;
const T_SUBSCRIBE: u8 = 1;
const T_JOIN_AT: u8 = 2;
const T_ACCEPTED_AT: u8 = 3;
const T_REQ_INSERT: u8 = 4;
const T_PUBLISH: u8 = 5;
const T_DELIVER: u8 = 6;
const T_RENEW: u8 = 7;
const T_UNSUBSCRIBE: u8 = 8;
const T_REQ_REMOVE: u8 = 9;
const T_DETACH: u8 = 10;
const T_ATTACH: u8 = 11;
const T_RENEW_ACK: u8 = 15;
const T_REJOIN: u8 = 16;
const T_REANNOUNCE: u8 = 17;
const T_DURABLE: u8 = 20;
const T_ACK_UPTO: u8 = 21;
const T_DURABLE_BASE: u8 = 22;

impl BinCodec for OverlayMsg {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        match self {
            OverlayMsg::Advertise(ad) => {
                out.push(T_ADVERTISE);
                ad.encode_bin(out, dict);
            }
            OverlayMsg::Subscribe(req) => {
                out.push(T_SUBSCRIBE);
                req.encode_bin(out, dict);
            }
            OverlayMsg::JoinAt { req, node } => {
                out.push(T_JOIN_AT);
                req.encode_bin(out, dict);
                write_actor(out, *node);
            }
            OverlayMsg::AcceptedAt { id, node } => {
                out.push(T_ACCEPTED_AT);
                id.encode_bin(out, dict);
                write_actor(out, *node);
            }
            OverlayMsg::ReqInsert { filter, child } => {
                out.push(T_REQ_INSERT);
                filter.encode_bin(out, dict);
                write_actor(out, *child);
            }
            OverlayMsg::Publish(env) => {
                out.push(T_PUBLISH);
                env.encode_bin(out, dict);
            }
            OverlayMsg::Deliver(env) => {
                out.push(T_DELIVER);
                env.encode_bin(out, dict);
            }
            OverlayMsg::Renew => out.push(T_RENEW),
            OverlayMsg::Unsubscribe { filter, subscriber } => {
                out.push(T_UNSUBSCRIBE);
                filter.encode_bin(out, dict);
                write_actor(out, *subscriber);
            }
            OverlayMsg::ReqRemove { filter, child } => {
                out.push(T_REQ_REMOVE);
                filter.encode_bin(out, dict);
                write_actor(out, *child);
            }
            OverlayMsg::Detach { subscriber } => {
                out.push(T_DETACH);
                write_actor(out, *subscriber);
            }
            OverlayMsg::Attach { subscriber } => {
                out.push(T_ATTACH);
                write_actor(out, *subscriber);
            }
            OverlayMsg::RenewAck => out.push(T_RENEW_ACK),
            OverlayMsg::Rejoin => out.push(T_REJOIN),
            OverlayMsg::Reannounce => out.push(T_REANNOUNCE),
            OverlayMsg::Durable { prev, off, env } => {
                // `prev` travels as its distance below `off`: one byte
                // for any stream that is not extremely sparse.
                out.push(T_DURABLE);
                write_varint(out, *off);
                write_varint(out, off.wrapping_sub(*prev));
                env.encode_bin(out, dict);
            }
            OverlayMsg::AckUpto { class, upto } => {
                out.push(T_ACK_UPTO);
                class.encode_bin(out, dict);
                write_varint(out, *upto);
            }
            OverlayMsg::DurableBase { class, base } => {
                out.push(T_DURABLE_BASE);
                class.encode_bin(out, dict);
                write_varint(out, *base);
            }
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            T_ADVERTISE => OverlayMsg::Advertise(Advertisement::decode_bin(r, dict)?),
            T_SUBSCRIBE => OverlayMsg::Subscribe(SubscriptionReq::decode_bin(r, dict)?),
            T_JOIN_AT => OverlayMsg::JoinAt {
                req: SubscriptionReq::decode_bin(r, dict)?,
                node: read_actor(r)?,
            },
            T_ACCEPTED_AT => OverlayMsg::AcceptedAt {
                id: FilterId::decode_bin(r, dict)?,
                node: read_actor(r)?,
            },
            T_REQ_INSERT => OverlayMsg::ReqInsert {
                filter: Filter::decode_bin(r, dict)?,
                child: read_actor(r)?,
            },
            T_PUBLISH => OverlayMsg::Publish(Envelope::decode_bin(r, dict)?),
            T_DELIVER => OverlayMsg::Deliver(Envelope::decode_bin(r, dict)?),
            T_RENEW => OverlayMsg::Renew,
            T_UNSUBSCRIBE => OverlayMsg::Unsubscribe {
                filter: Filter::decode_bin(r, dict)?,
                subscriber: read_actor(r)?,
            },
            T_REQ_REMOVE => OverlayMsg::ReqRemove {
                filter: Filter::decode_bin(r, dict)?,
                child: read_actor(r)?,
            },
            T_DETACH => OverlayMsg::Detach {
                subscriber: read_actor(r)?,
            },
            T_ATTACH => OverlayMsg::Attach {
                subscriber: read_actor(r)?,
            },
            T_RENEW_ACK => OverlayMsg::RenewAck,
            T_REJOIN => OverlayMsg::Rejoin,
            T_REANNOUNCE => OverlayMsg::Reannounce,
            T_DURABLE => {
                let off = r.varint()?;
                OverlayMsg::Durable {
                    prev: off.wrapping_sub(r.varint()?),
                    off,
                    env: Envelope::decode_bin(r, dict)?,
                }
            }
            T_ACK_UPTO => OverlayMsg::AckUpto {
                class: ClassId::decode_bin(r, dict)?,
                upto: r.varint()?,
            },
            T_DURABLE_BASE => OverlayMsg::DurableBase {
                class: ClassId::decode_bin(r, dict)?,
                base: r.varint()?,
            },
            t => return Err(CodecError::Tag(t)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::{ClassId, EventData, EventSeq, StageMap};

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let req = SubscriptionReq {
            id: FilterId(1),
            filter: Filter::any(),
            subscriber: ActorId(3),
            durable: false,
        };
        let msgs = vec![
            OverlayMsg::Advertise(Advertisement::new(
                ClassId(0),
                StageMap::from_prefixes(&[1]).unwrap(),
            )),
            OverlayMsg::Subscribe(req.clone()),
            OverlayMsg::JoinAt {
                req,
                node: ActorId(4),
            },
            OverlayMsg::AcceptedAt {
                id: FilterId(1),
                node: ActorId(4),
            },
            OverlayMsg::ReqInsert {
                filter: Filter::any(),
                child: ActorId(2),
            },
            OverlayMsg::Publish(Envelope::from_meta(
                ClassId(0),
                "X",
                EventSeq(0),
                EventData::new(),
            )),
            OverlayMsg::Renew,
        ];
        for m in &msgs {
            let copy = m.clone();
            assert!(!format!("{copy:?}").is_empty());
        }
    }

    #[test]
    fn only_event_payloads_are_data_plane() {
        let env = Envelope::from_meta(ClassId(0), "X", EventSeq(0), EventData::new());
        assert!(OverlayMsg::Publish(env.clone()).is_data());
        assert!(OverlayMsg::Deliver(env.clone()).is_data());
        assert!(OverlayMsg::Durable {
            prev: 0,
            off: 1,
            env: env.clone(),
        }
        .is_data());
        for control in [
            OverlayMsg::Renew,
            OverlayMsg::RenewAck,
            OverlayMsg::Rejoin,
            OverlayMsg::Reannounce,
            OverlayMsg::AckUpto {
                class: ClassId(0),
                upto: 3,
            },
            OverlayMsg::DurableBase {
                class: ClassId(0),
                base: 3,
            },
        ] {
            assert!(!control.is_data(), "{control:?} must be control plane");
        }
    }

    /// One instance of every variant, with non-trivial payloads where the
    /// variant carries any.
    fn one_of_each() -> Vec<OverlayMsg> {
        let mut meta = EventData::new();
        meta.insert("symbol", "Foo");
        meta.insert("price", 9.5_f64);
        let mut env = Envelope::from_meta(ClassId(3), "Stock", EventSeq(41), meta);
        env.set_trace(Some(layercake_event::TraceContext::new(
            layercake_event::TraceId(77),
            123_456,
        )));
        let req = SubscriptionReq {
            id: FilterId(9),
            filter: Filter::any(),
            subscriber: ActorId(usize::MAX),
            durable: true,
        };
        vec![
            OverlayMsg::Advertise(Advertisement::new(
                ClassId(3),
                StageMap::from_prefixes(&[2, 1]).unwrap(),
            )),
            OverlayMsg::Subscribe(req.clone()),
            OverlayMsg::JoinAt {
                req,
                node: ActorId(4),
            },
            OverlayMsg::AcceptedAt {
                id: FilterId(9),
                node: ActorId(0),
            },
            OverlayMsg::ReqInsert {
                filter: Filter::any(),
                child: ActorId(2),
            },
            OverlayMsg::Publish(env.clone()),
            OverlayMsg::Deliver(env.clone()),
            OverlayMsg::Renew,
            OverlayMsg::Unsubscribe {
                filter: Filter::any(),
                subscriber: ActorId(5),
            },
            OverlayMsg::ReqRemove {
                filter: Filter::any(),
                child: ActorId(6),
            },
            OverlayMsg::Detach {
                subscriber: ActorId(7),
            },
            OverlayMsg::Attach {
                subscriber: ActorId(7),
            },
            OverlayMsg::RenewAck,
            OverlayMsg::Rejoin,
            OverlayMsg::Reannounce,
            OverlayMsg::Durable {
                prev: 19,
                off: 23,
                env,
            },
            OverlayMsg::AckUpto {
                class: ClassId(3),
                upto: 23,
            },
            OverlayMsg::DurableBase {
                class: ClassId(3),
                base: 17,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_binary_shared_dict() {
        use layercake_event::DictMode;
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        for msg in one_of_each() {
            let mut buf = Vec::new();
            msg.encode_bin(&mut buf, &mut enc);
            let mut r = WireReader::new(&buf);
            let back = OverlayMsg::decode_bin(&mut r, &dec).unwrap();
            assert_eq!(msg, back, "binary round trip failed");
            r.expect_end().unwrap();
            assert!(!enc.has_pending(), "shared dict never announces");
        }
    }

    #[test]
    fn every_variant_round_trips_through_negotiated_dict() {
        use layercake_event::DictMode;
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut dec = DecodeDict::new(DictMode::Negotiated);
        for msg in one_of_each() {
            let mut buf = Vec::new();
            msg.encode_bin(&mut buf, &mut enc);
            let mut update = Vec::new();
            if enc.write_update(&mut update) > 0 {
                dec.apply_update(&update[1..]).unwrap();
            }
            let mut r = WireReader::new(&buf);
            let back = OverlayMsg::decode_bin(&mut r, &dec).unwrap();
            assert_eq!(msg, back, "negotiated round trip failed");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn binary_external_sentinel_survives_the_wire() {
        use layercake_event::DictMode;
        let msg = OverlayMsg::Detach {
            subscriber: ActorId(usize::MAX),
        };
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        msg.encode_bin(&mut buf, &mut enc);
        let mut r = WireReader::new(&buf);
        assert_eq!(OverlayMsg::decode_bin(&mut r, &dec).unwrap(), msg);
    }

    #[test]
    fn binary_unknown_variant_tag_is_rejected() {
        let dec = DecodeDict::new(layercake_event::DictMode::Shared);
        let mut r = WireReader::new(&[200]);
        assert_eq!(
            OverlayMsg::decode_bin(&mut r, &dec),
            Err(CodecError::Tag(200))
        );
    }
}
