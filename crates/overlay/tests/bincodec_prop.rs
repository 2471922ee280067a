//! Codec properties for the overlay wire messages: same values in, same
//! values out, and the same bytes again on re-encoding, for every
//! [`OverlayMsg`] / [`SubscriptionReq`] shape — because the wall-clock
//! runtime pays this cycle on every hop and the simulator's virtual-time
//! behavior must stay the reference — plus the negotiated
//! attribute-dictionary flow and clean rejection of malformed input (the
//! framing layer's own error paths are tested in `event/src/frame.rs`).

use layercake_event::{
    encode_frame, Advertisement, BinCodec, Bytes, ClassId, CodecError, DecodeDict, DictMode,
    EncodeDict, Envelope, EventData, EventSeq, FrameDecoder, StageMap, TraceContext, TraceId,
    WireReader,
};
use layercake_filter::{Filter, FilterId};
use layercake_overlay::{OverlayMsg, SubscriptionReq};
use layercake_sim::ActorId;
use proptest::prelude::*;

fn arb_actor() -> impl Strategy<Value = ActorId> {
    prop_oneof![any::<usize>().prop_map(ActorId), Just(ActorId(usize::MAX))]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of(0u32..8),
        proptest::collection::vec((0usize..4, -1000i64..1000), 0..4),
    )
        .prop_map(|(class, constraints)| {
            let mut f = match class {
                Some(c) => Filter::for_class(ClassId(c)),
                None => Filter::any(),
            };
            for (attr, val) in constraints {
                f = match attr {
                    0 => f.eq("bin-attr-a", val),
                    1 => f.le("bin-attr-b", val as f64),
                    2 => f.prefix("bin-attr-c", format!("p{val}")),
                    _ => f.exists("bin-attr-d"),
                };
            }
            f
        })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        0u32..8,
        any::<u64>(),
        proptest::collection::vec((0usize..3, -1000i64..1000), 0..5),
        proptest::option::of((any::<u64>(), any::<u64>())),
    )
        .prop_map(|(class, seq, attrs, trace)| {
            let mut meta = EventData::new();
            for (i, (kind, val)) in attrs.into_iter().enumerate() {
                match kind {
                    0 => meta.insert(format!("bin-meta-{i}"), val),
                    1 => meta.insert(format!("bin-meta-{i}"), val as f64 / 4.0),
                    _ => meta.insert(format!("bin-meta-{i}"), format!("s{val}")),
                };
            }
            let mut env = Envelope::from_meta(ClassId(class), "BinTest", EventSeq(seq), meta);
            if let Some((id, at)) = trace {
                env.set_trace(Some(TraceContext::new(TraceId(id), at)));
            }
            env
        })
}

fn arb_req() -> impl Strategy<Value = SubscriptionReq> {
    (any::<u64>(), arb_filter(), arb_actor(), any::<bool>()).prop_map(
        |(id, filter, subscriber, durable)| SubscriptionReq {
            id: FilterId(id),
            filter,
            subscriber,
            durable,
        },
    )
}

/// A strategy covering every `OverlayMsg` variant with randomized
/// payloads.
fn arb_msg() -> impl Strategy<Value = OverlayMsg> {
    prop_oneof![
        (0u32..8, 1usize..4).prop_map(|(c, stages)| {
            let prefixes: Vec<usize> = (1..=stages).rev().collect();
            OverlayMsg::Advertise(Advertisement::new(
                ClassId(c),
                StageMap::from_prefixes(&prefixes).expect("non-increasing prefixes"),
            ))
        }),
        arb_req().prop_map(OverlayMsg::Subscribe),
        (arb_req(), arb_actor()).prop_map(|(req, node)| OverlayMsg::JoinAt { req, node }),
        (any::<u64>(), arb_actor()).prop_map(|(id, node)| OverlayMsg::AcceptedAt {
            id: FilterId(id),
            node
        }),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, child)| OverlayMsg::ReqInsert { filter, child }),
        arb_envelope().prop_map(OverlayMsg::Publish),
        arb_envelope().prop_map(OverlayMsg::Deliver),
        Just(OverlayMsg::Renew),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, subscriber)| OverlayMsg::Unsubscribe { filter, subscriber }),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, child)| OverlayMsg::ReqRemove { filter, child }),
        arb_actor().prop_map(|subscriber| OverlayMsg::Detach { subscriber }),
        arb_actor().prop_map(|subscriber| OverlayMsg::Attach { subscriber }),
        Just(OverlayMsg::RenewAck),
        Just(OverlayMsg::Rejoin),
        Just(OverlayMsg::Reannounce),
        (any::<u64>(), any::<u64>(), arb_envelope())
            .prop_map(|(prev, off, env)| OverlayMsg::Durable { prev, off, env }),
        (0u32..8, any::<u64>()).prop_map(|(class, upto)| OverlayMsg::AckUpto {
            class: ClassId(class),
            upto
        }),
        (0u32..8, any::<u64>()).prop_map(|(class, base)| OverlayMsg::DurableBase {
            class: ClassId(class),
            base
        }),
    ]
}

/// Encode in shared-dictionary mode (the in-process configuration),
/// frame, deframe and decode back, asserting that framing does not alter
/// the payload and that the decoded message re-encodes to the same bytes.
fn bin_round_trip_shared(msg: &OverlayMsg) -> OverlayMsg {
    let mut dict = EncodeDict::new(DictMode::Shared);
    let mut bytes = Vec::new();
    msg.encode_bin(&mut bytes, &mut dict);
    assert!(
        !dict.has_pending(),
        "shared mode never queues dictionary updates"
    );
    let mut frames = FrameDecoder::new();
    frames.push(&encode_frame(&bytes).expect("frame"));
    let payload = frames
        .next_frame()
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(payload, bytes, "framing must not alter the payload");
    assert!(frames.next_frame().expect("no trailing error").is_none());
    frames.finish().expect("no partial frame left behind");
    let ddict = DecodeDict::new(DictMode::Shared);
    let mut r = WireReader::new(&payload);
    let back = OverlayMsg::decode_bin(&mut r, &ddict).expect("shared-mode decode");
    r.expect_end().expect("decode consumed the whole encoding");
    let mut again = Vec::new();
    back.encode_bin(&mut again, &mut dict);
    assert_eq!(bytes, again, "re-encode of {msg:?} is not byte-identical");
    back
}

/// Encode in negotiated mode, apply the pending dictionary update to a
/// fresh receiver (as the wire layer's spliced dict frame would), then
/// decode.
fn bin_round_trip_negotiated(msg: &OverlayMsg) -> OverlayMsg {
    let mut dict = EncodeDict::new(DictMode::Negotiated);
    let mut bytes = Vec::new();
    msg.encode_bin(&mut bytes, &mut dict);
    let mut ddict = DecodeDict::new(DictMode::Negotiated);
    let mut update = Vec::new();
    if dict.write_update(&mut update) > 0 {
        // write_update emits the payload-kind discriminator first;
        // apply_update takes the body behind it.
        ddict
            .apply_update(&update[1..])
            .expect("dict update applies");
    }
    let mut r = WireReader::new(&bytes);
    let back = OverlayMsg::decode_bin(&mut r, &ddict).expect("negotiated decode");
    r.expect_end().expect("decode consumed the whole encoding");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The round trip reproduces the original message, in shared and
    /// negotiated dictionary modes alike, and through the framed wire
    /// byte-identically.
    #[test]
    fn round_trip_reproduces_the_message(msg in arb_msg()) {
        prop_assert_eq!(&bin_round_trip_shared(&msg), &msg);
        prop_assert_eq!(&bin_round_trip_negotiated(&msg), &msg);
    }

    /// A negotiated connection is stateful: names announced once decode
    /// for every later message on the same connection, in order.
    #[test]
    fn negotiated_streams_decode_in_order(
        msgs in proptest::collection::vec(arb_msg(), 1..8),
    ) {
        let mut dict = EncodeDict::new(DictMode::Negotiated);
        let mut ddict = DecodeDict::new(DictMode::Negotiated);
        let mut out = Vec::new();
        for m in &msgs {
            let mut bytes = Vec::new();
            m.encode_bin(&mut bytes, &mut dict);
            let mut update = Vec::new();
            if dict.write_update(&mut update) > 0 {
                ddict.apply_update(&update[1..]).expect("dict update applies");
            }
            let mut r = WireReader::new(&bytes);
            out.push(OverlayMsg::decode_bin(&mut r, &ddict).expect("stream decode"));
            r.expect_end().expect("no trailing bytes");
        }
        prop_assert_eq!(out, msgs);
    }

    /// Withholding the dictionary update makes every name reference a
    /// clean `DictMiss` error — never a panic, never a wrong decode.
    /// (`Publish` always references at least the class name.)
    #[test]
    fn dictionary_miss_is_a_clean_error(env in arb_envelope()) {
        let msg = OverlayMsg::Publish(env);
        let mut dict = EncodeDict::new(DictMode::Negotiated);
        let mut bytes = Vec::new();
        msg.encode_bin(&mut bytes, &mut dict);
        prop_assert!(dict.has_pending(), "a publish always introduces names");
        let empty = DecodeDict::new(DictMode::Negotiated);
        let err = OverlayMsg::decode_bin(&mut WireReader::new(&bytes), &empty)
            .expect_err("unlearned wire ids must not decode");
        prop_assert!(
            matches!(err, CodecError::DictMiss(_)),
            "expected DictMiss, got {:?}", err
        );
    }

    /// Truncating a binary encoding anywhere strictly inside it errors —
    /// the reader's bounds checks catch it before any allocation or
    /// panic.
    #[test]
    fn truncated_encodings_error_cleanly(msg in arb_msg(), cut_seed in 0usize..1_000_000) {
        let mut dict = EncodeDict::new(DictMode::Shared);
        let mut bytes = Vec::new();
        msg.encode_bin(&mut bytes, &mut dict);
        prop_assert!(!bytes.is_empty(), "every message has at least a tag byte");
        let cut = cut_seed % bytes.len(); // 0..len: always strictly short
        let ddict = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&bytes[..cut]);
        let complete = OverlayMsg::decode_bin(&mut r, &ddict).and_then(|_| r.expect_end());
        prop_assert!(complete.is_err(), "a strict prefix must not decode completely");
    }

    /// Arbitrary garbage fails with an error, not a panic or a giant
    /// allocation (declared lengths are validated against the remaining
    /// input before any buffer is built).
    #[test]
    fn garbage_input_is_rejected_without_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let ddict = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&bytes);
        // Either it happens to parse as some message or it errors; both
        // are acceptable — what's being tested is that it never panics.
        let _ = OverlayMsg::decode_bin(&mut r, &ddict);
    }
}

/// A hand-crafted oversized length: a `Publish` whose payload claims
/// more bytes than the input holds must be rejected by the bounds check,
/// not trusted into an allocation.
#[test]
fn oversized_declared_lengths_are_rejected() {
    let env = Envelope::from_parts(
        ClassId(1),
        "BinTest",
        EventSeq(7),
        EventData::new(),
        Bytes::from(vec![7u8; 3]),
    );
    let msg = OverlayMsg::Publish(env);
    let mut dict = EncodeDict::new(DictMode::Shared);
    let mut bytes = Vec::new();
    msg.encode_bin(&mut bytes, &mut dict);
    // An untraced envelope ends with its payload: the length varint, then
    // the three bytes. Replace the length with a 5-byte varint declaring
    // ~4 GiB.
    let at = bytes.len() - 4;
    assert_eq!(bytes[at], 3, "expected the payload length varint");
    bytes.splice(at..=at, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
    let ddict = DecodeDict::new(DictMode::Shared);
    let err = OverlayMsg::decode_bin(&mut WireReader::new(&bytes), &ddict)
        .expect_err("a 4 GiB declared payload must not decode");
    assert!(
        matches!(
            err,
            CodecError::Length | CodecError::Truncated | CodecError::Overflow
        ),
        "expected a bounds error, got {err:?}"
    );
}
