//! `wire::frame_len` is what `rt.bytes_sent` counts on every hop, and
//! what the frame cap is checked against, on links that never write the
//! frame. It must equal the length of the frame `wire::encode_msg` writes
//! for every message: each `OverlayMsg` variant, envelopes with and
//! without payloads and traces (a trace id other than the sequence number
//! costs a varint of its own), durable offsets of any spread, and every
//! sender id.

use layercake_event::{
    Advertisement, AttrValue, Bytes, ClassId, DictMode, EncodeDict, Envelope, EventData, EventSeq,
    StageMap, TraceContext, TraceId,
};
use layercake_filter::{Filter, FilterId};
use layercake_overlay::{OverlayMsg, SubscriptionReq};
use layercake_rt::wire::{encode_msg, frame_len};
use layercake_sim::ActorId;
use proptest::prelude::*;

fn arb_actor() -> impl Strategy<Value = ActorId> {
    prop_oneof![any::<usize>().prop_map(ActorId), Just(ActorId(usize::MAX))]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of(0u32..8),
        proptest::collection::vec((0usize..3, -1000i64..1000), 0..4),
    )
        .prop_map(|(class, constraints)| {
            let mut f = Filter::any().with_class(class.map(ClassId));
            for (attr, val) in constraints {
                f = match attr {
                    0 => f.eq("len-attr-a", val),
                    1 => f.lt("len-attr-b", val as f64),
                    _ => f.prefix("len-attr-c", format!("p{val}")),
                };
            }
            f
        })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        (0u32..8, any::<u64>()),
        proptest::collection::vec((0usize..4, any::<i64>()), 0..5),
        0usize..300,
        proptest::option::of((any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>())),
    )
        .prop_map(|((class, seq), attrs, payload, trace)| {
            let mut meta = EventData::new();
            for (i, (kind, v)) in attrs.into_iter().enumerate() {
                let value = match kind {
                    0 => AttrValue::Int(v),
                    1 => AttrValue::Float(v as f64 / 3.0),
                    2 => AttrValue::Str("s".repeat((v as usize) % 200)),
                    _ => AttrValue::Bool(v % 2 == 0),
                };
                meta.insert(format!("len-meta-{i}"), value);
            }
            let payload = Bytes::from(vec![7u8; payload]);
            let mut env =
                Envelope::from_parts(ClassId(class), "FrameLen", EventSeq(seq), meta, payload);
            if let Some((id_is_seq, id, published_at, last_hop_at)) = trace {
                let id = if id_is_seq { seq } else { id };
                env.set_trace(Some(TraceContext {
                    id: TraceId(id),
                    published_at,
                    last_hop_at,
                }));
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

fn arb_msg() -> impl Strategy<Value = OverlayMsg> {
    prop_oneof![
        (0u32..8, 1usize..4).prop_map(|(c, stages)| {
            let prefixes: Vec<usize> = (1..=stages).rev().collect();
            let map = StageMap::from_prefixes(&prefixes).expect("non-increasing prefixes");
            OverlayMsg::Advertise(Advertisement::new(ClassId(c), map))
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn frame_len_is_the_encoded_frames_length(from in arb_actor(), msg in arb_msg()) {
        let mut dict = EncodeDict::new(DictMode::Shared);
        let encoded = encode_msg(from, &msg, &mut dict).expect("under the frame cap");
        prop_assert_eq!(frame_len(from, &msg), encoded.len(), "{:?}", msg);
    }
}
