//! The envelope codec in all three dictionary modes, against the
//! envelope it was given and against itself: any attribute order, every
//! value kind at its edges (`i64` extremes, −0.0, ±∞, unicode), payload or
//! none, and every trace case decode to exactly the envelope encoded —
//! bit for bit — and re-encode to the same bytes. The shared-mode length
//! is what [`Envelope::wire_size`] counts.

use layercake_event::{
    AttrValue, BinCodec, Bytes, ClassId, DecodeDict, DictMode, EncodeDict, Envelope, EventData,
    EventSeq, TraceContext, TraceId, WireReader,
};
use proptest::prelude::*;

fn value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MAX),
            Just(0),
            Just(-1),
            any::<i64>()
        ]
        .prop_map(AttrValue::Int),
        prop_oneof![
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::MAX),
            any::<f64>()
        ]
        .prop_map(AttrValue::Float),
        "[a-zé€ж𝄞😀 ]{0,6}".prop_map(AttrValue::Str),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

/// An envelope of one of two classes, whose attributes are drawn from
/// six names in any order (a repeated name keeps its first position).
fn envelope() -> impl Strategy<Value = Envelope> {
    (
        (0u32..2, any::<u64>()),
        proptest::collection::vec((0usize..6, value()), 0..7),
        proptest::option::of(proptest::collection::vec(any::<u8>(), 1..9)),
        (0u8..4, any::<u64>(), any::<u64>(), 1u64..1_000_000),
    )
        .prop_map(|((class, seq), attrs, payload, (trace, id, at, back))| {
            let mut meta = EventData::new();
            for (name, v) in attrs {
                meta.insert(format!("diff_attr_{name}"), v);
            }
            let name = if class == 0 { "DiffA" } else { "DiffB" };
            let payload = payload.map_or_else(Bytes::new, Bytes::from);
            let mut env = Envelope::from_parts(ClassId(class), name, EventSeq(seq), meta, payload);
            env.set_trace(match trace {
                0 => None,
                1 => Some(TraceContext::new(TraceId(seq), at)),
                2 => Some(TraceContext::new(
                    TraceId(id.wrapping_add(u64::from(id == seq))),
                    at,
                )),
                // The last hop stamped before publication (clock skew).
                _ => Some(TraceContext {
                    id: TraceId(id),
                    published_at: at.max(back),
                    last_hop_at: at.max(back) - back,
                }),
            });
            env
        })
}

/// Equality, plus the float bits `==` cannot see (−0.0 against 0.0).
fn exact(a: &Envelope, b: &Envelope) -> bool {
    a == b && format!("{:?}", a.meta()) == format!("{:?}", b.meta())
}

/// Encodes `env` on a connection of `mode`, delivering any dictionary
/// update first; returns the bytes and the decoded envelope.
fn through(
    env: &Envelope,
    enc: &mut EncodeDict,
    dec: &mut DecodeDict,
) -> Result<(Vec<u8>, Envelope), TestCaseError> {
    let mut bytes = Vec::new();
    env.encode_bin(&mut bytes, enc);
    let mut update = Vec::new();
    if enc.write_update(&mut update) > 0 {
        prop_assert_eq!(enc.mode(), DictMode::Negotiated);
        dec.apply_update(&update[1..])
            .map_err(|e| TestCaseError::fail(format!("update: {e}")))?;
    }
    let mut r = WireReader::new(&bytes);
    let back =
        Envelope::decode_bin(&mut r, dec).map_err(|e| TestCaseError::fail(format!("{e}")))?;
    prop_assert!(r.is_empty(), "decode left bytes behind");
    Ok((bytes, back))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_mode_round_trips_exactly_and_re_encodes_identically(env in envelope()) {
        for mode in [DictMode::Shared, DictMode::Negotiated, DictMode::Inline] {
            let mut enc = EncodeDict::new(mode);
            let mut dec = DecodeDict::new(mode);
            let (bytes, back) = through(&env, &mut enc, &mut dec)?;
            prop_assert!(exact(&back, &env), "{:?}: {:?} came back as {:?}", mode, env, back);
            prop_assert_eq!(back.trace(), env.trace());
            // The decoded envelope re-encodes to the same bytes, with
            // nothing more to announce.
            let (again, _) = through(&back, &mut enc, &mut dec)?;
            prop_assert_eq!(&again, &bytes, "{:?}", mode);
            if mode == DictMode::Shared {
                prop_assert_eq!(env.wire_size(), bytes.len());
            }
        }
    }
}

/// A stream of envelopes of a few shapes on one negotiated connection:
/// each shape is announced once, and each message after the first of its
/// shape costs what it does in-process.
#[test]
fn a_negotiated_connection_announces_each_shape_once() {
    let mut enc = EncodeDict::new(DictMode::Negotiated);
    let mut dec = DecodeDict::new(DictMode::Negotiated);
    let mut announced = 0;
    for seq in 0..12u64 {
        let mut meta = EventData::new();
        meta.insert("diff_stream_sym", format!("S{seq}"));
        if seq % 3 == 0 {
            meta.insert("diff_stream_vol", seq as i64);
        }
        let env = Envelope::from_meta(ClassId(5), "DiffStream", EventSeq(seq), meta);
        let mut bytes = Vec::new();
        env.encode_bin(&mut bytes, &mut enc);
        let mut update = Vec::new();
        if enc.write_update(&mut update) > 0 {
            announced += 1;
            dec.apply_update(&update[1..]).unwrap();
        } else {
            assert_eq!(bytes.len(), env.wire_size(), "seq {seq}");
        }
        let back = Envelope::decode_bin(&mut WireReader::new(&bytes), &dec).unwrap();
        assert_eq!(back, env);
    }
    assert_eq!(announced, 2, "one update per shape");
}
