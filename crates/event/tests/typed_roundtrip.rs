//! Differential round trip of typed events: travelling as meta-data alone
//! (`Envelope::encode`, then `Envelope::decode`) must accept and rebuild
//! exactly what a serde JSON round trip of the object does — the
//! encapsulated-payload transport typed events used before. Equal means
//! both fail, or both succeed with bit-identical fields (`-0.0` is not
//! `0.0`).

use std::fmt::Debug;

use layercake_event::{typed_event, ClassId, Envelope, EventSeq, TypedEvent};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

typed_event! {
    /// One field of every scalar kind, plus optional ones.
    pub struct Every: "Every" {
        big: i64,
        mid: i32,
        word: u32,
        short: u16,
        wide: f64,
        narrow: f32,
        flag: bool,
        text: String,
        maybe_int: Option<i64>,
        maybe_text: Option<String>,
    }
}

typed_event! {
    /// A subtype of `Every` with one required and one optional attribute
    /// of its own.
    pub struct EveryPlus: "EveryPlus" extends Every {
        big: i64,
        mid: i32,
        word: u32,
        short: u16,
        wide: f64,
        narrow: f32,
        flag: bool,
        text: String,
        maybe_int: Option<i64>,
        maybe_text: Option<String>,
        extra: f64,
        extra_flag: Option<bool>,
    }
}

typed_event! {
    /// Wide slots, read back through `Narrow`'s narrower field types.
    pub struct Wide: "Wide" {
        a: i64,
        b: i64,
        c: i64,
        d: f64,
        e: Option<i64>,
    }
}

typed_event! {
    pub struct Narrow: "Narrow" {
        a: i32,
        b: u32,
        c: u16,
        d: f32,
        e: Option<u16>,
    }
}

/// What the JSON transport did: serialise the `P`, parse it as an `S`.
fn json_round_trip<P: serde::Serialize, S: serde::de::DeserializeOwned>(x: &P) -> Option<S> {
    serde_json::to_vec(x)
        .ok()
        .and_then(|bytes| serde_json::from_slice(&bytes).ok())
}

/// What travels now: the envelope's meta-data, rebuilt as an `S`.
fn meta_round_trip<P: TypedEvent, S: TypedEvent>(x: &P) -> Option<S> {
    Envelope::encode(ClassId(1), EventSeq(7), x)
        .ok()
        .and_then(|env| env.decode().ok())
}

/// Publishes `x` as a `P` and receives it as an `S` both ways.
fn agree<P, S>(x: &P) -> Result<(), TestCaseError>
where
    P: TypedEvent + serde::Serialize + Debug,
    S: TypedEvent + serde::de::DeserializeOwned + Debug,
{
    let oracle = json_round_trip::<P, S>(x);
    let ours = meta_round_trip::<P, S>(x);
    // Debug output tells -0.0 from 0.0, which `PartialEq` does not.
    prop_assert_eq!(format!("{ours:?}"), format!("{oracle:?}"), "for {:?}", x);
    Ok(())
}

fn ints() -> BoxedStrategy<i64> {
    prop_oneof![
        any::<i64>(),
        -70_000i64..70_000,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(i64::from(i32::MIN)),
        Just(i64::from(i32::MIN) - 1),
        Just(i64::from(i32::MAX)),
        Just(i64::from(i32::MAX) + 1),
        Just(i64::from(u32::MAX)),
        Just(i64::from(u32::MAX) + 1),
        Just(i64::from(u16::MAX)),
        Just(i64::from(u16::MAX) + 1),
        Just(-1),
        Just(0),
    ]
    .boxed()
}

fn i32s() -> BoxedStrategy<i32> {
    prop_oneof![any::<i32>(), Just(i32::MIN), Just(i32::MAX), Just(0)].boxed()
}

fn u32s() -> BoxedStrategy<u32> {
    prop_oneof![any::<u32>(), Just(u32::MAX), Just(0)].boxed()
}

fn u16s() -> BoxedStrategy<u16> {
    prop_oneof![any::<u16>(), Just(u16::MAX), Just(0)].boxed()
}

fn f64s() -> BoxedStrategy<f64> {
    prop_oneof![
        any::<f64>(),
        -1e-300f64..1e-300,
        Just(0.0),
        Just(-0.0),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::MIN_POSITIVE),
        Just(f64::EPSILON),
        Just(f64::from(f32::MAX) * 2.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

fn f32s() -> BoxedStrategy<f32> {
    prop_oneof![
        any::<f32>(),
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::MAX),
        Just(f32::MIN_POSITIVE),
        Just(f32::NAN),
        Just(f32::INFINITY),
    ]
    .boxed()
}

fn texts() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}",
        "[à-ÿα-ω€😀-😊\"\\\\\n\t]{0,6}",
        Just(String::new()),
        Just("\u{0}\u{1f}\u{7f}".to_owned()),
    ]
    .boxed()
}

fn finite_f64s() -> BoxedStrategy<f64> {
    prop_oneof![any::<f64>(), Just(-0.0), Just(f64::MAX)].boxed()
}

fn every() -> impl Strategy<Value = Every> {
    (
        ints(),
        i32s(),
        u32s(),
        u16s(),
        f64s(),
        f32s(),
        any::<bool>(),
        texts(),
        proptest::option::of(ints()),
        proptest::option::of(texts()),
    )
        .prop_map(
            |(big, mid, word, short, wide, narrow, flag, text, mi, mt)| {
                Every::new(big, mid, word, short, wide, narrow, flag, text, mi, mt)
            },
        )
}

fn every_plus() -> impl Strategy<Value = EveryPlus> {
    (every(), finite_f64s(), proptest::option::of(any::<bool>())).prop_map(
        |(e, extra, extra_flag)| {
            EveryPlus::new(
                *e.big(),
                *e.mid(),
                *e.word(),
                *e.short(),
                *e.wide(),
                *e.narrow(),
                *e.flag(),
                e.text().clone(),
                *e.maybe_int(),
                e.maybe_text().clone(),
                extra,
                extra_flag,
            )
        },
    )
}

fn wide() -> impl Strategy<Value = Wide> {
    (ints(), ints(), ints(), f64s(), proptest::option::of(ints()))
        .prop_map(|(a, b, c, d, e)| Wide::new(a, b, c, d, e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every scalar kind at its extremes, `Option` present and absent,
    /// NaN and ±∞ refused at encode.
    #[test]
    fn same_type_round_trip_matches_json(x in every()) {
        agree::<Every, Every>(&x)?;
    }

    /// Subtype → supertype: the supertype view reads its own attributes.
    #[test]
    fn subtype_into_supertype_matches_json(x in every_plus()) {
        agree::<EveryPlus, Every>(&x)?;
        agree::<EveryPlus, EveryPlus>(&x)?;
    }

    /// Supertype → subtype: the subtype's required `extra` is missing, so
    /// both transports refuse it.
    #[test]
    fn supertype_into_subtype_fails_like_json(x in every()) {
        agree::<Every, EveryPlus>(&x)?;
        prop_assert!(meta_round_trip::<Every, EveryPlus>(&x).is_none());
    }

    /// An `i64` slot read into narrower integer fields fails exactly when
    /// out of range; an `f64` slot narrows to `f32` as JSON's did.
    #[test]
    fn narrowing_reads_match_json(x in wide()) {
        agree::<Wide, Narrow>(&x)?;
        agree::<Wide, Wide>(&x)?;
    }
}

#[test]
fn the_oracle_sees_the_cases_that_matter() {
    // Pinned cases for the behaviours the properties compare, whatever the
    // generators happen to draw.
    let nan = Every::new(0, 0, 0, 0, f64::NAN, 0.0, false, String::new(), None, None);
    assert!(json_round_trip::<Every, Every>(&nan).is_none());
    assert!(meta_round_trip::<Every, Every>(&nan).is_none());
    let neg_zero = Every::new(0, 0, 0, 0, -0.0, -0.0, true, "é".into(), Some(1), None);
    let back = meta_round_trip::<Every, Every>(&neg_zero).unwrap();
    assert!(back.wide().is_sign_negative() && back.narrow().is_sign_negative());
    let out_of_range = Wide::new(i64::from(i32::MAX) + 1, 0, 0, 0.0, None);
    assert!(json_round_trip::<Wide, Narrow>(&out_of_range).is_none());
    assert!(meta_round_trip::<Wide, Narrow>(&out_of_range).is_none());
    let in_range = Wide::new(-5, 5, 5, 1e300, Some(9));
    let narrow = meta_round_trip::<Wide, Narrow>(&in_range).unwrap();
    assert_eq!(*narrow.d(), f32::INFINITY, "f64 → f32 narrows as JSON did");
    assert_eq!(*narrow.e(), Some(9));
}
