//! Property-based tests for the filter language invariants.
//!
//! These check the paper's formal propositions on randomly generated
//! filters and events:
//!
//! * soundness of the covering relation (Definition 2),
//! * Proposition 1 (weakened filters cover originals),
//! * covering merges are upper bounds,
//! * standardization preserves semantics (Section 4.4),
//! * the filter table's index agrees with a linear scan of its filters.

use layercake_event::{
    AttrValue, AttributeDecl, ClassId, EventData, StageMap, TypeRegistry, ValueKind,
};
use layercake_filter::{
    merge_cover, standardize, weaken_to_stage, DestId, Filter, FilterTable, Predicate,
};
use proptest::prelude::*;

const ATTRS: &[&str] = &["year", "conference", "author", "title"];
const STRINGS: &[&str] = &["", "a", "ab", "abc", "b", "icdcs", "icdcs02", "zz"];

fn arb_value() -> impl Strategy<Value = AttrValue> {
    arb_value_inner()
}

fn arb_value_inner() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-5i64..=5).prop_map(AttrValue::Int),
        (-4i32..=4).prop_map(|i| AttrValue::Float(f64::from(i) * 0.5)),
        proptest::sample::select(STRINGS).prop_map(AttrValue::from),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        arb_value().prop_map(Predicate::Eq),
        arb_value().prop_map(Predicate::Ne),
        arb_value().prop_map(Predicate::Lt),
        arb_value().prop_map(Predicate::Le),
        arb_value().prop_map(Predicate::Gt),
        arb_value().prop_map(Predicate::Ge),
        proptest::collection::vec(arb_value_inner(), 0..3).prop_map(Predicate::In),
        proptest::sample::select(STRINGS).prop_map(|s| Predicate::Prefix(s.to_owned())),
        proptest::sample::select(STRINGS).prop_map(|s| Predicate::Contains(s.to_owned())),
        Just(Predicate::Exists),
        Just(Predicate::Any),
    ]
}

/// A filter over the fixed attribute pool with 0..=4 constraints.
fn arb_filter() -> impl Strategy<Value = Filter> {
    proptest::collection::vec((proptest::sample::select(ATTRS), arb_predicate()), 0..4).prop_map(
        |constraints| {
            let mut f = Filter::any();
            for (name, pred) in constraints {
                f = f.with(layercake_filter::AttrFilter::new(name, pred));
            }
            f
        },
    )
}

/// An event assigning values to a random subset of the attribute pool.
fn arb_event() -> impl Strategy<Value = EventData> {
    proptest::collection::vec((proptest::sample::select(ATTRS), arb_value()), 0..5).prop_map(
        |pairs| {
            let mut e = EventData::new();
            for (n, v) in pairs {
                e.insert(n, v);
            }
            e
        },
    )
}

fn empty_registry_and_class() -> (TypeRegistry, ClassId) {
    let mut r = TypeRegistry::new();
    let id = r.register("Biblio", None, biblio_attrs()).unwrap();
    (r, id)
}

/// A registry with a base class and a subtype, for exercising type-based
/// filtering in the index-agreement properties.
fn registry_with_subtype() -> (TypeRegistry, ClassId, ClassId) {
    let mut r = TypeRegistry::new();
    let base = r.register("Biblio", None, biblio_attrs()).unwrap();
    let sub = r.register("Journal", Some("Biblio"), vec![]).unwrap();
    (r, base, sub)
}

/// The destinations a linear scan of the stored pairs (the paper's Figure 6
/// algorithm) sends `e` to, ascending and without duplicates.
fn scan(
    pairs: &[(Filter, DestId)],
    class: ClassId,
    e: &EventData,
    r: &TypeRegistry,
) -> Vec<DestId> {
    let mut out: Vec<DestId> = pairs
        .iter()
        .filter(|(f, _)| f.matches(class, e, r))
        .map(|(_, d)| *d)
        .collect();
    out.sort();
    out.dedup();
    out
}

fn biblio_attrs() -> Vec<AttributeDecl> {
    vec![
        AttributeDecl::new("year", ValueKind::Int),
        AttributeDecl::new("conference", ValueKind::Str),
        AttributeDecl::new("author", ValueKind::Str),
        AttributeDecl::new("title", ValueKind::Str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Predicate covering soundness: weak ⊒ strong implies the matched sets
    /// nest, for every sampled value and for absence.
    #[test]
    fn predicate_covering_is_sound(weak in arb_predicate(), strong in arb_predicate(), v in arb_value()) {
        if weak.covers(&strong) {
            prop_assert!(!strong.matches(Some(&v)) || weak.matches(Some(&v)),
                "weak {weak:?} claims to cover {strong:?} but fails on {v:?}");
            prop_assert!(!strong.matches(None) || weak.matches(None));
        }
    }

    /// Predicate covering is reflexive.
    #[test]
    fn predicate_covering_is_reflexive(p in arb_predicate()) {
        prop_assert!(p.covers(&p));
    }

    /// Predicate covering is transitive on the sampled space.
    #[test]
    fn predicate_covering_is_transitive(a in arb_predicate(), b in arb_predicate(), c in arb_predicate()) {
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c), "{a:?} ⊒ {b:?} ⊒ {c:?} but not {a:?} ⊒ {c:?}");
        }
    }

    /// Filter covering soundness over whole events.
    #[test]
    fn filter_covering_is_sound(weak in arb_filter(), strong in arb_filter(), e in arb_event()) {
        let (r, class) = empty_registry_and_class();
        if weak.covers(&strong, &r) && strong.matches(class, &e, &r) {
            prop_assert!(weak.matches(class, &e, &r),
                "weak {weak} covers {strong} but fails on {e}");
        }
    }

    /// Filter covering is reflexive and transitive (preorder).
    #[test]
    fn filter_covering_is_preorder(a in arb_filter(), b in arb_filter(), c in arb_filter()) {
        let (r, _) = empty_registry_and_class();
        prop_assert!(a.covers(&a, &r));
        if a.covers(&b, &r) && b.covers(&c, &r) {
            prop_assert!(a.covers(&c, &r));
        }
    }

    /// `Filter::any` (f_T) covers everything.
    #[test]
    fn match_all_covers_everything(f in arb_filter()) {
        let (r, _) = empty_registry_and_class();
        prop_assert!(Filter::any().covers(&f, &r));
    }

    /// merge_cover is an upper bound of its inputs, both by the covering
    /// check and behaviourally on sampled events.
    #[test]
    fn merge_cover_is_upper_bound(f1 in arb_filter(), f2 in arb_filter(), f3 in arb_filter(), e in arb_event()) {
        let (r, class) = empty_registry_and_class();
        let merged = merge_cover(&[&f1, &f2, &f3], &r);
        for f in [&f1, &f2, &f3] {
            prop_assert!(merged.covers(f, &r), "merge {merged} does not cover {f}");
            if f.matches(class, &e, &r) {
                prop_assert!(merged.matches(class, &e, &r));
            }
        }
    }

    /// Proposition 1: stage-weakened filters cover the original, checked
    /// behaviourally.
    #[test]
    fn stage_weakening_covers_original(f in arb_filter(), e in arb_event(), stage in 0usize..5) {
        let (r, class_id) = empty_registry_and_class();
        let class = r.class(class_id).unwrap();
        let g = StageMap::from_prefixes(&[4, 3, 2, 1]).unwrap();
        let f = f.with_class(Some(class_id));
        let w = weaken_to_stage(&f, class, &g, stage);
        prop_assert!(w.covers(&f, &r), "weakened {w} does not cover {f} at stage {stage}");
        if f.matches(class_id, &e, &r) {
            prop_assert!(w.matches(class_id, &e, &r));
        }
    }

    /// Standardization preserves semantics exactly (Section 4.4: wildcard
    /// attribute filters do not change the matched set).
    #[test]
    fn standardization_preserves_semantics(f in arb_filter(), e in arb_event()) {
        let (r, class_id) = empty_registry_and_class();
        let class = r.class(class_id).unwrap();
        // Restrict to schema-compatible filters.
        if let Ok(std) = standardize(&f.clone().with_class(Some(class_id)), class) {
            prop_assert_eq!(
                f.clone().with_class(Some(class_id)).matches(class_id, &e, &r),
                std.matches(class_id, &e, &r),
                "filter {} vs standardized {}", f, std
            );
        }
    }

    /// Normalization (the dedup key) never changes matching behaviour.
    #[test]
    fn normalization_preserves_semantics(f in arb_filter(), e in arb_event()) {
        let (r, class) = empty_registry_and_class();
        prop_assert_eq!(f.matches(class, &e, &r), f.normalized().matches(class, &e, &r));
    }

    /// Weakening algebra: weakening is idempotent per stage and monotone
    /// across stages (weakening further only ever removes constraints).
    #[test]
    fn weakening_is_idempotent_and_monotone(f in arb_filter(), s1 in 0usize..4, s2 in 0usize..4, e in arb_event()) {
        let (r, class_id) = empty_registry_and_class();
        let class = r.class(class_id).unwrap();
        let g = StageMap::from_prefixes(&[4, 3, 2, 1]).unwrap();
        let f = f.with_class(Some(class_id));
        // Idempotence: re-weakening at the same stage is a fixed point.
        let w1 = weaken_to_stage(&f, class, &g, s1);
        prop_assert_eq!(&weaken_to_stage(&w1, class, &g, s1), &w1);
        // Composition: weakening through s1 then s2 behaves like weakening
        // to the weaker (higher) of the two directly — on non-zero stages,
        // where weakening actually applies (stage 0 is the identity).
        if s1 > 0 && s2 > 0 {
            let via = weaken_to_stage(&w1, class, &g, s2);
            let direct = weaken_to_stage(&f, class, &g, s1.max(s2));
            prop_assert_eq!(
                via.matches(class_id, &e, &r),
                direct.matches(class_id, &e, &r),
                "via {} vs direct {}", via, direct
            );
        }
        // Monotonicity: a higher stage's filter covers a lower stage's.
        if s2 >= s1 {
            let w2 = weaken_to_stage(&f, class, &g, s2);
            prop_assert!(w2.covers(&w1, &r), "stage {} ⊒ stage {}", s2, s1);
        }
    }

    /// The table's index and a scan over the inserted pairs always return
    /// the same destinations — over random filter tables and events,
    /// including subtyped class constraints, wildcards, and repeated
    /// range constraints on one attribute (all generated by `arb_filter`'s
    /// attribute-pool sampling with replacement).
    #[test]
    fn index_strategies_agree(
        filters in proptest::collection::vec((arb_filter(), 0u8..3), 1..12),
        events in proptest::collection::vec((arb_event(), any::<bool>()), 1..6),
    ) {
        let (r, base, sub) = registry_with_subtype();
        let mut t = FilterTable::default();
        let mut pairs = Vec::new();
        for (i, (f, class_pick)) in filters.iter().enumerate() {
            let class = match class_pick {
                0 => None,
                1 => Some(base),
                _ => Some(sub),
            };
            let f = f.clone().with_class(class);
            t.insert(f.clone(), DestId(i as u64));
            pairs.push((f, DestId(i as u64)));
        }
        for (e, publish_sub) in &events {
            let class = if *publish_sub { sub } else { base };
            let mut out = Vec::new();
            t.matches(class, e, &r, &mut out);
            prop_assert_eq!(&out, &scan(&pairs, class, e, &r), "index vs scan disagree on {}", e);
            prop_assert_eq!(!out.is_empty(), t.matches_any(class, e, &r), "matches_any disagrees on {}", e);
        }
    }

    /// Index agreement survives interleaved removals.
    #[test]
    fn index_strategies_agree_after_removal(
        filters in proptest::collection::vec(arb_filter(), 2..10),
        remove_mask in proptest::collection::vec(any::<bool>(), 2..10),
        e in arb_event(),
    ) {
        let (r, class) = empty_registry_and_class();
        let mut t = FilterTable::default();
        for (i, f) in filters.iter().enumerate() {
            t.insert(f.clone(), DestId(i as u64));
        }
        let mut pairs = Vec::new();
        for (i, f) in filters.iter().enumerate() {
            let dest = DestId(i as u64);
            if remove_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(t.remove(f, dest));
            } else {
                pairs.push((f.clone(), dest));
            }
        }
        let mut out = Vec::new();
        t.matches(class, &e, &r, &mut out);
        prop_assert_eq!(&out, &scan(&pairs, class, &e, &r));
    }

    /// find_cover returns a filter that indeed covers the probe.
    #[test]
    fn find_cover_returns_actual_cover(
        filters in proptest::collection::vec(arb_filter(), 1..10),
        probe in arb_filter(),
    ) {
        let (r, _) = empty_registry_and_class();
        let mut t = FilterTable::default();
        for (i, f) in filters.iter().enumerate() {
            t.insert(f.clone(), DestId(i as u64));
        }
        if let Some((cover, dests)) = t.find_cover(&probe, &r) {
            prop_assert!(cover.covers(&probe, &r));
            prop_assert!(!dests.is_empty());
        } else {
            // No stored filter claims to cover the probe.
            for f in &filters {
                prop_assert!(!f.covers(&probe, &r));
            }
        }
    }
}
