//! Covering relations between filters and events, and covering merges.

use layercake_event::{AttrId, ClassId, EventData, TypeRegistry};

use crate::filter::Filter;
use crate::predicate::{AttrFilter, Interval, Predicate};

/// Whether `weak` covers `strong` (Definition 2): `∀e. strong(e) ⇒ weak(e)`.
///
/// Sound and conservative (see crate docs). Exposed through
/// [`Filter::covers`].
pub(crate) fn filter_covers(weak: &Filter, strong: &Filter, registry: &TypeRegistry) -> bool {
    class_covers(weak.class(), strong.class(), registry)
        && weak.constraints().iter().all(|c| {
            implied_by(
                c.predicate(),
                strong.constraints_on_id(c.id()).map(AttrFilter::predicate),
            )
        })
}

/// The class half of covering: the weak filter's class must be a supertype
/// of the strong filter's class. An unconstrained strong class can only be
/// covered by an unconstrained weak class.
pub(crate) fn class_covers(
    weak: Option<ClassId>,
    strong: Option<ClassId>,
    registry: &TypeRegistry,
) -> bool {
    match (weak, strong) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(w), Some(s)) => registry.is_subtype(s, w),
    }
}

/// Whether the conjunction `strong` — every constraint a filter puts on one
/// attribute — implies the predicate `c` on that attribute. This is the one
/// covering rule: [`Filter::covers`] applies it per constraint, and the
/// filter table's covering query applies it once per distinct stored
/// predicate.
pub(crate) fn implied_by<'a>(
    c: &Predicate,
    strong: impl Iterator<Item = &'a Predicate> + Clone,
) -> bool {
    #[cfg(test)]
    IMPLIED_CHECKS.with(|n| n.set(n.get() + 1));
    if matches!(c, Predicate::Any) {
        return true;
    }
    if strong.clone().next().is_none() {
        return false;
    }
    // Fast path: a single strong predicate already implies c.
    if strong.clone().any(|p| c.covers(p)) {
        return true;
    }
    // Interval path: intersect all interval-representable strong predicates
    // and check containment. Only sound when *all* strong predicates on the
    // attribute are interval-representable (otherwise we cannot bound the
    // conjunction) — fall back to `false` (conservative) if not.
    let Some(c_iv) = c.interval() else {
        return false;
    };
    let mut acc: Option<Interval<'_>> = None;
    for p in strong {
        let Some(iv) = p.interval() else {
            return false;
        };
        acc = Some(match acc {
            None => iv,
            Some(prev) => match iv.intersect(&prev) {
                Some(next) => next,
                // Incomparable bounds: the strong conjunction is
                // unsatisfiable, hence trivially covered.
                None => return true,
            },
        });
    }
    let strong_iv = acc.expect("non-empty predicate list");
    strong_iv.is_empty() || c_iv.contains_interval(&strong_iv)
}

#[cfg(test)]
thread_local! {
    /// Calls of [`implied_by`] on this thread, so a test can show that a
    /// covering query runs the rule once per candidate predicate and not
    /// once per stored filter.
    pub(crate) static IMPLIED_CHECKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Whether event `e` covers event `e_prime` for filter `f` (Definition 3):
/// `f(e') = true ⇒ f(e) = true`.
///
/// Both events are given as `(class, meta-data)` pairs. This is the formal
/// check behind event transformation (Proposition 2): an extracted/weakened
/// event may be used for pre-filtering only if it covers the original for
/// every weakened filter.
#[must_use]
pub fn event_covers_for(
    f: &Filter,
    e: (ClassId, &EventData),
    e_prime: (ClassId, &EventData),
    registry: &TypeRegistry,
) -> bool {
    !f.matches(e_prime.0, e_prime.1, registry) || f.matches(e.0, e.1, registry)
}

/// Computes a single filter covering every filter in `filters` — the least
/// conservative summary our language can express, used when a broker
/// aggregates its children's filters into the one it reports to its parent
/// (Section 4.2: "a single weakened filter covers many children/subscription
/// filters").
///
/// The merge keeps an attribute constrained only when *every* input
/// constrains it, and then takes the weakest covering form: identical
/// constraint sets are copied, prefixes are merged to their longest common
/// prefix, interval-representable constraints are merged to their convex
/// hull (e.g. `price < 10` and `price < 11` merge to `price < 11`, as in the
/// paper's `g1`). The class becomes the nearest common ancestor class.
///
/// Returns [`Filter::any`] when `filters` is empty.
#[must_use]
pub fn merge_cover(filters: &[&Filter], registry: &TypeRegistry) -> Filter {
    let Some((first, rest)) = filters.split_first() else {
        return Filter::any();
    };
    // Class: nearest common ancestor, or unconstrained if any input is.
    let mut class = first.class();
    for f in rest {
        class = match (class, f.class()) {
            (Some(a), Some(b)) => registry.common_ancestor(a, b),
            _ => None,
        };
        if class.is_none() {
            break;
        }
    }

    // Attribute order: first-seen across inputs (inputs are normally in
    // schema order, so the merge stays in schema order too).
    let mut attr_order: Vec<AttrId> = Vec::new();
    for f in filters {
        for c in f.constraints() {
            if !attr_order.contains(&c.id()) {
                attr_order.push(c.id());
            }
        }
    }

    let mut merged = match class {
        Some(c) => Filter::for_class(c),
        None => Filter::any(),
    };
    'attrs: for attr in attr_order {
        let mut per_filter: Vec<Vec<&Predicate>> = Vec::with_capacity(filters.len());
        for f in filters {
            let preds: Vec<&Predicate> = f
                .constraints_on_id(attr)
                .map(AttrFilter::predicate)
                .filter(|p| !matches!(p, Predicate::Any))
                .collect();
            if preds.is_empty() {
                continue 'attrs; // some input leaves the attribute free
            }
            per_filter.push(preds);
        }
        for pred in merge_attr(&per_filter) {
            merged = merged.with(AttrFilter::for_id(attr, pred));
        }
    }
    merged
}

/// Merges the per-filter predicate sets on one attribute into a covering
/// predicate list (possibly empty = unconstrained).
fn merge_attr(per_filter: &[Vec<&Predicate>]) -> Vec<Predicate> {
    debug_assert!(!per_filter.is_empty());
    // Identical constraint sets: copy them verbatim (covers Eq, Exists, Ne,
    // Prefix and mixed sets alike).
    let first = &per_filter[0];
    if per_filter[1..].iter().all(|preds| {
        preds.len() == first.len() && preds.iter().zip(first.iter()).all(|(a, b)| a == b)
    }) {
        return first.iter().map(|p| (*p).clone()).collect();
    }
    // All single equalities / value sets: exact union (capped — beyond the
    // cap the interval hull below takes over as the coarser summary).
    const MAX_SET: usize = 16;
    if per_filter
        .iter()
        .all(|preds| preds.len() == 1 && matches!(preds[0], Predicate::Eq(_) | Predicate::In(_)))
    {
        let mut union: Vec<layercake_event::AttrValue> = Vec::new();
        for preds in per_filter {
            let values: &[layercake_event::AttrValue] = match preds[0] {
                Predicate::Eq(ref v) => std::slice::from_ref(v),
                Predicate::In(ref vs) => vs.as_slice(),
                _ => unreachable!("guarded above"),
            };
            for v in values {
                if !union.iter().any(|u| u.value_eq(v)) {
                    union.push(v.clone());
                }
            }
        }
        if union.len() == 1 {
            return vec![Predicate::Eq(union.remove(0))];
        }
        if union.len() <= MAX_SET {
            return vec![Predicate::In(union)];
        }
    }
    // All single prefixes: longest common prefix.
    if per_filter.iter().all(|preds| preds.len() == 1) {
        let prefixes: Option<Vec<&str>> = per_filter
            .iter()
            .map(|preds| match preds[0] {
                Predicate::Prefix(p) => Some(p.as_str()),
                _ => None,
            })
            .collect();
        if let Some(ps) = prefixes {
            let lcp = longest_common_prefix(&ps);
            return vec![Predicate::Prefix(lcp)];
        }
    }
    // Interval hull: each filter's conjunction reduced to an interval, then
    // hulled across filters.
    let mut hull: Option<Interval<'_>> = None;
    for preds in per_filter {
        let mut iv = None;
        for p in preds {
            let Some(p_iv) = p.interval() else {
                return Vec::new(); // not interval-representable: drop attr
            };
            iv = Some(match iv {
                None => p_iv,
                Some(prev) => match p_iv.intersect(&prev) {
                    Some(next) => next,
                    None => return Vec::new(),
                },
            });
        }
        let iv = iv.expect("non-empty per-filter predicate set");
        if iv.is_empty() {
            continue; // unsatisfiable input constrains nothing
        }
        hull = Some(match hull {
            None => iv,
            Some(prev) => match prev.hull(&iv) {
                Some(next) => next,
                None => return Vec::new(), // incomparable kinds: drop attr
            },
        });
    }
    hull.map_or_else(Vec::new, |iv| iv.to_predicates())
}

fn longest_common_prefix(strings: &[&str]) -> String {
    let Some(first) = strings.first() else {
        return String::new();
    };
    let mut prefix: &str = first;
    for s in &strings[1..] {
        let mut end = 0;
        for ((i, a), b) in prefix.char_indices().zip(s.chars()) {
            if a != b {
                break;
            }
            end = i + a.len_utf8();
        }
        prefix = &prefix[..end];
        if prefix.is_empty() {
            break;
        }
    }
    prefix.to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::event_data;

    fn registry() -> (TypeRegistry, ClassId, ClassId, ClassId) {
        let mut r = TypeRegistry::new();
        let base = r.register("Quote", None, vec![]).unwrap();
        let stock = r.register("Stock", Some("Quote"), vec![]).unwrap();
        let auction = r.register("Auction", None, vec![]).unwrap();
        (r, base, stock, auction)
    }

    #[test]
    fn example_2_coverings() {
        let (r, ..) = registry();
        // f = (symbol, "Foo", =) (price, 5.0, >)
        let f = Filter::any().eq("symbol", "Foo").gt("price", 5.0);
        let f1 = Filter::any().eq("symbol", "Foo");
        let f2 = Filter::any().gt("price", 5.0);
        let f3 = Filter::any().eq("symbol", "Foo").ge("price", 4.5);
        for weak in [&f1, &f2, &f3] {
            assert!(weak.covers(&f, &r), "{weak} should cover {f}");
            assert!(!f.covers(weak, &r), "{f} should not cover {weak}");
        }
    }

    #[test]
    fn covering_with_class_hierarchy() {
        let (r, base, stock, auction) = registry();
        let weak = Filter::for_class(base);
        let strong = Filter::for_class(stock).eq("symbol", "Foo");
        assert!(weak.covers(&strong, &r));
        assert!(!strong.covers(&weak, &r));
        assert!(!Filter::for_class(auction).covers(&strong, &r));
        // Unconstrained class is only covered by unconstrained class.
        assert!(Filter::any().covers(&weak, &r));
        assert!(!weak.covers(&Filter::any(), &r));
    }

    #[test]
    fn section_3_4_weakening_chain_coverings() {
        let (r, _, stock, _) = registry();
        // f1 = (class Stock) (symbol Foo =) (price 10 <)
        // g1 = (class Stock) (symbol Foo =) (price 11 <): g1 ⊒ f1.
        let f1 = Filter::for_class(stock)
            .eq("symbol", "Foo")
            .lt("price", 10.0);
        let g1 = Filter::for_class(stock)
            .eq("symbol", "Foo")
            .lt("price", 11.0);
        let g2 = Filter::for_class(stock).eq("symbol", "Foo");
        let g3 = Filter::for_class(stock);
        assert!(g1.covers(&f1, &r));
        assert!(g2.covers(&g1, &r));
        assert!(g3.covers(&g2, &r));
        assert!(g3.covers(&f1, &r)); // transitivity along the chain
        assert!(!f1.covers(&g1, &r));
    }

    #[test]
    fn conjunction_on_same_attribute_implies_band() {
        let (r, ..) = registry();
        // strong: 5 <= price <= 7, weak: price < 10 — containment requires
        // combining both strong constraints.
        let strong = Filter::any().ge("price", 5.0).le("price", 7.0);
        let weak = Filter::any().lt("price", 10.0);
        assert!(weak.covers(&strong, &r));
        let weak2 = Filter::any().lt("price", 6.0);
        assert!(!weak2.covers(&strong, &r));
        // Unsatisfiable strong conjunction is covered by anything on that attr.
        let empty = Filter::any().ge("price", 9.0).le("price", 1.0);
        assert!(weak2.covers(&empty, &r));
    }

    #[test]
    fn unconstrained_strong_attr_blocks_covering() {
        let (r, ..) = registry();
        let weak = Filter::any().lt("price", 10.0);
        let strong = Filter::any().eq("symbol", "Foo");
        assert!(!weak.covers(&strong, &r));
        // But a wildcard weak constraint is fine.
        let weak_wild = Filter::any().wildcard("price").eq("symbol", "Foo");
        assert!(weak_wild.covers(&strong, &r));
    }

    #[test]
    fn example_3_event_covering() {
        let (r, _, stock, _) = registry();
        let f = Filter::any().eq("symbol", "Foo").gt("price", 5.0);
        let e1 = event_data! { "symbol" => "Foo", "price" => 10.0, "volume" => 32_300 };
        let e1p = event_data! { "symbol" => "Foo", "price" => 10.0 };
        // e1' covers e1 for f, and vice versa (they agree on f's attributes).
        assert!(event_covers_for(&f, (stock, &e1p), (stock, &e1), &r));
        assert!(event_covers_for(&f, (stock, &e1), (stock, &e1p), &r));
        // With the existence filter on volume, e1' does NOT cover e1.
        let f_vol = Filter::any().exists("volume");
        assert!(!event_covers_for(&f_vol, (stock, &e1p), (stock, &e1), &r));
        assert!(event_covers_for(&f_vol, (stock, &e1), (stock, &e1p), &r));
    }

    #[test]
    fn merge_cover_paper_g1() {
        let (r, _, stock, _) = registry();
        // f1 = price < 10, f2 = price < 11 (same symbol): merge = price < 11.
        let f1 = Filter::for_class(stock)
            .eq("symbol", "DEF")
            .lt("price", 10.0);
        let f2 = Filter::for_class(stock)
            .eq("symbol", "DEF")
            .lt("price", 11.0);
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(
            g,
            Filter::for_class(stock)
                .eq("symbol", "DEF")
                .lt("price", 11.0)
        );
        assert!(g.covers(&f1, &r));
        assert!(g.covers(&f2, &r));
    }

    #[test]
    fn merge_cover_differing_eq_values_takes_exact_union() {
        let (r, _, stock, _) = registry();
        let f1 = Filter::for_class(stock).eq("symbol", "DEF");
        let f2 = Filter::for_class(stock).eq("symbol", "GHI");
        let g = merge_cover(&[&f1, &f2], &r);
        assert!(g.covers(&f1, &r));
        assert!(g.covers(&f2, &r));
        // The union is exact: values between the two do NOT leak through.
        let e_mid = event_data! { "symbol" => "EEE" };
        assert!(!g.matches(stock, &e_mid, &r));
        assert!(g.matches(stock, &event_data! { "symbol" => "DEF" }, &r));
        assert!(g.matches(stock, &event_data! { "symbol" => "GHI" }, &r));
    }

    #[test]
    fn merge_cover_large_unions_fall_back_to_hull() {
        let (r, ..) = registry();
        let filters: Vec<Filter> = (0..40).map(|i| Filter::any().eq("v", i * 2)).collect();
        let refs: Vec<&Filter> = filters.iter().collect();
        let g = merge_cover(&refs, &r);
        for f in &refs {
            assert!(g.covers(f, &r));
        }
        // Coarser than a set: odd values inside the hull also match.
        assert!(g.matches_meta(&event_data! { "v" => 3 }));
        assert!(!g.matches_meta(&event_data! { "v" => 1_000 }));
    }

    #[test]
    fn merge_cover_unions_nested_sets() {
        let (r, ..) = registry();
        let f1 = Filter::any().in_set("sym", ["A", "B"]);
        let f2 = Filter::any().eq("sym", "C");
        let g = merge_cover(&[&f1, &f2], &r);
        assert!(g.covers(&f1, &r) && g.covers(&f2, &r));
        for good in ["A", "B", "C"] {
            assert!(g.matches_meta(&event_data! { "sym" => good }));
        }
        assert!(!g.matches_meta(&event_data! { "sym" => "D" }));
    }

    #[test]
    fn merge_cover_classes_use_common_ancestor() {
        let (r, base, stock, auction) = registry();
        let f1 = Filter::for_class(stock).eq("x", 1);
        let f2 = Filter::for_class(base).eq("x", 1);
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(g.class(), Some(base));
        assert_eq!(g.constraints().len(), 1);
        // No common ancestor: class dropped.
        let f3 = Filter::for_class(auction).eq("x", 1);
        let g2 = merge_cover(&[&f1, &f3], &r);
        assert_eq!(g2.class(), None);
        assert!(g2.covers(&f1, &r) && g2.covers(&f3, &r));
    }

    #[test]
    fn merge_cover_prefixes() {
        let (r, ..) = registry();
        let f1 = Filter::any().prefix("title", "distributed sys");
        let f2 = Filter::any().prefix("title", "distributed alg");
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(g, Filter::any().prefix("title", "distributed "));
        assert!(g.covers(&f1, &r) && g.covers(&f2, &r));
    }

    #[test]
    fn merge_cover_mixed_attr_sets_drops_partial() {
        let (r, ..) = registry();
        let f1 = Filter::any().eq("a", 1).eq("b", 2);
        let f2 = Filter::any().eq("a", 1);
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(g, Filter::any().eq("a", 1));
    }

    #[test]
    fn merge_cover_identical_exotic_constraints_kept() {
        let (r, ..) = registry();
        let f1 = Filter::any().exists("volume").ne("symbol", "X");
        let f2 = Filter::any().exists("volume").ne("symbol", "X");
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(g, f1);
    }

    #[test]
    fn merge_cover_empty_and_single() {
        let (r, _, stock, _) = registry();
        assert_eq!(merge_cover(&[], &r), Filter::any());
        let f = Filter::for_class(stock).lt("price", 8.0);
        assert_eq!(merge_cover(&[&f], &r), f);
    }

    #[test]
    fn merge_cover_mixed_kind_equalities_union_exactly() {
        let (r, ..) = registry();
        let f1 = Filter::any().eq("v", 5);
        let f2 = Filter::any().eq("v", "five");
        let g = merge_cover(&[&f1, &f2], &r);
        assert!(g.covers(&f1, &r) && g.covers(&f2, &r));
        assert!(g.matches_meta(&event_data! { "v" => 5 }));
        assert!(g.matches_meta(&event_data! { "v" => "five" }));
        assert!(!g.matches_meta(&event_data! { "v" => 6 }));
    }

    #[test]
    fn merge_cover_incomparable_interval_kinds_drops_attr() {
        let (r, ..) = registry();
        // Non-equality constraints of incomparable kinds cannot union or
        // hull: the attribute is dropped (weaker, still covering).
        let f1 = Filter::any().lt("v", 5);
        let f2 = Filter::any().lt("v", "five");
        let g = merge_cover(&[&f1, &f2], &r);
        assert_eq!(g, Filter::any());
        assert!(g.covers(&f1, &r) && g.covers(&f2, &r));
    }

    #[test]
    fn lcp_helper() {
        assert_eq!(longest_common_prefix(&["abc", "abd", "ab"]), "ab");
        assert_eq!(longest_common_prefix(&["abc"]), "abc");
        assert_eq!(longest_common_prefix(&["x", "y"]), "");
        assert_eq!(longest_common_prefix(&[]), "");
    }
}
