//! Filter standardization and automated stage-driven weakening.

use layercake_event::{EventClass, StageMap, TypeRegistry, ValueKind};

use crate::cover::merge_cover;
use crate::error::FilterError;
use crate::filter::Filter;
use crate::predicate::{AttrFilter, Predicate};

/// Converts a subscription filter into the *standard subscription filter
/// format* of Section 4.4: every schema attribute appears, in schema
/// (generality) order, with `(Attr, "ALL", =)` wildcards filled in for
/// attributes the subscriber did not specify. The class constraint is set
/// to the subscription's class if absent.
///
/// Standardization also validates the filter against the schema.
///
/// # Errors
///
/// * [`FilterError::UnknownAttribute`] for constraints on attributes the
///   class does not declare.
/// * [`FilterError::KindMismatch`] when a constraint value's kind cannot
///   apply to the declared attribute kind.
pub fn standardize(f: &Filter, class: &EventClass) -> Result<Filter, FilterError> {
    for c in f.constraints() {
        let Some(decl) = class.attr(c.name()) else {
            return Err(FilterError::UnknownAttribute {
                class: class.name().to_owned(),
                attr: c.name().to_owned(),
            });
        };
        check_kind(c, decl.kind())?;
    }
    let mut out = Filter::for_class(f.class().unwrap_or_else(|| class.id()));
    for &id in class.attr_ids() {
        let mut any_constraint = false;
        for c in f.constraints_on_id(id) {
            out = out.with(c.clone());
            any_constraint = true;
        }
        if !any_constraint {
            out = out.with(AttrFilter::for_id(id, Predicate::Any));
        }
    }
    Ok(out)
}

fn check_kind(c: &AttrFilter, declared: ValueKind) -> Result<(), FilterError> {
    let used = match c.predicate() {
        Predicate::Exists | Predicate::Any => return Ok(()),
        Predicate::Prefix(_) | Predicate::Contains(_) => ValueKind::Str,
        Predicate::In(set) => match set.first() {
            Some(v) => v.kind(),
            None => return Ok(()),
        },
        Predicate::Eq(v)
        | Predicate::Ne(v)
        | Predicate::Lt(v)
        | Predicate::Le(v)
        | Predicate::Gt(v)
        | Predicate::Ge(v) => v.kind(),
    };
    if declared.comparable_with(used) {
        Ok(())
    } else {
        Err(FilterError::KindMismatch {
            attr: c.name().to_owned(),
            declared,
            used,
        })
    }
}

/// Weakens a filter for use at stage `stage` according to the class's
/// attribute–stage association `G_c` (Section 4.1): constraints on
/// attributes outside `G_c[stage]` are removed, wildcards are elided, and
/// the class constraint is always kept (the highest stage filters on type
/// only, like the paper's `i1 = (class, "Stock", =)`).
///
/// Constraints on attributes unknown to the schema are treated as least
/// general and removed at every stage above 0. The result always covers the
/// input (Proposition 1): removing conjuncts only weakens a filter.
#[must_use]
pub fn weaken_to_stage(f: &Filter, class: &EventClass, g: &StageMap, stage: usize) -> Filter {
    if stage == 0 {
        return f.clone();
    }
    let keep = g.attrs_at(stage);
    let mut out = match f.class() {
        Some(c) => Filter::for_class(c),
        None => Filter::for_class(class.id()),
    };
    for c in f.constraints() {
        if c.is_wildcard() {
            continue;
        }
        if let Some(idx) = class.attr_index_of(c.id()) {
            if keep.contains(&idx) {
                out = out.with(c.clone());
            }
        }
    }
    out
}

/// Computes the filter a broker at stage `child_stage` reports to its
/// parent at stage `child_stage + 1`: each child filter is weakened to the
/// parent's stage and the results are merged into a single covering filter
/// (Sections 4.1–4.2).
#[must_use]
pub fn weaken_for_parent(
    filters: &[&Filter],
    class: &EventClass,
    g: &StageMap,
    parent_stage: usize,
    registry: &TypeRegistry,
) -> Filter {
    let weakened: Vec<Filter> = filters
        .iter()
        .map(|f| weaken_to_stage(f, class, g, parent_stage))
        .collect();
    let refs: Vec<&Filter> = weakened.iter().collect();
    merge_cover(&refs, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::{event_data, AttributeDecl, ClassId};

    fn biblio_registry() -> (TypeRegistry, ClassId) {
        let mut r = TypeRegistry::new();
        let id = r
            .register(
                "Biblio",
                None,
                vec![
                    AttributeDecl::new("year", ValueKind::Int),
                    AttributeDecl::new("conference", ValueKind::Str),
                    AttributeDecl::new("author", ValueKind::Str),
                    AttributeDecl::new("title", ValueKind::Str),
                ],
            )
            .unwrap();
        (r, id)
    }

    fn stock_registry() -> (TypeRegistry, ClassId) {
        let mut r = TypeRegistry::new();
        let id = r
            .register(
                "Stock",
                None,
                vec![
                    AttributeDecl::new("symbol", ValueKind::Str),
                    AttributeDecl::new("price", ValueKind::Float),
                ],
            )
            .unwrap();
        (r, id)
    }

    #[test]
    fn standardize_fills_wildcards_in_schema_order() {
        let (r, id) = biblio_registry();
        let class = r.class(id).unwrap();
        // fx = (class Stock)(symbol DEF): missing price becomes ALL.
        let f = Filter::any().eq("author", "Eugster").eq("year", 2002);
        let std = standardize(&f, class).unwrap();
        assert_eq!(std.class(), Some(id));
        let rendered: Vec<String> = std.constraints().iter().map(ToString::to_string).collect();
        assert_eq!(
            rendered,
            [
                "(year, 2002, =)",
                "(conference, \"ALL\", =)",
                "(author, \"Eugster\", =)",
                "(title, \"ALL\", =)"
            ]
        );
    }

    #[test]
    fn standardize_preserves_semantics() {
        // Section 4.4: fy and fz are equal once standardized.
        let (r, id) = stock_registry();
        let class = r.class(id).unwrap();
        let fz = Filter::any().lt("price", 100.0);
        let fy = Filter::any().wildcard("symbol").lt("price", 100.0);
        let std_fz = standardize(&fz, class).unwrap();
        let std_fy = standardize(&fy, class).unwrap();
        assert_eq!(std_fz, std_fy);
        for (sym, price, expect) in [("A", 50.0, true), ("B", 150.0, false)] {
            let e = event_data! { "symbol" => sym, "price" => price };
            assert_eq!(fz.matches(id, &e, &r), expect);
            assert_eq!(std_fz.matches(id, &e, &r), expect);
        }
    }

    #[test]
    fn standardize_rejects_unknown_attribute() {
        let (r, id) = stock_registry();
        let class = r.class(id).unwrap();
        let f = Filter::any().eq("volume", 10);
        assert!(matches!(
            standardize(&f, class),
            Err(FilterError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn standardize_rejects_kind_mismatch() {
        let (r, id) = stock_registry();
        let class = r.class(id).unwrap();
        let f = Filter::any().lt("symbol", 10);
        assert!(matches!(
            standardize(&f, class),
            Err(FilterError::KindMismatch { .. })
        ));
        // Prefix on a non-string attribute is a mismatch too.
        let f = Filter::any().prefix("price", "1");
        assert!(standardize(&f, class).is_err());
        // Numeric kinds are mutually applicable.
        let f = Filter::any().lt("price", 10);
        assert!(standardize(&f, class).is_ok());
    }

    #[test]
    fn standardize_keeps_multiple_constraints_per_attr() {
        let (r, id) = stock_registry();
        let class = r.class(id).unwrap();
        let f = Filter::any().ge("price", 5.0).le("price", 10.0);
        let std = standardize(&f, class).unwrap();
        assert_eq!(std.constraints_on("price").count(), 2);
    }

    #[test]
    fn standardize_respects_explicit_subclass() {
        let mut r = TypeRegistry::new();
        let base = r
            .register(
                "Quote",
                None,
                vec![AttributeDecl::new("symbol", ValueKind::Str)],
            )
            .unwrap();
        let sub = r.register("Stock", Some("Quote"), vec![]).unwrap();
        let class = r.class(base).unwrap();
        let f = Filter::for_class(sub).eq("symbol", "Foo");
        let std = standardize(&f, class).unwrap();
        assert_eq!(std.class(), Some(sub));
    }

    #[test]
    fn example_5_stage_weakening() {
        let (r, id) = biblio_registry();
        let class = r.class(id).unwrap();
        let g = StageMap::from_prefixes(&[4, 3, 2, 1]).unwrap();
        let f = Filter::for_class(id)
            .eq("year", 2002)
            .eq("conference", "ICDCS")
            .eq("author", "Felber")
            .eq("title", "Tradeoffs");

        let s1 = weaken_to_stage(&f, class, &g, 1);
        assert_eq!(
            s1,
            Filter::for_class(id)
                .eq("year", 2002)
                .eq("conference", "ICDCS")
                .eq("author", "Felber")
        );
        let s2 = weaken_to_stage(&f, class, &g, 2);
        assert_eq!(
            s2,
            Filter::for_class(id)
                .eq("year", 2002)
                .eq("conference", "ICDCS")
        );
        let s3 = weaken_to_stage(&f, class, &g, 3);
        assert_eq!(s3, Filter::for_class(id).eq("year", 2002));
        // Every weakened filter covers the original (Proposition 1).
        for s in [&s1, &s2, &s3] {
            assert!(s.covers(&f, &r));
        }
        // Stage 0 is the identity.
        assert_eq!(weaken_to_stage(&f, class, &g, 0), f);
    }

    #[test]
    fn weakening_elides_wildcards() {
        let (r, id) = biblio_registry();
        let class = r.class(id).unwrap();
        let g = StageMap::from_prefixes(&[4, 2]).unwrap();
        let f = standardize(&Filter::any().eq("year", 2002), class).unwrap();
        let w = weaken_to_stage(&f, class, &g, 1);
        assert_eq!(w, Filter::for_class(id).eq("year", 2002));
        assert!(w.covers(&f, &r));
    }

    #[test]
    fn weakening_adds_class_when_missing() {
        let (_, id) = biblio_registry();
        let (r2, _) = biblio_registry();
        let class = r2.class(id).unwrap();
        let g = StageMap::from_prefixes(&[4, 1]).unwrap();
        let f = Filter::any().eq("year", 2002).eq("title", "X");
        let w = weaken_to_stage(&f, class, &g, 1);
        assert_eq!(w.class(), Some(id));
        assert_eq!(w.constraints().len(), 1);
    }

    #[test]
    fn unknown_attrs_dropped_above_stage_zero() {
        let (_, id) = biblio_registry();
        let (r2, _) = biblio_registry();
        let class = r2.class(id).unwrap();
        let g = StageMap::from_prefixes(&[4, 3]).unwrap();
        let f = Filter::for_class(id).eq("year", 2002).eq("bogus", 1);
        let w = weaken_to_stage(&f, class, &g, 1);
        assert_eq!(w, Filter::for_class(id).eq("year", 2002));
    }

    #[test]
    fn example_5_sibling_merge_at_stage_1() {
        // f1 = (Stock, DEF, <10), f2 = (Stock, DEF, <11) weaken+merge into
        // g1 = (Stock, DEF, <11) at stage 1 (where all attributes survive).
        let (r, id) = stock_registry();
        let class = r.class(id).unwrap();
        let g = StageMap::from_prefixes(&[2, 2, 1]).unwrap();
        let f1 = Filter::for_class(id).eq("symbol", "DEF").lt("price", 10.0);
        let f2 = Filter::for_class(id).eq("symbol", "DEF").lt("price", 11.0);
        let g1 = weaken_for_parent(&[&f1, &f2], class, &g, 1, &r);
        assert_eq!(
            g1,
            Filter::for_class(id).eq("symbol", "DEF").lt("price", 11.0)
        );
        // At stage 2 only the symbol survives: h1 = (Stock, DEF).
        let h1 = weaken_for_parent(&[&f1, &f2], class, &g, 2, &r);
        assert_eq!(h1, Filter::for_class(id).eq("symbol", "DEF"));
        assert!(h1.covers(&f1, &r) && h1.covers(&f2, &r));
    }
}
