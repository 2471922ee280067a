//! Per-attribute predicates and their covering relation.

use std::cmp::Ordering;
use std::fmt;

use layercake_event::{AttrId, AttrValue};
use serde::{DeError, Deserialize, Serialize, Value};

/// A predicate on a single attribute value.
///
/// Predicates correspond to the operator/value part of the paper's
/// name-value-operator tuples, e.g. `(price, 5.0, >)`. Two non-standard
/// members complete the language: [`Predicate::Exists`] (`(volume, ∃)` in
/// Example 3) and [`Predicate::Any`], the wildcard `(Attr, "ALL", =)` of
/// Section 4.4, which matches *regardless of the attribute's presence or
/// value*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Predicate {
    /// Value equals (numeric kinds compare through `f64`).
    Eq(AttrValue),
    /// Value differs (present and not equal).
    Ne(AttrValue),
    /// Value strictly less than.
    Lt(AttrValue),
    /// Value less than or equal.
    Le(AttrValue),
    /// Value strictly greater than.
    Gt(AttrValue),
    /// Value greater than or equal.
    Ge(AttrValue),
    /// Value equals one of the given values (a disjunction on one
    /// attribute; what covering merges of equality filters produce).
    In(Vec<AttrValue>),
    /// String value starts with the given prefix.
    Prefix(String),
    /// String value contains the given substring (the tractable fragment of
    /// the "regular expressions" expressiveness level of Section 2.1).
    Contains(String),
    /// Attribute is present, any value.
    Exists,
    /// Wildcard: matches whether or not the attribute is present.
    Any,
}

impl Predicate {
    /// Evaluates the predicate against an attribute value (`None` when the
    /// attribute is absent from the event).
    ///
    /// Every predicate except [`Predicate::Any`] requires the attribute to
    /// be present; ordering predicates additionally require the value kinds
    /// to be comparable.
    #[must_use]
    pub fn matches(&self, value: Option<&AttrValue>) -> bool {
        let Some(v) = value else {
            return matches!(self, Predicate::Any);
        };
        match self {
            Predicate::Any | Predicate::Exists => true,
            Predicate::Eq(w) => v.value_eq(w),
            Predicate::Ne(w) => !v.value_eq(w),
            Predicate::Lt(w) => v.compare(w) == Some(Ordering::Less),
            Predicate::Le(w) => matches!(v.compare(w), Some(Ordering::Less | Ordering::Equal)),
            Predicate::Gt(w) => v.compare(w) == Some(Ordering::Greater),
            Predicate::Ge(w) => matches!(v.compare(w), Some(Ordering::Greater | Ordering::Equal)),
            Predicate::In(set) => set.iter().any(|w| v.value_eq(w)),
            Predicate::Prefix(p) => v.as_str().is_some_and(|s| s.starts_with(p.as_str())),
            Predicate::Contains(p) => v.as_str().is_some_and(|s| s.contains(p.as_str())),
        }
    }

    /// Whether this predicate covers (is weaker than or equal to) `other`:
    /// every value — including absence — matched by `other` is matched by
    /// `self` (Definition 2, restricted to one attribute).
    ///
    /// The implementation is sound and conservative: a `true` result is
    /// always correct; some true coverings between exotic predicate pairs
    /// may be reported as `false`.
    #[must_use]
    pub fn covers(&self, other: &Predicate) -> bool {
        match self {
            Predicate::Any => true,
            // Only `Any` matches absent attributes, so `Exists` covers
            // everything else.
            Predicate::Exists => !matches!(other, Predicate::Any),
            // `Ne(v)` matches exactly "present and not v": it covers any
            // presence-requiring predicate that does not match `v`.
            Predicate::Ne(v) => !matches!(other, Predicate::Any) && !other.matches(Some(v)),
            // A value set covers exactly the equalities (and smaller sets)
            // it contains.
            Predicate::In(set) => match other {
                Predicate::Eq(w) => set.iter().any(|v| v.value_eq(w)),
                Predicate::In(sub) => sub.iter().all(|w| set.iter().any(|v| v.value_eq(w))),
                _ => false,
            },
            Predicate::Prefix(p) => match other {
                Predicate::Prefix(q) => q.starts_with(p.as_str()),
                Predicate::Eq(AttrValue::Str(w)) => w.starts_with(p.as_str()),
                Predicate::In(sub) if matches!(self, Predicate::Prefix(_)) => sub
                    .iter()
                    .all(|w| w.as_str().is_some_and(|s| s.starts_with(p.as_str()))),
                _ => false,
            },
            // `Contains(p)` covers anything whose every match is a string
            // containing `p`: prefixes and exact strings that contain `p`,
            // and tighter substrings.
            Predicate::Contains(p) => match other {
                Predicate::Contains(q) => q.contains(p.as_str()),
                // Every string starting with q contains q, hence contains p.
                Predicate::Prefix(q) => q.contains(p.as_str()),
                Predicate::Eq(AttrValue::Str(w)) => w.contains(p.as_str()),
                Predicate::In(sub) => sub
                    .iter()
                    .all(|w| w.as_str().is_some_and(|s| s.contains(p.as_str()))),
                _ => false,
            },
            // Interval-representable predicates.
            Predicate::Eq(_)
            | Predicate::Lt(_)
            | Predicate::Le(_)
            | Predicate::Gt(_)
            | Predicate::Ge(_) => {
                match other {
                    // No interval can soundly bound a substring predicate.
                    Predicate::Contains(_) => false,
                    // A value set is covered when every member is.
                    Predicate::In(sub) => {
                        !sub.is_empty() && sub.iter().all(|w| self.matches(Some(w)))
                    }
                    Predicate::Prefix(q) => {
                        // Every string with prefix q is lexicographically >= q,
                        // so lower bounds can cover prefixes.
                        match self {
                            Predicate::Ge(AttrValue::Str(w)) => q.as_str() >= w.as_str(),
                            Predicate::Gt(AttrValue::Str(w)) => q.as_str() > w.as_str(),
                            _ => false,
                        }
                    }
                    _ => match (Interval::of(self), Interval::of(other)) {
                        (Some(w), Some(s)) => w.contains_interval(&s),
                        _ => false,
                    },
                }
            }
        }
    }

    /// The interval view of this predicate, if it has one.
    pub(crate) fn interval(&self) -> Option<Interval<'_>> {
        Interval::of(self)
    }

    /// The paper's operator notation for this predicate.
    #[must_use]
    pub fn op_symbol(&self) -> &'static str {
        match self {
            Predicate::Eq(_) => "=",
            Predicate::Ne(_) => "!=",
            Predicate::Lt(_) => "<",
            Predicate::Le(_) => "<=",
            Predicate::Gt(_) => ">",
            Predicate::Ge(_) => ">=",
            Predicate::In(_) => "in",
            Predicate::Prefix(_) => "prefix",
            Predicate::Contains(_) => "contains",
            Predicate::Exists => "exists",
            Predicate::Any => "ALL",
        }
    }
}

/// A one-sided or two-sided interval over comparable [`AttrValue`]s; the
/// set-of-values view of the ordering predicates. It borrows its bounds
/// from the predicates it was built from, so covering checks never clone a
/// value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Interval<'a> {
    /// Lower bound and whether it is inclusive.
    pub lo: Bound<'a>,
    /// Upper bound and whether it is inclusive.
    pub hi: Bound<'a>,
}

type Bound<'a> = Option<(&'a AttrValue, bool)>;

impl<'a> Interval<'a> {
    pub(crate) fn of(pred: &'a Predicate) -> Option<Interval<'a>> {
        let iv = match pred {
            Predicate::Eq(v) => Interval {
                lo: Some((v, true)),
                hi: Some((v, true)),
            },
            Predicate::Lt(v) => Interval {
                lo: None,
                hi: Some((v, false)),
            },
            Predicate::Le(v) => Interval {
                lo: None,
                hi: Some((v, true)),
            },
            Predicate::Gt(v) => Interval {
                lo: Some((v, false)),
                hi: None,
            },
            Predicate::Ge(v) => Interval {
                lo: Some((v, true)),
                hi: None,
            },
            _ => return None,
        };
        Some(iv)
    }

    /// Whether `self`'s value set contains `other`'s. Bounds of incomparable
    /// kinds make this `false` (conservative).
    pub(crate) fn contains_interval(&self, other: &Interval<'_>) -> bool {
        if other.is_empty() {
            return true;
        }
        let lo_ok = match (self.lo, other.lo) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, a_inc)), Some((b, b_inc))) => match a.compare(b) {
                Some(Ordering::Less) => true,
                Some(Ordering::Equal) => a_inc || !b_inc,
                _ => false,
            },
        };
        if !lo_ok {
            return false;
        }
        match (self.hi, other.hi) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some((a, a_inc)), Some((b, b_inc))) => match a.compare(b) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => a_inc || !b_inc,
                _ => false,
            },
        }
    }

    /// Whether the interval denotes the empty set.
    pub(crate) fn is_empty(&self) -> bool {
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (self.lo, self.hi) {
            match lo.compare(hi) {
                Some(Ordering::Greater) => true,
                Some(Ordering::Equal) => !(lo_inc && hi_inc),
                Some(Ordering::Less) => false,
                None => true, // mixed-kind bounds denote nothing
            }
        } else {
            false
        }
    }

    /// Intersects two intervals (used when a filter carries several
    /// constraints on the same attribute). `None` when bounds are of
    /// incomparable kinds.
    pub(crate) fn intersect(&self, other: &Interval<'a>) -> Option<Interval<'a>> {
        let lo = tighter_bound(self.lo, other.lo, true)?;
        let hi = tighter_bound(self.hi, other.hi, false)?;
        Some(Interval { lo, hi })
    }

    /// The convex hull of two intervals (used by filter merging).
    pub(crate) fn hull(&self, other: &Interval<'a>) -> Option<Interval<'a>> {
        let lo = looser_bound(self.lo, other.lo, true)?;
        let hi = looser_bound(self.hi, other.hi, false)?;
        Some(Interval { lo, hi })
    }

    /// Renders this interval back into one or two predicates.
    pub(crate) fn to_predicates(self) -> Vec<Predicate> {
        match (self.lo, self.hi) {
            (Some((lo, true)), Some((hi, true))) if lo.value_eq(hi) => {
                vec![Predicate::Eq(lo.clone())]
            }
            (lo, hi) => {
                let mut out = Vec::new();
                match lo {
                    Some((v, true)) => out.push(Predicate::Ge(v.clone())),
                    Some((v, false)) => out.push(Predicate::Gt(v.clone())),
                    None => {}
                }
                match hi {
                    Some((v, true)) => out.push(Predicate::Le(v.clone())),
                    Some((v, false)) => out.push(Predicate::Lt(v.clone())),
                    None => {}
                }
                out
            }
        }
    }
}

/// Picks the tighter of two bounds (for intersection). `is_lo` selects the
/// direction. Returns `None` on incomparable kinds.
fn tighter_bound<'a>(a: Bound<'a>, b: Bound<'a>, is_lo: bool) -> Option<Bound<'a>> {
    combine_bound(a, b, is_lo, true)
}

/// Picks the looser of two bounds (for hulls).
fn looser_bound<'a>(a: Bound<'a>, b: Bound<'a>, is_lo: bool) -> Option<Bound<'a>> {
    combine_bound(a, b, is_lo, false)
}

fn combine_bound<'a>(a: Bound<'a>, b: Bound<'a>, is_lo: bool, tighter: bool) -> Option<Bound<'a>> {
    match (a, b) {
        (None, None) => Some(None),
        (Some(x), None) | (None, Some(x)) => {
            // An absent bound is the loosest possible.
            if tighter {
                Some(Some(x))
            } else {
                Some(None)
            }
        }
        (Some((av, ai)), Some((bv, bi))) => {
            let ord = av.compare(bv)?;
            let pick_a = match ord {
                Ordering::Equal => {
                    // For lower bounds, exclusive is tighter; for upper
                    // bounds likewise. Inclusive is looser either way.
                    if tighter {
                        !ai || bi // prefer the exclusive one
                    } else {
                        ai || !bi // prefer the inclusive one
                    }
                }
                Ordering::Less => {
                    // a < b: for lower bounds b is tighter, for upper bounds
                    // a is tighter.
                    if is_lo {
                        !tighter
                    } else {
                        tighter
                    }
                }
                Ordering::Greater => {
                    if is_lo {
                        tighter
                    } else {
                        !tighter
                    }
                }
            };
            Some(Some(if pick_a { (av, ai) } else { (bv, bi) }))
        }
    }
}

/// A named attribute constraint: one component of a conjunction filter,
/// the paper's `(name, value, operator)` tuple.
///
/// The attribute name is *compiled* to an interned [`AttrId`] on
/// construction, so every downstream matching structure — filter tables,
/// counting slots, dense per-attribute groups — works with `u32` ids and
/// never touches the string on the hot path. [`name`](AttrFilter::name)
/// still resolves the original spelling, and the serialized form carries
/// the name (ids are process-local).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrFilter {
    id: AttrId,
    pred: Predicate,
}

impl AttrFilter {
    /// Creates a constraint on the named attribute, interning the name.
    #[must_use]
    pub fn new(name: impl Into<String>, pred: Predicate) -> Self {
        Self {
            id: AttrId::intern(&name.into()),
            pred,
        }
    }

    /// Creates a constraint on an already-interned attribute.
    #[must_use]
    pub fn for_id(id: AttrId, pred: Predicate) -> Self {
        Self { id, pred }
    }

    /// The constrained attribute name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.id.name()
    }

    /// The interned id of the constrained attribute.
    #[must_use]
    pub fn id(&self) -> AttrId {
        self.id
    }

    /// The predicate applied to the attribute.
    #[must_use]
    pub fn predicate(&self) -> &Predicate {
        &self.pred
    }

    /// Whether this is a wildcard constraint (`(Attr, "ALL", =)`).
    #[must_use]
    pub fn is_wildcard(&self) -> bool {
        matches!(self.pred, Predicate::Any)
    }
}

// Hand-written so the wire form spells out the attribute name (`{"name":
// ..., "pred": ...}`), matching the pre-interning representation.
impl Serialize for AttrFilter {
    fn serialize_value(&self) -> Value {
        let mut obj = Value::object();
        obj.insert_field("name", Value::Str(self.name().to_owned()));
        obj.insert_field("pred", self.pred.serialize_value());
        obj
    }
}

impl Deserialize for AttrFilter {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let name: String = serde::__field(v, "name")?;
        Ok(Self {
            id: AttrId::intern(&name),
            pred: serde::__field(v, "pred")?,
        })
    }
}

impl fmt::Display for AttrFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.pred {
            Predicate::Exists => write!(f, "({}, ∃)", self.name()),
            Predicate::Any => write!(f, "({}, \"ALL\", =)", self.name()),
            Predicate::Prefix(p) => write!(f, "({}, {p:?}, prefix)", self.name()),
            Predicate::In(set) => {
                write!(f, "({}, {{", self.name())?;
                for (i, v) in set.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("}, in)")
            }
            Predicate::Contains(p) => write!(f, "({}, {p:?}, contains)", self.name()),
            Predicate::Eq(v)
            | Predicate::Ne(v)
            | Predicate::Lt(v)
            | Predicate::Le(v)
            | Predicate::Gt(v)
            | Predicate::Ge(v) => write!(f, "({}, {v}, {})", self.name(), self.pred.op_symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
    fn f(v: f64) -> AttrValue {
        AttrValue::Float(v)
    }
    fn s(v: &str) -> AttrValue {
        AttrValue::from(v)
    }

    #[test]
    fn matching_semantics() {
        assert!(Predicate::Eq(f(10.0)).matches(Some(&i(10))));
        assert!(Predicate::Ne(s("Foo")).matches(Some(&s("Bar"))));
        assert!(Predicate::Lt(f(11.0)).matches(Some(&f(10.5))));
        assert!(!Predicate::Lt(f(11.0)).matches(Some(&f(11.0))));
        assert!(Predicate::Le(f(11.0)).matches(Some(&f(11.0))));
        assert!(Predicate::Gt(i(5)).matches(Some(&f(5.5))));
        assert!(Predicate::Ge(i(5)).matches(Some(&i(5))));
        assert!(Predicate::Prefix("Fo".into()).matches(Some(&s("Foo"))));
        assert!(!Predicate::Prefix("Fo".into()).matches(Some(&i(5))));
        assert!(Predicate::Exists.matches(Some(&i(0))));
    }

    #[test]
    fn absence_semantics() {
        assert!(Predicate::Any.matches(None));
        assert!(!Predicate::Exists.matches(None));
        assert!(!Predicate::Eq(i(1)).matches(None));
        assert!(!Predicate::Ne(i(1)).matches(None));
        assert!(!Predicate::Lt(i(1)).matches(None));
    }

    #[test]
    fn incomparable_kinds_never_match_orderings() {
        assert!(!Predicate::Lt(s("z")).matches(Some(&i(5))));
        assert!(!Predicate::Ge(i(5)).matches(Some(&s("abc"))));
        // Ne across kinds: the values are not equal, so Ne holds.
        assert!(Predicate::Ne(s("x")).matches(Some(&i(5))));
    }

    #[test]
    fn any_covers_everything() {
        for p in [
            Predicate::Eq(i(1)),
            Predicate::Exists,
            Predicate::Any,
            Predicate::Prefix("a".into()),
            Predicate::Ne(i(1)),
        ] {
            assert!(Predicate::Any.covers(&p), "Any should cover {p:?}");
        }
    }

    #[test]
    fn exists_covers_all_but_any() {
        assert!(Predicate::Exists.covers(&Predicate::Eq(i(1))));
        assert!(Predicate::Exists.covers(&Predicate::Ne(i(1))));
        assert!(Predicate::Exists.covers(&Predicate::Exists));
        assert!(Predicate::Exists.covers(&Predicate::Prefix("a".into())));
        assert!(!Predicate::Exists.covers(&Predicate::Any));
        assert!(!Predicate::Eq(i(1)).covers(&Predicate::Any));
    }

    #[test]
    fn interval_coverings_match_paper_example_2() {
        // f'' = (price, 5.0, >) covers (price, 5.0, >) tightened variants:
        let gt5 = Predicate::Gt(f(5.0));
        let ge45 = Predicate::Ge(f(4.5));
        assert!(ge45.covers(&gt5));
        assert!(!gt5.covers(&ge45));
        // Lt(11) covers Lt(10) but not vice versa (paper g1 over f1).
        assert!(Predicate::Lt(f(11.0)).covers(&Predicate::Lt(f(10.0))));
        assert!(!Predicate::Lt(f(10.0)).covers(&Predicate::Lt(f(11.0))));
        // Boundary inclusivity.
        assert!(Predicate::Le(f(10.0)).covers(&Predicate::Lt(f(10.0))));
        assert!(!Predicate::Lt(f(10.0)).covers(&Predicate::Le(f(10.0))));
        assert!(Predicate::Ge(f(5.0)).covers(&Predicate::Eq(f(5.0))));
        assert!(!Predicate::Gt(f(5.0)).covers(&Predicate::Eq(f(5.0))));
    }

    #[test]
    fn eq_covering() {
        assert!(Predicate::Eq(f(5.0)).covers(&Predicate::Eq(i(5))));
        assert!(!Predicate::Eq(i(5)).covers(&Predicate::Eq(i(6))));
        assert!(!Predicate::Eq(i(5)).covers(&Predicate::Lt(i(5))));
    }

    #[test]
    fn ne_covering_via_complement() {
        assert!(Predicate::Ne(i(7)).covers(&Predicate::Eq(i(5))));
        assert!(!Predicate::Ne(i(5)).covers(&Predicate::Eq(i(5))));
        assert!(Predicate::Ne(i(5)).covers(&Predicate::Ne(i(5))));
        assert!(!Predicate::Ne(i(5)).covers(&Predicate::Ne(i(6))));
        // Ne(10) covers Lt(10) (everything below 10 differs from 10).
        assert!(Predicate::Ne(i(10)).covers(&Predicate::Lt(i(10))));
        assert!(!Predicate::Ne(i(9)).covers(&Predicate::Lt(i(10))));
        // A string disequality covers a numeric range entirely.
        assert!(Predicate::Ne(s("x")).covers(&Predicate::Lt(i(10))));
    }

    #[test]
    fn prefix_covering() {
        assert!(Predicate::Prefix("Fo".into()).covers(&Predicate::Prefix("Foo".into())));
        assert!(!Predicate::Prefix("Foo".into()).covers(&Predicate::Prefix("Fo".into())));
        assert!(Predicate::Prefix("Fo".into()).covers(&Predicate::Eq(s("Foo"))));
        assert!(!Predicate::Prefix("Fo".into()).covers(&Predicate::Eq(s("Bar"))));
        assert!(Predicate::Prefix(String::new()).covers(&Predicate::Prefix("x".into())));
        // Lower string bounds cover prefixes.
        assert!(Predicate::Ge(s("F")).covers(&Predicate::Prefix("Fo".into())));
        assert!(Predicate::Gt(s("E")).covers(&Predicate::Prefix("F".into())));
        assert!(!Predicate::Gt(s("F")).covers(&Predicate::Prefix("F".into())));
        // Upper bounds cannot soundly cover prefixes (extensions unbounded).
        assert!(!Predicate::Lt(s("Fz")).covers(&Predicate::Prefix("Fo".into())));
    }

    #[test]
    fn cross_kind_intervals_never_cover() {
        assert!(!Predicate::Lt(s("z")).covers(&Predicate::Lt(i(10))));
        assert!(!Predicate::Ge(i(0)).covers(&Predicate::Ge(s("a"))));
    }

    #[test]
    fn interval_intersection_and_hull() {
        let (ge5, le10, lt3) = (
            Predicate::Ge(i(5)),
            Predicate::Le(i(10)),
            Predicate::Lt(i(3)),
        );
        let a = Interval::of(&ge5).unwrap();
        let b = Interval::of(&le10).unwrap();
        let band = a.intersect(&b).unwrap();
        assert!(!band.is_empty());
        assert_eq!(
            band.to_predicates(),
            vec![Predicate::Ge(i(5)), Predicate::Le(i(10))]
        );

        let c = Interval::of(&lt3).unwrap();
        assert!(a.intersect(&c).unwrap().is_empty());

        let (lt10, lt11) = (Predicate::Lt(f(10.0)), Predicate::Lt(f(11.0)));
        let h = Interval::of(&lt10)
            .unwrap()
            .hull(&Interval::of(&lt11).unwrap())
            .unwrap();
        assert_eq!(h.to_predicates(), vec![Predicate::Lt(f(11.0))]);
    }

    #[test]
    fn point_interval_renders_as_eq() {
        let (ge5, le5) = (Predicate::Ge(i(5)), Predicate::Le(i(5)));
        let a = Interval::of(&ge5).unwrap();
        let b = Interval::of(&le5).unwrap();
        let point = a.intersect(&b).unwrap();
        assert_eq!(point.to_predicates(), vec![Predicate::Eq(i(5))]);
    }

    #[test]
    fn boundary_inclusivity_in_combine() {
        let (lt5, le5) = (Predicate::Lt(i(5)), Predicate::Le(i(5)));
        let lt = Interval::of(&lt5).unwrap();
        let le = Interval::of(&le5).unwrap();
        assert_eq!(lt.intersect(&le).unwrap(), lt);
        assert_eq!(lt.hull(&le).unwrap(), le);
    }

    #[test]
    fn attr_filter_display_matches_paper() {
        let af = AttrFilter::new("price", Predicate::Lt(f(10.0)));
        assert_eq!(af.to_string(), "(price, 10, <)");
        let af = AttrFilter::new("symbol", Predicate::Any);
        assert_eq!(af.to_string(), "(symbol, \"ALL\", =)");
        assert!(af.is_wildcard());
        let af = AttrFilter::new("volume", Predicate::Exists);
        assert_eq!(af.to_string(), "(volume, ∃)");
    }

    #[test]
    fn in_set_matching_and_covering() {
        let p = Predicate::In(vec![s("DEF"), s("GHI")]);
        assert!(p.matches(Some(&s("DEF"))));
        assert!(p.matches(Some(&s("GHI"))));
        assert!(!p.matches(Some(&s("JKL"))));
        assert!(!p.matches(None));
        // Coverings.
        assert!(p.covers(&Predicate::Eq(s("DEF"))));
        assert!(!p.covers(&Predicate::Eq(s("JKL"))));
        assert!(p.covers(&Predicate::In(vec![s("GHI")])));
        assert!(!p.covers(&Predicate::In(vec![s("GHI"), s("X")])));
        assert!(Predicate::Exists.covers(&p));
        // Numeric sets covered by intervals.
        let nums = Predicate::In(vec![i(1), i(3)]);
        assert!(Predicate::Lt(i(5)).covers(&nums));
        assert!(!Predicate::Lt(i(3)).covers(&nums));
        // Empty set is never covered through the interval path (it matches
        // nothing; conservative false is sound).
        assert!(nums.covers(&nums));
        // Prefix/Contains cover uniform string sets.
        let strs = Predicate::In(vec![s("abc"), s("abd")]);
        assert!(Predicate::Prefix("ab".into()).covers(&strs));
        assert!(Predicate::Contains("b".into()).covers(&strs));
        assert!(!Predicate::Prefix("abc".into()).covers(&strs));
    }

    #[test]
    fn contains_matching() {
        let p = Predicate::Contains("ibu".into());
        assert!(p.matches(Some(&s("distribute"))));
        assert!(!p.matches(Some(&s("central"))));
        assert!(!p.matches(Some(&i(5))));
        assert!(!p.matches(None));
        assert!(Predicate::Contains(String::new()).matches(Some(&s(""))));
    }

    #[test]
    fn contains_covering() {
        let weak = Predicate::Contains("trib".into());
        assert!(weak.covers(&Predicate::Contains("distrib".into())));
        assert!(!weak.covers(&Predicate::Contains("tri".into())));
        assert!(weak.covers(&Predicate::Eq(s("distribute"))));
        assert!(!weak.covers(&Predicate::Eq(s("central"))));
        assert!(weak.covers(&Predicate::Prefix("distrib".into())));
        assert!(!weak.covers(&Predicate::Prefix("dist".into())));
        // Prefix never covers Contains (a containing string need not start
        // with anything in particular).
        assert!(!Predicate::Prefix("dis".into()).covers(&Predicate::Contains("dis".into())));
        // But Exists and Any do.
        assert!(Predicate::Exists.covers(&Predicate::Contains("x".into())));
        assert!(Predicate::Any.covers(&Predicate::Contains("x".into())));
        // Intervals cannot bound substrings.
        assert!(!Predicate::Ge(s("a")).covers(&Predicate::Contains("b".into())));
    }

    #[test]
    fn covering_is_reflexive_on_samples() {
        for p in [
            Predicate::Eq(i(1)),
            Predicate::Ne(i(1)),
            Predicate::Lt(f(2.0)),
            Predicate::Le(f(2.0)),
            Predicate::Gt(s("a")),
            Predicate::Ge(s("a")),
            Predicate::Prefix("ab".into()),
            Predicate::Contains("ab".into()),
            Predicate::Exists,
            Predicate::Any,
        ] {
            assert!(p.covers(&p), "{p:?} should cover itself");
        }
    }
}
