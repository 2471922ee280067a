//! Conjunction filters with an optional event-class constraint.

use std::fmt;

use layercake_event::{AttrId, AttrValue, ClassId, Envelope, EventData, TypeRegistry};
use serde::{Deserialize, Serialize};

use crate::cover::filter_covers;
use crate::predicate::{AttrFilter, Predicate};

/// Identifier of a subscription filter instance.
///
/// Several brokers may store (weakened forms of) the same subscription; the
/// id ties them together for renewal and removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FilterId(pub u64);

impl fmt::Display for FilterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "filter#{}", self.0)
    }
}

/// A subscription filter: an optional class constraint (type-based
/// filtering, subtype-inclusive) plus a conjunction of attribute
/// constraints.
///
/// This realizes the paper's Definition 1: a function from events to
/// booleans, in the concrete filter language of name-value-operator tuples
/// with a distinguished `class` attribute, e.g.
/// `f = (class, "Stock", =) (symbol, "Foo", =) (price, 10.0, <)`.
///
/// `Filter` values are immutable once built; the builder-style methods
/// consume and return the filter so one-liners read like the paper's
/// notation:
///
/// ```
/// use layercake_filter::Filter;
/// use layercake_event::ClassId;
///
/// let f = Filter::for_class(ClassId(0))
///     .eq("symbol", "Foo")
///     .lt("price", 10.0);
/// assert_eq!(f.constraints().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Filter {
    class: Option<ClassId>,
    constraints: Vec<AttrFilter>,
}

impl Filter {
    /// The filter `f_T` that matches every event (no class constraint, no
    /// attribute constraints).
    #[must_use]
    pub fn any() -> Self {
        Self {
            class: None,
            constraints: Vec::new(),
        }
    }

    /// A filter constrained to an event class and its subclasses.
    #[must_use]
    pub fn for_class(class: ClassId) -> Self {
        Self {
            class: Some(class),
            constraints: Vec::new(),
        }
    }

    /// Adds an arbitrary attribute constraint.
    #[must_use]
    pub fn with(mut self, constraint: AttrFilter) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds an equality constraint.
    #[must_use]
    pub fn eq(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Eq(value.into())))
    }

    /// Adds a disequality constraint.
    #[must_use]
    pub fn ne(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Ne(value.into())))
    }

    /// Adds a strict less-than constraint.
    #[must_use]
    pub fn lt(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Lt(value.into())))
    }

    /// Adds a less-than-or-equal constraint.
    #[must_use]
    pub fn le(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Le(value.into())))
    }

    /// Adds a strict greater-than constraint.
    #[must_use]
    pub fn gt(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Gt(value.into())))
    }

    /// Adds a greater-than-or-equal constraint.
    #[must_use]
    pub fn ge(self, name: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Ge(value.into())))
    }

    /// Adds a string-prefix constraint.
    #[must_use]
    pub fn prefix(self, name: impl Into<String>, prefix: impl Into<String>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Prefix(prefix.into())))
    }

    /// Adds a substring constraint.
    #[must_use]
    pub fn contains(self, name: impl Into<String>, needle: impl Into<String>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Contains(needle.into())))
    }

    /// Adds a value-set constraint (the attribute must equal one of the
    /// given values).
    #[must_use]
    pub fn in_set<V: Into<AttrValue>>(
        self,
        name: impl Into<String>,
        values: impl IntoIterator<Item = V>,
    ) -> Self {
        self.with(AttrFilter::new(
            name,
            Predicate::In(values.into_iter().map(Into::into).collect()),
        ))
    }

    /// Adds a presence constraint (`(name, ∃)`).
    #[must_use]
    pub fn exists(self, name: impl Into<String>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Exists))
    }

    /// Adds a wildcard constraint (`(name, "ALL", =)`, Section 4.4).
    #[must_use]
    pub fn wildcard(self, name: impl Into<String>) -> Self {
        self.with(AttrFilter::new(name, Predicate::Any))
    }

    /// The class constraint, if any.
    #[must_use]
    pub fn class(&self) -> Option<ClassId> {
        self.class
    }

    /// Replaces the class constraint.
    #[must_use]
    pub fn with_class(mut self, class: Option<ClassId>) -> Self {
        self.class = class;
        self
    }

    /// The attribute constraints, in insertion (schema) order.
    #[must_use]
    pub fn constraints(&self) -> &[AttrFilter] {
        &self.constraints
    }

    /// Iterates over the constraints on a given attribute.
    pub fn constraints_on<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a AttrFilter> {
        // A name that was never interned cannot appear in any constraint.
        AttrId::lookup(name)
            .into_iter()
            .flat_map(|id| self.constraints_on_id(id))
    }

    /// [`constraints_on`](Filter::constraints_on) for an attribute whose
    /// interned id is at hand: no name lookup, so this is the form covering
    /// checks and the matching indexes use.
    pub fn constraints_on_id(&self, id: AttrId) -> impl Iterator<Item = &AttrFilter> + Clone {
        self.constraints.iter().filter(move |c| c.id() == id)
    }

    /// Whether this filter has neither class nor non-wildcard attribute
    /// constraints (i.e. behaves like `f_T`).
    #[must_use]
    pub fn is_match_all(&self) -> bool {
        self.class.is_none() && self.constraints.iter().all(AttrFilter::is_wildcard)
    }

    /// The wildcard constraints of this filter, in order (Section 4.4's set
    /// `C`).
    pub fn wildcard_constraints(&self) -> impl Iterator<Item = &AttrFilter> {
        self.constraints.iter().filter(|c| c.is_wildcard())
    }

    /// Evaluates the attribute constraints against event meta-data,
    /// ignoring the class constraint.
    #[must_use]
    pub fn matches_meta(&self, meta: &EventData) -> bool {
        self.constraints
            .iter()
            .all(|c| c.predicate().matches(meta.get_id(c.id())))
    }

    /// Evaluates the full filter: the event's class must be a subtype of the
    /// filter's class (if constrained) and all attribute constraints must
    /// hold.
    #[must_use]
    pub fn matches(&self, class: ClassId, meta: &EventData, registry: &TypeRegistry) -> bool {
        self.matches_class(class, registry) && self.matches_meta(meta)
    }

    /// Evaluates only the class constraint.
    #[must_use]
    pub fn matches_class(&self, class: ClassId, registry: &TypeRegistry) -> bool {
        match self.class {
            None => true,
            Some(want) => registry.is_subtype(class, want),
        }
    }

    /// Evaluates the filter against an event envelope's routing meta-data.
    #[must_use]
    pub fn matches_envelope(&self, env: &Envelope, registry: &TypeRegistry) -> bool {
        self.matches(env.class(), env.meta(), registry)
    }

    /// Whether this filter covers `other` (Definition 2): every event
    /// matched by `other` is matched by `self`. Sound and conservative —
    /// see the crate docs.
    #[must_use]
    pub fn covers(&self, other: &Filter, registry: &TypeRegistry) -> bool {
        filter_covers(self, other, registry)
    }

    /// A canonical form with constraints sorted by attribute name (stable,
    /// preserving the relative order of same-attribute constraints), for use
    /// as a deduplication key in filter tables.
    #[must_use]
    pub fn normalized(&self) -> Filter {
        let mut constraints = self.constraints.clone();
        constraints.sort_by(|a, b| a.name().cmp(b.name()));
        Filter {
            class: self.class,
            constraints,
        }
    }

    /// Renders the filter with the class resolved to its name.
    #[must_use]
    pub fn display_with(&self, registry: &TypeRegistry) -> String {
        let mut out = String::new();
        if let Some(id) = self.class {
            let name = registry
                .class(id)
                .map_or_else(|| id.to_string(), |c| c.name().to_owned());
            out.push_str(&format!("(class, {name:?}, =)"));
        }
        for c in &self.constraints {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&c.to_string());
        }
        if out.is_empty() {
            out.push_str("(true)");
        }
        out
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if let Some(id) = self.class {
            write!(f, "(class, {}, =)", id.0)?;
            first = false;
        }
        for c in &self.constraints {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        if first {
            f.write_str("(true)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::event_data;

    #[test]
    fn example_1_matching() {
        let e1 = event_data! { "symbol" => "Foo", "price" => 10.0, "volume" => 32_300 };
        let e2 = event_data! { "symbol" => "Bar", "price" => 15.0, "volume" => 25_600 };
        let f = Filter::any().eq("symbol", "Foo").gt("price", 5.0);
        assert!(f.matches_meta(&e1));
        assert!(!f.matches_meta(&e2));
    }

    #[test]
    fn class_constraint_with_subtyping() {
        let mut r = TypeRegistry::new();
        let base = r.register("Quote", None, vec![]).unwrap();
        let stock = r.register("Stock", Some("Quote"), vec![]).unwrap();
        let f = Filter::for_class(base);
        let meta = EventData::new();
        assert!(f.matches(stock, &meta, &r));
        assert!(f.matches(base, &meta, &r));
        let g = Filter::for_class(stock);
        assert!(!g.matches(base, &meta, &r));
    }

    #[test]
    fn match_all_detection() {
        assert!(Filter::any().is_match_all());
        assert!(Filter::any().wildcard("a").is_match_all());
        assert!(!Filter::any().eq("a", 1).is_match_all());
        assert!(!Filter::for_class(ClassId(0)).is_match_all());
    }

    #[test]
    fn missing_attribute_fails_non_wildcards() {
        let meta = event_data! { "symbol" => "Foo" };
        assert!(!Filter::any().eq("price", 10.0).matches_meta(&meta));
        assert!(!Filter::any().exists("price").matches_meta(&meta));
        assert!(Filter::any().wildcard("price").matches_meta(&meta));
    }

    #[test]
    fn conjunction_requires_all() {
        let meta = event_data! { "symbol" => "Foo", "price" => 10.0 };
        let f = Filter::any().eq("symbol", "Foo").lt("price", 5.0);
        assert!(!f.matches_meta(&meta));
        let g = Filter::any().eq("symbol", "Foo").lt("price", 15.0);
        assert!(g.matches_meta(&meta));
    }

    #[test]
    fn multiple_constraints_on_same_attribute() {
        let meta = event_data! { "price" => 7.0 };
        let band = Filter::any().ge("price", 5.0).le("price", 10.0);
        assert!(band.matches_meta(&meta));
        let empty = Filter::any().ge("price", 10.0).le("price", 5.0);
        assert!(!empty.matches_meta(&meta));
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = Filter::any().eq("symbol", "Foo").gt("price", 5.0);
        assert_eq!(f.to_string(), "(symbol, \"Foo\", =) (price, 5, >)");
        assert_eq!(Filter::any().to_string(), "(true)");
        let g = Filter::for_class(ClassId(3)).lt("price", 10.0);
        assert_eq!(g.to_string(), "(class, 3, =) (price, 10, <)");
    }

    #[test]
    fn display_with_registry_resolves_class_names() {
        let mut r = TypeRegistry::new();
        let stock = r.register("Stock", None, vec![]).unwrap();
        let f = Filter::for_class(stock).eq("symbol", "Foo");
        assert_eq!(
            f.display_with(&r),
            "(class, \"Stock\", =) (symbol, \"Foo\", =)"
        );
    }

    #[test]
    fn normalized_is_order_insensitive() {
        let a = Filter::any().eq("b", 1).eq("a", 2);
        let b = Filter::any().eq("a", 2).eq("b", 1);
        assert_ne!(a, b);
        assert_eq!(a.normalized(), b.normalized());
    }

    #[test]
    fn serde_round_trip() {
        let f = Filter::for_class(ClassId(1))
            .eq("symbol", "Foo")
            .lt("price", 10.0);
        let s = serde_json::to_string(&f).unwrap();
        let back: Filter = serde_json::from_str(&s).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn wildcard_constraints_iterator() {
        let f = Filter::any().eq("a", 1).wildcard("b").wildcard("c");
        let names: Vec<_> = f
            .wildcard_constraints()
            .map(|c| c.name().to_owned())
            .collect();
        assert_eq!(names, ["b", "c"]);
    }
}
