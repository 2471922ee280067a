//! Every `FilterTable` operation against a linear reference.
//!
//! The indexed strategies answer the covering search, removal and matching
//! from one predicate index; `Reference` below answers them the way the
//! table did before it had one — a vector of entries, scanned. Random
//! populations and random interleavings of inserts and removals must leave
//! all three [`IndexKind`]s indistinguishable from it: the same entries in
//! the same order, the same cover for every probe *including which of
//! several covering entries wins*, the same matches for every event.
//!
//! The value pool is chosen to hit the places where the index keys
//! predicates differently from how they compare: `Int` against `Float`,
//! `-0.0` against `0.0`, NaN (which equals nothing and so has no equality
//! group), and several constraints on one attribute, whose conjunction only
//! the interval rule can judge.

use layercake_event::{AttrValue, ClassId, EventData, TypeRegistry};
use layercake_filter::{AttrFilter, DestId, Filter, FilterTable, IndexKind, Predicate};
use proptest::prelude::*;

const KINDS: [IndexKind; 3] = [IndexKind::Naive, IndexKind::Counting, IndexKind::Compiled];
const ATTRS: &[&str] = &["tbl-a", "tbl-b", "tbl-c"];
const STRINGS: &[&str] = &["", "x", "xy", "xyz", "y"];

fn arb_value() -> impl Strategy<Value = AttrValue> {
    prop_oneof![
        (-2i64..=2).prop_map(AttrValue::Int),
        (-4i32..=4).prop_map(|i| AttrValue::Float(f64::from(i) * 0.5)),
        Just(AttrValue::Float(-0.0)),
        Just(AttrValue::Float(f64::NAN)),
        proptest::sample::select(STRINGS).prop_map(AttrValue::from),
        any::<bool>().prop_map(AttrValue::Bool),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        // Equalities and bounds twice over: they are what covers and bands
        // are made of.
        arb_value().prop_map(Predicate::Eq),
        arb_value().prop_map(Predicate::Eq),
        arb_value().prop_map(Predicate::Le),
        arb_value().prop_map(Predicate::Ge),
        arb_value().prop_map(Predicate::Lt),
        arb_value().prop_map(Predicate::Gt),
        arb_value().prop_map(Predicate::Ne),
        proptest::collection::vec(arb_value(), 0..3).prop_map(Predicate::In),
        proptest::sample::select(STRINGS).prop_map(|s| Predicate::Prefix(s.to_owned())),
        proptest::sample::select(STRINGS).prop_map(|s| Predicate::Contains(s.to_owned())),
        Just(Predicate::Exists),
        Just(Predicate::Any),
    ]
}

/// 0..=3 constraints over three attributes, drawn with replacement (so
/// repeated-attribute bands are common), on no class, the base class or its
/// subclass.
fn arb_filter() -> impl Strategy<Value = (Vec<(&'static str, Predicate)>, u8)> {
    (
        proptest::collection::vec((proptest::sample::select(ATTRS), arb_predicate()), 0..4),
        0u8..3,
    )
}

fn arb_event() -> impl Strategy<Value = (Vec<(&'static str, AttrValue)>, bool)> {
    (
        proptest::collection::vec((proptest::sample::select(ATTRS), arb_value()), 0..4),
        any::<bool>(),
    )
}

struct World {
    registry: TypeRegistry,
    base: ClassId,
    sub: ClassId,
}

impl World {
    fn new() -> Self {
        let mut registry = TypeRegistry::new();
        let base = registry.register("TblBase", None, vec![]).unwrap();
        let sub = registry
            .register("TblSub", Some("TblBase"), vec![])
            .unwrap();
        Self {
            registry,
            base,
            sub,
        }
    }

    fn filter(&self, (constraints, class): &(Vec<(&'static str, Predicate)>, u8)) -> Filter {
        let mut f = Filter::any().with_class(match class {
            0 => None,
            1 => Some(self.base),
            _ => Some(self.sub),
        });
        for (name, pred) in constraints {
            f = f.with(AttrFilter::new(*name, pred.clone()));
        }
        f
    }

    fn event(
        &self,
        (attrs, publish_sub): &(Vec<(&'static str, AttrValue)>, bool),
    ) -> (ClassId, EventData) {
        let mut meta = EventData::new();
        for (name, value) in attrs {
            meta.insert(*name, value.clone());
        }
        (if *publish_sub { self.sub } else { self.base }, meta)
    }
}

/// The table as a scanned vector: every operation as `FilterTable` performed
/// it before it kept an index.
#[derive(Default)]
struct Reference {
    entries: Vec<(Filter, Vec<DestId>)>,
}

/// Whether two filters are one entry. The table keys entries by a hash map
/// that hashes floats by bit pattern and compares them with `==`, so `0.0`
/// and `-0.0` are two keys and a filter holding NaN is never found again.
fn same_key(a: &Filter, b: &Filter) -> bool {
    let (a, b) = (a.normalized(), b.normalized());
    a == b && show(&a) == show(&b)
}

impl Reference {
    fn insert(&mut self, filter: Filter, dest: DestId) -> bool {
        if let Some((_, dests)) = self.entries.iter_mut().find(|(f, _)| same_key(f, &filter)) {
            if !dests.contains(&dest) {
                dests.push(dest);
            }
            return false;
        }
        self.entries.push((filter, vec![dest]));
        true
    }

    fn drop_pair(&mut self, idx: usize, dest: DestId) {
        self.entries[idx].1.retain(|d| *d != dest);
        if self.entries[idx].1.is_empty() {
            self.entries.remove(idx);
        }
    }

    fn remove(&mut self, filter: &Filter, dest: DestId) -> bool {
        let found = self
            .entries
            .iter()
            .position(|(f, ds)| same_key(f, filter) && ds.contains(&dest));
        found.map(|idx| self.drop_pair(idx, dest)).is_some()
    }

    fn remove_covering(&mut self, filter: &Filter, dest: DestId, r: &TypeRegistry) -> bool {
        let found = self
            .entries
            .iter()
            .position(|(f, ds)| ds.contains(&dest) && f.covers(filter, r));
        found.map(|idx| self.drop_pair(idx, dest)).is_some()
    }

    fn remove_dest(&mut self, dest: DestId) -> usize {
        let before: usize = self.entries.iter().map(|(_, ds)| ds.len()).sum();
        for (_, ds) in &mut self.entries {
            ds.retain(|d| *d != dest);
        }
        self.entries.retain(|(_, ds)| !ds.is_empty());
        before - self.entries.iter().map(|(_, ds)| ds.len()).sum::<usize>()
    }

    fn find_cover(&self, f: &Filter, r: &TypeRegistry) -> Option<(Filter, Vec<DestId>)> {
        let mut best: Option<&(Filter, Vec<DestId>)> = None;
        for e in &self.entries {
            if e.0.covers(f, r) && best.is_none_or(|b| b.0.covers(&e.0, r)) {
                best = Some(e);
            }
        }
        best.cloned()
    }

    fn matches(&self, class: ClassId, meta: &EventData, r: &TypeRegistry) -> Vec<DestId> {
        let mut out: Vec<DestId> = self
            .entries
            .iter()
            .filter(|(f, _)| f.matches(class, meta, r))
            .flat_map(|(_, ds)| ds.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// One step of an interleaving; `pick` chooses among the filters inserted so
/// far, so removals mostly name pairs that exist.
#[derive(Debug, Clone)]
enum Op {
    Insert((Vec<(&'static str, Predicate)>, u8), u64),
    Remove(usize, u64),
    RemoveCovering(usize, u64),
    RemoveDest(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_filter(), 0u64..4).prop_map(|(f, d)| Op::Insert(f, d)),
        (arb_filter(), 0u64..4).prop_map(|(f, d)| Op::Insert(f, d)),
        (arb_filter(), 0u64..4).prop_map(|(f, d)| Op::Insert(f, d)),
        (0usize..64, 0u64..4).prop_map(|(i, d)| Op::Remove(i, d)),
        (0usize..64, 0u64..4).prop_map(|(i, d)| Op::RemoveCovering(i, d)),
        (0u64..4).prop_map(Op::RemoveDest),
    ]
}

/// Comparisons go through the rendering: a filter holding NaN is not `==`
/// to itself.
fn show<T: std::fmt::Debug>(value: T) -> String {
    format!("{value:?}")
}

fn entries_of(t: &FilterTable) -> Vec<(Filter, Vec<DestId>)> {
    t.iter().map(|(f, ds)| (f.clone(), ds.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// (a) and (b): after every step of a random interleaving the three
    /// strategies hold the reference's entries in its order, name the
    /// reference's cover — the same entry, not merely some cover — for every
    /// probe, and match every event as the reference and as a table built
    /// afresh from the surviving entries do.
    #[test]
    fn every_strategy_tracks_the_linear_reference(
        ops in proptest::collection::vec(arb_op(), 1..40),
        probes in proptest::collection::vec(arb_filter(), 1..6),
        events in proptest::collection::vec(arb_event(), 1..4),
    ) {
        let w = World::new();
        let r = &w.registry;
        let mut reference = Reference::default();
        let mut tables = KINDS.map(FilterTable::new);
        let mut inserted: Vec<Filter> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert(f, d) => {
                    let f = w.filter(f);
                    inserted.push(f.clone());
                    let created = reference.insert(f.clone(), DestId(*d));
                    for t in &mut tables {
                        prop_assert_eq!(t.insert(f.clone(), DestId(*d)), created);
                    }
                }
                Op::Remove(pick, d) if !inserted.is_empty() => {
                    let f = &inserted[pick % inserted.len()];
                    let removed = reference.remove(f, DestId(*d));
                    for t in &mut tables {
                        prop_assert_eq!(t.remove(f, DestId(*d)), removed, "{:?}", t.kind());
                    }
                }
                Op::RemoveCovering(pick, d) if !inserted.is_empty() => {
                    let f = &inserted[pick % inserted.len()];
                    let removed = reference.remove_covering(f, DestId(*d), r);
                    for t in &mut tables {
                        prop_assert_eq!(
                            t.remove_covering(f, DestId(*d), r), removed, "{:?}", t.kind()
                        );
                    }
                }
                Op::RemoveDest(d) => {
                    let removed = reference.remove_dest(DestId(*d));
                    for t in &mut tables {
                        prop_assert_eq!(t.remove_dest(DestId(*d)), removed, "{:?}", t.kind());
                    }
                }
                Op::Remove(..) | Op::RemoveCovering(..) => {}
            }
            for t in &mut tables {
                let kind = t.kind();
                // Which entry a removal hit shows here: same entries, same
                // id-lists, same order.
                prop_assert_eq!(
                    show(entries_of(t)), show(&reference.entries), "{:?} after {:?}", kind, op
                );
                prop_assert_eq!(t.filter_count(), reference.entries.len());
                for probe in probes.iter().map(|p| w.filter(p)).chain(inserted.iter().cloned()) {
                    let found = t.find_cover(&probe, r).map(|(f, ds)| (f.clone(), ds.to_vec()));
                    prop_assert_eq!(
                        show(found), show(reference.find_cover(&probe, r)),
                        "{:?} cover of {} after {:?}", kind, probe, op
                    );
                    let all: Vec<Filter> =
                        t.covers_of(&probe, r).into_iter().map(|(f, _)| f.clone()).collect();
                    let want: Vec<Filter> = reference
                        .entries
                        .iter()
                        .filter(|(f, _)| f.covers(&probe, r))
                        .map(|(f, _)| f.clone())
                        .collect();
                    prop_assert_eq!(show(all), show(want), "{:?} covers of {}", kind, probe);
                }
                let mut fresh = FilterTable::new(kind);
                for (f, ds) in &reference.entries {
                    for d in ds {
                        fresh.insert(f.clone(), *d);
                    }
                }
                for (class, meta) in events.iter().map(|e| w.event(e)) {
                    let want = reference.matches(class, &meta, r);
                    let (mut got, mut rebuilt) = (Vec::new(), Vec::new());
                    t.matches(class, &meta, r, &mut got);
                    fresh.matches(class, &meta, r, &mut rebuilt);
                    prop_assert_eq!(&got, &want, "{:?} on {} after {:?}", kind, meta, op);
                    prop_assert_eq!(&rebuilt, &want, "fresh {:?} on {}", kind, meta);
                    prop_assert_eq!(t.matches_any(class, &meta, r), !want.is_empty());
                }
            }
        }
    }

    /// What an aggregation root takes over: every entry `covered_by` names
    /// is covered, in entry order; the scan names all of them, and the
    /// indexed strategies all of those repeating one of the filter's
    /// equality constants.
    #[test]
    fn covered_by_is_sound_and_finds_shared_equalities(
        filters in proptest::collection::vec(arb_filter(), 1..16),
        probe in arb_filter(),
    ) {
        let w = World::new();
        let r = &w.registry;
        let probe = w.filter(&probe);
        let mut reference = Reference::default();
        let mut tables = KINDS.map(FilterTable::new);
        for f in filters.iter().map(|f| w.filter(f)) {
            reference.insert(f.clone(), DestId(0));
            for t in &mut tables {
                t.insert(f.clone(), DestId(0));
            }
        }
        let covered: Vec<&Filter> = reference
            .entries
            .iter()
            .map(|(f, _)| f)
            .filter(|f| probe.covers(f, r))
            .collect();
        let covered_shown: Vec<String> = covered.iter().map(show).collect();
        let equalities: Vec<&AttrFilter> = probe
            .constraints()
            .iter()
            .filter(|c| matches!(c.predicate(), Predicate::Eq(_)))
            .collect();
        let repeats_every_equality = |f: &Filter| {
            equalities.iter().all(|c| {
                f.constraints_on_id(c.id()).any(|x| match (x.predicate(), c.predicate()) {
                    (Predicate::Eq(a), Predicate::Eq(b)) => a.value_eq(b),
                    _ => false,
                })
            })
        };
        for t in &tables {
            let got: Vec<String> =
                t.covered_by(&probe, r).into_iter().map(|(f, _)| show(f)).collect();
            let mut rest = covered_shown.iter();
            for f in &got {
                prop_assert!(rest.any(|c| c == f), "{:?}: {} out of order or not covered", t.kind(), f);
            }
            for (f, shown) in covered.iter().zip(&covered_shown) {
                if t.kind() == IndexKind::Naive || repeats_every_equality(f) {
                    prop_assert!(got.contains(shown), "{:?} missed {} under {}", t.kind(), f, probe);
                }
            }
        }
    }
}
