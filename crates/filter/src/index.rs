//! Per-node filter tables and their matching index.
//!
//! The paper's Figure 6 keeps, at every node, a table of
//! `<filter, id-list>` pairs and evaluates each incoming event against every
//! filter. It notes that "efficient indexing and matching techniques can be
//! used" but leaves them out of scope; every [`FilterTable`] here runs one
//! such technique, a predicate **counting index** in the style of
//! Gryphon/Siena/Le Subscribe: identical predicates across filters are
//! evaluated once per event, and a filter fires when all of its predicates
//! have been counted. Equality predicates — by far the most common shape in
//! content-based workloads — are *compiled* into a per-attribute table
//! sorted by value, so the cost of an attribute with `k` distinct equality
//! constants is one binary search (`O(log k)`) instead of `k` predicate
//! evaluations.
//!
//! The index keys predicate groups by interned
//! [`AttrId`](layercake_event::AttrId)s in a dense vector, so dispatching an
//! event attribute to its groups is an array index, with no string hashing
//! on the hot path.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

use layercake_event::{AttrValue, ClassId, EventData, TypeRegistry};
use serde::{Deserialize, Serialize};

use crate::cover::{class_covers, implied_by};
use crate::filter::Filter;
use crate::predicate::{AttrFilter, Predicate};

/// Destination of a forwarded event: a child node or a local subscriber,
/// as assigned by the overlay layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DestId(pub u64);

impl fmt::Display for DestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dest#{}", self.0)
    }
}

/// The matching strategy of a [`FilterTable`], of which there is one. The
/// type survives only because `benchmark/src/sut.rs` passes
/// `OverlayConfig::default().index` to [`FilterTable::new`] and
/// [`AggTable::new`](crate::AggTable::new), and the benchmark changes only
/// on its own; the benchmark change that stops passing it deletes the type,
/// both parameters and the `OverlayConfig` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// The counting index with equality predicates compiled into sorted
    /// per-attribute tables resolved by binary search.
    #[default]
    Compiled,
}

#[derive(Debug, Clone)]
struct Entry {
    filter: Filter,
    dests: Vec<DestId>,
    /// Position in the table's entry order (see [`FilterTable::order`]).
    seq: u64,
}

/// A node's `<filter, id-list>` table (Figure 6), matched through a
/// counting index.
///
/// Inserting an existing filter (up to constraint reordering) for a new
/// destination extends the id-list instead of duplicating the filter, as in
/// the paper's insertion algorithm.
///
/// Every operation is answered from the one index the table maintains:
/// matching, the covering search of subscription placement
/// ([`find_cover`](FilterTable::find_cover)) and removal, which un-indexes
/// the one entry it drops. The tests hold it to a linear scan of the stored
/// filters, the paper's Figure 6 algorithm.
///
/// # Example
///
/// ```
/// use layercake_event::{event_data, TypeRegistry, ClassId};
/// use layercake_filter::{Filter, FilterTable, DestId};
///
/// let registry = TypeRegistry::new();
/// let mut table = FilterTable::default();
/// table.insert(Filter::any().eq("symbol", "Foo"), DestId(1));
/// table.insert(Filter::any().gt("price", 5.0), DestId(2));
///
/// let meta = event_data! { "symbol" => "Foo", "price" => 10.0 };
/// let mut out = Vec::new();
/// table.matches(ClassId(0), &meta, &registry, &mut out);
/// out.sort();
/// assert_eq!(out, vec![DestId(1), DestId(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FilterTable {
    /// Entries by slot. A slot is the entry's number in `counting`; a
    /// removed entry's slot is reused, so the vector is as long as the table
    /// was at its largest.
    entries: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// Insertion sequence number → slot: the table's *entry order*, which
    /// iteration follows and which decides ties in
    /// [`find_cover`](FilterTable::find_cover). Slots alone cannot give it,
    /// since they are reused.
    order: BTreeMap<u64, u32>,
    next_seq: u64,
    /// Normalized filter → slot, for O(1) insert-time dedup.
    by_key: HashMap<Filter, u32>,
    counting: CountingIndex,
    /// Reused per-event buffer of matched slots, so the counting path does
    /// not allocate per event.
    slot_scratch: Vec<u32>,
}

impl FilterTable {
    /// Creates an empty table; the same as [`FilterTable::default`].
    #[must_use]
    pub fn new(_index: IndexKind) -> Self {
        Self::default()
    }

    fn entry(&self, slot: u32) -> &Entry {
        self.entries[slot as usize]
            .as_ref()
            .expect("slot of a stored entry")
    }

    /// The stored entries in entry order (insertion order of the filters
    /// still present).
    fn ordered(&self) -> impl Iterator<Item = &Entry> {
        self.order.values().map(|&slot| self.entry(slot))
    }

    /// Inserts a `<filter, id>` pair. Returns `true` when this created a new
    /// filter entry (as opposed to extending an existing id-list).
    pub fn insert(&mut self, filter: Filter, dest: DestId) -> bool {
        let key = filter.normalized();
        if let Some(&slot) = self.by_key.get(&key) {
            let entry = self.entries[slot as usize]
                .as_mut()
                .expect("slot of a stored entry");
            if !entry.dests.contains(&dest) {
                entry.dests.push(dest);
            }
            return false;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            u32::try_from(self.entries.len() - 1).expect("filter table fits in u32")
        });
        self.counting.add(slot, &filter);
        self.by_key.insert(key, slot);
        self.order.insert(self.next_seq, slot);
        self.entries[slot as usize] = Some(Entry {
            filter,
            dests: vec![dest],
            seq: self.next_seq,
        });
        self.next_seq += 1;
        true
    }

    /// Removes `dest` from the id-list of the entry in `slot` (which must
    /// list it); the entry leaves the table, and the index, when its id-list
    /// empties. Nothing else in the table is touched. `key` is the entry's
    /// normalized filter, when the caller has it at hand.
    fn remove_pair(&mut self, slot: u32, dest: DestId, key: Option<Filter>) {
        let entry = self.entries[slot as usize]
            .as_mut()
            .expect("slot of a stored entry");
        entry.dests.retain(|d| *d != dest);
        if !entry.dests.is_empty() {
            return;
        }
        let entry = self.entries[slot as usize].take().expect("checked above");
        self.counting.remove(slot, &entry.filter);
        self.by_key
            .remove(&key.unwrap_or_else(|| entry.filter.normalized()));
        self.order.remove(&entry.seq);
        self.free.push(slot);
    }

    /// Removes a destination from a filter's id-list; the entry disappears
    /// when its id-list empties. Returns `true` if the pair existed.
    pub fn remove(&mut self, filter: &Filter, dest: DestId) -> bool {
        let key = filter.normalized();
        let Some(&slot) = self.by_key.get(&key) else {
            return false;
        };
        if !self.entry(slot).dests.contains(&dest) {
            return false;
        }
        self.remove_pair(slot, dest, Some(key));
        true
    }

    /// Removes a destination from every entry (e.g. on lease expiry of a
    /// child), dropping entries whose id-lists empty. Returns the number of
    /// pairs removed.
    pub fn remove_dest(&mut self, dest: DestId) -> usize {
        let holders: Vec<u32> = (0u32..)
            .zip(&self.entries)
            .filter(|(_, e)| e.as_ref().is_some_and(|e| e.dests.contains(&dest)))
            .map(|(slot, _)| slot)
            .collect();
        for &slot in &holders {
            self.remove_pair(slot, dest, None);
        }
        holders.len()
    }

    /// Collects the destinations of all filters matching the event, without
    /// duplicates, in ascending [`DestId`] order. (`&mut self` because the
    /// index keeps per-call scratch state.)
    pub fn matches(
        &mut self,
        class: ClassId,
        meta: &EventData,
        registry: &TypeRegistry,
        out: &mut Vec<DestId>,
    ) {
        out.clear();
        let mut slots = std::mem::take(&mut self.slot_scratch);
        self.counting.matches(class, meta, registry, &mut slots);
        for &slot in &slots {
            out.extend_from_slice(&self.entry(slot).dests);
        }
        self.slot_scratch = slots;
        out.sort_unstable();
        out.dedup();
    }

    /// Whether any stored filter matches the event, stopping at the first
    /// hit instead of computing the full destination set. This is the
    /// neighbor-forwarding question the mesh hot path asks per link, and the
    /// one a subscriber asks of its branches for every delivery.
    pub fn matches_any(
        &mut self,
        class: ClassId,
        meta: &EventData,
        registry: &TypeRegistry,
    ) -> bool {
        // Entries never have empty id-lists, so a matching filter implies a
        // destination.
        self.counting.matches_any(class, meta, registry)
    }

    /// The slots of the entries whose filter covers `f`, in entry order.
    fn cover_slots(&mut self, f: &Filter, registry: &TypeRegistry) -> Vec<u32> {
        let mut slots = Vec::new();
        self.counting.covers_of(f, registry, &mut slots);
        slots.sort_unstable_by_key(|&slot| self.entry(slot).seq);
        slots
    }

    /// Every stored entry whose filter covers `f`, in entry order.
    /// (`&mut self` for the same reason as [`matches`](FilterTable::matches).)
    pub fn covers_of(&mut self, f: &Filter, registry: &TypeRegistry) -> Vec<(&Filter, &[DestId])> {
        self.cover_slots(f, registry)
            .into_iter()
            .map(|slot| {
                let e = self.entry(slot);
                (&e.filter, e.dests.as_slice())
            })
            .collect()
    }

    /// Finds the *strongest* stored filter covering `f`, along with its
    /// id-list — the search step of the subscription placement algorithm
    /// (Figure 5(b)). Among covering candidates, taken in entry order, a
    /// candidate covered by all previously seen candidates wins.
    pub fn find_cover(
        &mut self,
        f: &Filter,
        registry: &TypeRegistry,
    ) -> Option<(&Filter, &[DestId])> {
        let mut best: Option<u32> = None;
        for slot in self.cover_slots(f, registry) {
            let better = match best {
                None => true,
                Some(b) => self
                    .entry(b)
                    .filter
                    .covers(&self.entry(slot).filter, registry),
            };
            if better {
                best = Some(slot);
            }
        }
        best.map(|slot| {
            let e = self.entry(slot);
            (&e.filter, e.dests.as_slice())
        })
    }

    /// Stored entries whose filter is covered by `f`, in entry order — what
    /// a new aggregation root takes over. Sound, and deliberately not
    /// exhaustive: when `f` carries equality constraints only the entries
    /// repeating one of them are examined (every entry when it carries
    /// none), so an entry that pins the same value another way
    /// (`x ≥ 5 ∧ x ≤ 5` under `x = 5`) is missed. A miss leaves two entries
    /// where one would do; it never loses a match.
    #[must_use]
    pub fn covered_by(&self, f: &Filter, registry: &TypeRegistry) -> Vec<(&Filter, &[DestId])> {
        let mut found: Vec<&Entry> = match self.counting.sharing_an_equality(f) {
            Some(slots) => slots.into_iter().map(|slot| self.entry(slot)).collect(),
            None => self.entries.iter().flatten().collect(),
        };
        found.retain(|e| f.covers(&e.filter, registry));
        found.sort_unstable_by_key(|e| e.seq);
        found
            .into_iter()
            .map(|e| (&e.filter, e.dests.as_slice()))
            .collect()
    }

    /// Iterates over `(filter, id-list)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Filter, &[DestId])> {
        self.ordered().map(|e| (&e.filter, e.dests.as_slice()))
    }

    /// The filters associated with a given destination.
    pub fn filters_for(&self, dest: DestId) -> impl Iterator<Item = &Filter> {
        self.ordered()
            .filter(move |e| e.dests.contains(&dest))
            .map(|e| &e.filter)
    }

    /// Number of distinct filters — the "# of filter" term of the paper's
    /// Load Complexity metric.
    #[must_use]
    pub fn filter_count(&self) -> usize {
        self.order.len()
    }

    /// Whether the table holds no filters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Total number of `<filter, id>` pairs.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.entries.iter().flatten().map(|e| e.dests.len()).sum()
    }
}

/// The equality class of an [`AttrValue`] under `value_eq` semantics:
/// `Int` and `Float` collapse into one numeric key (so `Eq(Int(5))` and an
/// event value of `Float(5.0)` meet in the same class), while `Bool` and
/// `Str` stay apart (they are incomparable to numbers under `compare`).
///
/// Ordered so compiled equality groups can be kept sorted and resolved by
/// binary search. The ordering itself is arbitrary but total and consistent
/// with the equality classes: `-0.0` is normalized to `0.0` before keying
/// because `total_cmp` would otherwise separate two `value_eq` values.
#[derive(Debug, Clone)]
enum EqKey {
    Bool(bool),
    Num(f64),
    Str(String),
}

/// Borrowed view of an event value's equality class, so the per-event
/// binary search never allocates a `String`.
#[derive(Debug, Clone, Copy)]
enum EqKeyRef<'a> {
    Bool(bool),
    Num(f64),
    Str(&'a str),
}

fn eq_num_key(f: f64) -> Option<f64> {
    if f.is_nan() {
        // NaN equals nothing (not even itself), so it has no equality class.
        None
    } else if f == 0.0 {
        Some(0.0)
    } else {
        Some(f)
    }
}

impl EqKey {
    fn of(value: &AttrValue) -> Option<EqKey> {
        Some(match value {
            AttrValue::Bool(b) => EqKey::Bool(*b),
            AttrValue::Str(s) => EqKey::Str(s.clone()),
            AttrValue::Int(i) => EqKey::Num(*i as f64),
            AttrValue::Float(f) => EqKey::Num(eq_num_key(*f)?),
        })
    }

    /// A value of this equality class; the covering rule tells none of the
    /// class's members apart.
    fn to_value(&self) -> AttrValue {
        match self {
            EqKey::Bool(b) => AttrValue::Bool(*b),
            EqKey::Num(f) => AttrValue::Float(*f),
            EqKey::Str(s) => AttrValue::Str(s.clone()),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            EqKey::Bool(_) => 0,
            EqKey::Num(_) => 1,
            EqKey::Str(_) => 2,
        }
    }

    fn cmp_ref(&self, other: &EqKeyRef<'_>) -> Ordering {
        match (self, other) {
            (EqKey::Bool(a), EqKeyRef::Bool(b)) => a.cmp(b),
            (EqKey::Num(a), EqKeyRef::Num(b)) => a.total_cmp(b),
            (EqKey::Str(a), EqKeyRef::Str(b)) => a.as_str().cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    fn cmp_key(&self, other: &EqKey) -> Ordering {
        match (self, other) {
            (EqKey::Bool(a), EqKey::Bool(b)) => a.cmp(b),
            (EqKey::Num(a), EqKey::Num(b)) => a.total_cmp(b),
            (EqKey::Str(a), EqKey::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl<'a> EqKeyRef<'a> {
    fn of(value: &'a AttrValue) -> Option<EqKeyRef<'a>> {
        Some(match value {
            AttrValue::Bool(b) => EqKeyRef::Bool(*b),
            AttrValue::Str(s) => EqKeyRef::Str(s),
            AttrValue::Int(i) => EqKeyRef::Num(*i as f64),
            AttrValue::Float(f) => EqKeyRef::Num(eq_num_key(*f)?),
        })
    }

    fn rank(&self) -> u8 {
        match self {
            EqKeyRef::Bool(_) => 0,
            EqKeyRef::Num(_) => 1,
            EqKeyRef::Str(_) => 2,
        }
    }
}

/// A predicate counting index over a set of filters.
///
/// Filters are registered under slot numbers the caller chooses; matching
/// returns the slots whose predicates are all satisfied by the event (and
/// whose class constraint admits the event's class). Identical predicates
/// shared by many filters are evaluated once per event.
///
/// Equality predicates are keyed by value in a sorted per-attribute table,
/// so all equality constraints on one attribute cost a single binary search
/// per event instead of one evaluation each.
///
/// The same groups answer the *covering* question
/// ([`covers_of`](CountingIndex::covers_of)): with a filter in the event's
/// place, a stored predicate counts when the filter's constraints on its
/// attribute imply it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CountingIndex {
    /// Per-slot requirements; `None` for a slot holding no filter.
    slots: Vec<Option<SlotInfo>>,
    /// Slots with no counted predicates (class-only or wildcard-only).
    zero_required: Vec<u32>,
    /// Distinct predicates grouped by interned attribute id; the vector is
    /// indexed directly by `AttrId.0`.
    by_attr: Vec<AttrGroups>,
    /// Per-slot match counters, versioned to avoid clearing per event.
    scratch: Vec<(u64, u32)>,
    epoch: u64,
}

#[derive(Debug, Clone)]
struct SlotInfo {
    required: u32,
    class: Option<ClassId>,
}

/// The predicate groups of one attribute.
#[derive(Debug, Clone, Default)]
struct AttrGroups {
    /// Equality groups sorted by key, resolved by binary search.
    eq: Vec<EqGroup>,
    /// Every other predicate shape (and an equality on NaN, which has no
    /// key), evaluated by linear scan.
    scan: Vec<PredGroup>,
}

#[derive(Debug, Clone)]
struct EqGroup {
    key: EqKey,
    slots: Vec<u32>,
}

#[derive(Debug, Clone)]
struct PredGroup {
    pred: Predicate,
    slots: Vec<u32>,
}

/// Counts one more satisfied predicate for `slot` this epoch; `true` when
/// that completes the slot. Free function so callers can hold disjoint
/// field borrows.
#[inline]
fn bump_slot(
    scratch: &mut [(u64, u32)],
    slots: &[Option<SlotInfo>],
    epoch: u64,
    slot: u32,
) -> bool {
    let cell = &mut scratch[slot as usize];
    if cell.0 != epoch {
        *cell = (epoch, 0);
    }
    cell.1 += 1;
    slots[slot as usize]
        .as_ref()
        .is_some_and(|info| cell.1 == info.required)
}

/// Predicate identity for grouping: `==`, except that floats compare by bit
/// pattern. Under `==` a predicate holding NaN differs from itself, and its
/// group could not be found again to remove it.
fn same_predicate(a: &Predicate, b: &Predicate) -> bool {
    fn same(a: &AttrValue, b: &AttrValue) -> bool {
        match (a, b) {
            (AttrValue::Float(x), AttrValue::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    match (a, b) {
        (Predicate::Eq(x), Predicate::Eq(y))
        | (Predicate::Ne(x), Predicate::Ne(y))
        | (Predicate::Lt(x), Predicate::Lt(y))
        | (Predicate::Le(x), Predicate::Le(y))
        | (Predicate::Gt(x), Predicate::Gt(y))
        | (Predicate::Ge(x), Predicate::Ge(y)) => same(x, y),
        (Predicate::In(xs), Predicate::In(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same(x, y))
        }
        _ => a == b,
    }
}

/// Drops one occurrence of `slot` from a group's posting list.
fn unpost(slots: &mut Vec<u32>, slot: u32) {
    let pos = slots
        .iter()
        .position(|s| *s == slot)
        .expect("slot is posted in its predicate's group");
    slots.swap_remove(pos);
}

fn class_of(slots: &[Option<SlotInfo>], slot: u32) -> Option<ClassId> {
    slots[slot as usize]
        .as_ref()
        .expect("a posted slot holds a filter")
        .class
}

/// Whether the filter in `slot` admits events of `class`.
fn admits(slots: &[Option<SlotInfo>], slot: u32, class: ClassId, registry: &TypeRegistry) -> bool {
    class_of(slots, slot).is_none_or(|want| registry.is_subtype(class, want))
}

impl AttrGroups {
    /// The posting list of the equality group keyed `key`, if there is one.
    fn eq_group(&self, key: &EqKeyRef<'_>) -> Option<&Vec<u32>> {
        let pos = self.eq.binary_search_by(|g| g.key.cmp_ref(key)).ok()?;
        Some(&self.eq[pos].slots)
    }

    /// The posting lists of the groups an event's value satisfies.
    fn satisfied_by<'g>(&'g self, value: &'g AttrValue) -> impl Iterator<Item = &'g Vec<u32>> {
        let eq_hit = EqKeyRef::of(value).and_then(|key| self.eq_group(&key));
        let scan_hits = self
            .scan
            .iter()
            .filter(move |g| g.pred.matches(Some(value)))
            .map(|g| &g.slots);
        eq_hit.into_iter().chain(scan_hits)
    }

    /// The posting lists of the groups whose predicate is implied by
    /// `on_attr`, a filter's constraints on this attribute.
    ///
    /// When those constraints pin the attribute to one point (a single
    /// equality beside any wildcards) the one equality group it can imply is
    /// found by binary search: `x = v` implies `x = k` only for `k` equal to
    /// `v`, and equal values share a key. Any other conjunction may imply
    /// several keys or, being unsatisfiable (`x = NaN` included), all of
    /// them, so each key is put to the rule.
    fn implied_by<'g, I>(&'g self, on_attr: I) -> impl Iterator<Item = &'g Vec<u32>>
    where
        I: Iterator<Item = &'g Predicate> + Clone + 'g,
    {
        let mut counted = on_attr.clone().filter(|p| !matches!(p, Predicate::Any));
        let (first, second) = (counted.next(), counted.next());
        let point = match (first, second) {
            (Some(Predicate::Eq(v)), None) => EqKeyRef::of(v),
            _ => None,
        };
        let (pinned, tested, scanned) = match (first, point) {
            // Wildcards alone imply nothing.
            (None, _) => (None, &self.eq[..0], &self.scan[..0]),
            (_, Some(key)) => (self.eq_group(&key), &self.eq[..0], &self.scan[..]),
            _ => (None, &self.eq[..], &self.scan[..]),
        };
        let rule = on_attr.clone();
        let eq_hits = tested
            .iter()
            .filter(move |g| implied_by(&Predicate::Eq(g.key.to_value()), rule.clone()))
            .map(|g| &g.slots);
        let scan_hits = scanned
            .iter()
            .filter(move |g| implied_by(&g.pred, on_attr.clone()))
            .map(|g| &g.slots);
        pinned.into_iter().chain(eq_hits).chain(scan_hits)
    }
}

/// The equality class a constraint is grouped under, when it has one. An
/// `Eq` on NaN has none (it matches nothing); the scan path preserves that
/// semantics.
fn eq_key(pred: &Predicate) -> Option<EqKey> {
    match pred {
        Predicate::Eq(v) => EqKey::of(v),
        _ => None,
    }
}

impl CountingIndex {
    /// Registers a filter under a vacant slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot already holds a filter.
    pub fn add(&mut self, slot: u32, filter: &Filter) {
        let idx = slot as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
            self.scratch.resize(idx + 1, (0, 0));
        }
        assert!(
            self.slots[idx].is_none(),
            "counting index slot {slot} is occupied"
        );
        let mut required = 0u32;
        for c in filter.constraints() {
            if matches!(c.predicate(), Predicate::Any) {
                continue; // wildcards are always satisfied
            }
            required += 1;
            let key = eq_key(c.predicate());
            let attr = c.id().0 as usize;
            if attr >= self.by_attr.len() {
                self.by_attr.resize_with(attr + 1, AttrGroups::default);
            }
            let groups = &mut self.by_attr[attr];
            if let Some(key) = key {
                match groups.eq.binary_search_by(|g| g.key.cmp_key(&key)) {
                    Ok(pos) => groups.eq[pos].slots.push(slot),
                    Err(pos) => groups.eq.insert(
                        pos,
                        EqGroup {
                            key,
                            slots: vec![slot],
                        },
                    ),
                }
                continue;
            }
            match groups
                .scan
                .iter_mut()
                .find(|g| same_predicate(&g.pred, c.predicate()))
            {
                Some(g) => g.slots.push(slot),
                None => groups.scan.push(PredGroup {
                    pred: c.predicate().clone(),
                    slots: vec![slot],
                }),
            }
        }
        if required == 0 {
            self.zero_required.push(slot);
        }
        self.slots[idx] = Some(SlotInfo {
            required,
            class: filter.class(),
        });
    }

    /// Unregisters the filter held by `slot`, touching only the groups of
    /// its own predicates. `filter` must be the filter the slot was added
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant or `filter` is not what it holds.
    pub fn remove(&mut self, slot: u32, filter: &Filter) {
        let info = self.slots[slot as usize]
            .take()
            .expect("counting index slot holds a filter");
        if info.required == 0 {
            unpost(&mut self.zero_required, slot);
        }
        for c in filter.constraints() {
            if matches!(c.predicate(), Predicate::Any) {
                continue;
            }
            let key = eq_key(c.predicate());
            let groups = &mut self.by_attr[c.id().0 as usize];
            if let Some(key) = key {
                let pos = groups
                    .eq
                    .binary_search_by(|g| g.key.cmp_key(&key))
                    .expect("equality group of an indexed constraint");
                unpost(&mut groups.eq[pos].slots, slot);
                if groups.eq[pos].slots.is_empty() {
                    groups.eq.remove(pos);
                }
            } else {
                let pos = groups
                    .scan
                    .iter()
                    .position(|g| same_predicate(&g.pred, c.predicate()))
                    .expect("scan group of an indexed constraint");
                unpost(&mut groups.scan[pos].slots, slot);
                if groups.scan[pos].slots.is_empty() {
                    groups.scan.swap_remove(pos);
                }
            }
        }
    }

    /// Collects the slots of all filters matching the event, in ascending
    /// slot order.
    pub fn matches(
        &mut self,
        class: ClassId,
        meta: &EventData,
        registry: &TypeRegistry,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        self.epoch += 1;
        let (epoch, slots, scratch) = (self.epoch, &self.slots, &mut self.scratch);
        for (id, value) in meta.iter_ids() {
            let Some(groups) = self.by_attr.get(id.0 as usize) else {
                continue;
            };
            for posted in groups.satisfied_by(value) {
                for &slot in posted {
                    if bump_slot(scratch, slots, epoch, slot) {
                        out.push(slot);
                    }
                }
            }
        }
        out.extend_from_slice(&self.zero_required);
        out.retain(|&slot| admits(slots, slot, class, registry));
        out.sort_unstable();
    }

    /// Whether any registered filter matches the event, returning at the
    /// first completed slot instead of collecting them all.
    pub fn matches_any(
        &mut self,
        class: ClassId,
        meta: &EventData,
        registry: &TypeRegistry,
    ) -> bool {
        self.epoch += 1;
        let (epoch, slots, scratch) = (self.epoch, &self.slots, &mut self.scratch);
        // Zero-required slots (match-all / class-only filters) decide
        // without touching the event at all.
        if self
            .zero_required
            .iter()
            .any(|&slot| admits(slots, slot, class, registry))
        {
            return true;
        }
        for (id, value) in meta.iter_ids() {
            let Some(groups) = self.by_attr.get(id.0 as usize) else {
                continue;
            };
            for posted in groups.satisfied_by(value) {
                for &slot in posted {
                    if bump_slot(scratch, slots, epoch, slot)
                        && admits(slots, slot, class, registry)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Collects the slots of all filters that cover `f` (Definition 2), in
    /// no particular order: exactly the slots whose filter passes
    /// [`Filter::covers`]`(f)`.
    ///
    /// `f`'s constraints on an attribute play the part an event's value
    /// plays in matching. A stored predicate counts for its slots when those
    /// constraints imply it, by the rule [`Filter::covers`] applies per
    /// constraint, run once per distinct predicate; a slot covers `f` when
    /// every predicate it requires has counted and its class admits `f`'s.
    /// Attributes `f` leaves free or wildcarded imply nothing, so their
    /// groups are never visited.
    pub fn covers_of(&mut self, f: &Filter, registry: &TypeRegistry, out: &mut Vec<u32>) {
        out.clear();
        self.epoch += 1;
        let (epoch, slots, scratch) = (self.epoch, &self.slots, &mut self.scratch);
        let constraints = f.constraints();
        for (i, c) in constraints.iter().enumerate() {
            // One pass per attribute, at its first constraint.
            if constraints[..i]
                .iter()
                .any(|earlier| earlier.id() == c.id())
            {
                continue;
            }
            let Some(groups) = self.by_attr.get(c.id().0 as usize) else {
                continue;
            };
            let on_attr = f.constraints_on_id(c.id()).map(AttrFilter::predicate);
            for posted in groups.implied_by(on_attr) {
                for &slot in posted {
                    if bump_slot(scratch, slots, epoch, slot) {
                        out.push(slot);
                    }
                }
            }
        }
        out.extend_from_slice(&self.zero_required);
        out.retain(|&slot| class_covers(class_of(slots, slot), f.class(), registry));
    }

    /// The slots whose filter repeats one of `f`'s equality constraints —
    /// the only ones [`FilterTable::covered_by`] examines — taken from the
    /// constraint fewest filters share. `None` when `f` has no equality
    /// constraint, and every slot is a candidate.
    fn sharing_an_equality(&self, f: &Filter) -> Option<Vec<u32>> {
        let mut fewest: Option<&[u32]> = None;
        for c in f.constraints() {
            let Predicate::Eq(v) = c.predicate() else {
                continue;
            };
            let posted = self
                .by_attr
                .get(c.id().0 as usize)
                .zip(EqKeyRef::of(v))
                .and_then(|(groups, key)| groups.eq_group(&key))
                .map_or(&[][..], Vec::as_slice);
            if fewest.is_none_or(|best| posted.len() < best.len()) {
                fewest = Some(posted);
            }
        }
        fewest.map(<[u32]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::event_data;

    fn registry() -> (TypeRegistry, ClassId, ClassId) {
        let mut r = TypeRegistry::new();
        let stock = r.register("Stock", None, vec![]).unwrap();
        let auction = r.register("Auction", None, vec![]).unwrap();
        (r, stock, auction)
    }

    #[test]
    fn matches_collects_every_matching_destination() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("symbol", "Foo"), DestId(1));
        t.insert(Filter::any().gt("price", 5.0), DestId(2));
        t.insert(Filter::any().eq("symbol", "Bar"), DestId(3));
        t.insert(
            Filter::any().eq("symbol", "Foo").lt("price", 9.0),
            DestId(4),
        );
        t.insert(
            Filter::any().eq("symbol", "Foo").le("price", 10.0),
            DestId(5),
        );
        t.insert(Filter::any(), DestId(6));
        let meta = event_data! { "symbol" => "Foo", "price" => 10.0 };
        let mut out = Vec::new();
        t.matches(stock, &meta, &r, &mut out);
        assert_eq!(out, vec![DestId(1), DestId(2), DestId(5), DestId(6)]);
    }

    #[test]
    fn compiled_eq_groups_cross_kinds() {
        // Int and Float equality constants land in one numeric key; an Int
        // event value must hit a Float-written constraint and vice versa.
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("price", 5.0), DestId(1));
        t.insert(Filter::any().eq("price", 5_i64), DestId(2));
        t.insert(Filter::any().eq("price", 6_i64), DestId(3));
        t.insert(Filter::any().eq("flag", true), DestId(4));
        let mut out = Vec::new();
        t.matches(stock, &event_data! { "price" => 5_i64 }, &r, &mut out);
        assert_eq!(out, vec![DestId(1), DestId(2)]);
        t.matches(stock, &event_data! { "price" => 6.0 }, &r, &mut out);
        assert_eq!(out, vec![DestId(3)]);
        // A boolean value must not meet numeric keys (incomparable kinds).
        t.matches(stock, &event_data! { "flag" => true }, &r, &mut out);
        assert_eq!(out, vec![DestId(4)]);
        t.matches(stock, &event_data! { "price" => true }, &r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn compiled_mixes_eq_and_range_constraints() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(
            Filter::any().eq("symbol", "Foo").gt("price", 5.0),
            DestId(1),
        );
        t.insert(Filter::any().eq("symbol", "Foo"), DestId(2));
        let mut out = Vec::new();
        t.matches(
            stock,
            &event_data! { "symbol" => "Foo", "price" => 7.0 },
            &r,
            &mut out,
        );
        assert_eq!(out, vec![DestId(1), DestId(2)]);
        t.matches(
            stock,
            &event_data! { "symbol" => "Foo", "price" => 3.0 },
            &r,
            &mut out,
        );
        assert_eq!(out, vec![DestId(2)]);
    }

    #[test]
    fn negative_zero_equality_class() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("x", -0.0), DestId(1));
        let mut out = Vec::new();
        t.matches(stock, &event_data! { "x" => 0.0 }, &r, &mut out);
        assert_eq!(out, vec![DestId(1)]);
    }

    #[test]
    fn matches_any_early_exit_agrees_with_full_match() {
        let (r, stock, auction) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::for_class(stock).eq("symbol", "Foo"), DestId(1));
        t.insert(Filter::any().gt("price", 100.0), DestId(2));
        let hit = event_data! { "symbol" => "Foo" };
        let miss = event_data! { "symbol" => "Bar", "price" => 10.0 };
        assert!(t.matches_any(stock, &hit, &r,));
        assert!(!t.matches_any(stock, &miss, &r));
        // The class-constrained filter must not fire for Auction.
        assert!(!t.matches_any(auction, &hit, &r));
        // A zero-required (class-only) filter answers immediately.
        t.insert(Filter::for_class(auction), DestId(3));
        assert!(t.matches_any(auction, &hit, &r));
    }

    #[test]
    fn duplicate_filters_extend_id_list() {
        let mut t = FilterTable::default();
        let f = Filter::any().eq("a", 1).eq("b", 2);
        // Same filter modulo constraint order.
        let f_reordered = Filter::any().eq("b", 2).eq("a", 1);
        assert!(t.insert(f.clone(), DestId(1)));
        assert!(!t.insert(f_reordered, DestId(2)));
        assert!(!t.insert(f.clone(), DestId(1)));
        assert_eq!(t.filter_count(), 1);
        assert_eq!(t.pair_count(), 2);
    }

    #[test]
    fn class_constraints_respect_subtyping() {
        let mut r = TypeRegistry::new();
        let base = r.register("Quote", None, vec![]).unwrap();
        let stock = r.register("Stock", Some("Quote"), vec![]).unwrap();
        let mut t = FilterTable::default();
        t.insert(Filter::for_class(base), DestId(1));
        t.insert(Filter::for_class(stock), DestId(2));
        let meta = EventData::new();
        let mut out = Vec::new();
        t.matches(stock, &meta, &r, &mut out);
        out.sort();
        assert_eq!(out, vec![DestId(1), DestId(2)]);
        t.matches(base, &meta, &r, &mut out);
        assert_eq!(out, vec![DestId(1)]);
    }

    #[test]
    fn removal_unindexes_in_place() {
        let (r, stock, _) = registry();
        let meta = event_data! { "symbol" => "Foo" };
        let mut t = FilterTable::default();
        let f = Filter::any().eq("symbol", "Foo");
        t.insert(f.clone(), DestId(1));
        t.insert(f.clone(), DestId(2));
        assert!(t.remove(&f, DestId(1)));
        assert!(!t.remove(&f, DestId(1)));
        let mut out = Vec::new();
        t.matches(stock, &meta, &r, &mut out);
        assert_eq!(out, vec![DestId(2)]);
        assert!(t.remove(&f, DestId(2)));
        assert!(t.is_empty());
        t.matches(stock, &meta, &r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_without_disturbing_entry_order() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        let sym = |s: &str| Filter::for_class(stock).eq("symbol", s);
        for (i, s) in ["A", "B", "C"].into_iter().enumerate() {
            t.insert(sym(s), DestId(i as u64));
        }
        assert!(t.remove(&sym("A"), DestId(0)));
        // "D" takes over A's slot but stands last in entry order.
        t.insert(sym("D"), DestId(3));
        let order: Vec<Filter> = t.iter().map(|(f, _)| f.clone()).collect();
        assert_eq!(order, vec![sym("B"), sym("C"), sym("D")]);
        let mut out = Vec::new();
        t.matches(stock, &event_data! { "symbol" => "D" }, &r, &mut out);
        assert_eq!(out, vec![DestId(3)]);
        t.matches(stock, &event_data! { "symbol" => "A" }, &r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn find_cover_breaks_ties_by_entry_order() {
        let (r, stock, _) = registry();
        // Two incomparable covers of the probe: the first stored wins, and
        // after it is removed and stored again, the other one does.
        let by_symbol = Filter::for_class(stock).eq("symbol", "A");
        let by_price = Filter::for_class(stock).lt("price", 20.0);
        let probe = Filter::for_class(stock).eq("symbol", "A").lt("price", 10.0);
        let mut t = FilterTable::default();
        t.insert(by_symbol.clone(), DestId(1));
        t.insert(by_price.clone(), DestId(2));
        assert_eq!(t.find_cover(&probe, &r).unwrap().0, &by_symbol);
        t.remove(&by_symbol, DestId(1));
        t.insert(by_symbol.clone(), DestId(1));
        assert_eq!(t.find_cover(&probe, &r).unwrap().0, &by_price);
        // A cover of both earlier covers never wins over them...
        t.insert(Filter::for_class(stock), DestId(3));
        assert_eq!(t.find_cover(&probe, &r).unwrap().0, &by_price);
        // ...and a stronger cover stored later does.
        let strong = Filter::for_class(stock).eq("symbol", "A").lt("price", 20.0);
        t.insert(strong.clone(), DestId(4));
        assert_eq!(t.find_cover(&probe, &r).unwrap().0, &strong);
    }

    #[test]
    fn find_cover_checks_candidates_not_entries() {
        use crate::cover::IMPLIED_CHECKS;
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        // 1 000 entries on distinct symbols, every tenth with one of four
        // price ceilings: 1 000 equality groups, 4 distinct scan predicates.
        for i in 0..1_000u32 {
            let mut f = Filter::for_class(stock).eq("symbol", format!("S{i:04}"));
            if i % 10 == 0 {
                f = f.lt("price", f64::from(i % 4 + 1) * 10.0);
            }
            t.insert(f, DestId(u64::from(i)));
        }
        let checks = |t: &mut FilterTable, probe: &Filter| {
            let before = IMPLIED_CHECKS.with(std::cell::Cell::get);
            let found = t.find_cover(probe, &r).map(|(f, _)| f.clone());
            (found, IMPLIED_CHECKS.with(std::cell::Cell::get) - before)
        };
        // The symbol is found by binary search, untested; the rule runs once
        // per distinct price predicate, whatever the number of entries.
        let probe = Filter::for_class(stock)
            .eq("symbol", "S0500")
            .lt("price", 5.0);
        let (found, n) = checks(&mut t, &probe);
        assert_eq!(
            found,
            Some(
                Filter::for_class(stock)
                    .eq("symbol", "S0500")
                    .lt("price", 10.0)
            )
        );
        assert!(n <= 4, "{n} covering checks for 4 distinct predicates");
        // A band on the symbol pins no single group, so each of the 1 000
        // distinct constants is put to the rule once — still not once per
        // constraint of every entry, which the scan costs (1 100 here, plus
        // the class test of each entry).
        let band = Filter::for_class(stock)
            .ge("symbol", "S0500")
            .le("symbol", "S0500");
        let (found, n) = checks(&mut t, &band);
        assert_eq!(found, None, "S0500 is stored with a price ceiling");
        assert!(
            n <= 1_000,
            "{n} covering checks for 1 000 distinct constants"
        );
        // The scan, for scale: the rule runs for every entry.
        let before = IMPLIED_CHECKS.with(std::cell::Cell::get);
        let scanned = t.iter().filter(|(f, _)| f.covers(&probe, &r)).count();
        let n = IMPLIED_CHECKS.with(std::cell::Cell::get) - before;
        assert!(scanned > 0);
        assert!(n >= 1_000, "the scan made only {n} checks");
    }

    #[test]
    fn remove_dest_sweeps_all_entries() {
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("a", 1), DestId(9));
        t.insert(Filter::any().eq("b", 2), DestId(9));
        t.insert(Filter::any().eq("b", 2), DestId(3));
        assert_eq!(t.remove_dest(DestId(9)), 2);
        assert_eq!(t.filter_count(), 1);
        assert_eq!(t.remove_dest(DestId(9)), 0);
    }

    #[test]
    fn find_cover_picks_strongest() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        let weak = Filter::for_class(stock);
        let mid = Filter::for_class(stock).eq("symbol", "DEF");
        let strong = Filter::for_class(stock)
            .eq("symbol", "DEF")
            .lt("price", 11.0);
        t.insert(weak.clone(), DestId(1));
        t.insert(mid.clone(), DestId(2));
        t.insert(strong.clone(), DestId(3));
        let sub = Filter::for_class(stock)
            .eq("symbol", "DEF")
            .lt("price", 10.0);
        let (found, dests) = t.find_cover(&sub, &r).unwrap();
        assert_eq!(found, &strong);
        assert_eq!(dests, &[DestId(3)]);
        // No covering filter at all:
        let (_, auction) = (stock, r.id_of("Auction"));
        let _ = auction;
        let other = Filter::any();
        // `weak` does not cover class-unconstrained subscriptions.
        assert!(t.find_cover(&other, &r).is_none());
    }

    #[test]
    fn wildcard_only_filters_match_everything_of_class() {
        let (r, stock, auction) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::for_class(stock).wildcard("symbol"), DestId(1));
        let meta = event_data! { "symbol" => "Anything" };
        let mut out = Vec::new();
        t.matches(stock, &meta, &r, &mut out);
        assert_eq!(out, vec![DestId(1)]);
        t.matches(auction, &meta, &r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn counting_handles_repeated_attr_constraints() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::any().ge("price", 5.0).le("price", 10.0), DestId(1));
        let mut out = Vec::new();
        t.matches(stock, &event_data! { "price" => 7.0 }, &r, &mut out);
        assert_eq!(out, vec![DestId(1)]);
        t.matches(stock, &event_data! { "price" => 12.0 }, &r, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shared_predicates_fire_all_slots() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        for i in 0u32..10 {
            t.insert(
                Filter::any().eq("symbol", "Foo").gt("price", f64::from(i)),
                DestId(u64::from(i)),
            );
        }
        let mut out = Vec::new();
        t.matches(
            stock,
            &event_data! { "symbol" => "Foo", "price" => 5.5 },
            &r,
            &mut out,
        );
        assert_eq!(out.len(), 6); // thresholds 0..=5
    }

    #[test]
    fn filters_for_lists_by_dest() {
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("a", 1), DestId(1));
        t.insert(Filter::any().eq("b", 2), DestId(1));
        t.insert(Filter::any().eq("c", 3), DestId(2));
        assert_eq!(t.filters_for(DestId(1)).count(), 2);
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn matches_any_shortcut() {
        let (r, stock, _) = registry();
        let mut t = FilterTable::default();
        t.insert(Filter::any().eq("symbol", "Foo"), DestId(1));
        assert!(t.matches_any(stock, &event_data! { "symbol" => "Foo" }, &r));
        assert!(!t.matches_any(stock, &event_data! { "symbol" => "Bar" }, &r));
    }
}
