//! Subscription aggregation: a refcounted cover forest over broker tables.
//!
//! The per-subscription [`FilterTable`] grows one entry per distinct filter,
//! so table size and per-event match cost scale linearly with subscriber
//! count. [`AggTable`] collapses filters subsumed by an existing cover
//! (Definition 2, via [`Filter::covers`]) into shared entries: subscriptions
//! form a forest where every **root** is one live index entry and covered
//! **children** are bookkeeping only. Matching runs against the live roots;
//! stage-0 subscribers re-apply their exact original filters on delivery, so
//! covering over-forwards at worst — the end-to-end delivery set is
//! unchanged.
//!
//! The forest is maintained *incrementally* under churn:
//!
//! - **Insert.** A filter covered by an existing root attaches as a child
//!   and only bumps the root's per-destination refcounts. An uncovered
//!   filter becomes a new root, *demoting* any existing roots it covers
//!   (their entries leave the live index; their subtrees flatten under the
//!   new root).
//! - **Remove.** Dropping a child only decrements refcounts. Dropping the
//!   last own-subscription of a covering root dissolves it: each child is
//!   re-homed under another covering root or *re-promoted* to a root of its
//!   own — never a full rebuild.
//!
//! The forest is depth-1 by construction (children never have children), so
//! every structural operation touches a bounded neighbourhood. Two
//! representation choices keep the table flat at a million subscriptions:
//! the live index stores a single sentinel destination per root (the root's
//! slab id) and real destinations are expanded from the root's refcount map
//! at match time, so subscribe/unsubscribe never rewrites an id-list; and
//! both cover searches — the roots covering a filter, the roots a filter
//! covers — are questions put to the live table's own index
//! ([`FilterTable::covers_of`], [`FilterTable::covered_by`]), so the forest
//! keeps no candidate index of its own and never scans its roots.

use std::collections::{BTreeSet, HashMap};

use layercake_event::{ClassId, EventData, TypeRegistry};

use crate::filter::Filter;
use crate::index::{DestId, FilterTable, IndexKind};

/// Live-index changes produced by one [`AggTable::insert`] or
/// [`AggTable::remove`]: which root filters gained a live entry (something a
/// broker must announce upstream) and which lost theirs (something to
/// withdraw). `changed` reports whether the `<filter, dest>` pair itself
/// was added or removed at all.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AggDelta {
    /// Whether the subscription pair was actually added or removed.
    pub changed: bool,
    /// Root filters whose live entry was created by this operation.
    pub added: Vec<Filter>,
    /// Root filters whose live entry was removed by this operation.
    pub removed: Vec<Filter>,
}

impl AggDelta {
    /// Cancels filters that were transiently added and removed within one
    /// operation (e.g. a child promoted to a root and immediately demoted
    /// under a stronger sibling), so brokers see only net changes.
    fn settle(&mut self) {
        if self.added.is_empty() || self.removed.is_empty() {
            return;
        }
        let mut i = 0;
        while i < self.added.len() {
            if let Some(j) = self.removed.iter().position(|f| *f == self.added[i]) {
                self.removed.remove(j);
                self.added.remove(i);
            } else {
                i += 1;
            }
        }
    }
}

#[derive(Debug)]
struct AggNode {
    /// Normalized filter — the node's identity in `by_key`.
    filter: Filter,
    /// `Some(root)` for covered children, `None` for roots (depth ≤ 1).
    parent: Option<usize>,
    /// Covered children (roots only).
    children: Vec<usize>,
    /// Destinations subscribed to exactly this filter, insertion order.
    own: Vec<DestId>,
    /// Roots only: per-destination refcounts over the whole subtree. The
    /// destinations the root's live entry stands for are exactly
    /// `counts.keys()`.
    counts: HashMap<DestId, u32>,
}

impl AggNode {
    fn new(filter: Filter) -> Self {
        AggNode {
            filter,
            parent: None,
            children: Vec::new(),
            own: Vec::new(),
            counts: HashMap::new(),
        }
    }
}

/// An aggregated subscription table: the cover forest plus the live
/// [`FilterTable`] its roots project into. Drop-in for the per-subscription
/// table on the broker's hot path — [`AggTable::matches`] only ever
/// evaluates the (much smaller) live index.
#[derive(Debug, Default)]
pub struct AggTable {
    /// Live index over root filters. Each entry's id-list is a single
    /// sentinel: the root's slab index, expanded to real destinations from
    /// the root's refcounts on read.
    live: FilterTable,
    nodes: Vec<Option<AggNode>>,
    free: Vec<usize>,
    by_key: HashMap<Filter, usize>,
    /// Root set in ascending slab order — deterministic iteration.
    roots: BTreeSet<usize>,
    covered_pairs: usize,
    total_pairs: usize,
    dest_pairs: HashMap<DestId, u32>,
    match_scratch: Vec<DestId>,
}

impl AggTable {
    /// An empty forest; the same as [`AggTable::default`].
    #[must_use]
    pub fn new(_index: IndexKind) -> Self {
        Self::default()
    }

    /// Adds a `<filter, dest>` subscription pair to the forest.
    pub fn insert(&mut self, filter: Filter, dest: DestId, registry: &TypeRegistry) -> AggDelta {
        let mut delta = AggDelta::default();
        let key = filter.normalized();
        if let Some(&idx) = self.by_key.get(&key) {
            if self.node(idx).own.contains(&dest) {
                return delta;
            }
            self.node_mut(idx).own.push(dest);
            delta.changed = true;
            self.total_pairs += 1;
            *self.dest_pairs.entry(dest).or_insert(0) += 1;
            let root = self.node(idx).parent.unwrap_or(idx);
            if root != idx {
                self.covered_pairs += 1;
            }
            self.bump(root, dest, &mut delta);
            delta.settle();
            return delta;
        }

        let mut node = AggNode::new(key.clone());
        node.own.push(dest);
        let idx = self.alloc(node);
        self.by_key.insert(key, idx);
        delta.changed = true;
        self.total_pairs += 1;
        *self.dest_pairs.entry(dest).or_insert(0) += 1;

        if let Some(r) = self.find_covering_root(idx, registry) {
            self.attach(idx, r, &mut delta);
        } else {
            self.make_root(idx, registry, &mut delta);
        }
        delta.settle();
        delta
    }

    /// Removes a `<filter, dest>` subscription pair, dissolving and
    /// re-promoting forest structure as needed.
    pub fn remove(&mut self, filter: &Filter, dest: DestId, registry: &TypeRegistry) -> AggDelta {
        let mut delta = AggDelta::default();
        let key = filter.normalized();
        let Some(&idx) = self.by_key.get(&key) else {
            return delta;
        };
        let Some(pos) = self.node(idx).own.iter().position(|d| *d == dest) else {
            return delta;
        };
        self.node_mut(idx).own.remove(pos);
        delta.changed = true;
        self.total_pairs -= 1;
        if let Some(c) = self.dest_pairs.get_mut(&dest) {
            *c -= 1;
            if *c == 0 {
                self.dest_pairs.remove(&dest);
            }
        }
        let root = self.node(idx).parent.unwrap_or(idx);
        if root != idx {
            self.covered_pairs -= 1;
        }
        self.unbump(root, dest, &mut delta);
        if self.node(idx).own.is_empty() {
            self.dissolve(idx, registry, &mut delta);
        }
        delta.settle();
        delta
    }

    /// Collects the destinations of all subscriptions whose *root* filter
    /// matches the event (ascending, deduped). Every destination returned
    /// holds an original filter whose root covers it, so stage-0
    /// re-filtering restores the exact per-subscription set.
    pub fn matches(
        &mut self,
        class: ClassId,
        meta: &EventData,
        registry: &TypeRegistry,
        out: &mut Vec<DestId>,
    ) {
        let mut hits = std::mem::take(&mut self.match_scratch);
        self.live.matches(class, meta, registry, &mut hits);
        out.clear();
        for s in &hits {
            out.extend(self.node(Self::root_of(*s)).counts.keys().copied());
        }
        self.match_scratch = hits;
        out.sort_unstable();
        out.dedup();
    }

    /// Finds the strongest live filter covering `f` and the destinations it
    /// stands for (placement search).
    pub fn find_cover(
        &mut self,
        f: &Filter,
        registry: &TypeRegistry,
    ) -> Option<(&Filter, Vec<DestId>)> {
        let (filter, sentinel) = self.live.find_cover(f, registry)?;
        Some((filter, Self::root_dests(&self.nodes, sentinel)))
    }

    /// Iterates over the live `(filter, destinations)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Filter, Vec<DestId>)> {
        self.live
            .iter()
            .map(|(f, sentinel)| (f, Self::root_dests(&self.nodes, sentinel)))
    }

    /// The *original* filters a destination subscribed, covered or not, in
    /// slab order (deterministic for a given operation history).
    pub fn filters_for(&self, dest: DestId) -> impl Iterator<Item = &Filter> {
        self.nodes
            .iter()
            .filter_map(|n| n.as_ref())
            .filter(move |n| n.own.contains(&dest))
            .map(|n| &n.filter)
    }

    /// Whether the destination holds any subscription at all.
    #[must_use]
    pub fn has_dest(&self, dest: DestId) -> bool {
        self.dest_pairs.contains_key(&dest)
    }

    /// Distinct filters in the live match index.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.live.filter_count()
    }

    /// `<filter, dest>` pairs currently held by covered children.
    #[must_use]
    pub fn covered_subs(&self) -> usize {
        self.covered_pairs
    }

    /// Total `<filter, dest>` pairs tracked.
    #[must_use]
    pub fn subscription_count(&self) -> usize {
        self.total_pairs
    }

    /// Whether no subscriptions are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total_pairs == 0
    }

    // ---- forest internals -------------------------------------------------

    fn node(&self, idx: usize) -> &AggNode {
        self.nodes[idx].as_ref().expect("live agg node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut AggNode {
        self.nodes[idx].as_mut().expect("live agg node")
    }

    fn sentinel(idx: usize) -> DestId {
        DestId(idx as u64)
    }

    /// The root a live entry stands for, read back from its sentinel.
    fn root_of(sentinel: DestId) -> usize {
        usize::try_from(sentinel.0).expect("sentinel fits usize")
    }

    /// Expands a live entry's sentinel id-list into the root's real
    /// destinations, ascending. (Takes the slab, not `self`, so it can run
    /// while the live table is borrowed.)
    fn root_dests(nodes: &[Option<AggNode>], sentinel: &[DestId]) -> Vec<DestId> {
        let root = nodes[Self::root_of(sentinel[0])]
            .as_ref()
            .expect("live agg node");
        let mut ds: Vec<DestId> = root.counts.keys().copied().collect();
        ds.sort_unstable();
        ds
    }

    fn alloc(&mut self, node: AggNode) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Some(node);
            idx
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    fn delete_node(&mut self, idx: usize) {
        let node = self.nodes[idx].take().expect("live agg node");
        self.by_key.remove(&node.filter);
        self.free.push(idx);
    }

    /// The strongest root covering the node's filter, if any. Every root
    /// holding destinations is a live entry and nothing else is, so the live
    /// table's covering query names exactly the covering roots.
    fn find_covering_root(&mut self, idx: usize, registry: &TypeRegistry) -> Option<usize> {
        let mut covering: Vec<usize> = self
            .live
            .covers_of(
                &self.nodes[idx].as_ref().expect("live agg node").filter,
                registry,
            )
            .into_iter()
            .map(|(_, sentinel)| Self::root_of(sentinel[0]))
            .filter(|&r| r != idx)
            .collect();
        covering.sort_unstable();
        let mut best: Option<usize> = None;
        for r in covering {
            best = match best {
                None => Some(r),
                Some(b) => {
                    let (bn, cand) = (self.node(b), self.node(r));
                    // Prefer the strictly more specific cover; ties keep
                    // the lower slab index (deterministic).
                    if bn.filter.covers(&cand.filter, registry)
                        && !cand.filter.covers(&bn.filter, registry)
                    {
                        Some(r)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Roots covered by `filter` (to demote under a new root), in ascending
    /// slab order.
    fn roots_covered_by(
        &self,
        filter: &Filter,
        exclude: usize,
        registry: &TypeRegistry,
    ) -> Vec<usize> {
        let mut covered: Vec<usize> = self
            .live
            .covered_by(filter, registry)
            .into_iter()
            .map(|(_, sentinel)| Self::root_of(sentinel[0]))
            .filter(|&r| r != exclude)
            .collect();
        covered.sort_unstable();
        covered
    }

    fn attach(&mut self, idx: usize, root: usize, delta: &mut AggDelta) {
        self.node_mut(idx).parent = Some(root);
        self.node_mut(root).children.push(idx);
        let own = self.node(idx).own.clone();
        self.covered_pairs += own.len();
        for d in own {
            self.bump(root, d, delta);
        }
    }

    /// Turns `idx` into a root: seeds refcounts from its own destinations,
    /// demotes any existing roots its filter covers (flattening their
    /// subtrees underneath), and writes its live index entry.
    fn make_root(&mut self, idx: usize, registry: &TypeRegistry, delta: &mut AggDelta) {
        let own = self.node(idx).own.clone();
        for d in &own {
            *self.node_mut(idx).counts.entry(*d).or_insert(0) += 1;
        }
        self.roots.insert(idx);

        let filter = self.node(idx).filter.clone();
        for r in self.roots_covered_by(&filter, idx, registry) {
            self.demote_root(r, idx, delta);
        }

        if !self.node(idx).counts.is_empty() {
            self.live.insert(filter.clone(), Self::sentinel(idx));
            delta.added.push(filter);
        }
    }

    /// Demotes root `r` under `new_root`: withdraws `r`'s live entry,
    /// flattens `r`'s children (and `r` itself) into `new_root`'s child
    /// list, and merges the refcounts.
    fn demote_root(&mut self, r: usize, new_root: usize, delta: &mut AggDelta) {
        self.roots.remove(&r);

        let rfilter = self.node(r).filter.clone();
        if !self.node(r).counts.is_empty() {
            self.live.remove(&rfilter, Self::sentinel(r));
            delta.removed.push(rfilter);
        }

        let children = std::mem::take(&mut self.node_mut(r).children);
        for &c in &children {
            self.node_mut(c).parent = Some(new_root);
        }
        self.node_mut(new_root).children.extend(children);

        let counts = std::mem::take(&mut self.node_mut(r).counts);
        for (d, n) in counts {
            *self.node_mut(new_root).counts.entry(d).or_insert(0) += n;
        }

        // `r` itself becomes a child.
        self.covered_pairs += self.node(r).own.len();
        self.node_mut(r).parent = Some(new_root);
        self.node_mut(new_root).children.push(r);
    }

    /// Handles a node whose own-subscription list just emptied.
    fn dissolve(&mut self, idx: usize, registry: &TypeRegistry, delta: &mut AggDelta) {
        if let Some(p) = self.node(idx).parent {
            // A childless covered node: drop it.
            self.node_mut(p).children.retain(|&c| c != idx);
            self.delete_node(idx);
        } else if self.node(idx).children.is_empty() {
            // A leaf root; refcounts (and the live entry) are already gone
            // via unbump.
            self.roots.remove(&idx);
            self.delete_node(idx);
        } else {
            self.dissolve_root(idx, registry, delta);
        }
    }

    /// Dissolves a covering root that lost its own subscribers: its live
    /// entry is withdrawn and every child is re-homed under another cover
    /// or re-promoted to a root — never a rebuild.
    fn dissolve_root(&mut self, idx: usize, registry: &TypeRegistry, delta: &mut AggDelta) {
        self.roots.remove(&idx);
        let filter = self.node(idx).filter.clone();
        if !self.node(idx).counts.is_empty() {
            self.live.remove(&filter, Self::sentinel(idx));
            delta.removed.push(filter);
        }
        let children = std::mem::take(&mut self.node_mut(idx).children);
        self.delete_node(idx);
        for c in children {
            self.node_mut(c).parent = None;
            self.rehome(c, registry, delta);
        }
    }

    /// Re-homes an orphaned child: attach under a covering root if one
    /// remains, otherwise promote it to a root of its own.
    fn rehome(&mut self, c: usize, registry: &TypeRegistry, delta: &mut AggDelta) {
        // The child's pairs stop counting as covered either way; attach()
        // re-adds them if another cover takes it in.
        self.covered_pairs -= self.node(c).own.len();
        if let Some(r) = self.find_covering_root(c, registry) {
            self.attach(c, r, delta);
        } else {
            self.make_root(c, registry, delta);
        }
    }

    /// Bumps the root's refcount for `dest`, materializing the live entry
    /// with the root's first destination.
    fn bump(&mut self, root: usize, dest: DestId, delta: &mut AggDelta) {
        let node = self.node_mut(root);
        let first = node.counts.is_empty();
        *node.counts.entry(dest).or_insert(0) += 1;
        if first {
            let filter = node.filter.clone();
            self.live.insert(filter.clone(), Self::sentinel(root));
            delta.added.push(filter);
        }
    }

    /// Drops one refcount; the root's live entry goes with its last
    /// destination.
    fn unbump(&mut self, root: usize, dest: DestId, delta: &mut AggDelta) {
        let node = self.node_mut(root);
        let c = node
            .counts
            .get_mut(&dest)
            .expect("refcount present for tracked pair");
        *c -= 1;
        if *c == 0 {
            node.counts.remove(&dest);
            if node.counts.is_empty() {
                let filter = node.filter.clone();
                self.live.remove(&filter, Self::sentinel(root));
                delta.removed.push(filter);
            }
        }
    }

    /// Exhaustively validates the forest invariants (tests only).
    #[cfg(test)]
    fn check(&self, registry: &TypeRegistry) {
        let mut total = 0usize;
        let mut covered = 0usize;
        for (idx, slot) in self.nodes.iter().enumerate() {
            let Some(node) = slot else { continue };
            assert_eq!(
                self.by_key.get(&node.filter),
                Some(&idx),
                "by_key points back"
            );
            total += node.own.len();
            match node.parent {
                Some(p) => {
                    assert!(self.roots.contains(&p), "parent is a root");
                    assert!(self.node(p).children.contains(&idx), "parent lists child");
                    assert!(node.children.is_empty(), "forest is depth-1");
                    assert!(node.counts.is_empty(), "children carry no counts");
                    assert!(!node.own.is_empty(), "children carry subscribers");
                    assert!(
                        self.node(p).filter.covers(&node.filter, registry),
                        "child is covered by its root"
                    );
                    covered += node.own.len();
                }
                None => {
                    assert!(self.roots.contains(&idx), "parentless node is a root");
                    let mut expect: HashMap<DestId, u32> = HashMap::new();
                    for d in &node.own {
                        *expect.entry(*d).or_insert(0) += 1;
                    }
                    for &c in &node.children {
                        for d in &self.node(c).own {
                            *expect.entry(*d).or_insert(0) += 1;
                        }
                    }
                    assert_eq!(node.counts, expect, "root refcounts match subtree");
                    let live_ids: Option<Vec<DestId>> = self
                        .live
                        .iter()
                        .find(|(f, _)| **f == node.filter)
                        .map(|(_, ds)| ds.to_vec());
                    if node.counts.is_empty() {
                        assert!(
                            live_ids.is_none(),
                            "destination-less root has no live entry"
                        );
                    } else {
                        assert_eq!(
                            live_ids,
                            Some(vec![Self::sentinel(idx)]),
                            "root's live entry holds its sentinel"
                        );
                    }
                }
            }
        }
        assert_eq!(total, self.total_pairs, "total pair accounting");
        assert_eq!(covered, self.covered_pairs, "covered pair accounting");
        let live_roots = self
            .roots
            .iter()
            .filter(|&&r| !self.node(r).counts.is_empty())
            .count();
        assert_eq!(
            live_roots,
            self.live.filter_count(),
            "one live entry per destination-holding root"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use layercake_event::event_data;

    fn registry() -> (TypeRegistry, ClassId) {
        let mut r = TypeRegistry::new();
        let stock = r.register("Stock", None, vec![]).unwrap();
        (r, stock)
    }

    fn sym(class: ClassId, s: &str) -> Filter {
        Filter::for_class(class).eq("symbol", s)
    }

    fn sym_lt(class: ClassId, s: &str, ceiling: f64) -> Filter {
        Filter::for_class(class)
            .eq("symbol", s)
            .lt("price", ceiling)
    }

    /// Deterministic xorshift64* — the filter crate has no rand dev-dep.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn covered_insert_shares_the_root_entry() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        let d1 = t.insert(sym(stock, "A"), DestId(1), &r);
        assert_eq!(d1.added, vec![sym(stock, "A").normalized()]);
        let d2 = t.insert(sym_lt(stock, "A", 10.0), DestId(2), &r);
        assert!(d2.changed && d2.added.is_empty() && d2.removed.is_empty());
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.covered_subs(), 1);
        assert_eq!(t.subscription_count(), 2);
        t.check(&r);

        let mut out = Vec::new();
        t.matches(
            stock,
            &event_data! { "symbol" => "A", "price" => 5.0 },
            &r,
            &mut out,
        );
        assert_eq!(out, vec![DestId(1), DestId(2)]);
    }

    #[test]
    fn weaker_insert_demotes_existing_roots() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym_lt(stock, "A", 10.0), DestId(1), &r);
        t.insert(sym_lt(stock, "A", 20.0), DestId(2), &r);
        // 20.0 covers 10.0: one root, one covered child.
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.covered_subs(), 1);
        // Weaker still: the bare symbol filter covers both.
        let d = t.insert(sym(stock, "A"), DestId(3), &r);
        assert_eq!(d.removed, vec![sym_lt(stock, "A", 20.0).normalized()]);
        assert_eq!(d.added, vec![sym(stock, "A").normalized()]);
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.covered_subs(), 2);
        t.check(&r);
    }

    #[test]
    fn removing_covering_root_repromotes_children() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym(stock, "A"), DestId(1), &r);
        t.insert(sym_lt(stock, "A", 10.0), DestId(2), &r);
        t.insert(sym_lt(stock, "A", 20.0), DestId(3), &r);
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.covered_subs(), 2);

        let d = t.remove(&sym(stock, "A"), DestId(1), &r);
        assert!(d.changed);
        assert_eq!(d.removed, vec![sym(stock, "A").normalized()]);
        // The 20.0 child re-promotes and re-covers the 10.0 child; the
        // transient 10.0 promotion settles away.
        assert_eq!(d.added, vec![sym_lt(stock, "A", 20.0).normalized()]);
        assert_eq!(t.live_entries(), 1);
        assert_eq!(t.covered_subs(), 1);
        t.check(&r);

        let mut out = Vec::new();
        t.matches(
            stock,
            &event_data! { "symbol" => "A", "price" => 5.0 },
            &r,
            &mut out,
        );
        assert_eq!(out, vec![DestId(2), DestId(3)]);
    }

    #[test]
    fn refcounts_survive_duplicate_coverage() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        // One destination holds both the root filter and a covered one.
        t.insert(sym(stock, "A"), DestId(1), &r);
        t.insert(sym_lt(stock, "A", 10.0), DestId(1), &r);
        assert_eq!(t.live_entries(), 1);
        // Dropping the covered one must keep the live pair alive.
        let d = t.remove(&sym_lt(stock, "A", 10.0), DestId(1), &r);
        assert!(d.changed && d.removed.is_empty());
        assert_eq!(t.live_entries(), 1);
        assert!(t.has_dest(DestId(1)));
        t.check(&r);

        let mut out = Vec::new();
        t.matches(
            stock,
            &event_data! { "symbol" => "A", "price" => 50.0 },
            &r,
            &mut out,
        );
        assert_eq!(out, vec![DestId(1)]);
    }

    #[test]
    fn unrelated_filters_stay_separate_roots() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym(stock, "A"), DestId(1), &r);
        t.insert(sym(stock, "B"), DestId(2), &r);
        assert_eq!(t.live_entries(), 2);
        assert_eq!(t.covered_subs(), 0);
        t.check(&r);
    }

    #[test]
    fn remove_unknown_pair_is_a_noop() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym(stock, "A"), DestId(1), &r);
        let d = t.remove(&sym(stock, "B"), DestId(1), &r);
        assert!(!d.changed);
        let d = t.remove(&sym(stock, "A"), DestId(9), &r);
        assert!(!d.changed);
        assert_eq!(t.subscription_count(), 1);
        t.check(&r);
    }

    #[test]
    fn find_cover_and_iter_expand_real_destinations() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym(stock, "A"), DestId(7), &r);
        t.insert(sym_lt(stock, "A", 10.0), DestId(3), &r);
        let (f, ds) = t.find_cover(&sym_lt(stock, "A", 5.0), &r).unwrap();
        assert_eq!(*f, sym(stock, "A").normalized());
        assert_eq!(ds, vec![DestId(3), DestId(7)]);
        let entries: Vec<(Filter, Vec<DestId>)> = t.iter().map(|(f, ds)| (f.clone(), ds)).collect();
        assert_eq!(
            entries,
            vec![(sym(stock, "A").normalized(), vec![DestId(3), DestId(7)])]
        );
    }

    #[test]
    fn filters_for_reports_original_filters() {
        let (r, stock) = registry();
        let mut t = AggTable::default();
        t.insert(sym(stock, "A"), DestId(1), &r);
        t.insert(sym_lt(stock, "A", 10.0), DestId(2), &r);
        let fs: Vec<&Filter> = t.filters_for(DestId(2)).collect();
        assert_eq!(fs, vec![&sym_lt(stock, "A", 10.0).normalized()]);
        assert!(t.has_dest(DestId(2)));
        assert!(!t.has_dest(DestId(3)));
    }

    #[test]
    fn random_churn_matches_a_plain_table_after_refiltering() {
        let (r, stock) = registry();
        let mut rng = Lcg(0xA66_5EED);
        let symbols = ["A", "B", "C"];
        for round in 0..8 {
            let mut agg = AggTable::default();
            let mut plain = FilterTable::default();
            let mut pairs: Vec<(Filter, DestId)> = Vec::new();
            for op in 0..120 {
                let s = symbols[rng.below(3) as usize];
                let f = if rng.below(10) < 3 {
                    sym(stock, s)
                } else {
                    sym_lt(stock, s, (rng.below(5) + 1) as f64 * 5.0)
                };
                let dest = DestId(rng.below(20));
                if !pairs.is_empty() && rng.below(100) < 35 {
                    let k = rng.below(pairs.len() as u64) as usize;
                    let (f, d) = pairs.swap_remove(k);
                    agg.remove(&f, d, &r);
                    plain.remove(&f, d);
                } else {
                    agg.insert(f.clone(), dest, &r);
                    plain.insert(f.clone(), dest);
                    pairs.push((f, dest));
                }
                if op % 30 == 29 {
                    agg.check(&r);
                }
                let meta = event_data! {
                    "symbol" => symbols[rng.below(3) as usize],
                    "price" => rng.below(30) as f64
                };
                let mut got = Vec::new();
                agg.matches(stock, &meta, &r, &mut got);
                // The aggregated table may only over-forward; re-applying
                // each destination's original filters (what stage-0
                // subscribers do) restores the exact set.
                got.retain(|d| agg.filters_for(*d).any(|f| f.matches(stock, &meta, &r)));
                let mut want = Vec::new();
                plain.matches(stock, &meta, &r, &mut want);
                assert_eq!(got, want, "round {round} op {op}");
            }
            agg.check(&r);
            assert!(agg.live_entries() <= plain.filter_count());
        }
    }
}
