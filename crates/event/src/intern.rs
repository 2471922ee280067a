//! Global attribute-name interning.
//!
//! Attribute names are drawn from the event classes' advertised schemas
//! (the `G_c` attribute order of Section 4.1), so the universe of names in
//! a running system is small and fixed early. Interning maps each name to a
//! dense [`AttrId`] once, at registration/subscription time, so the data
//! plane — meta-data lookup, predicate grouping, counting-index slots —
//! compares and indexes `u32`s instead of hashing and comparing strings on
//! every event.
//!
//! The interner is process-global, append-only, and thread-safe. Interned
//! names are leaked (once per distinct name, ever) so resolution hands out
//! `&'static str`. Only the name → id direction takes a lock: the id → name
//! table is a set of write-once slots behind an atomic length, so
//! [`AttrId::name`] and [`AttrId::universe_size`] — what the codec and the
//! matching structures call per attribute — never contend with a writer.
//! Wire formats always carry the *name*, never the id: ids are a
//! process-local acceleration and are re-derived on deserialization, so two
//! processes never need to agree on numbering.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{OnceLock, RwLock};

use serde::{DeError, Deserialize, Serialize, Value};

/// Dense identifier of an interned attribute name.
///
/// Ids are assigned in first-intern order and are stable for the lifetime
/// of the process. They are *not* stable across processes — serialization
/// always goes through the name (see the [`Serialize`] impl).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

/// Name → id, the only direction that needs a lock. Writers also append to
/// [`NAMES`] while holding it, which is what keeps ids dense.
fn by_name() -> &'static RwLock<HashMap<&'static str, AttrId>> {
    static BY_NAME: OnceLock<RwLock<HashMap<&'static str, AttrId>>> = OnceLock::new();
    BY_NAME.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Id → name.
static NAMES: SlotTable<&'static str> = SlotTable::new();

const CHUNKS: usize = 27;
const FIRST_CHUNK: usize = 64;

/// The chunk holding dense index `i` and the offset within it.
fn locate(i: usize) -> (usize, usize) {
    let n = i / FIRST_CHUNK + 1;
    let chunk = n.ilog2() as usize;
    (chunk, i - FIRST_CHUNK * ((1 << chunk) - 1))
}

/// A dense, append-only, process-global table that readers index without
/// a lock: chunk `k` holds `FIRST_CHUNK << k` write-once slots, so the 27
/// chunks cover every `u32` index and a slot never moves once written.
/// The interner's id → name direction and the codec's shape table are
/// both one of these.
pub(crate) struct SlotTable<T: 'static> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Number of slots published so far. Stored with `Release` after the
    /// slot is written and loaded with `Acquire`, so an index below the
    /// length always finds its slot filled.
    len: AtomicUsize,
}

impl<T> SlotTable<T> {
    pub(crate) const fn new() -> Self {
        Self {
            chunks: [const { OnceLock::new() }; CHUNKS],
            len: AtomicUsize::new(0),
        }
    }

    /// Number of slots published so far.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The value at index `i`, if one was published there.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len() {
            return None;
        }
        let (chunk, offset) = locate(i);
        self.chunks[chunk]
            .get()
            .and_then(|slots| slots[offset].get())
    }

    /// Publishes `value` at index [`SlotTable::len`]. Callers serialize
    /// pushes under a lock of their own, which is what keeps the indices
    /// dense.
    pub(crate) fn push(&self, value: T) {
        let len = self.len.load(Ordering::Relaxed);
        let (chunk, offset) = locate(len);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        assert!(
            slots[offset].set(value).is_ok(),
            "a slot at the table's length is vacant"
        );
        self.len.store(len + 1, Ordering::Release);
    }
}

impl AttrId {
    /// Interns a name, returning its dense id. Idempotent: the same name
    /// always yields the same id.
    #[must_use]
    pub fn intern(name: &str) -> AttrId {
        if let Some(id) = AttrId::lookup(name) {
            return id;
        }
        let mut guard = by_name().write().expect("attribute interner poisoned");
        if let Some(&id) = guard.get(name) {
            return id; // raced with another writer
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = AttrId(u32::try_from(NAMES.len()).expect("attribute names fit in u32"));
        NAMES.push(leaked);
        guard.insert(leaked, id);
        id
    }

    /// Looks up a name's id without interning it. `None` means the name has
    /// never been interned — and therefore cannot occur in any [`EventData`]
    /// or compiled filter constraint.
    ///
    /// [`EventData`]: crate::EventData
    #[must_use]
    pub fn lookup(name: &str) -> Option<AttrId> {
        by_name()
            .read()
            .expect("attribute interner poisoned")
            .get(name)
            .copied()
    }

    /// Resolves the id back to its name, without taking a lock.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by [`AttrId::intern`] in this
    /// process.
    #[must_use]
    pub fn name(self) -> &'static str {
        NAMES
            .get(self.0 as usize)
            .copied()
            .unwrap_or_else(|| panic!("AttrId({}) was never interned", self.0))
    }

    /// Number of distinct names interned so far (also the exclusive upper
    /// bound of live id values) — the width a dense per-attribute table
    /// needs.
    #[must_use]
    pub fn universe_size() -> usize {
        NAMES.len()
    }
}

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// On the wire an attribute id is its name; numbering is process-local.
impl Serialize for AttrId {
    fn serialize_value(&self) -> Value {
        Value::Str(self.name().to_owned())
    }
}

impl Deserialize for AttrId {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(AttrId::intern(s)),
            other => Err(DeError::msg(format!(
                "expected attribute name string, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let a = AttrId::intern("intern-test-alpha");
        let b = AttrId::intern("intern-test-beta");
        assert_ne!(a, b);
        assert_eq!(AttrId::intern("intern-test-alpha"), a);
        assert_eq!(AttrId::lookup("intern-test-alpha"), Some(a));
        assert_eq!(a.name(), "intern-test-alpha");
        assert!(AttrId::universe_size() >= 2);
    }

    #[test]
    fn dense_indices_map_onto_consecutive_chunk_slots() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (chunk, offset) = locate(u32::MAX as usize);
        assert_eq!(chunk, CHUNKS - 1);
        assert!(offset < FIRST_CHUNK << chunk);
    }

    #[test]
    fn lookup_misses_without_interning() {
        assert_eq!(AttrId::lookup("intern-test-never-seen-g7Q"), None);
        // Still not interned by the failed lookup.
        assert_eq!(AttrId::lookup("intern-test-never-seen-g7Q"), None);
    }

    #[test]
    fn serde_round_trips_by_name() {
        let id = AttrId::intern("intern-test-serde");
        let v = id.serialize_value();
        assert_eq!(v, Value::Str("intern-test-serde".to_owned()));
        assert_eq!(AttrId::deserialize_value(&v).unwrap(), id);
        assert!(AttrId::deserialize_value(&Value::Int(3)).is_err());
    }
}
