//! Concurrent-interning stress test: the process-global attribute
//! interner is hit from many threads with overlapping name sets, and all
//! threads must agree on every name's id, resolve ids back to the right
//! names, and finish without deadlocking.
//!
//! This is the thread-safety contract the wall-clock runtime relies on:
//! matcher shards deserialize envelopes (re-interning attribute names)
//! concurrently with subscriber threads compiling filters, so the
//! double-checked `RwLock` path in `AttrId::intern` races constantly, and
//! `AttrId::name` reads the id → name table with no lock while writers
//! append to it.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use layercake_event::AttrId;

const THREADS: usize = 8;
const NAMES: usize = 200;
const ROUNDS: usize = 50;

/// The shared name universe. Every thread interns every name, but in a
/// thread-specific order and interleaving, so first-intern races happen
/// on many distinct names at once.
fn universe() -> Vec<String> {
    (0..NAMES).map(|i| format!("stress-attr-{i}")).collect()
}

#[test]
fn concurrent_interning_agrees_and_terminates() {
    let names = Arc::new(universe());
    let barrier = Arc::new(Barrier::new(THREADS));
    let start = Instant::now();

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let names = Arc::clone(&names);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                // Line all threads up so the very first interns collide.
                barrier.wait();
                let mut seen: HashMap<String, AttrId> = HashMap::new();
                for round in 0..ROUNDS {
                    for i in 0..names.len() {
                        // Each thread walks the universe at a different
                        // stride, so the overlap pattern varies per round.
                        let idx = (i * (t + 1) + round) % names.len();
                        let name = &names[idx];
                        let id = AttrId::intern(name);
                        // Ids are stable within a thread across rounds…
                        if let Some(prev) = seen.insert(name.clone(), id) {
                            assert_eq!(prev, id, "id for {name} changed between interns");
                        }
                        // …resolve back to the interned name…
                        assert_eq!(id.name(), name.as_str());
                        // …and lookup agrees with intern.
                        assert_eq!(AttrId::lookup(name), Some(id));
                    }
                }
                seen
            })
        })
        .collect();

    let per_thread: Vec<HashMap<String, AttrId>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // All threads agree on the id of every name in the universe.
    let reference = &per_thread[0];
    assert_eq!(reference.len(), NAMES);
    for (t, map) in per_thread.iter().enumerate().skip(1) {
        assert_eq!(map.len(), NAMES);
        for (name, id) in map {
            assert_eq!(
                reference.get(name),
                Some(id),
                "thread {t} disagrees on id of {name}"
            );
        }
    }

    // Ids are distinct per name (the interner never aliases two names).
    let mut ids: Vec<AttrId> = reference.values().copied().collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), NAMES, "two names interned to the same id");

    // Termination sanity: a deadlocked interner would hang the test
    // harness, but a pathological livelock should also fail loudly.
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "interning stress took implausibly long: {:?}",
        start.elapsed()
    );
}

#[test]
fn universe_size_is_monotonic_under_concurrency() {
    let before = AttrId::universe_size();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            thread::spawn(move || {
                let mut last = AttrId::universe_size();
                for i in 0..50 {
                    let _ = AttrId::intern(&format!("stress-mono-{}-{i}", t % 2));
                    let now = AttrId::universe_size();
                    assert!(now >= last, "universe size went backwards");
                    last = now;
                }
                last
            })
        })
        .collect();
    let sizes: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let after = AttrId::universe_size();
    for s in sizes {
        assert!(s >= before, "universe size went backwards");
        assert!(s <= after, "universe size overshot the final value");
    }
    // Two thread groups interned the same 2×50 names. The interner is
    // process-global and the sibling test interns its own names in the same
    // process, so the assertions are about these 100 names only: each is
    // known, no two share an id, and every id is below the final size.
    let mut ids: Vec<AttrId> = (0..2)
        .flat_map(|g| (0..50).map(move |i| format!("stress-mono-{g}-{i}")))
        .map(|name| AttrId::lookup(&name).unwrap_or_else(|| panic!("{name} was interned")))
        .collect();
    assert!(ids.iter().all(|id| (id.0 as usize) < after));
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 100, "two names interned to the same id");
    assert!(after - before >= 100);
}
