//! Span-argument interning: formatted `key=value` strings become compact
//! `u64` ids so a recorded span carries one word instead of a `String`.
//!
//! The id is the deterministic `siesta-hash` content hash of the string —
//! the same args hash to the same id in every process, at every thread
//! count, so ids are safe to embed in exported artifacts (the Chrome
//! trace's string table) without breaking the determinism contract.
//!
//! Interning happens at span *start*, off the record path (the guard drop
//! that commits a span touches no table). A thread-local "already
//! published" set makes the steady state lock-free: once a thread has
//! interned a string, re-interning the same content never takes the global
//! table lock again.
//!
//! Collisions (two distinct strings with equal hashes) keep the
//! first-published string and bump `obs.intern.collisions`; with 64-bit
//! ids over the handful of distinct arg strings a run produces, this is a
//! diagnostics counter, not an expected event.

use std::cell::RefCell;
use std::hash::BuildHasher;
use std::sync::Mutex;

use siesta_hash::{FxBuildHasher, FxHashMap, FxHashSet};

/// Interned span args. `NONE` (0) means "no args" and is what a no-arg
/// span carries — no formatting, no interning, no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ArgsId(pub u64);

impl ArgsId {
    pub const NONE: ArgsId = ArgsId(0);

    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// id → leaked string. Insert-only; strings live for the process.
static TABLE: Mutex<Option<FxHashMap<u64, &'static str>>> = Mutex::new(None);

thread_local! {
    /// Ids this thread has already published to [`TABLE`].
    static SEEN: RefCell<FxHashSet<u64>> = RefCell::new(FxHashSet::default());
}

/// Deterministic id for an args string (`id != 0` for non-empty input).
fn id_of(s: &str) -> u64 {
    // Reserve 0 for "no args": remap a (vanishingly unlikely) zero hash.
    FxBuildHasher::default().hash_one(s).max(1)
}

/// Intern `s`, publishing it to the global string table on first sight.
/// Returns [`ArgsId::NONE`] for the empty string.
pub fn intern(s: &str) -> ArgsId {
    if s.is_empty() {
        return ArgsId::NONE;
    }
    let id = id_of(s);
    let published = SEEN.with(|seen| seen.borrow().contains(&id));
    if !published {
        let mut table = TABLE.lock().unwrap();
        let table = table.get_or_insert_with(FxHashMap::default);
        match table.get(&id) {
            None => {
                table.insert(id, Box::leak(s.to_owned().into_boxed_str()));
            }
            Some(existing) if *existing != s => {
                crate::metrics::counter("obs.intern.collisions").inc();
            }
            Some(_) => {}
        }
        SEEN.with(|seen| {
            seen.borrow_mut().insert(id);
        });
    }
    ArgsId(id)
}

/// The string behind an id; `""` for [`ArgsId::NONE`] or an unknown id
/// (e.g. a span drained in a process that never interned it — impossible
/// in-process, but a harmless empty string beats a panic).
pub fn resolve(id: ArgsId) -> &'static str {
    if id.is_none() {
        return "";
    }
    TABLE
        .lock()
        .unwrap()
        .as_ref()
        .and_then(|t| t.get(&id.0).copied())
        .unwrap_or("")
}

/// Snapshot of the string table, sorted by id — a deterministic order,
/// because ids are content hashes. Used by the Chrome exporter.
pub fn string_table() -> Vec<(u64, &'static str)> {
    let mut entries: Vec<(u64, &'static str)> = TABLE
        .lock()
        .unwrap()
        .as_ref()
        .map(|t| t.iter().map(|(&k, &v)| (k, v)).collect())
        .unwrap_or_default();
    entries.sort_unstable_by_key(|&(id, _)| id);
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_dedup() {
        let a = intern("rank=3");
        let b = intern("rank=3");
        assert_eq!(a, b);
        assert!(!a.is_none());
        assert_eq!(resolve(a), "rank=3");
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(intern(""), ArgsId::NONE);
        assert_eq!(resolve(ArgsId::NONE), "");
    }

    #[test]
    fn ids_are_content_hashes() {
        // Deterministic across calls (and, by the `siesta-hash` contract,
        // across processes): the id is a pure function of the content.
        assert_eq!(intern("x=1").0, FxBuildHasher::default().hash_one("x=1").max(1));
    }

    #[test]
    fn unknown_id_resolves_empty() {
        assert_eq!(resolve(ArgsId(0xdead_beef_0bad_f00d)), "");
    }

    #[test]
    fn string_table_contains_interned_strings_sorted() {
        let id = intern("table=probe");
        let table = string_table();
        assert!(table.iter().any(|&(i, s)| i == id.0 && s == "table=probe"));
        assert!(table.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
