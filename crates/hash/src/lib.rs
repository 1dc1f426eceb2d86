//! `siesta-hash` — a deterministic, zero-dependency fast hasher for the
//! synthesis hot paths.
//!
//! The std `HashMap` defaults to SipHash-1-3 behind a per-process
//! `RandomState`. That is the right call for maps keyed by untrusted
//! input, but the pipeline's hot maps — the Sequitur digram table, the
//! merge remap tables, the first-seen dedupes of [`first_seen`] — are
//! keyed by trusted values (symbol pairs, rule ids, counter bit-patterns,
//! id sequences, grammars) and are rebuilt millions of times per
//! synthesis. Two properties matter there and SipHash has neither:
//!
//! 1. **Speed.** A multiply-rotate mix (the FxHash family, as used by the
//!    Rust compiler and Firefox) hashes a digram key in a handful of
//!    cycles instead of a full SipHash permutation per 8-byte block.
//! 2. **Determinism.** No `RandomState`: the same key hashes to the same
//!    value in every process, on every run. Nothing in the pipeline's
//!    *output* may depend on iteration order anyway (the determinism
//!    contract in DESIGN.md §9 forces first-seen orders everywhere), but
//!    fixed hashing also makes allocation patterns, collision behaviour,
//!    and perf profiles reproducible across runs and machines.
//!
//! Collisions are a non-issue for correctness: `HashMap` compares keys
//! with `Eq` on collision, so a poor hash can only cost time. Hash-flood
//! resistance is deliberately traded away — no key here crosses a trust
//! boundary.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Multiplier from the 64-bit FxHash mix; close to 2^64/φ with good
/// low-bit diffusion under multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A deterministic multiply-rotate hasher (FxHash-style).
///
/// Not cryptographic, not flood-resistant, and the output is **stable
/// across processes**: there is no per-process or per-instance seed.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Little-endian 8-byte chunks, then one padded tail word. The tail
        // carries its length so "ab" + "c" and "a" + "bc" cannot collide
        // into the same state by construction of the chunking alone.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            tail[7] = rem.len() as u8;
            self.mix(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_i8(&mut self, i: i8) {
        self.mix(i as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, i: i16) {
        self.mix(i as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, i: i32) {
        self.mix(i as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.mix(i as usize as u64);
    }
}

/// The fixed-seed `BuildHasher`: `Default` constructs identical hashers in
/// every process (the whole point — contrast `std::hash::RandomState`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` with the deterministic fast hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the deterministic fast hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// An empty [`FxHashMap`] (type-inference-friendly constructor).
pub fn fx_map<K, V>() -> FxHashMap<K, V> {
    FxHashMap::default()
}

/// An [`FxHashMap`] pre-sized for `capacity` entries. The hot maps all
/// know a data-derived bound up front (sequence length, table size), so
/// they can skip the rehash-on-grow ladder entirely.
pub fn fx_map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, FxBuildHasher::default())
}

/// Keys numbered by their first equal key: what [`first_seen`] returns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FirstSeen {
    /// `class[i]` is the class of key `i`. Classes count up from 0 in the
    /// order their first key appears.
    pub class: Vec<usize>,
    /// `first[c]` is the position of class `c`'s first key, so it is
    /// ascending.
    pub first: Vec<usize>,
}

/// Number `keys` by their first equal key: the one first-seen dedupe of
/// the pipeline (rank sequences, counter vectors, main rules, lifted
/// grammars). `Eq` decides which keys are equal and the hash only routes,
/// so a collision costs a comparison, never a wrong class, and the
/// numbering is a function of the keys and their order alone.
pub fn first_seen<K: Hash + Eq>(keys: impl IntoIterator<Item = K>) -> FirstSeen {
    let keys = keys.into_iter();
    let mut index: FxHashMap<K, usize> = fx_map_with_capacity(keys.size_hint().0);
    let mut first = Vec::new();
    let class = keys
        .enumerate()
        .map(|(i, key)| {
            *index.entry(key).or_insert_with(|| {
                first.push(i);
                first.len() - 1
            })
        })
        .collect();
    FirstSeen { class, first }
}

/// [`first_seen`] over references, for keys that many positions share by
/// reference (the `Arc<Grammar>` ranks of one stream hold): a key at an
/// address already seen takes that address's class without hashing its
/// value, so each distinct referent is hashed once. Returns exactly what
/// `first_seen(keys)` returns.
pub fn first_seen_shared<'a, K: Hash + Eq + 'a>(
    keys: impl IntoIterator<Item = &'a K>,
) -> FirstSeen {
    let mut by_address: FxHashMap<*const K, usize> = fx_map();
    let mut by_value: FxHashMap<&'a K, usize> = fx_map();
    let mut first = Vec::new();
    let class = keys
        .into_iter()
        .enumerate()
        .map(|(i, key)| {
            *by_address.entry(key as *const K).or_insert_with(|| {
                *by_value.entry(key).or_insert_with(|| {
                    first.push(i);
                    first.len() - 1
                })
            })
        })
        .collect();
    FirstSeen { class, first }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_processes() {
        // Fixed expected values: the hasher has no per-process seed (no
        // `RandomState`), so these constants must hold in *every* process,
        // on every run — this test is the cross-process determinism
        // witness. If it ever fails, the algorithm changed and every
        // persisted fingerprint assumption should be re-examined.
        assert_eq!(hash_of(&0u64), 0);
        assert_eq!(hash_of(&1u64), 0x517c_c1b7_2722_0a95);
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        let seq: Vec<u32> = (0..100).collect();
        assert_eq!(hash_of(&seq), hash_of(&seq.clone()));
        // Two fresh `Default` build-hashers agree (RandomState would not).
        let a = FxBuildHasher::default().hash_one(12345u64);
        let b = FxBuildHasher::default().hash_one(12345u64);
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_inputs_spread() {
        // Not a statistical test — just a guard against a degenerate mix
        // (e.g. everything hashing to 0 after a refactor).
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(seen.len(), 10_000, "64-bit collisions in 10k counters");
    }

    #[test]
    fn byte_tail_length_disambiguates() {
        // The padded tail word embeds its length: a 1-byte and a 2-byte
        // suffix with equal padded bytes must not collide structurally.
        assert_ne!(hash_of(&[1u8][..]), hash_of(&[1u8, 0][..]));
        assert_ne!(hash_of(b"ab".as_slice()), hash_of(b"a".as_slice()));
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<(u32, u64), usize> = fx_map_with_capacity(64);
        for i in 0..64u32 {
            m.insert((i, (i as u64) << 8), i as usize);
        }
        assert_eq!(m.len(), 64);
        for i in 0..64u32 {
            assert_eq!(m.get(&(i, (i as u64) << 8)), Some(&(i as usize)));
        }
        let s: FxHashSet<u32> = (0..10).collect();
        assert!(s.contains(&7) && !s.contains(&10));
    }

    #[test]
    fn sequence_hash_is_content_sensitive() {
        let a: Vec<u32> = vec![1, 2, 3, 4];
        let mut b = a.clone();
        assert_eq!(hash_of(&a), hash_of(&b));
        b[2] = 9;
        assert_ne!(hash_of(&a), hash_of(&b));
        // Order matters.
        assert_ne!(hash_of(&vec![1u32, 2]), hash_of(&vec![2u32, 1]));
    }

    #[test]
    fn first_seen_numbers_classes_in_order_of_appearance() {
        let got = first_seen(["b", "a", "b", "c", "a", "b"]);
        assert_eq!(got.class, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(got.first, vec![0, 1, 3]);
        // Borrowed keys work the same as owned ones.
        let seqs = [vec![1u32, 2], vec![3], vec![1, 2]];
        let got = first_seen(seqs.iter().map(Vec::as_slice));
        assert_eq!(got.class, vec![0, 1, 0]);
        assert_eq!(got.first, vec![0, 1]);
    }

    #[test]
    fn first_seen_lets_eq_decide_when_every_hash_collides() {
        #[derive(PartialEq, Eq)]
        struct Colliding(u32);
        impl Hash for Colliding {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(7);
            }
        }
        let got = first_seen([3, 1, 3, 2, 1].map(Colliding));
        assert_eq!(got.class, vec![0, 1, 0, 2, 1]);
        assert_eq!(got.first, vec![0, 1, 3]);
    }

    #[test]
    fn first_seen_of_nothing_is_empty() {
        assert_eq!(first_seen(std::iter::empty::<u64>()), FirstSeen::default());
        assert_eq!(first_seen_shared(std::iter::empty::<&u64>()), FirstSeen::default());
    }

    #[test]
    fn shared_keys_number_like_their_values() {
        // Equal values at two addresses, each shared by several positions,
        // and a value with one address: numbered by value, as first_seen
        // numbers them.
        let (a1, a2, b) = (String::from("a"), String::from("a"), String::from("b"));
        let keys = [&b, &a1, &b, &a2, &a1, &a2, &b];
        assert_eq!(first_seen_shared(keys), first_seen(keys));
        assert_eq!(first_seen_shared(keys).class, vec![0, 1, 0, 1, 1, 1, 0]);
    }
}
