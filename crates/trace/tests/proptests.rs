//! Property-based tests for the tracing layer.

#![cfg(feature = "proptest-tests")]
// Gated: the `proptest` dev-dependency is not vendored (no registry access
// in the default build environment). The nightly CI job runs this suite via
// `scripts/proptests.sh`, which adds the dependency on the fly; run the same
// script locally. On failure, proptest logs the shrunken counterexample plus
// its seed and persists it under this crate's proptest-regressions/ — commit
// that file with the fix so the case replays forever (see tests/README.md).

use proptest::prelude::*;

use siesta_grammar::Sequitur;
use siesta_perfmodel::CounterVec;
use siesta_trace::{
    abs_rank, counters_close, rel_rank, store_from_bytes, store_to_bytes, CommEvent, ComputeStats,
    EventRecord, FreePool, HandleMap, StreamedGlobal,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Relative-rank encoding round-trips for any (me, peer, size).
    #[test]
    fn rel_rank_round_trips(size in 1usize..600, me_raw in 0usize..600, peer_raw in 0usize..600) {
        let me = me_raw % size;
        let peer = peer_raw % size;
        let rel = rel_rank(me, peer, size);
        prop_assert!((rel as usize) < size);
        prop_assert_eq!(abs_rank(me, rel, size), peer);
    }

    /// Two ranks at the same offset from their targets produce the same
    /// relative encoding — the property compression relies on.
    #[test]
    fn same_offset_same_encoding(size in 2usize..600, a in 0usize..600, b in 0usize..600, d in 0usize..600) {
        let a = a % size;
        let b = b % size;
        let d = d % size;
        prop_assert_eq!(
            rel_rank(a, (a + d) % size, size),
            rel_rank(b, (b + d) % size, size)
        );
    }

    /// The free pool behaves like "always allocate the smallest free
    /// number": model it against a BTreeSet.
    #[test]
    fn free_pool_matches_model(ops in prop::collection::vec(prop::bool::ANY, 1..200)) {
        let mut pool = FreePool::new();
        let mut live: Vec<u32> = Vec::new();
        let mut model_free: std::collections::BTreeSet<u32> = Default::default();
        let mut model_next: u32 = 0;
        for alloc in ops {
            if alloc || live.is_empty() {
                let expected = model_free.pop_first().unwrap_or_else(|| {
                    let n = model_next;
                    model_next += 1;
                    n
                });
                let got = pool.alloc();
                prop_assert_eq!(got, expected);
                live.push(got);
            } else {
                // Release the most recently allocated live number.
                let n = live.pop().unwrap();
                pool.release(n);
                model_free.insert(n);
            }
        }
        prop_assert_eq!(pool.live(), live.len());
    }

    /// Handle normalization is history-deterministic: the pool ids depend
    /// only on the *sequence* of bind/unbind, never on the handle values.
    #[test]
    fn handle_map_is_value_independent(
        script in prop::collection::vec(prop::bool::ANY, 1..100),
        salt_a in any::<u64>(),
        salt_b in any::<u64>(),
    ) {
        let run = |salt: u64| -> Vec<u32> {
            let mut m: HandleMap<u64> = HandleMap::new();
            let mut live: Vec<u64> = Vec::new();
            let mut next_handle = 0u64;
            let mut out = Vec::new();
            for bind in &script {
                if *bind || live.is_empty() {
                    // A "runtime" handle value that depends on the salt.
                    let h = salt.wrapping_mul(6364136223846793005).wrapping_add(next_handle);
                    next_handle += 1;
                    live.push(h);
                    out.push(m.bind(h));
                } else {
                    let h = live.pop().unwrap();
                    out.push(m.unbind(h).unwrap());
                }
            }
            out
        };
        prop_assert_eq!(run(salt_a), run(salt_b));
    }

    /// `counters_close` is reflexive and symmetric, tolerates jitter below
    /// the threshold, and rejects scaling beyond it.
    #[test]
    fn counters_close_properties(
        base in prop::collection::vec(1000.0f64..1e9, 6),
        factor in 1.0f64..3.0,
    ) {
        let a = CounterVec::from_array([base[0], base[1], base[2], base[3], base[4], base[5]]);
        prop_assert!(counters_close(&a, &a, 0.15));
        let scaled = a * factor;
        let close_ab = counters_close(&a, &scaled, 0.15);
        let close_ba = counters_close(&scaled, &a, 0.15);
        prop_assert_eq!(close_ab, close_ba);
        // |a - fa| / max = 1 - 1/f; within threshold iff f <= 1/(1-t).
        let expected = (1.0 - 1.0 / factor) <= 0.15 + 1e-12;
        prop_assert_eq!(close_ab, expected, "factor {}", factor);
    }
}

/// One arbitrary terminal-table entry, covering fixed-size comm payloads,
/// variable-length comm payloads (request lists, per-peer count vectors),
/// and compute clusters with exact f64 counter state.
fn arb_event() -> impl Strategy<Value = EventRecord> {
    prop_oneof![
        (0u32..64, 0i32..100, 0u64..1_000_000, 0u32..4)
            .prop_map(|(rel, tag, bytes, comm)| EventRecord::Comm(CommEvent::Send {
                rel,
                tag,
                bytes,
                comm
            })),
        (0u32..64, 0i32..100, 0u64..1_000_000, 0u32..4, 0u32..8).prop_map(
            |(rel, tag, bytes, comm, req)| EventRecord::Comm(CommEvent::Irecv {
                rel,
                tag,
                bytes,
                comm,
                req
            })
        ),
        prop::collection::vec(0u32..16, 0..6)
            .prop_map(|reqs| EventRecord::Comm(CommEvent::Waitall { reqs })),
        (0u32..4, 0u64..1_000_000)
            .prop_map(|(comm, bytes)| EventRecord::Comm(CommEvent::Allreduce { comm, bytes })),
        (
            0u32..4,
            prop::collection::vec(0u64..4096, 0..5),
            prop::collection::vec(0u64..4096, 0..5)
        )
            .prop_map(|(comm, send_counts, recv_counts)| EventRecord::Comm(
                CommEvent::Alltoallv { comm, send_counts, recv_counts }
            )),
        (
            prop::collection::vec(0.0f64..1e9, 6),
            prop::collection::vec(0.0f64..1e9, 6),
            1u64..50
        )
            .prop_map(|(r, s, count)| {
                let mut st =
                    ComputeStats::new(CounterVec::from_array([r[0], r[1], r[2], r[3], r[4], r[5]]));
                st.sum = CounterVec::from_array([s[0], s[1], s[2], s[3], s[4], s[5]]);
                st.count = count;
                EventRecord::Compute(st)
            }),
    ]
}

/// An arbitrary merged trace: a table that may contain duplicate entries
/// and per-rank grammars (batch Sequitur over id sequences of uneven
/// lengths, including empty ones), where ranks drawing the same sequence
/// share a stored grammar.
fn arb_trace() -> impl Strategy<Value = StreamedGlobal> {
    (prop::collection::vec(arb_event(), 1..12), 1usize..6, 0usize..10_000_000, 0u32..8).prop_flat_map(
        |(table, nranks, raw_bytes, merge_rounds)| {
            let n = table.len() as u32;
            (
                prop::collection::vec(prop::collection::vec(0..n, 0..200), 1..4),
                prop::collection::vec(any::<prop::sample::Index>(), nranks..=nranks),
            )
                .prop_map(move |(seqs, picks)| StreamedGlobal {
                    nranks,
                    table: table.clone(),
                    grammars: picks
                        .iter()
                        .map(|pick| Sequitur::build(&seqs[pick.index(seqs.len())]))
                        .collect(),
                    raw_bytes,
                    merge_rounds,
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary traces survive the store exactly: header fields, the full
    /// terminal table (comm payloads, duplicate entries, exact
    /// compute-cluster f64 state), and every rank's grammar.
    #[test]
    fn store_round_trips(t in arb_trace()) {
        let back = store_from_bytes(&store_to_bytes(&t)).expect("decode");
        prop_assert_eq!(back, t);
    }

    /// Any strict prefix of a valid store is rejected with an error —
    /// never accepted, never a panic.
    #[test]
    fn store_rejects_any_truncation(t in arb_trace(), frac in 0.0f64..1.0) {
        let bytes = store_to_bytes(&t);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(store_from_bytes(&bytes[..cut]).is_err());
    }

    /// A single-bit flip anywhere in the file is rejected: the magic and
    /// version are checked first and the checksum covers the rest.
    #[test]
    fn store_rejects_any_bit_flip(
        t in arb_trace(),
        pos_raw in any::<usize>(),
        bit in 0u32..8,
    ) {
        let mut bytes = store_to_bytes(&t);
        let pos = pos_raw % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        prop_assert!(store_from_bytes(&bytes).is_err());
    }
}
