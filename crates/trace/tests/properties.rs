//! Property tests for the tracing layer, on the seeded `siesta-prop`
//! harness.

use std::sync::Arc;

use siesta_grammar::Sequitur;
use siesta_perfmodel::CounterVec;
use siesta_prop::{check, Gen};
use siesta_trace::{
    abs_rank, counters_close, rel_rank, store_from_bytes, store_to_bytes, CommEvent, ComputeStats,
    EventRecord, FreePool, HandleMap, StreamedGlobal,
};

/// Relative-rank encoding round-trips for any (me, peer, size).
#[test]
fn rel_rank_round_trips() {
    check("rel_rank_round_trips", 512, |g| {
        let size = g.draw(1usize..600);
        let me = g.draw(0usize..600) % size;
        let peer = g.draw(0usize..600) % size;
        let rel = rel_rank(me, peer, size);
        assert!((rel as usize) < size);
        assert_eq!(abs_rank(me, rel, size), peer);
    });
}

/// Two ranks at the same offset from their targets produce the same
/// relative encoding — the property compression relies on.
#[test]
fn same_offset_same_encoding() {
    check("same_offset_same_encoding", 512, |g| {
        let size = g.draw(2usize..600);
        let [a, b, d] = std::array::from_fn(|_| g.draw(0usize..600) % size);
        assert_eq!(rel_rank(a, (a + d) % size, size), rel_rank(b, (b + d) % size, size));
    });
}

/// The free pool behaves like "always allocate the smallest free number":
/// model it against a BTreeSet.
#[test]
fn free_pool_matches_model() {
    check("free_pool_matches_model", 512, |g| {
        let ops = g.vec(1..200, Gen::bool);
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
                assert_eq!(got, expected);
                live.push(got);
            } else {
                // Release the most recently allocated live number.
                let n = live.pop().unwrap();
                pool.release(n);
                model_free.insert(n);
            }
        }
        assert_eq!(pool.live(), live.len());
    });
}

/// Handle normalization is history-deterministic: the pool ids depend
/// only on the *sequence* of bind/unbind, never on the handle values.
#[test]
fn handle_map_is_value_independent() {
    check("handle_map_is_value_independent", 512, |g| {
        let script = g.vec(1..100, Gen::bool);
        let (salt_a, salt_b) = (g.u64(), g.u64());
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
        assert_eq!(run(salt_a), run(salt_b));
    });
}

/// `counters_close` is reflexive and symmetric, tolerates jitter below the
/// threshold, and rejects scaling beyond it.
#[test]
fn counters_close_properties() {
    check("counters_close_properties", 512, |g| {
        let a = CounterVec::from_array(std::array::from_fn(|_| g.draw(1000.0..1e9)));
        let factor = g.draw(1.0..3.0);
        assert!(counters_close(&a, &a, 0.15));
        let scaled = a * factor;
        let close_ab = counters_close(&a, &scaled, 0.15);
        let close_ba = counters_close(&scaled, &a, 0.15);
        assert_eq!(close_ab, close_ba);
        // |a - fa| / max = 1 - 1/f; within threshold iff f <= 1/(1-t).
        let expected = (1.0 - 1.0 / factor) <= 0.15 + 1e-12;
        assert_eq!(close_ab, expected, "factor {factor}");
    });
}

/// One arbitrary terminal-table entry, covering fixed-size comm payloads,
/// variable-length comm payloads (request lists, per-peer count vectors),
/// and compute clusters with exact f64 counter state.
fn arb_event(g: &mut Gen) -> EventRecord {
    let event = match g.draw(0u32..6) {
        0 => CommEvent::Send {
            rel: g.draw(0u32..64),
            tag: g.draw(0i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
        },
        1 => CommEvent::Irecv {
            rel: g.draw(0u32..64),
            tag: g.draw(0i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
            req: g.draw(0u32..8),
        },
        2 => CommEvent::Waitall { reqs: g.vec(0..6, |g| g.draw(0u32..16)) },
        3 => CommEvent::Allreduce { comm: g.draw(0u32..4), bytes: g.draw(0u64..1_000_000) },
        4 => CommEvent::Alltoallv {
            comm: g.draw(0u32..4),
            send_counts: g.vec(0..5, |g| g.draw(0u64..4096)),
            recv_counts: g.vec(0..5, |g| g.draw(0u64..4096)),
        },
        _ => {
            let repr = CounterVec::from_array(std::array::from_fn(|_| g.draw(0.0..1e9)));
            let mut st = ComputeStats::new(repr);
            st.sum = CounterVec::from_array(std::array::from_fn(|_| g.draw(0.0..1e9)));
            st.count = g.draw(1u64..50);
            return EventRecord::Compute(st);
        }
    };
    EventRecord::Comm(event)
}

/// An arbitrary merged trace: a table that may contain duplicate entries
/// and per-rank grammars (batch Sequitur over id sequences of uneven
/// lengths, including empty ones), where ranks drawing the same sequence
/// share a stored grammar.
fn arb_trace(g: &mut Gen) -> StreamedGlobal {
    let table = g.vec(1..12, arb_event);
    let nranks = g.draw(1usize..6);
    let raw_bytes = g.draw(0usize..10_000_000);
    let merge_rounds = g.draw(0u32..8);
    let n = table.len() as u32;
    let seqs = g.vec(1..4, |g| g.vec(0..200, |g| g.draw(0..n)));
    let grammars =
        (0..nranks).map(|_| Arc::new(Sequitur::build(&seqs[g.draw(0..seqs.len())]))).collect();
    StreamedGlobal { nranks, table, grammars, raw_bytes, merge_rounds }
}

/// Arbitrary traces survive the store exactly: header fields, the full
/// terminal table (comm payloads, duplicate entries, exact compute-cluster
/// f64 state), and every rank's grammar.
#[test]
fn store_round_trips() {
    check("store_round_trips", 256, |g| {
        let t = arb_trace(g);
        let back = store_from_bytes(&store_to_bytes(&t)).expect("decode");
        assert_eq!(back, t);
    });
}

/// Any strict prefix of a valid store is rejected with an error — never
/// accepted, never a panic.
#[test]
fn store_rejects_any_truncation() {
    check("store_rejects_any_truncation", 256, |g| {
        let (t, frac) = (arb_trace(g), g.draw(0.0..1.0));
        let bytes = store_to_bytes(&t);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        assert!(store_from_bytes(&bytes[..cut]).is_err());
    });
}

/// A single-bit flip anywhere in the file is rejected: the magic and
/// version are checked first and the checksum covers the rest.
#[test]
fn store_rejects_any_bit_flip() {
    check("store_rejects_any_bit_flip", 256, |g| {
        let (t, pos_raw, bit) = (arb_trace(g), g.u64() as usize, g.draw(0u32..8));
        let mut bytes = store_to_bytes(&t);
        let pos = pos_raw % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        assert!(store_from_bytes(&bytes).is_err());
    });
}
