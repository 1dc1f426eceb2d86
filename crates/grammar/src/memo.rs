//! Cross-rank grammar memoization.
//!
//! SPMD traces are near-identical across ranks — the exact redundancy the
//! inter-process merge (paper Section 2.6) exploits *after* every rank has
//! already paid full Sequitur construction cost. This module moves the
//! dedup in front of that cost: ranks whose global-id sequences are
//! byte-for-byte equal share one grammar build, so construction scales
//! with the number of *unique* sequences instead of the rank count.
//!
//! The mechanism mirrors `ProxySearcher::search_batch`'s counter-vector
//! dedup, and keeps the same determinism contract (DESIGN.md §10):
//!
//! * Unique sequences are discovered in **first-seen rank order** — the
//!   dedup index is a map, but the solve list is built by insertion
//!   order, so neither hashing nor thread scheduling can reorder it.
//! * Duplicates receive a **clone** of the first-seen build. `Sequitur`
//!   is a pure function of its input sequence, so the clone is
//!   bit-identical to rebuilding — memoization on vs. off cannot change
//!   a single output bit (this module's tests compare against the plain
//!   per-rank build).
//!
//! Hit rates are observable as `grammar.memo.hits` (ranks served by a
//! clone) against `grammar.memo.unique` (grammars actually built).

use siesta_hash::fx_map_with_capacity;

use crate::grammar::Grammar;
use crate::sequitur::Sequitur;

/// Small-work guard: fan out only when the sequences to build carry
/// enough symbols to amortize the pool region hand-off. Shared by the
/// pipeline's Sequitur phase via this module.
pub const MIN_SYMBOLS_TO_FAN_OUT: usize = 8192;

/// Build one grammar per rank sequence. With `memoize`, duplicate
/// sequences are content-deduped first and each unique sequence is built
/// once (fanning out across the worker pool), then aliased back to every
/// rank that shares it; without, every rank builds independently. Both
/// paths return bit-identical grammars in rank order.
pub fn build_rank_grammars(seqs: &[Vec<u32>], memoize: bool) -> Vec<Grammar> {
    if !memoize {
        let symbols: usize = seqs.iter().map(Vec::len).sum();
        return siesta_par::parallel_map_min_work(
            seqs,
            symbols,
            MIN_SYMBOLS_TO_FAN_OUT,
            |rank, seq| {
                let _span = siesta_obs::span!("sequitur", rank = rank, symbols = seq.len());
                Sequitur::build(seq)
            },
        );
    }
    // Content-hash dedup (deterministic FxHash over the whole sequence;
    // equality on collision, so a hash collision costs time, never
    // correctness), first-seen order.
    let mut index = fx_map_with_capacity::<&[u32], usize>(seqs.len());
    let mut unique: Vec<&[u32]> = Vec::new();
    let assign: Vec<usize> = seqs
        .iter()
        .map(|s| {
            *index.entry(s.as_slice()).or_insert_with(|| {
                unique.push(s.as_slice());
                unique.len() - 1
            })
        })
        .collect();
    siesta_obs::counter("grammar.memo.unique").add(unique.len() as u64);
    siesta_obs::counter("grammar.memo.hits").add((seqs.len() - unique.len()) as u64);
    let symbols: usize = unique.iter().map(|s| s.len()).sum();
    let built = siesta_par::parallel_map_min_work(
        &unique,
        symbols,
        MIN_SYMBOLS_TO_FAN_OUT,
        |u, seq| {
            let _span = siesta_obs::span!("sequitur", unique = u, symbols = seq.len());
            Sequitur::build(seq)
        },
    );
    if built.len() == seqs.len() {
        // No duplicates: first-seen order is input order, so the built
        // vector already is the answer — skip the per-rank clones.
        return built;
    }
    assign.into_iter().map(|u| built[u].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(tail: u32) -> Vec<u32> {
        let mut s: Vec<u32> = std::iter::repeat_n([1u32, 2, 3, 2, 4], 40).flatten().collect();
        s.push(tail);
        s
    }

    #[test]
    fn memoized_equals_unmemoized() {
        // 16 ranks, 3 unique sequences tiled SPMD-style.
        let seqs: Vec<Vec<u32>> = (0..16).map(|r| seq(100 + r % 3)).collect();
        let memo = build_rank_grammars(&seqs, true);
        let plain = build_rank_grammars(&seqs, false);
        assert_eq!(memo, plain);
        assert_eq!(memo.len(), 16);
        // Duplicate ranks share identical grammars.
        assert_eq!(memo[0], memo[3]);
        assert_ne!(memo[0], memo[1]);
    }

    #[test]
    fn all_unique_and_all_duplicate_extremes() {
        let all_dup: Vec<Vec<u32>> = vec![seq(7); 8];
        let g = build_rank_grammars(&all_dup, true);
        assert!(g.windows(2).all(|w| w[0] == w[1]));

        let all_unique: Vec<Vec<u32>> = (0..8).map(seq).collect();
        let g = build_rank_grammars(&all_unique, true);
        assert_eq!(g, build_rank_grammars(&all_unique, false));
    }

    #[test]
    fn empty_inputs() {
        assert!(build_rank_grammars(&[], true).is_empty());
        // Ranks with empty sequences are legal (and all identical).
        let g = build_rank_grammars(&[vec![], vec![]], true);
        assert_eq!(g[0], g[1]);
    }

    #[test]
    fn first_seen_order_governs_at_any_width() {
        let seqs: Vec<Vec<u32>> = (0..32).map(|r| seq(r % 5)).collect();
        let baseline = siesta_par::with_threads(1, || build_rank_grammars(&seqs, true));
        for w in [2, 8] {
            let got = siesta_par::with_threads(w, || build_rank_grammars(&seqs, true));
            assert_eq!(got, baseline, "width {w}");
        }
    }
}
